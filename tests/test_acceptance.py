"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 3, 6 and 9 assert commonly quoted expectations that the
exact models provably violate; they are kept as stated and left red rather
than weakened, and each FAIL line carries the closed-form reason.
"""

import time

import numpy as np
import pytest

from medent.control import ControlProblem, optimize
from medent.dicke import DickeConfig, build_dicke
from medent.entanglement import (
    concurrence,
    ground_level_concurrence,
    ground_state_ac_concurrence,
)
from medent.linalg import DensityMatrix, eigh, purity, reduced_density
from medent.perturbation import ising_pt_ground_state
from medent.sweeps import ising_sweep, linspace_grid
from medent.theorem import theorem_fuzz
from medent.tripartite import (
    IsingParams,
    PauliCoefficients,
    analytic_ising_spectrum,
    build_ising,
    build_pauli_hamiltonian,
)

CONCURRENCE_FLOOR = 0.01
KAPPA_GRID = linspace_grid(0.0, 1.2, 25)
LAM_TILDE_GRID = linspace_grid(0.0, 4.0, 17)


def report(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status} - {detail}")
    return ok


def general_field_hamiltonian(h_b):
    c = PauliCoefficients.zero()
    ab = np.array(c.h_ab)
    bc = np.array(c.h_bc)
    ab[3, 3] = 1.0
    bc[3, 3] = 1.0
    return build_pauli_hamiltonian(PauliCoefficients(ab, bc, np.asarray(h_b, float)))


def ising_ground_summary(delta, lam):
    """(concurrence, degenerate, purity_ac) for one chain parameter point."""
    dec = eigh(build_ising(IsingParams(delta=delta, lam=lam)))
    conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), (2, 2, 2), (0, 2))
    group = dec.ground_group
    if len(group) == 1:
        pur = purity(reduced_density(dec.eigenvectors[:, 0], (2, 2, 2), (0, 2)))
    else:
        mixed = np.zeros((4, 4), dtype=complex)
        for k in group:
            mixed += reduced_density(dec.eigenvectors[:, k], (2, 2, 2), (0, 2)).matrix
        pur = purity(DensityMatrix(mixed / len(group)))
    return conc.value, conc.degenerate_ground, pur


def dicke_ground_summary(variant, kappa, n_max, lam_tilde=1.0):
    cfg = DickeConfig(variant=variant, kappa=kappa, lam_tilde=lam_tilde, n_max=n_max)
    dec = eigh(build_dicke(cfg))
    conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), cfg.dims, (0, 1))
    group = dec.ground_group
    if len(group) == 1:
        pur = purity(reduced_density(dec.eigenvectors[:, 0], cfg.dims, (0, 1)))
    else:
        mixed = np.zeros((4, 4), dtype=complex)
        for k in group:
            mixed += reduced_density(dec.eigenvectors[:, k], cfg.dims, (0, 1)).matrix
        pur = purity(DensityMatrix(mixed / len(group)))
    return conc.value, conc.degenerate_ground, pur


def drop_point_index(values, floor=CONCURRENCE_FLOOR):
    """First grid index from which the curve stays below the floor for good,
    having been at or above it earlier; None if the curve never settles."""
    n = len(values)
    for i in range(n):
        if all(v < floor for v in values[i:]) and any(v >= floor for v in values[:i]):
            return i
    return None


@pytest.fixture(scope="module")
def dicke_curves():
    """Concurrence curves for all three variants at n_max 40 and 80."""
    start = time.perf_counter()
    curves = {}
    for variant in ("h1", "h2", "h3"):
        rows = []
        for kappa in KAPPA_GRID:
            c40, deg40, pur40 = dicke_ground_summary(variant, kappa, 40)
            c80, _, _ = dicke_ground_summary(variant, kappa, 80)
            rows.append(
                {"kappa": float(kappa), "c40": c40, "c80": c80, "deg": deg40, "pur": pur40}
            )
        curves[variant] = rows
    curves["elapsed"] = time.perf_counter() - start
    return curves


@pytest.fixture(scope="module")
def lam_tilde_curve(dicke_curves):
    """Criterion-7 slice: H3 concurrence against lam_tilde at a fixed kappa
    chosen as the start of H2's sub-floor tail."""
    h2_values = [row["c40"] for row in dicke_curves["h2"]]
    idx = drop_point_index(h2_values)
    if idx is None:
        idx = len(KAPPA_GRID) - 1
    kappa = float(KAPPA_GRID[idx])
    rows = []
    for lam_tilde in LAM_TILDE_GRID:
        c40, deg, pur = dicke_ground_summary("h3", kappa, 40, lam_tilde=float(lam_tilde))
        c80, _, _ = dicke_ground_summary("h3", kappa, 80, lam_tilde=float(lam_tilde))
        rows.append(
            {"lam_tilde": float(lam_tilde), "c40": c40, "c80": c80, "deg": deg, "pur": pur}
        )
    return {"kappa": kappa, "rows": rows}


@pytest.fixture(scope="module")
def ising_landscape():
    return ising_sweep(linspace_grid(0.01, 2.0, 25), linspace_grid(0.0, 3.0, 31))


def test_criterion_01_analytic_spectrum_agreement():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        h_b = 3.0 * rng.standard_normal(3)
        analytic = analytic_ising_spectrum(h_b).sorted_eigenvalues()
        numeric = eigh(general_field_hamiltonian(h_b)).eigenvalues
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert report(
        1, ok, f"closed form vs dense solver: max |dE| = {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_factorized_spectrum_at_zero_outer_field():
    worst_purity_defect = 0.0
    worst_concurrence = 0.0
    ground_degenerate = True
    for lam in (0.0, 0.5, 1.0, 2.0):
        h_b = np.array([lam / 2, 0.0, 0.0])
        spec = analytic_ising_spectrum(h_b)
        h = build_ising(IsingParams(delta=0.0, lam=lam))
        for i in range(8):
            vec = spec.eigenvectors[:, i]
            assert np.linalg.norm(h.matrix @ vec - spec.eigenvalues[i] * vec) <= 1e-10
            for keep in ((0,), (1,), (2,)):
                worst_purity_defect = max(
                    worst_purity_defect,
                    1.0 - purity(reduced_density(vec, (2, 2, 2), keep)),
                )
            worst_concurrence = max(
                worst_concurrence,
                concurrence(reduced_density(vec, (2, 2, 2), (0, 2))).value,
            )
        ground_degenerate &= len(eigh(h).ground_group) > 1
    ok = worst_purity_defect <= 1e-10 and worst_concurrence <= 1e-10 and ground_degenerate
    assert report(
        2,
        ok,
        "factorized eigenbasis: purity defect "
        f"{worst_purity_defect:.1e}, max pair concurrence {worst_concurrence:.1e}, "
        f"ground degenerate: {ground_degenerate}",
    )


def test_criterion_03_landscape_shape(ising_landscape):
    start = time.perf_counter()
    rows = {(r["delta"], r["lambda"]): r for r in ising_landscape.rows}
    assert len(ising_landscape.rows) == 775

    corner = rows[(0.01, 1.0)]["concurrence"]
    clause_a = corner >= 0.9

    clause_b = True
    for lam in (0.5, 1.0, 2.0):
        values = [ising_ground_summary(d, lam)[0] for d in (0.01, 0.1, 1.0, 5.0)]
        clause_b &= all(a > b for a, b in zip(values, values[1:]))

    far = ising_ground_summary(10.0, 1.0)[0]
    clause_c = far < 0.05
    elapsed = time.perf_counter() - start

    ok = clause_a and clause_b and clause_c and elapsed < 5.0
    assert report(
        3,
        ok,
        f"(a) C(0.01,1)={corner:.4f} >= 0.9: {clause_a} "
        f"[exact limit is 1/sqrt(17) = 0.2425, so this clause cannot hold]; "
        f"(b) strict decrease in delta: {clause_b}; "
        f"(c) C(10,1)={far:.4f} < 0.05: {clause_c}; {elapsed:.2f}s",
    )


def test_criterion_04_gap_closure():
    gaps = {}
    for delta in (0.2, 0.1, 0.05, 0.04, 0.02, 0.01):
        dec = eigh(build_ising(IsingParams(delta=delta, lam=1.0)))
        gaps[delta] = dec.eigenvalues[1] - dec.eigenvalues[0]
    decreasing = gaps[0.2] > gaps[0.1] > gaps[0.05] > gaps[0.01]
    r1 = gaps[0.02] / gaps[0.01]
    r2 = gaps[0.04] / gaps[0.02]
    ratios_ok = 3.6 <= r1 <= 4.4 and 3.6 <= r2 <= 4.4
    ok = decreasing and ratios_ok
    assert report(
        4,
        ok,
        f"gap decreasing: {decreasing}; gap(2d)/gap(d) = {r1:.3f}, {r2:.3f} in [3.6, 4.4]",
    )


def test_criterion_05_perturbation_theory():
    overlaps_ok = True
    worst_margin = np.inf
    for delta in (0.01, 0.05, 0.1):
        for lam in (0.5, 1.0, 2.0):
            state = ising_pt_ground_state(lam, delta)
            exact = eigh(build_ising(IsingParams(delta=delta, lam=lam)))
            overlap = abs(np.vdot(state.state_vector(), exact.eigenvectors[:, 0])) ** 2
            bound = 1.0 - 5.0 * delta**2
            worst_margin = min(worst_margin, overlap - bound)
            overlaps_ok &= overlap >= bound

    conc_ok = True
    worst_conc = 0.0
    for lam in (0.5, 1.0, 2.0):
        state = ising_pt_ground_state(lam, 0.05)
        c_pt = concurrence(reduced_density(state.state_vector(), (2, 2, 2), (0, 2))).value
        c_exact = ising_ground_summary(0.05, lam)[0]
        worst_conc = max(worst_conc, abs(c_pt - c_exact))
        conc_ok &= abs(c_pt - c_exact) <= 0.05

    ok = overlaps_ok and conc_ok
    assert report(
        5,
        ok,
        f"overlap margin above 1-5d^2: {worst_margin:.2e}; "
        f"max |C_pt - C_exact| at d=0.05: {worst_conc:.2e}",
    )


def test_criterion_06_cavity_variant_ordering(dicke_curves):
    averages = {
        v: float(np.mean([row["c40"] for row in dicke_curves[v]]))
        for v in ("h1", "h2", "h3")
    }
    h3_gt_h1 = averages["h3"] > averages["h1"]
    h3_gt_h2 = averages["h3"] > averages["h2"]

    h1_values = [row["c40"] for row in dicke_curves["h1"]]
    h2_values = [row["c40"] for row in dicke_curves["h2"]]
    h3_values = [row["c40"] for row in dicke_curves["h3"]]
    drop_h1 = drop_point_index(h1_values)
    drop_h2 = drop_point_index(h2_values)
    drops_exist = drop_h1 is not None and drop_h2 is not None
    if drops_exist:
        beyond = max(drop_h1, drop_h2)
        h3_beyond = any(v > CONCURRENCE_FLOOR for v in h3_values[beyond:])
    else:
        h3_beyond = False
    elapsed = dicke_curves["elapsed"]

    ok = h3_gt_h1 and h3_gt_h2 and drops_exist and h3_beyond and elapsed < 60.0
    assert report(
        6,
        ok,
        f"averages h1={averages['h1']:.4f} h2={averages['h2']:.4f} h3={averages['h3']:.4f}; "
        f"h3>h1: {h3_gt_h1} [co-rotating model has an exact 0.5 plateau and a 0.0286 tail, "
        f"so this clause cannot hold]; h3>h2: {h3_gt_h2}; "
        f"drop points (h1, h2): ({drop_h1}, {drop_h2}) "
        f"[h1 never settles below 0.01 in-grid]; h3 beyond drops: {h3_beyond}; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_07_quadratic_term_control(lam_tilde_curve):
    kappa = lam_tilde_curve["kappa"]
    rows = lam_tilde_curve["rows"]
    h2_there = dicke_ground_summary("h2", kappa, 40)[0]
    base_low = h2_there < CONCURRENCE_FLOOR
    revived = any(row["c40"] > CONCURRENCE_FLOOR for row in rows)
    ok = base_low and revived
    best = max(rows, key=lambda r: r["c40"])
    assert report(
        7,
        ok,
        f"at kappa={kappa:.2f}: H2 concurrence {h2_there:.2e} < 0.01: {base_low}; "
        f"lam_tilde sweep revives it to {best['c40']:.3f} at lam_tilde={best['lam_tilde']:.2f}: "
        f"{revived}",
    )


def test_criterion_08_fock_convergence(dicke_curves, lam_tilde_curve):
    worst = 0.0
    for variant in ("h1", "h2", "h3"):
        for row in dicke_curves[variant]:
            worst = max(worst, abs(row["c80"] - row["c40"]))
    for row in lam_tilde_curve["rows"]:
        worst = max(worst, abs(row["c80"] - row["c40"]))
    ok = worst < 1e-6
    assert report(8, ok, f"max |C(n_max=80) - C(n_max=40)| = {worst:.2e} < 1e-6")


def test_criterion_09_theorem_fuzz():
    r2 = theorem_fuzz(200, 2, 42)
    r3 = theorem_fuzz(200, 3, 7)
    n_ce = len(r2.counterexamples) + len(r3.counterexamples)
    family_ok = all(f.passed for f in r2.family_checks + r3.family_checks)
    n_family = len(r2.family_checks) + len(r3.family_checks)
    ok = n_ce == 0 and family_ok
    assert report(
        9,
        ok,
        f"counterexamples: {n_ce} (expected 0) "
        f"[every exchange-symmetric mediated Hamiltonian carries singlet-sector dark "
        f"states: non-degenerate eigenstates with pure middle reduction and outer "
        f"Schmidt rank 2, so the stated theorem predicate cannot be counterexample-free]; "
        f"family energy-equality checks: {n_family} triggered, all passed: {family_ok}",
    )


def test_criterion_10_corollary_suite(ising_landscape, dicke_curves, lam_tilde_curve):
    checked = 0
    mixed_ok = True
    maximal_ok = True

    for row in ising_landscape.rows:
        value, degenerate, pur = ising_ground_summary(row["delta"], row["lambda"])
        if not degenerate and value > CONCURRENCE_FLOOR:
            checked += 1
            mixed_ok &= pur < 1.0 - 1e-6
        if not degenerate:
            maximal_ok &= value <= 1.0 - 1e-6

    for lam in (0.5, 1.0, 2.0):
        for delta in (0.01, 0.02, 0.04, 0.05, 0.1, 0.2):
            value, degenerate, pur = ising_ground_summary(delta, lam)
            if not degenerate and value > CONCURRENCE_FLOOR:
                checked += 1
                mixed_ok &= pur < 1.0 - 1e-6
            if not degenerate:
                maximal_ok &= value <= 1.0 - 1e-6

    for variant in ("h1", "h2", "h3"):
        for row in dicke_curves[variant]:
            if not row["deg"] and row["c40"] > CONCURRENCE_FLOOR:
                checked += 1
                mixed_ok &= row["pur"] < 1.0 - 1e-6
            if not row["deg"]:
                maximal_ok &= row["c40"] <= 1.0 - 1e-6
    for row in lam_tilde_curve["rows"]:
        if not row["deg"] and row["c40"] > CONCURRENCE_FLOOR:
            checked += 1
            mixed_ok &= row["pur"] < 1.0 - 1e-6
        if not row["deg"]:
            maximal_ok &= row["c40"] <= 1.0 - 1e-6

    ok = mixed_ok and maximal_ok and checked > 0
    assert report(
        10,
        ok,
        f"{checked} entangled non-degenerate ground states, all mixed: {mixed_ok}; "
        f"no non-degenerate ground reports near-maximal concurrence: {maximal_ok}",
    )


def test_criterion_11_concurrence_oracle():
    rng = np.random.default_rng(7)
    worst_pure = 0.0
    for _ in range(1000):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        a, b, c, d = v
        expected = 2 * abs(a * d - b * c)
        got = concurrence(DensityMatrix(np.outer(v, v.conj()))).value
        worst_pure = max(worst_pure, abs(got - expected))

    def random_unitary(gen):
        m = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    worst_lu = 0.0
    for _ in range(100):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        base = concurrence(DensityMatrix(rho)).value
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = concurrence(DensityMatrix(u @ rho @ u.conj().T)).value
        worst_lu = max(worst_lu, abs(base - rotated))

    ok = worst_pure <= 1e-10 and worst_lu <= 1e-9
    assert report(
        11,
        ok,
        f"pure-state oracle max error {worst_pure:.2e} <= 1e-10; "
        f"local-unitary invariance max drift {worst_lu:.2e} <= 1e-9",
    )


def test_criterion_12_optimizer_fidelity():
    def point(lam):
        return ground_state_ac_concurrence(
            build_ising(IsingParams(delta=0.1, lam=float(lam))), (2, 2, 2)
        )

    def evaluate(x):
        return [point(row[0]) for row in x]

    problem = ControlProblem(evaluate=evaluate, bounds=((0.0, 3.0),))

    grid_best = max(point(lam).value for lam in np.linspace(0.0, 3.0, 3001))
    result = optimize(problem, budget=300)
    again = optimize(problem, budget=300)
    deterministic = result.trace == again.trace
    ok = (
        abs(result.best_value - grid_best) <= 1e-3
        and result.evaluations <= 300
        and deterministic
    )
    assert report(
        12,
        ok,
        f"grid max {grid_best:.6f} vs optimizer {result.best_value:.6f} "
        f"(|diff| = {abs(result.best_value - grid_best):.2e} <= 1e-3) in "
        f"{result.evaluations} evaluations; deterministic: {deterministic}",
    )
