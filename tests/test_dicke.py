import dataclasses
import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medent.dicke import (
    COLLECTIVE_TO_PRODUCT,
    J_PLUS,
    J_Z,
    DickeConfig,
    DickeGroundPoint,
    FockConvergenceError,
    _dicke_coefficients,
    _dicke_terms,
    _parity_block_hamiltonian,
    _parity_blocks,
    _scattered_dicke,
    _sector_blocks,
    _sector_point,
    bosonic_operators,
    build_dicke,
    dicke_ground_concurrence,
    dicke_ground_point,
    dicke_mediator_form,
    dicke_sweep,
    mediator_concurrence,
)
import medent.dicke as dicke_module
from medent import cli, linalg
from medent.entanglement import ground_level_concurrence, ground_state_ac_concurrence
from medent.linalg import (
    DimensionError,
    HermitianOperator,
    NumericalError,
    _degeneracy_tol,
    eigh,
    eigh_stack,
    kron,
    permute_subsystems,
    swap_operator,
)
from medent.sweeps import parse_grid_spec
from medent.theorem import is_exchange_symmetric

# exact closed forms for the co-rotating model at resonance: the ground level
# hops between excitation sectors, whose energies and atom states are
# analytic (sector n: energy n - 1 - kappa sqrt(2(2n - 1)) relative to
# omega = 1, crossings at 1/sqrt(2) and 1/(sqrt(6) - sqrt(2)))
H1_FIRST_CROSSING = 1 / np.sqrt(2)
H1_SECOND_CROSSING = 1 / (np.sqrt(6) - np.sqrt(2))
H1_PLATEAU_CONCURRENCE = 0.5
H1_TAIL_CONCURRENCE = 2 * (0.25 - np.sqrt(1 / 18))


def test_bosonic_operator_entries():
    ops = bosonic_operators(5)
    for n in range(1, 6):
        col = np.zeros(6)
        col[n] = 1.0
        out = ops.a @ col
        expected = np.zeros(6)
        expected[n - 1] = np.sqrt(n)
        assert np.allclose(out, expected)
    vac = np.zeros(6)
    vac[0] = 1.0
    assert np.linalg.norm(ops.a @ vac) == 0.0


def test_commutator_defect_confined_to_top_level():
    ops = bosonic_operators(7)
    comm = ops.a @ ops.a_dagger - ops.a_dagger @ ops.a
    defect = comm - np.eye(8)
    # only the highest Fock level deviates
    assert np.abs(defect[:-1, :-1]).max() < 1e-14
    assert defect[-1, -1] == pytest.approx(-8.0)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        DickeConfig(variant="h9", kappa=0.1)
    with pytest.raises(ValueError):
        DickeConfig(variant="h1", kappa=-0.1)
    with pytest.raises(ValueError):
        DickeConfig(variant="h1", kappa=0.1, omega_a=0.0)
    with pytest.raises(ValueError):
        DickeConfig(variant="h1", kappa=0.1, n_max=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["omega_a", "omega_f", "kappa", "lam", "lam_tilde"])
def test_non_finite_parameters_are_rejected(field, value):
    if field.startswith("omega"):
        message = "frequencies must be positive and finite"
    else:
        message = "kappa, lam and lam_tilde must be non-negative and finite"
    with pytest.raises(ValueError, match=message):
        DickeConfig(**{"variant": "h3", "kappa": 0.5, field: value})


@pytest.mark.parametrize(
    "fields, value",
    [
        # kappa**2 alone overflows (Python raises OverflowError there)
        ({"kappa": 1e200}, "inf"),
        ({"kappa": 1e150, "omega_a": 1e-100}, "inf"),
        ({"kappa": 0.5, "lam": 1e200, "lam_tilde": 1e200}, "inf"),
        ({"kappa": 1e200, "lam_tilde": 0.0}, "nan"),
    ],
)
def test_a_non_finite_h3_quadratic_coefficient_is_rejected(fields, value):
    message = f"the h3 quadratic coefficient lam_tilde \\* lam = {value} is not finite"
    with pytest.raises(ValueError, match=message):
        DickeConfig(variant="h3", **fields)
    # h1 and h2 have no quadratic term
    DickeConfig(variant="h2", **fields)


def test_h3_lambda_defaults_to_kappa_squared():
    cfg = DickeConfig(variant="h3", kappa=0.5)
    assert cfg.resolved_lam == pytest.approx(0.25)
    assert DickeConfig(variant="h3", kappa=0.5, lam=0.1).resolved_lam == 0.1


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
def test_decoupled_ground_state(variant):
    cfg = DickeConfig(variant=variant, kappa=0.0, lam=0.0, n_max=10)
    h = build_dicke(cfg)
    off_diag = h.matrix - np.diag(np.diag(h.matrix))
    assert np.abs(off_diag).max() == 0.0
    dec = eigh(h)
    assert dec.ground_energy == pytest.approx(-1.0)
    # ground state |g,g> x |0>: flat index (1,1,0) -> 3 * (n_max + 1)
    ground = dec.eigenvectors[:, 0]
    assert abs(ground[3 * 11]) == pytest.approx(1.0)


def excitation_number(n_max: int) -> np.ndarray:
    """sum_j sigma_j^3 / 2 + a^dag a, diagonal, read off the integer basis labels
    (s = 0 is the excited atom)."""
    s1, s2, n = np.unravel_index(np.arange(4 * (n_max + 1)), (2, 2, n_max + 1))
    return np.diag((1 - s1 - s2 + n).astype(float))


def parity_operator(n_max: int) -> np.ndarray:
    """exp(i pi (N + 1)) as the diagonal of signs (-1)^(s1 + s2 + n)."""
    s1, s2, n = np.unravel_index(np.arange(4 * (n_max + 1)), (2, 2, n_max + 1))
    return np.diag((-1.0) ** (s1 + s2 + n))


def test_h1_conserves_excitation_number():
    n_op = excitation_number(12)
    h = build_dicke(DickeConfig(variant="h1", kappa=0.7, n_max=12)).matrix
    assert np.abs(h @ n_op - n_op @ h).max() <= 1e-12


@pytest.mark.parametrize("variant", ["h2", "h3"])
def test_counter_rotating_variants_break_conservation(variant):
    n_op = excitation_number(12)
    h = build_dicke(DickeConfig(variant=variant, kappa=0.7, n_max=12)).matrix
    assert np.abs(h @ n_op - n_op @ h).max() > 0.1


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
def test_parity_symmetry(variant):
    p = parity_operator(12)
    h = build_dicke(DickeConfig(variant=variant, kappa=0.7, n_max=12)).matrix
    assert np.abs(h @ p - p @ h).max() <= 1e-10


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
def test_atom_exchange_symmetry(variant):
    cfg = DickeConfig(variant=variant, kappa=0.9, n_max=8)
    h = build_dicke(cfg).matrix
    s = swap_operator(cfg.dims, 0, 1)
    assert np.abs(s @ h @ s - h).max() <= 1e-12


def test_mediator_form_is_exchange_symmetric():
    cfg = DickeConfig(variant="h3", kappa=0.6, n_max=8)
    h, dims = dicke_mediator_form(cfg)
    assert dims == (2, 9, 2)
    assert is_exchange_symmetric(h, dims)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(h.matrix)),
        np.sort(np.linalg.eigvalsh(build_dicke(cfg).matrix)),
        atol=1e-10,
    )


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
@pytest.mark.parametrize("kappa", [0.4, 1.2])
def test_fock_energy_convergence(variant, kappa):
    e40 = eigh(build_dicke(DickeConfig(variant=variant, kappa=kappa, n_max=40))).ground_energy
    e80 = eigh(build_dicke(DickeConfig(variant=variant, kappa=kappa, n_max=80))).ground_energy
    assert abs(e80 - e40) < 1e-8


def test_h3_ground_energy_at_least_h2():
    for kappa in (0.3, 0.8, 1.2):
        e2 = eigh(build_dicke(DickeConfig(variant="h2", kappa=kappa, n_max=40))).ground_energy
        e3 = eigh(build_dicke(DickeConfig(variant="h3", kappa=kappa, n_max=40))).ground_energy
        assert e3 >= e2 - 1e-12


def test_zero_coupling_concurrence():
    assert dicke_ground_concurrence(DickeConfig(variant="h1", kappa=0.0, n_max=10)).value == 0.0


def test_h1_exact_sector_structure():
    # below the first crossing the decoupled state is the exact ground
    assert dicke_ground_concurrence(DickeConfig(variant="h1", kappa=0.3)).value == pytest.approx(
        0.0, abs=1e-9
    )
    # between crossings: one-excitation ground, concurrence exactly 1/2
    point = dicke_ground_point(DickeConfig(variant="h1", kappa=0.8))
    assert point.concurrence.value == pytest.approx(H1_PLATEAU_CONCURRENCE, abs=1e-9)
    assert point.ground_energy == pytest.approx(-np.sqrt(2) * 0.8, abs=1e-12)
    # beyond the second crossing: two-excitation ground
    point = dicke_ground_point(DickeConfig(variant="h1", kappa=1.1))
    assert point.concurrence.value == pytest.approx(H1_TAIL_CONCURRENCE, abs=1e-9)
    assert point.ground_energy == pytest.approx(1 - np.sqrt(6) * 1.1, abs=1e-12)


def test_h2_concurrence_rises_then_collapses():
    c_small = dicke_ground_concurrence(DickeConfig(variant="h2", kappa=0.3)).value
    c_peak = dicke_ground_concurrence(DickeConfig(variant="h2", kappa=0.5)).value
    c_large = dicke_ground_concurrence(DickeConfig(variant="h2", kappa=1.0)).value
    assert 0.0 < c_small < c_peak
    assert c_large < 0.01


def test_h3_concurrence_persists():
    c = dicke_ground_concurrence(DickeConfig(variant="h3", kappa=1.2)).value
    assert c > 0.1


def test_quadratic_term_restores_concurrence():
    # at kappa = 1 the counter-rotating model has essentially no pair
    # entanglement; scaling up the quadratic term brings it back
    base = dicke_ground_concurrence(
        DickeConfig(variant="h3", kappa=1.0, lam_tilde=0.0)
    ).value
    boosted = dicke_ground_concurrence(
        DickeConfig(variant="h3", kappa=1.0, lam_tilde=1.0)
    ).value
    assert base < 0.01
    assert boosted > 0.1


def test_ground_point_reports_convergence():
    point = dicke_ground_point(DickeConfig(variant="h2", kappa=0.9, n_max=40))
    assert point.converged is True
    assert point.nmax_used == 40
    assert point.convergence_delta < 1e-6


def test_unconverged_point_raises():
    # a absurdly small cutoff cannot converge at strong coupling
    cfg = DickeConfig(variant="h2", kappa=1.2, n_max=1)
    with pytest.raises(FockConvergenceError):
        dicke_ground_concurrence(cfg, n_max_limit=2)


def test_sweep_single_point_matches_direct_op():
    cfg = DickeConfig(variant="h3", kappa=0.0, n_max=20)
    sweep = dicke_sweep(cfg, [0.5], [1.0])
    assert len(sweep.rows) == 1
    row = sweep.rows[0]
    direct = dicke_ground_point(DickeConfig(variant="h3", kappa=0.5, n_max=20))
    assert row["concurrence"] == pytest.approx(direct.concurrence.value, abs=1e-14)
    assert row["ground_energy"] == pytest.approx(direct.ground_energy, abs=1e-14)
    assert row["status"] == "ok"
    assert row["nmax_used"] == 20


def test_sweep_order_and_schema():
    cfg = DickeConfig(variant="h1", kappa=0.0, n_max=8)
    sweep = dicke_sweep(cfg, [0.0, 0.5], [0.5, 1.0])
    assert sweep.schema[0] == "variant"
    assert [(r["kappa"], r["lam_tilde"]) for r in sweep.rows] == [
        (0.0, 0.5),
        (0.0, 1.0),
        (0.5, 0.5),
        (0.5, 1.0),
    ]


def test_sweep_rejects_bad_grids():
    cfg = DickeConfig(variant="h1", kappa=0.0, n_max=8)
    with pytest.raises(ValueError):
        dicke_sweep(cfg, [], [1.0])
    with pytest.raises(ValueError):
        dicke_sweep(cfg, [1.0, 0.5], [1.0])


def test_sweep_rejects_invalid_parameters_before_any_point():
    # a negative coupling is a configuration error of the sweep, not an error row
    cfg = DickeConfig(variant="h1", kappa=0.0, n_max=8)
    with pytest.raises(ValueError, match="non-negative"):
        dicke_sweep(cfg, [-0.5, 0.5], [1.0])


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_a_negative_or_nan_tolerance_is_rejected_before_any_point(tol, monkeypatch):
    def no_solve(cfg):
        raise AssertionError("solved a point")

    monkeypatch.setattr(dicke_module, "build_dicke", no_solve)
    cfg = DickeConfig(variant="h2", kappa=0.5, n_max=8)
    message = f"convergence_tol must be >= 0, got {tol}"
    with pytest.raises(ValueError, match=message):
        dicke_sweep(cfg, [0.5], [1.0], convergence_tol=tol)
    with pytest.raises(ValueError, match=message):
        dicke_ground_point(cfg, convergence_tol=tol)


def test_sweep_flags_unconverged_points():
    cfg = DickeConfig(variant="h2", kappa=0.0, n_max=1)
    sweep = dicke_sweep(cfg, [1.2], [1.0], n_max_limit=2)
    assert sweep.rows[0]["status"] == "fock_unconverged"


def test_a_complex_eigenvector_of_a_start_cutoff_solve_flags_only_its_row(monkeypatch):
    # the start-cutoff solve hands LAPACK an exactly real complex matrix; one
    # imaginary eigenvector entry there, far below the Gram and residual
    # tolerances, fails that point alone
    cfg = DickeConfig(variant="h2", kappa=0.0, n_max=12)
    target = build_dicke(dataclasses.replace(cfg, kappa=0.6)).matrix
    solve = np.linalg.eigh

    def leaky(m):
        w, v = solve(m)
        if m.shape[-1] == target.shape[0] and np.array_equal(m[0], target):
            v[0, 5, 3] += 1e-20j
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", leaky)
    with pytest.raises(NumericalError, match="imaginary part 1.000e-20$"):
        dicke_ground_point(dataclasses.replace(cfg, kappa=0.6))
    statuses = dicke_sweep(cfg, [0.3, 0.6, 0.9], [1.0]).column("status")
    assert statuses == [
        "ok", "error: eigenvector of an exactly real matrix has imaginary part 1.000e-20", "ok"
    ]


# ------------------------------------------- sector and parity-block assembly


@functools.lru_cache(maxsize=None)
def full_solve(cfg):
    """Ground energy, gap and atom-atom concurrence of ``cfg`` from the full
    complex solve that ``dicke_ground_point`` makes at its start cutoff,
    shared by the tests below."""
    dec = eigh(build_dicke(cfg))
    conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), cfg.dims, (0, 1))
    return dec.ground_energy, dec.gap(), conc


def full_path_ground_point(cfg, convergence_tol=1e-6, n_max_limit=160):
    """The cutoff doubling with a full complex solve at every cutoff."""
    energy, gap, conc = full_solve(cfg)
    n = cfg.n_max
    while True:
        doubled = cfg.with_n_max(2 * n)
        energy2, gap2, conc2 = full_solve(doubled)
        delta = abs(conc2.value - conc.value)
        if delta <= convergence_tol:
            return DickeGroundPoint(cfg.with_n_max(n), energy, gap, conc, n, True, float(delta))
        if 2 * n >= n_max_limit:
            return DickeGroundPoint(doubled, energy2, gap2, conc2, 2 * n, False, float(delta))
        n = 2 * n
        energy, gap, conc = energy2, gap2, conc2


def assert_same_report(point, reference):
    """Every reported value bit for bit; the delta may come from the blocks."""
    assert point.config == reference.config
    assert (point.nmax_used, point.converged) == (reference.nmax_used, reference.converged)
    assert point.ground_energy.hex() == reference.ground_energy.hex()
    assert point.gap.hex() == reference.gap.hex()
    assert point.concurrence.value.hex() == reference.concurrence.value.hex()
    assert point.concurrence.tilde_lambdas.tobytes() == reference.concurrence.tilde_lambdas.tobytes()
    assert point.concurrence.degenerate_ground == reference.concurrence.degenerate_ground


@functools.lru_cache(maxsize=1)
def kron_sum_terms(n_max):
    """Each of ``_dicke_terms`` as the sum of its pairs' Kronecker products."""
    return [
        functools.reduce(operator.add, (kron(atoms, field) for atoms, field in pairs))
        for pairs in _dicke_terms(n_max)
    ]


def kron_sum_dicke(cfg):
    """The Dicke Hamiltonian as the coefficient-weighted sum of its full-size
    terms, added in order: an assembly independent of the parity blocks that
    ``build_dicke`` scatters, and bit for bit the same."""
    terms = zip(_dicke_coefficients(cfg), kron_sum_terms(cfg.n_max))
    c, term = next(terms)
    h = c * term
    for c, term in terms:
        h += c * term
    return HermitianOperator(h)


def parity_block_concurrence(cfg):
    """Ground-level atom-atom concurrence of ``cfg`` from one real ``eigh_stack``
    of its two parity blocks: the cutoff confirmation that the exact sectors
    replaced, kept as their oracle.

    The merged spectrum is grouped as ``degeneracy_groups`` groups the full
    one, so a ground level may span both blocks (the h1 crossings); its
    members are embedded in the full basis for the reduction.
    """
    sectors, h = _parity_block_hamiltonian(cfg)
    dec = eigh_stack(h)
    w = dec.eigenvalues.ravel()
    order = np.argsort(w, kind="stable")
    ground = order[w[order] - w[order[0]] <= _degeneracy_tol(w[order])]
    block, column = np.divmod(ground, sectors.shape[1])
    vectors = np.zeros((cfg.dim, ground.size), dtype=np.complex128)
    vectors[sectors[block], np.arange(ground.size)[:, np.newaxis]] = dec.eigenvectors[block, :, column]
    return ground_level_concurrence(vectors, ground.size, cfg.dims, (0, 1))


def sector_concurrence(cfg):
    """The concurrence that ``_sector_point`` reads on the exact sectors."""
    return _sector_point(cfg)[2]


KRON_SUM_GRID = [
    DickeConfig(variant=v, kappa=float(k), lam_tilde=t, n_max=n)
    for v, k, t, n in itertools.product(
        ["h1", "h2", "h3"], [0.0, 0.3, 1 / np.sqrt(2), 1.1, 2.5], [0.5, 1.0], [1, 8, 40, 80]
    )
] + [
    DickeConfig(variant=v, kappa=float(k), omega_a=wa, omega_f=wf, n_max=n)
    for v, k, n, wa, wf in itertools.product(
        ["h1", "h2", "h3"], [H1_FIRST_CROSSING, H1_SECOND_CROSSING, 0.83], [40, 160], [1.0, 1.3], [1.0, 0.9]
    )
]


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
@pytest.mark.parametrize("n_max", [1, 8, 40, 80, 160])
def test_parity_blocks_reassemble_build_dicke(variant, n_max):
    configs = [c for c in KRON_SUM_GRID if (c.variant, c.n_max) == (variant, n_max)]
    configs.append(
        DickeConfig(variant=variant, kappa=0.83, lam_tilde=0.7, omega_a=1.3, omega_f=0.9, n_max=n_max)
    )
    for cfg in configs:
        sectors, blocks = _parity_block_hamiltonian(cfg)
        assert sectors.shape == (2, 2 * (n_max + 1))
        assert sorted(sectors.ravel().tolist()) == list(range(cfg.dim))
        assert blocks.dtype == np.float64
        # tobytes, so signed zeros count too
        reference = kron_sum_dicke(cfg).matrix
        assert build_dicke(cfg).matrix.tobytes() == reference.tobytes(), cfg
        mediator, dims = dicke_mediator_form(cfg)
        permuted = HermitianOperator(permute_subsystems(reference, cfg.dims, (0, 2, 1)))
        assert mediator.matrix.tobytes() == permuted.matrix.tobytes(), cfg
        assert dims == (2, n_max + 1, 2)


def sweep_row_status(cfg):
    (status,) = dicke_sweep(cfg, [cfg.kappa], [cfg.lam_tilde]).column("status")
    return status


@pytest.mark.parametrize(
    "path", [build_dicke, dicke_mediator_form, mediator_concurrence, sweep_row_status],
    ids=lambda path: path.__name__,
)
def test_every_dicke_path_keeps_the_kron_dimension_bound(path):
    # 4 (n_max + 1) = 4404 exceeds KRON_DIM_LIMIT: rejected before any block is built
    cfg = DickeConfig(variant="h1", kappa=0.5, n_max=1100)
    message = "the Dicke Hamiltonian would be 4404x4404, limit is 4096"
    _sector_blocks.cache_clear()
    if path is sweep_row_status:
        assert path(cfg) == f"error: {message}"
    else:
        with pytest.raises(DimensionError, match=message):
            path(cfg)
    assert _sector_blocks.cache_info().currsize == 0


def test_each_basis_order_is_checked_once(monkeypatch):
    # both orders, the start cutoff of a sweep point and the optimizer's
    # point are scattered straight from the parity blocks: one real check of
    # the (2, d, d) blocks each, and none of a full (1, dim, dim) matrix
    cfg = DickeConfig(variant="h2", kappa=0.6, n_max=8)
    checks = record_hermitian_checks(monkeypatch)
    sector_point = dicke_module._sector_point

    def unrecorded(c):
        # the doubled cutoffs' sector stacks are not the start cutoff's checks
        n = len(checks)
        point = sector_point(c)
        del checks[n:]
        return point

    monkeypatch.setattr(dicke_module, "_sector_point", unrecorded)
    routes = (build_dicke, dicke_mediator_form, dicke_ground_point, mediator_concurrence)
    for route in routes:
        checks.clear()
        route(cfg)
        got, expected = parity_block_checks(checks, [cfg])
        assert got == expected, route.__name__


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from(["h1", "h2", "h3"]),
    st.one_of(st.sampled_from([0.0, H1_FIRST_CROSSING, H1_SECOND_CROSSING]), st.floats(0.0, 3.0)),
    st.floats(0.0, 2.0),
    st.sampled_from([1, 12, 40]),
)
def test_the_skipped_check_of_the_scatter_is_the_identity(variant, kappa, lam_tilde, n_max):
    # the oracle: HermitianOperator's check of the scatter, which build_dicke
    # and dicke_mediator_form skip, returns their matrices bit for bit
    cfg = DickeConfig(variant, kappa, lam_tilde=lam_tilde, n_max=n_max)
    for got, order in ((build_dicke(cfg), (0, 1, 2)), (dicke_mediator_form(cfg)[0], (0, 2, 1))):
        expected = HermitianOperator(_scattered_dicke(cfg, order)).matrix
        assert got.matrix.dtype == expected.dtype
        assert got.matrix.tobytes() == expected.tobytes()
        assert not got.matrix.flags.writeable


def test_parity_blocks_are_keyed_by_integers():
    # every basis state (s1, s2, n) sits in the sector of (s1 + s2 + n) mod 2
    sectors, _ = _parity_blocks(3)
    for parity, sector in enumerate(sectors):
        for index in sector:
            s1, s2, n = np.unravel_index(index, (2, 2, 4))
            assert (s1 + s2 + n) % 2 == parity


H1_BLOCK_GRID = [
    0.3,
    H1_FIRST_CROSSING - 1e-6,
    H1_FIRST_CROSSING,
    0.70710678,
    H1_FIRST_CROSSING + 1e-6,
    0.9,
    H1_SECOND_CROSSING - 1e-6,
    H1_SECOND_CROSSING,
    H1_SECOND_CROSSING + 1e-6,
    1.1,
]


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
def test_block_check_matches_full_solve_across_h1_crossings(variant):
    for kappa in H1_BLOCK_GRID:
        cfg = DickeConfig(variant=variant, kappa=float(kappa))
        block = parity_block_concurrence(cfg.with_n_max(80))
        _, _, full = full_solve(cfg.with_n_max(80))
        assert abs(block.value - full.value) <= 1e-10, kappa
        assert block.degenerate_ground == full.degenerate_ground, kappa
        sector = sector_concurrence(cfg.with_n_max(80))
        assert abs(sector.value - full.value) <= 1e-10, kappa
        assert sector.degenerate_ground == full.degenerate_ground, kappa
        point = dicke_ground_point(cfg)
        assert_same_report(point, full_path_ground_point(cfg))
        assert point.convergence_delta == abs(sector.value - point.concurrence.value)


def test_block_check_reads_the_h1_product_ground_state_exactly():
    # just below the first crossing the ground state is |g, g> x |0>; the full
    # complex solve at n_max 80 reads a spurious ~1e-8 there, the blocks do not
    cfg = DickeConfig(variant="h1", kappa=0.7, n_max=80)
    block = parity_block_concurrence(cfg)
    assert block.value < 1e-15
    assert not block.degenerate_ground
    # a sector of one state, T- x |0> = |g, g> x |0>: exactly zero
    sector = sector_concurrence(cfg)
    assert sector.value == 0.0
    assert not sector.degenerate_ground


@pytest.mark.parametrize(
    "kappa, expected",
    [
        (H1_FIRST_CROSSING, 0.25),
        (0.70710678, 0.25),
        (H1_SECOND_CROSSING, 0.12732200375003414),
    ],
)
def test_h1_crossing_points_are_degenerate_on_both_paths(kappa, expected):
    # the ground group spans two excitation sectors: the equal mixture of both
    # members' reductions, flagged degenerate
    point = dicke_ground_point(DickeConfig(variant="h1", kappa=kappa))
    assert point.concurrence.value == pytest.approx(expected, abs=1e-9)
    assert point.concurrence.degenerate_ground
    assert (point.nmax_used, point.converged) == (40, True)
    for n_max in (40, 80):
        cfg = DickeConfig(variant="h1", kappa=kappa, n_max=n_max)
        for confirmation in (parity_block_concurrence, sector_concurrence):
            block = confirmation(cfg)
            assert block.value == pytest.approx(expected, abs=1e-9)
            assert block.degenerate_ground


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from(["h1", "h2", "h3"]),
    # both h1 crossings (1/sqrt(2) and 1/(sqrt(6) - sqrt(2)) at resonance) and beyond
    st.floats(0.0, 1.2),
    st.floats(0.0, 1.5),
    # near resonance
    st.floats(0.9, 1.1),
    st.floats(0.9, 1.1),
    st.integers(0, 40),
    st.sampled_from([0, 1]),
)
def test_sector_confirmation_matches_the_parity_blocks(
    variant, kappa, lam_tilde, omega_a, omega_f, half, odd
):
    cfg = DickeConfig(
        variant=variant, kappa=kappa, lam_tilde=lam_tilde, omega_a=omega_a, omega_f=omega_f,
        n_max=max(1, 2 * half + odd),
    )
    sector, block = sector_concurrence(cfg), parity_block_concurrence(cfg)
    assert abs(sector.value - block.value) <= 1e-12
    assert sector.degenerate_ground == block.degenerate_ground


def collective_labels(n_max):
    """(J, N) of every collective basis state (atoms {T-, T0, T+, S}, field fastest)."""
    atom, n = np.divmod(np.arange(4 * (n_max + 1)), n_max + 1)
    return np.array([1, 1, 1, 0])[atom], np.array([0, 1, 2, 1])[atom] + n


@pytest.mark.parametrize("variant, exact_n", [("h1", True), ("h2", False), ("h3", False)])
@pytest.mark.parametrize("n_max", [1, 6, 7])
def test_sectors_are_keyed_by_integer_spin_and_excitation_number(variant, exact_n, n_max):
    spin, excitations = collective_labels(n_max)
    key = excitations if exact_n else excitations % 2
    n_terms = len(_dicke_coefficients(DickeConfig(variant=variant, kappa=0.5)))
    groups = _sector_blocks(n_max, "collective", n_terms)
    sectors = [sector for group, _ in groups for sector in group]
    assert sorted(np.concatenate(sectors).tolist()) == list(range(4 * (n_max + 1)))
    keys = []
    for sector in sectors:
        assert len(set(spin[sector])) == 1 and len(set(key[sector])) == 1
        keys.append((spin[sector[0]], key[sector[0]]))
    assert len(set(keys)) == len(keys)
    assert [g.shape[1] for g, _ in groups] == sorted({g.shape[1] for g, _ in groups})


@pytest.mark.parametrize(
    "n_terms, sizes",
    [
        (3, {1: 83, 2: 2, 3: 79}),
        (4, {40: 1, 41: 1, 121: 1, 122: 1}),
        (5, {40: 1, 41: 1, 121: 1, 122: 1}),
    ],
)
def test_sector_block_sizes_at_n_max_80(n_terms, sizes):
    groups = _sector_blocks(80, "collective", n_terms)
    assert {g.shape[1]: g.shape[0] for g, _ in groups} == sizes


def test_collective_operators_are_the_rotated_product_operators():
    u, product = COLLECTIVE_TO_PRODUCT, dicke_module._ATOM_BASES["product"]
    assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-15
    jz = sum(z.real for z in product.sigma3) / 2
    jplus = sum(up.real for up, _ in product.ladders)
    assert np.abs(u.T @ jz @ u - J_Z).max() <= 1e-15
    assert np.abs(u.T @ jplus @ u - J_PLUS).max() <= 1e-15
    # exact zeros between the triplet and the singlet
    for op in (J_Z, J_PLUS):
        assert not op[:3, 3].any() and not op[3, :3].any()


@pytest.mark.parametrize("variant", ["h1", "h2", "h3"])
def test_sector_blocks_reassemble_the_rotated_hamiltonian(variant):
    cfg = DickeConfig(variant=variant, kappa=0.83, lam_tilde=0.7, omega_a=1.3, omega_f=0.9, n_max=9)
    n_terms = len(_dicke_coefficients(cfg))
    h = np.zeros((cfg.dim, cfg.dim))
    for sectors, terms in _sector_blocks(cfg.n_max, "collective", n_terms):
        blocks = dicke_module._block_stack((sectors, terms), _dicke_coefficients(cfg))
        for sector, block in zip(sectors, blocks):
            h[np.ix_(sector, sector)] = block
    u = np.kron(COLLECTIVE_TO_PRODUCT, np.eye(cfg.n_max + 1))
    assert np.abs(u @ h @ u.T - build_dicke(cfg).matrix).max() <= 1e-13


def test_sector_exactness_is_checked_when_the_blocks_are_cut(monkeypatch):
    # keyed by N, the counter-rotating term of h2 leaves its sectors
    monkeypatch.setattr(dicke_module, "_N_CONSERVING_TERMS", 4)
    _sector_blocks.cache_clear()
    message = "Dicke term {} at n_max = 8 leaves the real collective sectors"
    with pytest.raises(AssertionError, match=message.format(3)):
        _sector_blocks(8, "collective", 4)
    monkeypatch.undo()
    # the product-basis sums rotated into the collective basis: the identity
    # keeps ~2e-17 between the triplet and the singlet, which the check rejects
    u = COLLECTIVE_TO_PRODUCT
    collective = dicke_module._ATOM_BASES["collective"]
    product = dicke_module._ATOM_BASES["product"]
    jplus = sum(up.real for up, _ in product.ladders)
    rotated = collective._replace(
        sigma3=(u.T @ sum(z.real for z in product.sigma3) @ u,),
        ladders=((u.T @ jplus @ u, u.T @ jplus.T @ u),),
        identity=u.T @ product.identity.real @ u,
    )
    assert 0 < abs(rotated.identity[1, 3]) < 1e-16
    monkeypatch.setitem(dicke_module._ATOM_BASES, "collective", rotated)
    _sector_blocks.cache_clear()
    with pytest.raises(AssertionError, match=message.format(1)):
        _sector_blocks(8, "collective", 3)
    monkeypatch.undo()
    _sector_blocks.cache_clear()


def assert_close_report(point, reference):
    """Verdicts equal; values within the bounds between the exact sectors and
    the full complex solve at one cutoff above the start."""
    assert point.config == reference.config
    assert (point.nmax_used, point.converged) == (reference.nmax_used, reference.converged)
    assert point.concurrence.degenerate_ground == reference.concurrence.degenerate_ground
    assert abs(point.concurrence.value - reference.concurrence.value) <= 1e-12
    assert abs(point.ground_energy - reference.ground_energy) <= 1e-12 * abs(reference.ground_energy)
    assert abs(point.gap - reference.gap) <= 1e-11


@pytest.mark.parametrize("limit", [2, 4])
def test_unconverged_point_matches_the_full_path(limit):
    # the reported point is the limit's sectors, the delta theirs against
    # the previous cutoff's sectors
    cfg = DickeConfig(variant="h2", kappa=1.2, n_max=1)
    point = dicke_ground_point(cfg, n_max_limit=limit)
    reference = full_path_ground_point(cfg, n_max_limit=limit)
    assert not point.converged
    assert_close_report(point, reference)
    assert abs(point.convergence_delta - reference.convergence_delta) <= 2e-12
    at_limit = cfg.with_n_max(limit)
    sectors = DickeGroundPoint(at_limit, *_sector_point(at_limit), limit, False, None)
    assert_same_report(point, sectors)


def test_a_point_accepted_above_the_start_cutoff_costs_one_full_solve(monkeypatch):
    # accepted at n_max 80: solved in full at 40 only, and reported from the
    # sectors at 80, which the sectors at 160 confirm
    cfg = DickeConfig(variant="h3", kappa=2.5, lam_tilde=1.5)
    reference = full_path_ground_point(cfg)
    calls = []
    monkeypatch.setattr(dicke_module, "eigh", lambda h: calls.append(h.dim) or eigh(h))
    point = dicke_ground_point(cfg)
    assert calls == [cfg.dim]
    at_80 = cfg.with_n_max(80)
    energy, gap, conc = _sector_point(at_80)
    delta = abs(sector_concurrence(cfg.with_n_max(160)).value - conc.value)
    assert point.convergence_delta == delta
    assert_same_report(point, DickeGroundPoint(at_80, energy, gap, conc, 80, True, delta))
    assert_close_report(point, reference)


def record_hermitian_checks(monkeypatch):
    """Record (dtype, shape) of every stack handed to the Hermiticity check,
    from linalg (HermitianOperator, the density checks) and from dicke (the
    parity blocks)."""
    checks = []
    check = linalg._hermitian_stack

    def recorded(m):
        checks.append((m.dtype, m.shape))
        return check(m)

    monkeypatch.setattr(linalg, "_hermitian_stack", recorded)
    monkeypatch.setattr(dicke_module, "_hermitian_stack", recorded)
    return checks


def parity_block_checks(checks, configs):
    """``checks`` less the complex 4 x 4 density checks of the reductions, and
    what they should be: one real (2, d, d) stack per config."""
    rest = [c for c in checks if not (c[0] == np.complex128 and c[1][1:] == (4, 4))]
    return rest, [(np.float64, (2, cfg.dim // 2, cfg.dim // 2)) for cfg in configs]


def test_the_start_cutoff_solve_reads_the_ground_level_as_the_stack_kernel(monkeypatch):
    # a sweep point's start-cutoff solve, eigh(build_dicke(cfg)) and its
    # degeneracy_groups partition, reports the ground energy, gap and
    # concurrence bit for bit that the stack kernel and _ground_levels give
    # for the complex scatter
    configs = [
        DickeConfig(variant="h1", kappa=0.0, n_max=1),
        DickeConfig(variant="h1", kappa=H1_FIRST_CROSSING),
        DickeConfig(variant="h1", kappa=H1_SECOND_CROSSING),
        DickeConfig(variant="h2", kappa=0.6),
        DickeConfig(variant="h3", kappa=1.1, lam_tilde=0.5, n_max=12),
        DickeConfig(variant="h2", kappa=0.0, n_max=41),
        DickeConfig(variant="h3", kappa=0.83, lam_tilde=0.0, omega_a=0.9, omega_f=1.1, n_max=7),
        DickeConfig(variant="h1", kappa=0.4, omega_a=1.1, omega_f=0.9, n_max=80),
    ]
    expected = []
    for cfg in configs:
        w, v = linalg._eigh_hermitian(_scattered_dicke(cfg, (0, 1, 2)).astype(complex)[np.newaxis])
        (size,), (gap,) = linalg._ground_levels(w)
        conc = ground_level_concurrence(v[0], int(size), cfg.dims, (0, 1))
        expected.append((float(w[0, 0]), float(gap), conc))
    degenerate = [e[2].degenerate_ground for e in expected]
    assert degenerate == [False, True, True, False, False, False, False, False]
    # every point accepted at its start cutoff, which it then reports
    monkeypatch.setattr(
        dicke_module, "_settled_cutoff", lambda cfg, value, tol, limit: (cfg.n_max, True, 0.0, None)
    )
    for cfg, (energy, gap, conc) in zip(configs, expected):
        point = dicke_ground_point(cfg)
        got = point.concurrence
        assert point.ground_energy.hex() == energy.hex()
        assert point.gap.hex() == gap.hex()
        assert got.value.hex() == conc.value.hex()
        assert got.tilde_lambdas.tobytes() == conc.tilde_lambdas.tobytes()
        assert got.degenerate_ground == conc.degenerate_ground


def test_a_dicke_optimizer_evaluation_checks_only_the_parity_blocks(monkeypatch, capsys):
    # the evaluator cmd_optimize hands the search: no HermitianOperator, no
    # complex matrix wider than the 4 x 4 reductions, one real parity-block check
    problems = []
    search = cli.optimize
    monkeypatch.setattr(
        cli, "optimize", lambda problem, *args: problems.append(problem) or search(problem, *args)
    )
    argv = ["optimize", "--model", "dicke", "--variant", "h2", "--nmax", "40"]
    assert cli.main([*argv, "--lower", "0.2", "--upper", "1.2", "--budget", "3", "--seed", "0"]) == 0
    capsys.readouterr()
    cfg = DickeConfig(variant="h2", kappa=0.6)
    reference = ground_state_ac_concurrence(*dicke_mediator_form(cfg))

    operators = []
    post_init = HermitianOperator.__post_init__
    monkeypatch.setattr(
        HermitianOperator, "__post_init__", lambda op: operators.append(op) or post_init(op)
    )
    checks = record_hermitian_checks(monkeypatch)
    got = problems[0].evaluate(np.array([cfg.kappa]))
    assert operators == []
    got_checks, expected_checks = parity_block_checks(checks, [cfg])
    assert got_checks == expected_checks
    assert got.value.hex() == reference.value.hex()
    assert got.tilde_lambdas.tobytes() == reference.tilde_lambdas.tobytes()
    assert got.degenerate_ground == reference.degenerate_ground


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from(["h1", "h2", "h3"]),
    # both h1 crossings (1/sqrt(2) and 1/(sqrt(6) - sqrt(2)) at resonance) and beyond
    st.floats(0.0, 1.2),
    st.floats(0.0, 1.5),
    st.floats(0.9, 1.1),
    st.floats(0.9, 1.1),
    st.integers(1, 41),
)
@example("h1", 0.0, 1.0, 1.0, 1.0, 40)
@example("h1", H1_FIRST_CROSSING, 1.0, 1.0, 1.0, 40)
@example("h1", H1_SECOND_CROSSING, 1.0, 1.0, 1.0, 41)
# the smallest subnormal kappa: subnormal exchange entries, which must leave
# the blocks' pattern that of the scatter
@example("h1", 5e-324, 1.0, 1.0, 1.0, 40)
@example("h2", 5e-324, 1.0, 1.0, 1.0, 40)
@example("h3", 5e-324, 1.0, 0.9, 1.1, 7)
@example("h2", 0.0, 1.0, 1.0, 1.0, 40)
@example("h3", 0.0, 1.0, 1.0, 1.0, 40)
@example("h3", 0.6, 0.0, 1.0, 1.0, 40)
@example("h2", 0.6, 1.0, 1.0, 1.0, 1)
def test_mediator_concurrence_is_the_mediator_form_oracle_bit_for_bit(
    variant, kappa, lam_tilde, omega_a, omega_f, n_max
):
    # the components gathered from the parity blocks are those the block
    # finder finds in the checked complex mediator form, entry for entry,
    # hence the same stacks and the same bits
    cfg = DickeConfig(variant, kappa, omega_a, omega_f, lam_tilde=lam_tilde, n_max=n_max)
    assert_same_concurrence(mediator_concurrence(cfg), mediator_form_concurrence(cfg))


def mediator_form_concurrence(cfg):
    return ground_state_ac_concurrence(*dicke_mediator_form(cfg))


def assert_same_concurrence(got, expected):
    assert got.value.hex() == expected.value.hex()
    assert got.tilde_lambdas.tobytes() == expected.tilde_lambdas.tobytes()
    assert got.degenerate_ground == expected.degenerate_ground


def test_mediator_concurrence_shares_the_oracles_components_per_pattern():
    # kappa = 0 leaves every state its own component, kappa = 0.5 two parity
    # blocks: one cutoff, two patterns, and the evaluator and the oracle find
    # each pattern's components in one shared cache entry
    configs = [DickeConfig("h2", kappa, n_max=12) for kappa in (0.0, 0.5, 0.0)]
    linalg._pattern_components.cache_clear()
    for cfg in configs:
        assert_same_concurrence(mediator_concurrence(cfg), mediator_form_concurrence(cfg))
    info = linalg._pattern_components.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


def test_the_readme_cavity_grid_costs_one_full_solve_per_point(monkeypatch):
    # the README's three-variant grid: each point is solved in full once, at
    # n_max 40, and confirmed on its sectors at 80; every cutoff's blocks are
    # cut once: the parity blocks at 40 and each variant's sectors at 80
    calls = []
    monkeypatch.setattr(dicke_module, "eigh", lambda h: calls.append(h.dim) or eigh(h))
    _sector_blocks.cache_clear()
    for variant in ("h1", "h2", "h3"):
        cfg = DickeConfig(variant=variant, kappa=0.0)
        sweep = dicke_sweep(cfg, parse_grid_spec("0:1.2:25"), [1.0])
        assert sweep.column("status") == ["ok"] * 25
    assert calls == [DickeConfig(variant="h1", kappa=0.0).dim] * 75
    info = _sector_blocks.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
