import functools
import itertools
import operator

import numpy as np
import pytest

from medent.dicke import (
    DickeConfig,
    DickeGroundPoint,
    FockConvergenceError,
    _dicke_coefficients,
    _dicke_terms,
    _evaluate,
    _parity_block_concurrence,
    _parity_block_hamiltonian,
    _parity_blocks,
    bosonic_operators,
    build_dicke,
    dicke_ground_concurrence,
    dicke_ground_point,
    dicke_mediator_form,
    dicke_sweep,
)
from medent import linalg
from medent.linalg import (
    DimensionError,
    HermitianOperator,
    eigh,
    kron,
    permute_subsystems,
    swap_operator,
)
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


def test_sweep_flags_unconverged_points():
    cfg = DickeConfig(variant="h2", kappa=0.0, n_max=1)
    sweep = dicke_sweep(cfg, [1.2], [1.0], n_max_limit=2)
    assert sweep.rows[0]["status"] == "fock_unconverged"


# ------------------------------------------------- parity-block cutoff check


# the full complex solve of one configuration, shared by the tests below
full_solve = functools.lru_cache(maxsize=None)(_evaluate)


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


def test_build_dicke_keeps_the_kron_dimension_bound():
    # 4 (n_max + 1) = 4404 exceeds KRON_DIM_LIMIT: rejected before any block is built
    cfg = DickeConfig(variant="h1", kappa=0.5, n_max=1100)
    message = "the Dicke Hamiltonian would be 4404x4404, limit is 4096"
    _parity_blocks.cache_clear()
    with pytest.raises(DimensionError, match=message):
        dicke_ground_point(cfg)
    with pytest.raises(DimensionError, match=message):
        dicke_mediator_form(cfg)
    assert _parity_blocks.cache_info().currsize == 0


def test_each_basis_order_is_checked_once(monkeypatch):
    # both orders are scattered straight from the parity blocks: one
    # HermitianOperator check each, not a check of a permuted checked matrix
    cfg = DickeConfig(variant="h2", kappa=0.6, n_max=8)
    calls = []
    check = linalg._hermitian_stack
    monkeypatch.setattr(linalg, "_hermitian_stack", lambda m: calls.append(m.shape) or check(m))
    for form in (build_dicke, dicke_mediator_form):
        calls.clear()
        form(cfg)
        assert calls == [(1, cfg.dim, cfg.dim)]


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
        block = _parity_block_concurrence(cfg.with_n_max(80))
        _, _, full = full_solve(cfg.with_n_max(80))
        assert abs(block.value - full.value) <= 1e-10, kappa
        assert block.degenerate_ground == full.degenerate_ground, kappa
        point = dicke_ground_point(cfg)
        assert_same_report(point, full_path_ground_point(cfg))
        assert point.convergence_delta == abs(block.value - point.concurrence.value)


def test_block_check_reads_the_h1_product_ground_state_exactly():
    # just below the first crossing the ground state is |g, g> x |0>; the full
    # complex solve at n_max 80 reads a spurious ~1e-8 there, the blocks do not
    block = _parity_block_concurrence(DickeConfig(variant="h1", kappa=0.7, n_max=80))
    assert block.value < 1e-15
    assert not block.degenerate_ground


@pytest.mark.parametrize(
    "kappa, expected",
    [
        (H1_FIRST_CROSSING, 0.25),
        (0.70710678, 0.25),
        (H1_SECOND_CROSSING, 0.12732200375003414),
    ],
)
def test_h1_crossing_points_are_degenerate_on_both_paths(kappa, expected):
    # the ground group spans two parity sectors: the equal mixture of both
    # members' reductions, flagged degenerate
    point = dicke_ground_point(DickeConfig(variant="h1", kappa=kappa))
    assert point.concurrence.value == pytest.approx(expected, abs=1e-9)
    assert point.concurrence.degenerate_ground
    assert (point.nmax_used, point.converged) == (40, True)
    for n_max in (40, 80):
        block = _parity_block_concurrence(DickeConfig(variant="h1", kappa=kappa, n_max=n_max))
        assert block.value == pytest.approx(expected, abs=1e-9)
        assert block.degenerate_ground


@pytest.mark.parametrize("limit", [2, 4])
def test_unconverged_point_reports_the_full_path_bit_for_bit(limit):
    cfg = DickeConfig(variant="h2", kappa=1.2, n_max=1)
    point = dicke_ground_point(cfg, n_max_limit=limit)
    reference = full_path_ground_point(cfg, n_max_limit=limit)
    assert not point.converged
    assert_same_report(point, reference)
    assert point.convergence_delta == reference.convergence_delta
