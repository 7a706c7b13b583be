import numpy as np
import pytest

from medent.dicke import (
    DickeConfig,
    FockConvergenceError,
    bosonic_operators,
    build_dicke,
    dicke_ground_concurrence,
    dicke_ground_point,
    dicke_mediator_form,
    dicke_sweep,
    excitation_number,
    parity_operator,
)
from medent.linalg import eigh, swap_operator
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
