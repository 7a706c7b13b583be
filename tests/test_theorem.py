import warnings

import numpy as np
import pytest

from medent.dicke import DickeConfig, dicke_mediator_form
from medent.linalg import (
    HermitianOperator,
    eigh,
    kron_all,
    reduced_density,
    schmidt,
    swap_operator,
)
from medent.theorem import (
    PURITY_PURE_ATOL,
    SCHMIDT_RANK_TOL,
    _middle_split,
    analyze_eigenstates,
    corollary_check,
    degenerate_family_check,
    hermitian_basis,
    is_exchange_symmetric,
    random_symmetric_hamiltonian,
    theorem_fuzz,
)
from medent.tripartite import (
    PAULI,
    IsingParams,
    PauliCoefficients,
    build_ising,
    build_pauli_hamiltonian,
)

I2 = np.eye(2, dtype=complex)


def one_sided_coupling():
    c = PauliCoefficients.zero()
    ab = np.array(c.h_ab)
    ab[3, 3] = 1.0
    return build_pauli_hamiltonian(PauliCoefficients(ab, np.array(c.h_bc), np.array(c.h_b)))


def ghz_projector_hamiltonian():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    return HermitianOperator(-np.outer(ghz, ghz.conj()))


# ---------------------------------------------------------------- symmetry predicate

def test_ising_is_exchange_symmetric():
    for delta, lam in [(0.0, 0.0), (0.2, 1.5), (3.0, 0.4)]:
        h = build_ising(IsingParams(delta=delta, lam=lam))
        assert is_exchange_symmetric(h, (2, 2, 2))


def test_one_sided_coupling_is_not_symmetric():
    assert not is_exchange_symmetric(one_sided_coupling(), (2, 2, 2))


def test_dicke_models_are_symmetric_in_mediator_form():
    for variant in ("h1", "h2", "h3"):
        h, dims = dicke_mediator_form(DickeConfig(variant=variant, kappa=0.7, n_max=6))
        assert is_exchange_symmetric(h, dims)


def test_swap_is_involution():
    s = swap_operator((2, 5, 2), 0, 2)
    assert np.array_equal(s @ s, np.eye(20, dtype=complex))


# ---------------------------------------------------------------- eigenstate analysis

def test_zero_field_chain_levels_all_degenerate():
    # at zero outer fields every level is (at least) two-fold degenerate, so
    # the theorem's non-degeneracy hypothesis is never triggered
    h = build_ising(IsingParams(delta=0.0, lam=1.0))
    analyses = analyze_eigenstates(h, (2, 2, 2))
    assert all(a.is_degenerate for a in analyses)


def test_factorized_eigenbasis_exists_at_zero_outer_field():
    # the analytic basis realizes the all-products claim; verified as true
    # eigenvectors elsewhere, here we check their reductions are pure
    from medent.linalg import purity, reduced_density
    from medent.tripartite import analytic_ising_spectrum

    spec = analytic_ising_spectrum([0.5, 0.0, 0.0])
    for i in range(8):
        vec = spec.eigenvectors[:, i]
        for keep in ((0,), (1,), (2,)):
            assert purity(reduced_density(vec, (2, 2, 2), keep)) >= 1 - 1e-10


def test_ghz_projector_ground_state():
    h = ghz_projector_hamiltonian()
    analyses = analyze_eigenstates(h, (2, 2, 2))
    ground = analyses[0]
    assert ground.energy == pytest.approx(-1.0)
    assert not ground.is_degenerate
    assert ground.purity_b == pytest.approx(0.5, abs=1e-10)
    assert ground.schmidt_rank_ac is None
    assert not ground.fully_factorized


@pytest.mark.parametrize("d_b", [2, 3])
def test_outer_and_middle_purities_agree(d_b):
    # a pure tripartite state's B and AC reductions share their nonzero spectrum
    h = random_symmetric_hamiltonian(d_b, np.random.default_rng(d_b))
    for a in analyze_eigenstates(h, (2, d_b, 2)):
        assert abs(a.purity_ac - a.purity_b) <= 1e-12


def test_asymmetric_operator_warns():
    with pytest.warns(UserWarning):
        analyze_eigenstates(one_sided_coupling(), (2, 2, 2))


def test_nondegenerate_product_eigenstates_detected():
    # diagonal chain: every eigenstate is a computational product
    c = PauliCoefficients.zero()
    ab = np.array(c.h_ab)
    bc = np.array(c.h_bc)
    b = np.array(c.h_b)
    ab[3, 3] = 1.0
    bc[3, 3] = 1.0
    b[2] = 0.3  # longitudinal field splits the middle levels
    h = build_pauli_hamiltonian(PauliCoefficients(ab, bc, b))
    dec = eigh(h)
    analyses = analyze_eigenstates(h, (2, 2, 2))
    from medent.linalg import purity, reduced_density

    for a in analyses:
        if not a.is_degenerate:
            assert a.fully_factorized
            assert a.schmidt_rank_ac == 1
            assert a.purity_b >= 1 - 1e-10
            assert a.ac_concurrence == pytest.approx(0.0, abs=1e-10)
            # full factorization implies every single-site reduction is pure
            psi = dec.eigenvectors[:, a.index]
            for keep in ((0,), (2,)):
                assert purity(reduced_density(psi, (2, 2, 2), keep)) >= 1 - 1e-8


# ------------------------------------------------- the dark-state counterexample class

def test_singlet_dark_states_violate_naive_expectation():
    """The swap-odd sector hosts exact singlet x beta eigenstates.

    These have pure middle reductions and outer Schmidt rank 2 while being
    generically non-degenerate, so the fuzz predicate correctly reports them;
    their signature is swap expectation -1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(0,)))
    h = random_symmetric_hamiltonian(2, rng)
    dec = eigh(h)
    s = swap_operator((2, 2, 2), 0, 2)
    analyses = analyze_eigenstates(h, (2, 2, 2))
    flagged = [
        a
        for a in analyses
        if not a.is_degenerate
        and a.purity_b >= 1 - 1e-10
        and (a.schmidt_rank_ac or 0) >= 2
    ]
    assert len(flagged) == 2  # the mediator-dimension-sized antisymmetric sector
    for a in flagged:
        psi = dec.eigenvectors[:, a.index]
        swap_expectation = float(np.real(np.vdot(psi, s @ psi)))
        assert swap_expectation == pytest.approx(-1.0, abs=1e-9)
        # maximally entangled outer pair
        assert a.ac_concurrence == pytest.approx(1.0, abs=1e-9)


def test_dicke_dark_state_is_exact_counterexample():
    # independent of the random generator: the counter-rotating cavity model
    # leaves singlet x vacuum invariant at any coupling
    cfg = DickeConfig(variant="h2", kappa=0.3, n_max=12)
    h, dims = dicke_mediator_form(cfg)
    nf = cfg.n_max + 1
    vac = np.zeros(nf)
    vac[0] = 1.0
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    singlet = (
        np.kron(np.kron(up, vac), down) - np.kron(np.kron(down, vac), up)
    ) / np.sqrt(2)
    assert np.linalg.norm(h.matrix @ singlet) <= 1e-12


def test_family_energy_equality_on_dark_state():
    rng = np.random.default_rng(3)
    cfg = DickeConfig(variant="h2", kappa=0.3, n_max=8)
    h, dims = dicke_mediator_form(cfg)
    nf = cfg.n_max + 1
    vac = np.zeros(nf)
    vac[0] = 1.0
    up, down = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    singlet = (
        np.kron(np.kron(up, vac), down) - np.kron(np.kron(down, vac), up)
    ) / np.sqrt(2)
    check = degenerate_family_check(h, singlet, dims, rng)
    assert check is not None
    assert check.rank == 2
    assert check.passed
    assert check.spread <= 1e-9 * max(1.0, np.linalg.norm(h.matrix))


def family_spread_reference(h, psi, dims, rng, samples):
    """Rank and energy spread of psi's family, one state and one kron_all per term;
    beta and omega are the top eigenvectors of the middle and outer reductions."""
    beta = np.linalg.eigh(reduced_density(psi, dims, (1,)).matrix)[1][:, -1]
    omega = np.linalg.eigh(reduced_density(psi, dims, (0, 2)).matrix)[1][:, -1]
    sd = schmidt(omega / np.linalg.norm(omega), (dims[0], dims[2]))
    rank = sd.rank(SCHMIDT_RANK_TOL)
    coeff_sets = [np.eye(rank)[k] for k in range(rank)]
    coeff_sets += [
        rng.standard_normal(rank) + 1j * rng.standard_normal(rank) for _ in range(samples)
    ]
    energies = []
    for coeffs in coeff_sets:
        state = sum(
            coeffs[j]
            * kron_all(sd.basis_left[:, [j]], beta.reshape(-1, 1), sd.basis_right[:, [j]])[:, 0]
            for j in range(rank)
        )
        state = state / np.linalg.norm(state)
        energies.append(np.vdot(state, h.matrix @ state).real)
    return rank, max(energies) - min(energies)


@pytest.mark.parametrize("d_b", [2, 3])
def test_family_check_matches_per_state_reference(d_b):
    dims = (2, d_b, 2)
    gen = np.random.default_rng(10 + d_b)
    h = random_symmetric_hamiltonian(d_b, gen)
    dec = eigh(h)
    # the dark states (spread ~0) and random pure-middle states off the family (spread O(1))
    states = [dec.eigenvectors[:, a.index] for a in analyze_eigenstates(h, dims)
              if (a.schmidt_rank_ac or 0) >= 2]
    for _ in range(3):
        phi = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        beta = gen.standard_normal(d_b) + 1j * gen.standard_normal(d_b)
        psi = np.einsum("ac,b->abc", phi, beta).reshape(-1)
        states.append(psi / np.linalg.norm(psi))
    assert len(states) == d_b + 3
    tol = 1e-12 * np.linalg.norm(h.matrix)
    for psi in states:
        fast_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        check = degenerate_family_check(h, psi, dims, fast_rng)
        rank, spread = family_spread_reference(h, psi, dims, ref_rng, 4)
        assert check.rank == rank == 2
        assert abs(check.spread - spread) <= tol
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def test_family_check_skips_product_states():
    rng = np.random.default_rng(5)
    h = build_ising(IsingParams(delta=0.0, lam=0.5))
    product = np.zeros(8, dtype=complex)
    product[0] = 1.0
    assert degenerate_family_check(h, product, (2, 2, 2), rng) is None


# ---------------------------------------------------------------- fuzzing

def test_fuzz_reports_are_deterministic():
    r1 = theorem_fuzz(10, 2, 42)
    r2 = theorem_fuzz(10, 2, 42)
    assert r1.counterexamples == r2.counterexamples
    assert r1.trial_records == r2.trial_records


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_fuzz_finds_only_swap_odd_counterexamples(d_b):
    report = theorem_fuzz(10, d_b, 42)
    # closed form: the swap-odd sector singlet_AC x mediator holds exactly d_b
    # eigenstates, each a counterexample, and nothing else is reported
    assert report.skipped_asymmetric == 0
    assert [r.counterexamples for r in report.trial_records] == [d_b] * 10
    assert all(ce.purity_b >= 1 - 1e-10 for ce in report.counterexamples)
    assert all(ce.schmidt_rank_ac == 2 for ce in report.counterexamples)
    # family Rayleigh-quotient equality holds wherever triggered
    assert all(f.passed for f in report.family_checks)
    s = swap_operator((2, d_b, 2), 0, 2)
    for ce in report.counterexamples:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=42, spawn_key=(ce.trial,))
        )
        dec = eigh(random_symmetric_hamiltonian(d_b, rng))
        psi = dec.eigenvectors[:, ce.eigenstate_index]
        assert float(np.real(np.vdot(psi, s @ psi))) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_pure_middle_eigenstates_are_omega_times_beta(d_b):
    # a pure middle reduction means psi = omega_AC x beta, read off one Schmidt split
    dims = (2, d_b, 2)
    checked = 0
    for t in range(5):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(t,)))
        dec = eigh(random_symmetric_hamiltonian(d_b, rng))
        for psi in dec.eigenvectors.T:
            p_b, beta, sd = _middle_split(psi, dims)
            if p_b < 1.0 - PURITY_PURE_ATOL:
                continue
            omega = sd.reconstruct().reshape(2, 2)
            product = np.einsum("ac,b->abc", omega, beta).reshape(-1)
            assert abs(abs(np.vdot(psi, product)) - 1.0) <= 1e-12
            checked += 1
    assert checked >= 5 * d_b


def test_fuzz_break_symmetry_skips_checks():
    report = theorem_fuzz(5, 2, 1, break_symmetry=True)
    assert report.skipped_asymmetric == 5
    assert report.counterexamples == ()
    assert report.passed


def test_fuzz_rejects_bad_trials():
    with pytest.raises(ValueError):
        theorem_fuzz(0, 2, 1)


def test_hermitian_basis_spans():
    for d in (2, 3):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for g in basis:
            assert np.allclose(g, g.conj().T)
        flat = np.array([g.reshape(-1) for g in basis])
        assert np.linalg.matrix_rank(flat) == d * d


def per_term_symmetric_hamiltonian(d_b, rng, break_symmetry):
    """Reference assembly: one kron_all and one scalar draw per term."""
    basis_b = hermitian_basis(d_b)
    h_ab = np.zeros((4 * d_b, 4 * d_b), dtype=complex)
    for sig in PAULI:
        for g in basis_b:
            h_ab += rng.standard_normal() * kron_all(sig, g, I2)
    if break_symmetry:
        h_bc = np.zeros_like(h_ab)
        for g in basis_b:
            for sig in PAULI:
                h_bc += rng.standard_normal() * kron_all(I2, g, sig)
    else:
        s = swap_operator((2, d_b, 2), 0, 2)
        h_bc = s @ h_ab @ s
    h_b = np.zeros((d_b, d_b), dtype=complex)
    for g in basis_b:
        h_b += rng.standard_normal() * g
    return HermitianOperator(h_ab + h_bc + kron_all(I2, h_b, I2))


@pytest.mark.parametrize("break_symmetry", [False, True])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_random_hamiltonian_matches_per_term_assembly(d_b, break_symmetry):
    # the mirrored h_BC is an index permutation of h_AB; it must equal the swap
    # conjugation s @ h_AB @ s byte for byte, signed zeros included
    for seed in range(60):
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = random_symmetric_hamiltonian(d_b, fast_rng, break_symmetry=break_symmetry)
        ref = per_term_symmetric_hamiltonian(d_b, ref_rng, break_symmetry)
        assert fast.matrix.tobytes() == ref.matrix.tobytes()
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_hamiltonian_is_symmetric_and_mediated():
    rng = np.random.default_rng(9)
    h = random_symmetric_hamiltonian(3, rng)
    assert is_exchange_symmetric(h, (2, 3, 2))
    # no direct outer-outer coupling: matrix elements between states that
    # differ in both outer slots but share the middle state vanish
    m = h.matrix.reshape(2, 3, 2, 2, 3, 2)
    for b in range(3):
        assert abs(m[0, b, 0, 1, b, 1]) < 1e-12
        assert abs(m[0, b, 1, 1, b, 0]) < 1e-12


# ---------------------------------------------------------------- corollaries

def test_corollary_on_weakly_perturbed_chain():
    h = build_ising(IsingParams(delta=0.05, lam=1.0))
    report = corollary_check(h, (2, 2, 2))
    assert not report.ground_degenerate
    assert report.ground_concurrence > 0.01
    assert report.ground_purity_ac < 1 - 1e-6
    assert report.passed


def test_corollary_vacuous_for_degenerate_ground():
    h = build_ising(IsingParams(delta=0.0, lam=1.0))
    report = corollary_check(h, (2, 2, 2))
    assert report.ground_degenerate
    assert report.passed


def test_corollary_on_cavity_model():
    h, dims = dicke_mediator_form(DickeConfig(variant="h3", kappa=0.5, n_max=20))
    report = corollary_check(h, dims)
    assert report.ground_concurrence > 0.01
    assert report.ground_purity_ac < 1 - 1e-6
    assert report.passed


def test_corollary_requires_symmetry():
    with pytest.raises(ValueError):
        corollary_check(one_sided_coupling(), (2, 2, 2))
