import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import medent.theorem as theorem_module
from medent.dicke import DickeConfig, dicke_mediator_form
from medent.entanglement import concurrence, ground_level_density
from medent.linalg import (
    DensityMatrix,
    HermitianOperator,
    SchmidtDecomposition,
    eigh,
    frobenius_norm,
    kron_all,
    partial_trace,
    permute_subsystems,
    purity,
    reduced_density,
    schmidt,
    swap_operator,
)
from medent.theorem import (
    FAMILY_ENERGY_RTOL,
    FAMILY_SAMPLES,
    PURITY_EXTRACT_ATOL,
    PURITY_PURE_ATOL,
    SCHMIDT_RANK_TOL,
    SYMMETRY_RTOL,
    THEOREM_CHUNK,
    Counterexample,
    EigenstateAnalysis,
    FamilyCheck,
    TheoremFuzzReport,
    TrialRecord,
    _middle_split,
    _operator_stacks,
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


def per_state_analysis(h, dims):
    """analyze_eigenstates as it ran before it reduced every eigenstate as one
    stack: reduced_density, purity and concurrence one eigenstate at a time."""
    dec = eigh(h)
    split = _middle_split(np.ascontiguousarray(dec.eigenvectors.T), dims)
    ranks = dict(zip(split.pure.tolist(), split.ranks().tolist()))
    out = []
    for i, psi in enumerate(dec.eigenvectors.T):
        rho_ac = reduced_density(psi, dims, (0, 2))
        rank = ranks.get(i)
        out.append(EigenstateAnalysis(
            index=i,
            energy=float(dec.eigenvalues[i]),
            is_degenerate=dec.is_degenerate(i),
            purity_b=float(split.purity_b[i]),
            purity_ac=purity(rho_ac),
            schmidt_rank_ac=rank,
            ac_concurrence=concurrence(rho_ac).value if dims[0] == dims[2] == 2 else None,
            fully_factorized=(rank == 1),
        ))
    return tuple(out)


def random_symmetric_operator(dims, seed):
    """A random exchange-symmetric operator on dims: M + S M S, S the outer swap."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = m + m.conj().T
    return HermitianOperator(m + permute_subsystems(m, dims, (2, 1, 0)))


ANALYSIS_CASES = {
    **{
        f"random_d_b{d_b}_seed{seed}": (
            lambda d_b=d_b, seed=seed: (random_symmetric_hamiltonian(d_b, np.random.default_rng(seed)), (2, d_b, 2))
        )
        for d_b in (1, 2, 3, 4)
        for seed in (0, 1, 2)
    },
    "chain_degenerate": lambda: (build_ising(IsingParams(delta=0.0, lam=1.0)), (2, 2, 2)),
    "chain": lambda: (build_ising(IsingParams(delta=0.05, lam=1.0)), (2, 2, 2)),
    "dicke_mediator_form": lambda: dicke_mediator_form(DickeConfig("h2", 0.6, n_max=40)),
    "qutrit_outer_parties": lambda: (random_symmetric_operator((3, 2, 3), 5), (3, 2, 3)),
}


@pytest.mark.parametrize("case", sorted(ANALYSIS_CASES))
def test_stacked_analysis_matches_per_state_reference(case):
    h, dims = ANALYSIS_CASES[case]()
    got = analyze_eigenstates(h, dims)
    expected = per_state_analysis(h, dims)
    assert len(got) == h.dim
    # repr round-trips every float exactly, so equal reprs are equal bits
    assert [repr(dataclasses.astuple(a)) for a in got] == [repr(dataclasses.astuple(a)) for a in expected]


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
        states = eigh(random_symmetric_hamiltonian(d_b, rng)).eigenvectors.T
        split = _middle_split(np.ascontiguousarray(states), dims)
        for k, i in enumerate(split.pure):
            if split.purity_b[i] < 1.0 - PURITY_PURE_ATOL:
                continue
            sd = SchmidtDecomposition(split.coefficients[k], split.left[k], split.right[k])
            omega = sd.reconstruct().reshape(2, 2)
            product = np.einsum("ac,b->abc", omega, split.beta[k]).reshape(-1)
            assert abs(abs(np.vdot(states[i], product)) - 1.0) <= 1e-12
            checked += 1
    assert checked >= 5 * d_b


def degenerate_dark_level_stacks(d_b):
    """Coupling terms without the Pauli identity and a scalar local term: the
    swap-odd block h_B + 2 sum_k c_0k g_k is then a multiple of the identity,
    so the d_b dark states singlet_AC x beta form one excited level."""
    left, right, _ = _operator_stacks(d_b)
    no_identity = [i for i in range(len(right)) if i % 4]
    return left[d_b * d_b:], right[no_identity], np.eye(4 * d_b, dtype=complex)[np.newaxis]


@pytest.mark.parametrize("d_b", [2, 3])
def test_fuzz_skips_a_degenerate_excited_dark_level(d_b, monkeypatch):
    # the degeneracy verdict must cover every level, not only the ground level
    monkeypatch.setattr(theorem_module, "_operator_stacks", degenerate_dark_level_stacks)
    report = theorem_fuzz(6, d_b, 3)
    assert report.counterexamples == ()
    assert [r.family_checks for r in report.trial_records] == [d_b] * 6
    assert all(f.passed for f in report.family_checks)


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_fuzz_counterexamples_are_swap_odd(d_b):
    # closed form: every counterexample is a singlet_AC x beta dark state, d_b per trial
    report = theorem_fuzz(12, d_b, 5)
    assert report.counterexamples_even == 0
    assert report.counterexamples_odd == d_b * 12 == len(report.counterexamples)


def test_fuzz_break_symmetry_skips_checks():
    report = theorem_fuzz(5, 2, 1, break_symmetry=True)
    assert report.skipped_asymmetric == 5
    assert report.counterexamples == ()
    assert report.passed


def test_fuzz_rejects_bad_trials():
    with pytest.raises(ValueError):
        theorem_fuzz(0, 2, 1)


@pytest.mark.parametrize("d_b", [0, -1])
def test_a_mediator_dimension_below_one_is_rejected_before_any_draw(d_b):
    message = f"mediator dimension d_b must be >= 1, got {d_b}"
    with pytest.raises(ValueError, match=message):
        theorem_fuzz(3, d_b, 1)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match=message):
        random_symmetric_hamiltonian(d_b, rng)
    assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state


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


# ---------------------------------------------------------------- per-trial oracle
#
# The fuzzer as it ran before it was stacked: one trial at a time, one
# eigenstate at a time, from the scalar reduction, purity and Schmidt
# functions.  The stacked fuzzer must reproduce its report bit for bit.

def per_trial_random_combination(rng, stack):
    m = np.zeros(stack.shape[1:], dtype=np.complex128)
    for c, op in zip(rng.standard_normal(len(stack)), stack):
        m += c * op
    return m


def per_trial_hamiltonian(d_b, rng, break_symmetry):
    left, right, local = _operator_stacks(d_b)
    h_ab = per_trial_random_combination(rng, left)
    if break_symmetry:
        h_bc = per_trial_random_combination(rng, right)
    else:
        h_bc = permute_subsystems(h_ab, (2, d_b, 2), (2, 1, 0))
    return HermitianOperator(h_ab + h_bc + per_trial_random_combination(rng, local))


def per_trial_is_symmetric(h, dims):
    defect = frobenius_norm(permute_subsystems(h.matrix, dims, (2, 1, 0)) - h.matrix)
    return bool(defect <= SYMMETRY_RTOL * max(1.0, frobenius_norm(h.matrix)))


def per_state_middle_split(psi, dims):
    p_b = purity(reduced_density(psi, dims, (1,)))
    if p_b < 1.0 - PURITY_EXTRACT_ATOL:
        return p_b, None, None
    split = schmidt(np.swapaxes(np.reshape(psi, dims), 0, 1), (dims[1], dims[0] * dims[2]))
    return p_b, split.basis_left[:, 0], schmidt(split.basis_right[:, 0], (dims[0], dims[2]))


def per_state_family_check(h, beta, sd, rng, samples):
    rank = sd.rank(SCHMIDT_RANK_TOL)
    if rank < 2:
        return None
    coeffs = np.vstack([np.eye(rank)] + [
        rng.standard_normal(rank) + 1j * rng.standard_normal(rank) for _ in range(samples)
    ])
    states = np.einsum(
        "kj,aj,b,cj->kabc", coeffs, sd.basis_left[:, :rank], beta, sd.basis_right[:, :rank]
    ).reshape(len(coeffs), h.dim)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    energies = np.einsum("ki,ij,kj->k", states.conj(), h.matrix, states).real

    spread = float(energies.max() - energies.min())
    scale = max(1.0, frobenius_norm(h.matrix))
    return FamilyCheck(rank=rank, spread=spread, passed=bool(spread <= FAMILY_ENERGY_RTOL * scale))


@functools.lru_cache(maxsize=None)
def per_trial_outcome(t, d_b, seed, break_symmetry):
    """Trial t's record, counterexamples, family checks and counterexample swap expectations."""
    dims = (2, d_b, 2)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
    h = per_trial_hamiltonian(d_b, rng, break_symmetry)
    if not per_trial_is_symmetric(h, dims):
        return TrialRecord(t, False, 0, 0, True), (), (), ()
    s = swap_operator(dims, 0, 2)
    found, checks, swaps = [], [], []
    dec = eigh(h)
    for i, psi in enumerate(dec.eigenvectors.T):
        p_b, beta, sd = per_state_middle_split(psi, dims)
        rank = 0 if sd is None else sd.rank(SCHMIDT_RANK_TOL)
        if rank < 2:
            continue
        if not dec.is_degenerate(i) and p_b >= 1.0 - PURITY_PURE_ATOL:
            found.append(Counterexample(t, i, float(dec.eigenvalues[i]), p_b, rank))
            swaps.append(float(np.real(np.vdot(psi, s @ psi))))
        checks.append(per_state_family_check(h, beta, sd, rng, FAMILY_SAMPLES))
    record = TrialRecord(t, True, len(found), len(checks), all(c.passed for c in checks))
    return record, tuple(found), tuple(checks), tuple(swaps)


def per_trial_theorem_fuzz(trials, d_b, seed, break_symmetry=False):
    outcomes = [per_trial_outcome(t, d_b, seed, break_symmetry) for t in range(trials)]
    swaps = [x for o in outcomes for x in o[3]]
    return TheoremFuzzReport(
        trials=trials,
        d_b=d_b,
        seed=seed,
        counterexamples=tuple(c for o in outcomes for c in o[1]),
        family_checks=tuple(f for o in outcomes for f in o[2]),
        trial_records=tuple(o[0] for o in outcomes),
        skipped_asymmetric=sum(not o[0].symmetric for o in outcomes),
        counterexamples_even=sum(x > 0 for x in swaps),
        counterexamples_odd=sum(x < 0 for x in swaps),
    )


@pytest.mark.parametrize("trials", [1, THEOREM_CHUNK - 1, THEOREM_CHUNK, THEOREM_CHUNK + 1])
@pytest.mark.parametrize("break_symmetry", [False, True])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_stacked_fuzz_matches_per_trial_oracle(d_b, break_symmetry, trials):
    seed = 40 + d_b
    report = theorem_fuzz(trials, d_b, seed, break_symmetry=break_symmetry)
    expected = per_trial_theorem_fuzz(trials, d_b, seed, break_symmetry)
    assert report == expected
    assert [f.spread for f in report.family_checks] == [f.spread for f in expected.family_checks]
    if not break_symmetry:
        assert report.counterexamples_odd == d_b * trials


# ---------------------------------------------------------------- properties (hypothesis)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)
UNIT_FLOATS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def unit_vector(n):
    return arrays(np.float64, (2, n), elements=UNIT_FLOATS).map(
        lambda a: a[0] + 1j * a[1]
    ).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


@st.composite
def split_states(draw):
    """A mediator dim and a stack of unit states on (2, d_b, 2): random ones and
    omega_AC x beta products."""
    d_b = draw(st.sampled_from([2, 3, 4]))
    states = []
    for product in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if product:
            omega, beta = draw(unit_vector(4)), draw(unit_vector(d_b))
            psi = np.einsum("ac,b->abc", omega.reshape(2, 2), beta).reshape(-1)
            states.append(psi / np.linalg.norm(psi))
        else:
            states.append(draw(unit_vector(4 * d_b)))
    return d_b, np.array(states)


@PROPERTY_SETTINGS
@given(split_states())
def test_stacked_middle_split_matches_scalar_reference(case):
    d_b, states = case
    dims = (2, d_b, 2)
    split = _middle_split(states, dims)
    pure = []
    for i, psi in enumerate(states):
        p_b, beta, sd = per_state_middle_split(psi, dims)
        assert split.purity_b[i] == p_b
        if sd is not None:
            k = len(pure)
            pure.append(i)
            assert split.beta[k].tobytes() == beta.tobytes()
            assert split.coefficients[k].tobytes() == sd.coefficients.tobytes()
            assert split.left[k].tobytes() == sd.basis_left.tobytes()
            assert split.right[k].tobytes() == sd.basis_right.tobytes()
    assert split.pure.tolist() == pure


@PROPERTY_SETTINGS
@given(st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2), (2, 2, 2, 2)]).flatmap(
    lambda dims: st.tuples(
        st.just(dims),
        unit_vector(int(np.prod(dims))),
        st.sets(st.integers(0, len(dims) - 1), min_size=1),
    )
))
def test_reduced_density_is_partial_trace_of_projector(case):
    dims, psi, keep = case
    projector = DensityMatrix(np.outer(psi, psi.conj()))
    expected = partial_trace(projector, dims, keep).matrix
    assert np.allclose(reduced_density(psi, dims, keep).matrix, expected, rtol=0, atol=1e-14)


@PROPERTY_SETTINGS
@given(st.sampled_from([(2, 2), (2, 3), (3, 4), (4, 2)]).flatmap(
    lambda dims: st.tuples(st.just(dims), unit_vector(dims[0] * dims[1]))
))
def test_schmidt_reconstructs_the_state(case):
    dims, psi = case
    sd = schmidt(psi, dims)
    assert np.allclose(sd.reconstruct(), psi, rtol=0, atol=1e-14)
    assert np.all(np.diff(sd.coefficients) <= 0)


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_random_symmetric_hamiltonian_commutes_with_the_outer_swap(d_b, seed):
    h = random_symmetric_hamiltonian(d_b, np.random.default_rng(seed)).matrix
    s = swap_operator((2, d_b, 2), 0, 2)
    assert np.array_equal(s @ h, h @ s)


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


COROLLARY_CASES = {
    "weakly_perturbed_chain": lambda: (build_ising(IsingParams(delta=0.05, lam=1.0)), (2, 2, 2)),
    "degenerate_ground": lambda: (build_ising(IsingParams(delta=0.0, lam=1.0)), (2, 2, 2)),
    "cavity_model": lambda: dicke_mediator_form(DickeConfig(variant="h3", kappa=0.5, n_max=20)),
}


@pytest.mark.parametrize("case", sorted(COROLLARY_CASES))
def test_corollary_checks_the_ground_density_once(case, monkeypatch):
    # the values of concurrence and purity of a re-checked ground_level_density,
    # bit for bit, with one PSD check of rho_AC (plus one of each degenerate member)
    h, dims = COROLLARY_CASES[case]()
    dec = eigh(h)
    rho = ground_level_density(dec, dims, (0, 2))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)) or eigvalsh(a))
    report = corollary_check(h, dims)
    monkeypatch.undo()
    assert report.ground_degenerate == (len(dec.ground_group) > 1)
    assert report.ground_concurrence == concurrence(rho).value
    assert report.ground_purity_ac == purity(rho)
    # PSD check of the members, of the mixture if degenerate, and the spin-flip spectrum
    assert len(calls) == 2 + report.ground_degenerate


def test_corollary_requires_symmetry():
    with pytest.raises(ValueError):
        corollary_check(one_sided_coupling(), (2, 2, 2))
