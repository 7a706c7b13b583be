import numpy as np
import pytest

from medent.entanglement import concurrence
from medent.linalg import HermitianOperator, NumericalError, eigh, fix_phases, reduced_density
from medent import perturbation
from medent.perturbation import degenerate_pt2, ising_pt_ground_state
from medent.tripartite import IsingParams, build_ising


def unit_outer_field_perturbation():
    """The delta-derivative of the chain Hamiltonian: (sigma1 x 1 x 1 + 1 x 1 x sigma1)/2."""
    h1 = build_ising(IsingParams(delta=1.0, lam=0.0)).matrix
    h0 = build_ising(IsingParams(delta=0.0, lam=0.0)).matrix
    return HermitianOperator(h1 - h0)


def perturbed_chain(delta, lam):
    return build_ising(IsingParams(delta=delta, lam=lam))


def exact_ground(delta, lam):
    dec = eigh(perturbed_chain(delta, lam))
    return dec.eigenvalues, dec.eigenvectors[:, 0]


def pt_ground_vector(delta, lam):
    h0 = build_ising(IsingParams(delta=0.0, lam=lam))
    v = HermitianOperator(delta * unit_outer_field_perturbation().matrix)
    pt = degenerate_pt2(h0, v, eigh(h0).ground_group)
    psi = pt.zeroth_order[:, 0] + pt.first_order[:, 0]
    return psi / np.linalg.norm(psi), pt


def pt2_reference(h0, v, subspace):
    """degenerate_pt2 as it solved its effective Hamiltonian before it called
    eigh: symmetrized by hand, a bare np.linalg.eigh, then fix_phases.
    Returns (energies, zeroth_order, first_order, unperturbed_energy)."""
    dec = eigh(h0)
    d_idx = sorted(subspace)
    k_idx = [i for i in range(dec.dim) if i not in d_idx]
    w, u = dec.eigenvalues, dec.eigenvectors
    e0 = float(np.mean(w[d_idx]))
    vm = u.conj().T @ v.matrix @ u
    heff = e0 * np.eye(len(d_idx)) + vm[np.ix_(d_idx, d_idx)]
    first = np.zeros((dec.dim, len(d_idx)), dtype=np.complex128)
    if k_idx:
        denom = e0 - w[k_idx]
        vdk = vm[np.ix_(d_idx, k_idx)]
        heff = heff + (vdk / denom[np.newaxis, :]) @ vdk.conj().T
    eps, c = np.linalg.eigh((heff + heff.conj().T) / 2)
    c = fix_phases(c)
    if k_idx:
        first = u[:, k_idx] @ ((vm[np.ix_(k_idx, d_idx)] @ c) / denom[:, np.newaxis])
    return eps.astype(float), u[:, d_idx] @ c, first, e0


def random_degenerate_pair(seed):
    """h0 with levels of multiplicity 1 to 3 in a random eigenbasis, and a random v."""
    rng = np.random.default_rng(seed)
    levels = rng.permutation(5)[: rng.integers(2, 5)] * 1.0
    w = np.repeat(levels, rng.integers(1, 4, size=len(levels)))
    d = len(w)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(q @ np.diag(w) @ q.conj().T), HermitianOperator(0.05 * (m + m.conj().T))


@pytest.mark.parametrize("family", ["chain", "random"])
def test_degenerate_pt2_matches_the_bare_lapack_reference(family):
    if family == "chain":
        v1 = unit_outer_field_perturbation().matrix
        cases = [
            (build_ising(IsingParams(delta=0.0, lam=lam)), HermitianOperator(delta * v1))
            for lam in np.linspace(0.0, 3.0, 31)
            for delta in (0.01, 0.1, 1.0)
        ]
    else:
        cases = [random_degenerate_pair(seed) for seed in range(40)]
    for h0, v in cases:
        # every level of h0, the non-degenerate ones included
        for group in eigh(h0).degeneracy_groups:
            pt = degenerate_pt2(h0, v, group)
            energies, zeroth, first, e0 = pt2_reference(h0, v, group)
            assert pt.energies.tobytes() == energies.tobytes()
            assert pt.zeroth_order.tobytes() == zeroth.tobytes()
            assert pt.first_order.tobytes() == first.tobytes()
            assert pt.unperturbed_energy.hex() == e0.hex()


def test_zero_perturbation_gives_zero_corrections():
    h0 = build_ising(IsingParams(delta=0.0, lam=1.0))
    zero = HermitianOperator(np.zeros((8, 8)))
    pt = degenerate_pt2(h0, zero, eigh(h0).ground_group)
    assert np.allclose(pt.energies, pt.unperturbed_energy, atol=1e-12)
    assert np.linalg.norm(pt.first_order) == pytest.approx(0.0, abs=1e-14)


def test_rejects_non_degenerate_subspace():
    h0 = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
    v = HermitianOperator(np.eye(3))
    with pytest.raises(ValueError):
        degenerate_pt2(h0, v, (0, 1))


def test_accidental_resonance_detected():
    # level 2 sits outside the degenerate group but within the resonance guard
    h0 = HermitianOperator(np.diag([0.0, 0.0, 5e-9, 1.0]))
    v = HermitianOperator(np.full((4, 4), 0.1))
    with pytest.raises(NumericalError):
        degenerate_pt2(h0, v, (0, 1))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_pt_overlap_with_exact(lam):
    psi_pt, _ = pt_ground_vector(0.05, lam)
    _, psi_exact = exact_ground(0.05, lam)
    overlap = abs(np.vdot(psi_pt, psi_exact)) ** 2
    assert overlap >= 0.99


def test_second_order_splitting_is_quadratic():
    gaps = {}
    for delta in (0.01, 0.02, 0.04):
        w, _ = exact_ground(delta, 1.0)
        gaps[delta] = w[1] - w[0]
    assert 3.6 <= gaps[0.02] / gaps[0.01] <= 4.4
    assert 3.6 <= gaps[0.04] / gaps[0.02] <= 4.4


def test_pt_energy_error_beyond_second_order():
    errors = {}
    for delta in (0.01, 0.02):
        _, pt = pt_ground_vector(delta, 1.0)
        w, _ = exact_ground(delta, 1.0)
        errors[delta] = abs(pt.energies[0] - w[0])
    assert errors[0.02] / errors[0.01] >= 6.0


def test_first_order_component_scales_linearly():
    norms = {}
    for delta in (0.01, 0.02):
        _, pt = pt_ground_vector(delta, 1.0)
        norms[delta] = np.linalg.norm(pt.first_order[:, 0])
    assert 1.8 <= norms[0.02] / norms[0.01] <= 2.2


def test_gap_vanishes_with_delta():
    gaps = []
    for delta in (0.2, 0.1, 0.05, 0.01):
        w, _ = exact_ground(delta, 1.0)
        gaps.append(w[1] - w[0])
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------- wrapped ground state

def test_wrapper_state_is_normalized_by_k():
    state = ising_pt_ground_state(1.0, 0.05)
    vec = state.state_vector()
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)
    assert state.normalization == pytest.approx(np.linalg.norm(state.basis @ state.amplitudes))


def test_wrapper_matches_generic_routine():
    state = ising_pt_ground_state(1.0, 0.05)
    psi_pt, _ = pt_ground_vector(0.05, 1.0)
    overlap = abs(np.vdot(state.state_vector(), psi_pt))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_wrapper_solves_h0_once_and_keeps_the_generic_routine_bits(monkeypatch):
    h0 = build_ising(IsingParams(delta=0.0, lam=1.3))
    v = HermitianOperator(build_ising(IsingParams(delta=0.05, lam=1.3)).matrix - h0.matrix)
    expected = degenerate_pt2(h0, v, eigh(h0).ground_group)
    solved = []
    monkeypatch.setattr(perturbation, "eigh", lambda h: solved.append(h.dim) or eigh(h))
    state = ising_pt_ground_state(1.3, 0.05)
    # h0, then the effective Hamiltonian of its twofold ground level
    assert solved == [8, 2]
    assert state.energy.hex() == float(expected.energies[0]).hex()


def test_delta_zero_returns_flagged_symmetric_combination():
    state = ising_pt_ground_state(1.0, 0.0)
    assert state.degenerate is True
    amps = state.amplitudes
    # support only on the two degenerate product states
    assert abs(amps[1]) == pytest.approx(1.0)
    assert abs(amps[7]) == pytest.approx(1.0)
    assert np.linalg.norm(amps[[0, 2, 3, 4, 5, 6]]) == pytest.approx(0.0, abs=1e-14)
    assert state.normalization == pytest.approx(np.sqrt(2.0))
    assert np.linalg.norm(state.constants) == 0.0


def test_corrections_live_on_opposite_bit_products():
    state = ising_pt_ground_state(1.0, 0.05)
    # amplitudes on the top pair vanish: the perturbation flips one outer bit
    assert abs(state.amplitudes[0]) < 1e-12
    assert abs(state.amplitudes[6]) < 1e-12
    # constants are the first-order weights per unit delta
    amps = state.amplitudes
    expected = np.array([amps[4], amps[5], amps[2], amps[3]]) / 0.05
    assert np.allclose(state.constants, expected, atol=1e-14)
    assert np.linalg.norm(state.constants) > 0


def test_pt_concurrence_tracks_exact_at_small_delta():
    state = ising_pt_ground_state(1.0, 0.05)
    rho = reduced_density(state.state_vector(), (2, 2, 2), (0, 2))
    c_pt = concurrence(rho).value
    _, psi_exact = exact_ground(0.05, 1.0)
    c_exact = concurrence(reduced_density(psi_exact, (2, 2, 2), (0, 2))).value
    assert abs(c_pt - c_exact) <= 0.05


def test_overlap_at_regime_edge():
    # delta right at the soft limit still tracks the exact ground state well
    state = ising_pt_ground_state(0.5, 0.2)
    _, psi_exact = exact_ground(0.2, 0.5)
    assert abs(np.vdot(state.state_vector(), psi_exact)) ** 2 >= 0.95


def test_pt_concurrence_delta_to_zero_limit():
    # the limit is lam / sqrt(lam^2 + 16): the coherence between the two
    # degenerate products is capped by the middle-spinor overlap
    for lam in (0.5, 1.0, 2.0):
        state = ising_pt_ground_state(lam, 0.002)
        rho = reduced_density(state.state_vector(), (2, 2, 2), (0, 2))
        assert concurrence(rho).value == pytest.approx(
            lam / np.sqrt(lam**2 + 16), abs=1e-3
        )


def test_wrapper_warns_outside_regime():
    with pytest.warns(UserWarning):
        ising_pt_ground_state(1.0, 0.3)


def test_wrapper_rejects_negative_delta():
    with pytest.raises(ValueError):
        ising_pt_ground_state(1.0, -0.01)
