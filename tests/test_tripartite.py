import numpy as np
import pytest

from medent.linalg import HermitianOperator, eigh, kron_all, schmidt, swap_operator
from medent.tripartite import (
    PAULI,
    SIGMA_0,
    IsingParams,
    PauliCoefficients,
    analytic_ising_spectrum,
    build_ising,
    build_pauli_hamiltonian,
    ising_hamiltonians,
    ising_middle_field,
)


def coefficients_with(h_ab=None, h_bc=None, h_b=None):
    c = PauliCoefficients.zero()
    ab = np.array(c.h_ab)
    bc = np.array(c.h_bc)
    b = np.array(c.h_b)
    for (j, k), val in (h_ab or {}).items():
        ab[j, k] = val
    for (j, k), val in (h_bc or {}).items():
        bc[j, k] = val
    for j, val in (h_b or {}).items():
        b[j] = val
    return PauliCoefficients(ab, bc, b)


def general_field_hamiltonian(h_b):
    """J=1 couplings plus an arbitrary middle-site field vector."""
    return build_pauli_hamiltonian(
        coefficients_with(
            h_ab={(3, 3): 1.0}, h_bc={(3, 3): 1.0}, h_b={j: h_b[j] for j in range(3)}
        )
    )


def test_all_zero_coefficients():
    h = build_pauli_hamiltonian(PauliCoefficients.zero())
    assert np.array_equal(h.matrix, np.zeros((8, 8)))


def test_single_zz_coupling_diagonal():
    h = build_pauli_hamiltonian(coefficients_with(h_ab={(3, 3): 1.0}))
    assert np.allclose(h.matrix, np.diag([1, 1, -1, -1, -1, -1, 1, 1]))


def test_both_zz_couplings_diagonal():
    h = build_pauli_hamiltonian(
        coefficients_with(h_ab={(3, 3): 1.0}, h_bc={(3, 3): 1.0})
    )
    assert np.allclose(h.matrix, np.diag([2, 0, -2, 0, 0, -2, 0, 2]))


def test_pauli_coefficients_validation():
    with pytest.raises(Exception):
        PauliCoefficients(np.zeros((3, 3)), np.zeros((4, 4)), np.zeros(3))
    with pytest.raises(ValueError):
        PauliCoefficients(np.full((4, 4), np.nan), np.zeros((4, 4)), np.zeros(3))


def test_ising_params_rescaling_defaults():
    p = IsingParams(j_coupling=2.0, delta=0.1, lam=0.3)
    assert p.delta0 == 2.0 and p.lambda0 == 2.0
    c = p.coefficients()
    assert c.h_ab[3, 3] == 2.0
    assert c.h_ab[1, 0] == pytest.approx(0.1)  # delta * delta0 / 2
    assert c.h_b[0] == pytest.approx(0.3)      # lam * lambda0 / 2


def test_ising_params_rejects_negative_delta():
    with pytest.raises(ValueError):
        IsingParams(delta=-0.1)


def test_build_ising_bare_couplings():
    h = build_ising(IsingParams(delta=0.0, lam=0.0))
    assert np.allclose(h.matrix, np.diag([2, 0, -2, 0, 0, -2, 0, 2]))


def test_build_ising_lambda_one_spectrum():
    # closed form: +-sqrt(4.25) twice each, +-0.5 twice each
    h = build_ising(IsingParams(delta=0.0, lam=1.0))
    dec = eigh(h)
    r = np.sqrt(4.25)
    expected = np.sort([r, -r, r, -r, 0.5, -0.5, 0.5, -0.5])
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


def test_build_ising_hermitian_and_residual():
    h = build_ising(IsingParams(delta=0.1, lam=1.0))
    dec = eigh(h)
    residual = np.abs(
        h.matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    ).max()
    assert residual <= 1e-9 * np.linalg.norm(h.matrix)


def test_exchange_symmetry_of_ising():
    s = swap_operator((2, 2, 2), 0, 2)
    for delta, lam in [(0.0, 0.0), (0.3, 1.2), (2.0, 0.7)]:
        h = build_ising(IsingParams(delta=delta, lam=lam)).matrix
        assert np.linalg.norm(s @ h @ s - h) <= 1e-12 * max(1.0, np.linalg.norm(h))


def test_analytic_spectrum_zero_field():
    spec = analytic_ising_spectrum(np.zeros(3))
    assert np.allclose(spec.eigenvalues, [2, -2, 0, 0, 0, 0, 2, -2])


def test_analytic_spectrum_transverse_field():
    spec = analytic_ising_spectrum([0.5, 0.0, 0.0])
    r = np.sqrt(4.25)
    assert np.allclose(spec.eigenvalues, [r, -r, 0.5, -0.5, 0.5, -0.5, r, -r])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_eigenvectors_satisfy_eigenproblem(seed):
    rng = np.random.default_rng(seed)
    h_b = rng.standard_normal(3)
    spec = analytic_ising_spectrum(h_b)
    h = general_field_hamiltonian(h_b).matrix
    for i in range(8):
        vec = spec.eigenvectors[:, i]
        assert np.linalg.norm(h @ vec - spec.eigenvalues[i] * vec) <= 1e-10


def test_analytic_matches_dense_many_fields():
    rng = np.random.default_rng(101)
    for _ in range(25):
        h_b = 3.0 * rng.standard_normal(3)
        spec = analytic_ising_spectrum(h_b)
        dec = eigh(general_field_hamiltonian(h_b))
        assert np.abs(spec.sorted_eigenvalues() - dec.eigenvalues).max() <= 1e-9


def test_analytic_eigenvectors_are_products():
    spec = analytic_ising_spectrum([0.4, -0.2, 0.0])
    for i in range(8):
        vec = spec.eigenvectors[:, i]
        # rank 1 across the first-vs-rest and first-two-vs-last bipartitions
        assert schmidt(vec, (2, 4)).rank() == 1
        assert schmidt(vec, (4, 2)).rank() == 1


def test_ground_pair_transverse():
    spec = analytic_ising_spectrum([0.5, 0.0, 0.0])
    g1, g2 = spec.ground_pair()
    h = general_field_hamiltonian([0.5, 0.0, 0.0]).matrix
    e = -np.sqrt(4.25)
    for g in (g1, g2):
        assert np.linalg.norm(h @ g - e * g) <= 1e-10
    # g1 has outer bits (0,0): support only on indices with a = c = 0
    assert np.linalg.norm(g1[[1, 3, 4, 5, 6, 7]]) == pytest.approx(0.0, abs=1e-14)
    assert abs(g1[2]) > 0.9  # mostly |0>|1>_B|0> for a weak transverse field


def test_ground_pair_rejects_longitudinal_dominant():
    spec = analytic_ising_spectrum([0.0, 0.0, 3.0])
    with pytest.raises(ValueError):
        spec.ground_pair()


def test_middle_field_helper():
    assert np.allclose(ising_middle_field(IsingParams(lam=1.0)), [0.5, 0, 0])


def test_constant_offset_is_pure_shift():
    base = coefficients_with(h_ab={(3, 3): 1.0}, h_bc={(3, 3): 1.0})
    shifted = coefficients_with(
        h_ab={(3, 3): 1.0, (0, 0): 2.5}, h_bc={(3, 3): 1.0}
    )
    e0 = eigh(build_pauli_hamiltonian(base)).eigenvalues
    e1 = eigh(build_pauli_hamiltonian(shifted)).eigenvalues
    assert np.allclose(e1, e0 + 2.5, atol=1e-12)


def per_term_pauli_hamiltonian(c):
    """Reference assembly: one kron_all per nonzero coefficient, in tensor order."""
    h = np.zeros((8, 8), dtype=complex)
    for j in range(4):
        for k in range(4):
            if c.h_ab[j, k] != 0.0:
                h += c.h_ab[j, k] * kron_all(PAULI[j], PAULI[k], SIGMA_0)
            if c.h_bc[j, k] != 0.0:
                h += c.h_bc[j, k] * kron_all(SIGMA_0, PAULI[j], PAULI[k])
    for j in range(3):
        if c.h_b[j] != 0.0:
            h += c.h_b[j] * kron_all(SIGMA_0, PAULI[j + 1], SIGMA_0)
    return HermitianOperator(h)


def test_cached_terms_match_per_term_assembly_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(100):
        # about half the coefficients zero, as in the chain models
        ab, bc, b = (rng.standard_normal(s) * (rng.random(s) < 0.5) for s in ((4, 4), (4, 4), 3))
        c = PauliCoefficients(ab, bc, b)
        assert build_pauli_hamiltonian(c).matrix.tobytes() == per_term_pauli_hamiltonian(c).matrix.tobytes()


def test_ising_stack_matches_build_ising_bit_for_bit():
    rng = np.random.default_rng(18)
    params = [
        IsingParams(
            j_coupling=rng.choice([0.0, 0.5, 1.0, rng.uniform(-2, 2)]),
            delta=rng.choice([0.0, rng.uniform(0, 3)]),
            lam=rng.choice([0.0, rng.uniform(-3, 3)]),
            delta0=rng.choice([None, rng.uniform(0.1, 2)]),
            lambda0=rng.choice([None, rng.uniform(0.1, 2)]),
        )
        for _ in range(300)
    ]
    stack = ising_hamiltonians(params)
    for h, p in zip(stack, params):
        assert HermitianOperator(h).matrix.tobytes() == build_ising(p).matrix.tobytes()
        assert HermitianOperator(h).matrix.tobytes() == per_term_pauli_hamiltonian(p.coefficients()).matrix.tobytes()


def test_ising_stack_reports_non_finite_points_as_build_ising_does():
    params = [IsingParams(delta=0.5, lam=1.0), IsingParams(delta=np.inf, lam=1.0), IsingParams(lam=np.nan)]
    # a stack raises the error build_ising raises for its first non-finite point
    with pytest.raises(ValueError, match=r"^h_ab contains non-finite entries$"):
        ising_hamiltonians(params)
    for p, message in zip(params[1:], ["h_ab contains non-finite entries", "h_b contains non-finite entries"]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_ising(p)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ising_hamiltonians([params[0], p])
    assert ising_hamiltonians(params[:1]).shape == (1, 8, 8)
