import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medent.entanglement import ground_state_ac_concurrence
from medent.linalg import HermitianOperator, eigh, kron_all, schmidt, swap_operator
from medent.tripartite import (
    PAULI,
    SIGMA_0,
    IsingParams,
    PauliCoefficients,
    _pauli_terms,
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


finite = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    j_coupling=st.sampled_from([0.0, 1.0]) | finite,
    delta=st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 3.0),
    lam=st.sampled_from([-0.0, 0.0]) | finite,
    delta0=st.none() | finite,
    lambda0=st.none() | finite,
)
def test_build_ising_matches_the_pauli_assembly_bit_for_bit(j_coupling, delta, lam, delta0, lambda0):
    # build_ising adds every term, zero or not; build_pauli_hamiltonian skips zero coefficients
    p = IsingParams(j_coupling, delta, lam, delta0, lambda0)
    assert build_ising(p).matrix.tobytes() == build_pauli_hamiltonian(p.coefficients()).matrix.tobytes()


def test_ising_stack_reports_non_finite_points_as_build_ising_does():
    # finite parameters whose products with delta0 and lambda0 overflow to inf
    params = [
        IsingParams(delta=0.5, lam=1.0),
        IsingParams(delta=1.7e308, lam=1.0, delta0=2.0),
        IsingParams(lam=1.7e308, lambda0=2.0),
    ]
    # a stack raises the error build_ising raises for its first non-finite point
    with pytest.raises(ValueError, match=r"^h_ab contains non-finite entries$"):
        ising_hamiltonians(params)
    for p, message in zip(params[1:], ["h_ab contains non-finite entries", "h_b contains non-finite entries"]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_ising(p)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ising_hamiltonians([params[0], p])
    assert ising_hamiltonians(params[:1]).shape == (1, 8, 8)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(delta=math.nan), "delta must be finite, got nan"),
        (dict(delta=math.inf), "delta must be finite, got inf"),
        (dict(lam=math.nan), "lam must be finite, got nan"),
        (dict(lam=-math.inf), "lam must be finite, got -inf"),
        (dict(lam=1.0, lambda0=math.nan), "lambda0 must be finite, got nan"),
        (dict(lambda0=-math.inf), "lambda0 must be finite, got -inf"),
        (dict(delta=0.5, delta0=math.nan), "delta0 must be finite, got nan"),
        (dict(delta0=math.inf), "delta0 must be finite, got inf"),
    ],
)
def test_ising_params_reject_a_non_finite_field(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        IsingParams(**kwargs)


def complex_ising_hamiltonians(params) -> np.ndarray:
    """The chain stack as five complex terms: delta/2 on 1 x 1 x X, delta/2 on
    X x 1 x 1, J on ZZ1, J on 1ZZ, lambda/2 on 1X1, added one by one to a
    complex zero in ``build_pauli_hamiltonian``'s order; the ValueError of the
    first point whose matrix is not finite and whose coefficients raise."""
    outer, coupling, middle = np.array(
        [(p.delta * p.delta0 / 2, p.j_coupling, p.lam * p.lambda0 / 2) for p in params],
        dtype=float,
    ).reshape(-1, 3).T[:, :, np.newaxis, np.newaxis]
    ab, bc, b = _pauli_terms()
    h = np.zeros((len(params), 8, 8), dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        for c, term in (
            (outer, bc[0, 1]),
            (outer, ab[1, 0]),
            (coupling, ab[3, 3]),
            (coupling, bc[3, 3]),
            (middle, b[0]),
        ):
            h += c * term
    for i in np.flatnonzero(~np.isfinite(h).reshape(len(params), -1).all(axis=1)):
        params[i].coefficients()
    return h


def assert_assembled_as_complex_terms(params):
    try:
        expected = complex_ising_hamiltonians(params)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ising_hamiltonians(params)
        assert str(raised.value) == str(exc)
        return
    with np.errstate(over="ignore"):
        got = ising_hamiltonians(params)
    assert got.dtype == np.complex128
    assert got.tobytes() == expected.tobytes()


# signed zeros, subnormals and values whose products or sums overflow
EDGE_COUPLINGS = [1.0, -0.7, 2.0, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]
EDGE_FIELDS = [0.0, -0.0, -1.3, 3.0, 1e-300, 5e-324, -5e-324, 1e308, -1e308]
EDGE_DELTAS = [0.0, -0.0, 0.1, 1.7, 1e-300, 5e-324, 1e308]
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ising_points(draw):
    return IsingParams(
        j_coupling=draw(st.sampled_from(EDGE_COUPLINGS) | any_finite),
        delta=draw(st.sampled_from(EDGE_DELTAS) | st.floats(0.0, allow_infinity=False)),
        lam=draw(st.sampled_from(EDGE_FIELDS) | any_finite),
        delta0=draw(st.none() | st.sampled_from(EDGE_COUPLINGS) | any_finite),
        lambda0=draw(st.none() | st.sampled_from(EDGE_COUPLINGS) | any_finite),
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(ising_points(), min_size=1, max_size=4))
def test_the_real_assembly_keeps_the_bits_of_the_complex_terms(params):
    assert_assembled_as_complex_terms(params)


def test_the_real_assembly_keeps_the_bits_on_the_edge_grid():
    # every J x delta x lambda of the edge values, with the default and with unit scales
    for delta0, lambda0 in ((None, None), (1.0, 1.0)):
        params = [
            IsingParams(j, d, lam, delta0, lambda0)
            for j in EDGE_COUPLINGS
            for d in EDGE_DELTAS
            for lam in EDGE_FIELDS
        ]
        finite = []
        for p in params:
            assert_assembled_as_complex_terms([p])
            try:
                p.coefficients()
                finite.append(p)
            except ValueError:
                pass
        # the grid holds overflowing 2J diagonals, so inf reaches the stack
        with np.errstate(over="ignore"):
            assert not np.isfinite(ising_hamiltonians(finite)).all()
        assert_assembled_as_complex_terms(finite)
        assert_assembled_as_complex_terms(params)


# ---------------------------------------------------------------- local unitaries on B

def chain_concurrence(delta, h_b):
    """C of the J = 1 chain with outer fields delta / 2 on sigma^1 and the full
    middle field h_b."""
    h = build_pauli_hamiltonian(
        coefficients_with(
            h_ab={(3, 3): 1.0, (1, 0): delta / 2},
            h_bc={(3, 3): 1.0, (0, 1): delta / 2},
            h_b={j: h_b[j] for j in range(3)},
        )
    )
    return ground_state_ac_concurrence(h, (2, 2, 2))


def entangled_chain_points(seed, count, h_y=True):
    """(delta, h_b) draws whose concurrence is at least 1e-6; h_b[1] = 0 unless
    ``h_y``."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        delta, h_b = rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0, 3) * (1.0, h_y, 1.0)
        base = chain_concurrence(delta, h_b)
        if base.value >= 1e-6:
            points.append((delta, h_b, base))
    assert len(points) >= count // 2
    return points


def test_rotating_the_middle_field_about_z_keeps_the_concurrence():
    # exp(-i phi sigma^3 / 2) on B commutes with both sigma^3 sigma^3 couplings
    # and turns h_B about z; the outer fields act on A and C only
    rng = np.random.default_rng(61)
    for delta, (hx, hy, hz), base in entangled_chain_points(60, 80):
        phi = rng.uniform(0.0, 2 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        turned = chain_concurrence(delta, (c * hx - s * hy, s * hx + c * hy, hz))
        assert abs(turned.value - base.value) <= 1e-12
        assert turned.degenerate_ground == base.degenerate_ground


def test_flipping_the_longitudinal_middle_field_keeps_the_concurrence():
    # sigma^1 x sigma^1 x sigma^1 is a product of local unitaries: it keeps the
    # couplings and the sigma^1 fields and flips h_z (h_y too, held at 0)
    for delta, (hx, _, hz), base in entangled_chain_points(62, 80, h_y=False):
        flipped = chain_concurrence(delta, (hx, 0.0, -hz))
        assert abs(flipped.value - base.value) <= 1e-12
        assert flipped.degenerate_ground == base.degenerate_ground
