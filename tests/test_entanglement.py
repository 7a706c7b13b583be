import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from medent.entanglement import (
    concurrence,
    concurrence_stack,
    ground_level_concurrence,
    ground_level_density,
    ground_level_density_stack,
    ground_state_ac_concurrence,
    ground_state_pair_concurrence,
)
from medent.dicke import DickeConfig, build_dicke
from medent.linalg import DensityMatrix, DimensionError, eigh, reduced_density
from medent.tripartite import IsingParams, build_ising

SY = np.array([[0, -1j], [1j, 0]])
YY = np.kron(SY, SY)


def dm(matrix):
    return DensityMatrix(np.asarray(matrix, dtype=complex))


def pure_dm(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return dm(np.outer(v, v.conj()))


def wootters_reference(rho):
    """Independent oracle: eigenvalues of the non-Hermitian product."""
    m = np.asarray(rho, dtype=complex)
    lam = np.linalg.eigvals(m @ YY @ m.conj() @ YY)
    lam = np.sqrt(np.clip(np.sort(lam.real)[::-1], 0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def random_pure_state(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_unitary_2(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_bell_is_maximally_entangled():
    bell = [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]
    assert concurrence(pure_dm(bell)).value == pytest.approx(1.0, abs=1e-12)


def test_product_state_is_zero():
    assert concurrence(pure_dm([1, 0, 0, 0])).value == pytest.approx(0.0, abs=1e-12)


def test_partially_entangled_pure_state():
    # pure-state oracle: C = 2|ad - bc| = 2 sqrt(0.9 * 0.1) = 0.6
    v = [np.sqrt(0.9), 0, 0, np.sqrt(0.1)]
    assert concurrence(pure_dm(v)).value == pytest.approx(0.6, abs=1e-12)


def test_tilde_lambdas_sorted_and_value_formula():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    res = concurrence(dm(rho / np.trace(rho)))
    lam = res.tilde_lambdas
    assert np.all(np.diff(lam) <= 1e-12)
    assert res.value == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), abs=1e-12)
    assert 0.0 <= res.value <= 1.0


def test_dimension_guard():
    with pytest.raises(DimensionError):
        concurrence(dm(np.eye(2) / 2))


def test_pure_state_oracle_many():
    rng = np.random.default_rng(42)
    for _ in range(200):
        v = random_pure_state(rng)
        a, b, c, d = v
        expected = 2 * abs(a * d - b * c)
        got = concurrence(pure_dm(v)).value
        assert abs(got - expected) <= 1e-10


def test_matches_nonhermitian_reference_on_mixed_states():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        rho = rho / np.trace(rho)
        assert concurrence(dm(rho)).value == pytest.approx(
            wootters_reference(rho), abs=1e-9
        )


def test_local_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        rho = rho / np.trace(rho)
        u = np.kron(random_unitary_2(rng), random_unitary_2(rng))
        rotated = u @ rho @ u.conj().T
        assert concurrence(dm(rotated)).value == pytest.approx(
            concurrence(dm(rho)).value, abs=1e-9
        )


def test_separable_product_is_zero():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ra = a @ a.conj().T
        rb = b @ b.conj().T
        rho = np.kron(ra / np.trace(ra), rb / np.trace(rb))
        assert concurrence(dm(rho)).value <= 1e-10


# ---------------------------------------------------------------- ground state queries

def test_degenerate_ground_reports_zero_with_flag():
    h = build_ising(IsingParams(delta=0.0, lam=1.0))
    res = ground_state_ac_concurrence(h, (2, 2, 2))
    assert res.degenerate_ground is True
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_small_delta_ground_concurrence_closed_form():
    # exact dense-diagonalization value; the delta -> 0 closed form is
    # lam / sqrt(lam^2 + 16) = 1/sqrt(17)
    h = build_ising(IsingParams(delta=0.01, lam=1.0))
    res = ground_state_ac_concurrence(h, (2, 2, 2))
    assert res.degenerate_ground is False
    assert res.value == pytest.approx(1 / np.sqrt(17), abs=2e-4)
    # independent oracle route on the same reduced state
    dec_vec = np.linalg.eigh(h.matrix)[1][:, 0]
    rho = reduced_density(dec_vec, (2, 2, 2), (0, 2))
    assert res.value == pytest.approx(wootters_reference(rho.matrix), abs=1e-9)


def test_large_delta_ground_concurrence_small():
    h = build_ising(IsingParams(delta=10.0, lam=1.0))
    assert ground_state_ac_concurrence(h, (2, 2, 2)).value < 0.05


def test_monotone_landscape_slice():
    values = [
        ground_state_ac_concurrence(
            build_ising(IsingParams(delta=d, lam=1.0)), (2, 2, 2)
        ).value
        for d in (0.01, 0.1, 1.0, 5.0)
    ]
    assert values[0] > values[1] > values[2] > values[3]


def test_closed_form_limit_scales_with_lambda():
    # delta small enough to sit near the limit, large enough that the
    # second-order splitting stays clear of the degeneracy tolerance
    for lam in (0.5, 1.0, 2.0, 3.0):
        h = build_ising(IsingParams(delta=1e-3, lam=lam))
        got = ground_state_ac_concurrence(h, (2, 2, 2)).value
        assert got == pytest.approx(lam / np.sqrt(lam**2 + 16), abs=1e-3)


def test_pair_concurrence_respects_pair_argument():
    h = build_ising(IsingParams(delta=0.01, lam=1.0))
    outer = ground_state_pair_concurrence(h, (2, 2, 2), (0, 2))
    nearest = ground_state_pair_concurrence(h, (2, 2, 2), (0, 1))
    assert outer.value > 0.2
    # outer-to-middle entanglement of the near-degenerate ground state is tiny
    assert nearest.value < 0.05


def test_pair_concurrence_dimension_guards():
    h = build_ising(IsingParams(delta=0.1, lam=1.0))
    with pytest.raises(DimensionError):
        ground_state_pair_concurrence(h, (2, 4), (0, 1))
    with pytest.raises(DimensionError):
        ground_state_ac_concurrence(h, (2, 2, 2, 2))


# ---------------------------------------------------------------- properties (hypothesis)

UNIT_FLOATS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)
# sqrt amplifies eigenvalue noise near zero to ~1e-8 (see concurrence_stack)
PROPERTY_ATOL = 1e-6


def complex_entries(n):
    return arrays(np.float64, (2, n), elements=UNIT_FLOATS).map(lambda a: a[0] + 1j * a[1])


def unitary_from(entries):
    q, r = np.linalg.qr(entries.reshape(2, 2) + 2 * np.eye(2))
    return q


def stacked_and_scalar(rhos):
    """Concurrences of the stack in one call, checked bit for bit against one call each."""
    values, _ = concurrence_stack(np.array([rho.matrix for rho in rhos]))
    assert [float(v) for v in values] == [concurrence(rho).value for rho in rhos]
    return values


@PROPERTY_SETTINGS
@given(complex_entries(16), complex_entries(4), complex_entries(4))
def test_concurrence_invariant_under_local_unitaries(g, ua, uc):
    g = g.reshape(4, 4) + 0.1 * np.eye(4)
    rho = g @ g.conj().T
    rho = dm(rho / np.trace(rho).real)
    u = np.kron(unitary_from(ua), unitary_from(uc))
    rotated = dm(u @ rho.matrix @ u.conj().T)
    c, c_rotated = stacked_and_scalar([rho, rotated])
    assert c_rotated == pytest.approx(c, abs=PROPERTY_ATOL)
    assert 0.0 <= c <= 1.0


@PROPERTY_SETTINGS
@given(complex_entries(4).filter(lambda v: np.linalg.norm(v) > 1e-3))
def test_pure_state_concurrence_is_spin_flip_overlap(v):
    psi = v / np.linalg.norm(v)
    rho = pure_dm(psi)
    (c,) = stacked_and_scalar([rho])
    assert c == pytest.approx(abs(np.vdot(psi, YY @ psi.conj())), abs=PROPERTY_ATOL)


def test_concurrence_stack_raises_when_lapack_fails(monkeypatch):
    rng = np.random.default_rng(8)
    rhos = [pure_dm(random_pure_state(rng)) for _ in range(4)]
    stack = np.array([rho.matrix for rho in rhos])
    expected = [concurrence(rho).value for rho in rhos]

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError, match=r"^Eigenvalues did not converge$"):
        concurrence_stack(stack)
    with pytest.raises(np.linalg.LinAlgError, match=r"^Eigenvalues did not converge$"):
        concurrence(rhos[2])
    monkeypatch.undo()
    assert concurrence_stack(stack)[0].tolist() == expected


def test_ground_level_density_stack_matches_member_by_member_mixture():
    # eigenbases with ground groups of different sizes in one stack, on a qubit x qutrit x qubit
    rng = np.random.default_rng(12)
    dims, keep, sizes = (2, 3, 2), (0, 2), np.array([1, 3, 2, 1, 4])
    a = rng.standard_normal((len(sizes), 12, 12)) + 1j * rng.standard_normal((len(sizes), 12, 12))
    bases = np.linalg.qr(a)[0]
    rho = ground_level_density_stack(bases, sizes, dims, keep)
    for basis, size, got in zip(bases, sizes, rho):
        members = [reduced_density(basis[:, k], dims, keep).matrix for k in range(size)]
        expected = members[0] if size == 1 else DensityMatrix(sum(members) / size).matrix
        assert got.tobytes() == expected.tobytes()


def test_ground_level_density_stack_checks_only_ground_group_members():
    # the columns past a smaller group's size are reduced with the stack but never checked
    rng = np.random.default_rng(13)
    dims, keep, sizes = (2, 3, 2), (0, 2), np.array([1, 2])
    a = rng.standard_normal((2, 12, 12)) + 1j * rng.standard_normal((2, 12, 12))
    bases = np.linalg.qr(a)[0]
    expected = ground_level_density_stack(bases, sizes, dims, keep)
    bases[0, :, 1] *= 2  # outside basis 0's ground group; its reduction has trace 4
    assert ground_level_density_stack(bases, sizes, dims, keep).tobytes() == expected.tobytes()
    bases[1, :, 1] *= 2  # inside basis 1's ground group
    with pytest.raises(ValueError, match=r"^trace = \S+, expected 1 within 1e-10$"):
        ground_level_density_stack(bases, sizes, dims, keep)


@pytest.mark.parametrize(
    "h, dims, pair",
    [
        (build_ising(IsingParams(delta=0.05, lam=1.0)), (2, 2, 2), (0, 2)),
        (build_ising(IsingParams(delta=0.0, lam=0.0)), (2, 2, 2), (0, 2)),  # degenerate
        (build_dicke(DickeConfig("h2", 0.6, n_max=12)), (2, 2, 13), (0, 1)),
        (build_dicke(DickeConfig("h1", 1 / np.sqrt(2), n_max=12)), (2, 2, 13), (0, 1)),  # degenerate
    ],
)
def test_ground_concurrence_is_checked_once_and_unchanged(h, dims, pair):
    # the stack kernels give the bits of concurrence(ground_level_density(...)),
    # which checks the reduction a second time as a DensityMatrix
    dec = eigh(h)
    got = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), dims, pair)
    expected = concurrence(ground_level_density(dec, dims, pair))
    assert got.value.hex() == expected.value.hex()
    assert got.tilde_lambdas.tobytes() == expected.tilde_lambdas.tobytes()
    assert got.degenerate_ground == (len(dec.ground_group) > 1)
