import re

import numpy as np
import pytest

from medent.linalg import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    NumericalError,
    eigh,
    eigh_stack,
    fix_phases,
    kron,
    kron_all,
    partial_trace,
    permute_subsystems,
    purity,
    reduced_density,
    schmidt,
    swap_operator,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator((m + m.conj().T) / 2)


def random_density(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho))


# ---------------------------------------------------------------- kron

def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_sz_sz():
    assert np.array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_matches_index_formula():
    # oracle: (a ox b)[i*p + k][j*q + l] = a[i][j] * b[k][l]
    a, b = SX, SZ
    p, q = b.shape
    got = kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert got[i * p + k, j * q + l] == a[i, j] * b[k, l]


def test_kron_associative_exact():
    rng = np.random.default_rng(3)
    a = rng.integers(-3, 4, (2, 2)).astype(complex)
    b = rng.integers(-3, 4, (3, 3)).astype(complex)
    c = rng.integers(-3, 4, (2, 2)).astype(complex)
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_kron_dimension_limit():
    big = np.eye(3000, dtype=complex)
    with pytest.raises(DimensionError):
        kron(big, I2)


# ---------------------------------------------------------------- eigh

def test_eigh_identity():
    dec = eigh(HermitianOperator(np.eye(4)))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert dec.degeneracy_groups == ((0, 1, 2, 3),)


def test_eigh_pauli_x():
    dec = eigh(HermitianOperator(SX))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eigh_residual_random64():
    rng = np.random.default_rng(7)
    h = random_hermitian(64, rng)
    dec = eigh(h)
    scale = np.linalg.norm(h.matrix)
    residual = np.abs(h.matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues).max()
    assert residual <= 1e-9 * scale
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.abs(gram - np.eye(64)).max() <= 1e-10


def test_eigh_reconstruction_many_sizes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        h = random_hermitian(n, rng)
        dec = eigh(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - h.matrix) <= 1e-9 * max(1.0, np.linalg.norm(h.matrix))


def test_eigh_deterministic_and_phase_fixed():
    rng = np.random.default_rng(5)
    h = random_hermitian(6, rng)
    d1, d2 = eigh(h), eigh(h)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for j in range(6):
        col = d1.eigenvectors[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-14


def scalar_fix_phases(vectors):
    """Reference: one column at a time, pivot magnitude from the scalar abs()."""
    out = np.array(vectors, dtype=np.complex128)
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def test_fix_phases_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in [*range(2, 65), 100, 164, 323, 324]:
        real = rng.standard_normal((n, n))
        for m in (real, real + 1j * rng.standard_normal((n, n))):
            assert fix_phases(m).tobytes() == scalar_fix_phases(m).tobytes()
    with_zero = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    with_zero[:, 1] = 0.0
    assert fix_phases(with_zero).tobytes() == scalar_fix_phases(with_zero).tobytes()


def reference_eigh(m):
    """The per-matrix algorithm: LAPACK, then the per-column phase convention."""
    w, v = np.linalg.eigh(m)
    return w, scalar_fix_phases(v)


def random_hermitian_stack(n, d, rng, degenerate=False):
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    h = (a + a.conj().swapaxes(1, 2)) / 2
    if degenerate:
        # exact twofold ground levels: U diag(-1, -1, 0, 1, ...) U^dag
        q = np.linalg.qr(a)[0]
        w = np.concatenate([[-1.0, -1.0], np.arange(d - 2, dtype=float)])
        h = (q * w) @ q.conj().swapaxes(1, 2)
        h = (h + h.conj().swapaxes(1, 2)) / 2
    return h


@pytest.mark.parametrize("degenerate", [False, True])
def test_eigh_stack_matches_scalar_eigh_bit_for_bit(degenerate):
    rng = np.random.default_rng(31)
    for d in range(2, 13):
        stack = random_hermitian_stack(7, d, rng, degenerate)
        dec = eigh_stack(stack)
        for i, m in enumerate(stack):
            one = eigh(HermitianOperator(m))
            ref_w, ref_v = reference_eigh(HermitianOperator(m).matrix)
            assert dec.eigenvalues[i].tobytes() == one.eigenvalues.tobytes() == ref_w.tobytes()
            assert dec.eigenvectors[i].tobytes() == one.eigenvectors.tobytes() == ref_v.tobytes()
            assert dec.ground_sizes[i] == len(one.ground_group)
            assert dec.gaps[i] == one.gap()
        if degenerate:
            assert (dec.ground_sizes == 2).all()


def test_eigh_stack_raises_the_first_failed_check():
    rng = np.random.default_rng(32)
    stack = random_hermitian_stack(5, 4, rng)
    stack[1, 0, 1] += 1.0
    stack[2, 0, 1] += 2.0
    stack[3, 2, 2] = np.nan
    # the finiteness check of the whole stack runs before the Hermiticity check
    with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
        eigh_stack(stack)
    # the first failing matrix is reported, as HermitianOperator reports it alone
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian") as alone:
        HermitianOperator(stack[1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
        eigh_stack(stack[:3])
    dec = eigh_stack(stack[[0, 4]])
    for row, i in enumerate((0, 4)):
        assert dec.eigenvectors[row].tobytes() == eigh(HermitianOperator(stack[i])).eigenvectors.tobytes()


def test_eigh_stack_raises_when_lapack_fails(monkeypatch):
    rng = np.random.default_rng(33)
    stack = random_hermitian_stack(4, 3, rng)
    bad = stack[2].copy()
    solve = np.linalg.eigh

    def failing(a):
        if np.any(np.all(np.asarray(a) == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    message = r"^eigensolver failed to converge: Eigenvalues did not converge$"
    with pytest.raises(NumericalError, match=message) as info:
        eigh_stack(stack)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    with pytest.raises(NumericalError, match=message):
        eigh(HermitianOperator(bad))
    dec = eigh_stack(stack[[0, 1, 3]])
    monkeypatch.undo()
    for row, i in enumerate((0, 1, 3)):
        assert dec.eigenvectors[row].tobytes() == eigh(HermitianOperator(stack[i])).eigenvectors.tobytes()


def test_eigh_stack_keeps_real_stacks_real():
    rng = np.random.default_rng(34)
    a = rng.standard_normal((6, 9, 9))
    stack = (a + a.swapaxes(1, 2)) / 2
    stack[4] = np.diag([2.0, -1.0, -1.0, 0.0, 3.0, 5.0, 5.0, 7.0, 1.0])  # degenerate ground
    dec = eigh_stack(stack)
    assert dec.eigenvectors.dtype == np.float64
    for i, m in enumerate(stack):
        one = eigh(HermitianOperator(m))
        assert np.allclose(dec.eigenvalues[i], one.eigenvalues, rtol=0, atol=1e-13)
        assert dec.ground_sizes[i] == len(one.ground_group)
        assert dec.gaps[i] == pytest.approx(one.gap(), abs=1e-13)
        v = dec.eigenvectors[i]
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(9)]
        assert (pivots > 0).all()
        assert np.allclose(m @ v, v * dec.eigenvalues[i], atol=1e-12)
    assert dec.ground_sizes[4] == 2


def test_eigh_stack_checks_real_stacks():
    rng = np.random.default_rng(35)
    a = rng.standard_normal((3, 4, 4))
    stack = (a + a.swapaxes(1, 2)) / 2
    stack[0, 0, 1] += 1.0
    stack[2, 3, 3] = np.inf
    with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
        eigh_stack(stack)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian"):
        eigh_stack(stack[:2])
    assert eigh_stack(stack[1:2]).eigenvectors.dtype == np.float64


def test_non_contiguous_input_is_checked_like_contiguous_input():
    # a float64 view of a complex array needs a contiguous last axis; the
    # checks must not
    eye = HermitianOperator(np.eye(4, dtype=complex).T)
    assert np.array_equal(eye.matrix, np.eye(4))
    rng = np.random.default_rng(36)
    stack = random_hermitian_stack(3, 5, rng)
    transposed = np.asfortranarray(stack.swapaxes(1, 2)).swapaxes(1, 2)
    assert not transposed[0].flags.c_contiguous
    assert eigh_stack(transposed).eigenvectors.tobytes() == eigh_stack(stack).eigenvectors.tobytes()
    strided = np.repeat(stack, 2, axis=0)[::2]
    assert eigh_stack(strided).eigenvectors.tobytes() == eigh_stack(stack).eigenvectors.tobytes()
    bad = np.eye(3, dtype=complex).T.copy(order="F")
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        HermitianOperator(bad)
    with pytest.raises(ValueError, match="NaN or Inf"):
        kron(bad, np.eye(2))


def test_degeneracy_grouping():
    h = HermitianOperator(np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 5.0]))
    dec = eigh(h)
    assert dec.degeneracy_groups == ((0, 1), (2, 3, 4), (5,))
    assert dec.ground_group == (0, 1)
    assert dec.gap() == pytest.approx(1.0)
    assert dec.is_degenerate(2) and not dec.is_degenerate(5)


def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[np.nan, 0], [0, 1]], dtype=complex))


# ---------------------------------------------------------------- density / partial trace

def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue


def test_partial_trace_bell_with_spectator():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    # arrange as A x B x C with bell on (A, C) and |0><0| on B
    psi = np.einsum("ac,b->abc", bell.reshape(2, 2), np.array([1, 0], dtype=complex))
    rho = DensityMatrix(np.outer(psi.reshape(-1), psi.reshape(-1).conj()))
    reduced = partial_trace(rho, (2, 2, 2), keep=(0, 2))
    assert np.allclose(reduced.matrix, proj, atol=1e-12)


def test_partial_trace_maximally_mixed():
    rho = DensityMatrix(np.eye(8, dtype=complex) / 8)
    reduced = partial_trace(rho, (2, 2, 2), keep=(0, 2))
    assert np.allclose(reduced.matrix, np.eye(4) / 4, atol=1e-12)


def test_partial_trace_ghz():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = DensityMatrix(np.outer(ghz, ghz.conj()))
    reduced = partial_trace(rho, (2, 2, 2), keep=(0, 2))
    assert np.allclose(reduced.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


def test_partial_trace_linearity_and_trace():
    rng = np.random.default_rng(13)
    r1, r2 = random_density(8, rng), random_density(8, rng)
    mix = DensityMatrix(0.3 * r1.matrix + 0.7 * r2.matrix)
    left = partial_trace(mix, (2, 4), keep=(0,))
    right = 0.3 * partial_trace(r1, (2, 4), (0,)).matrix + 0.7 * partial_trace(r2, (2, 4), (0,)).matrix
    assert np.allclose(left.matrix, right, atol=1e-12)
    assert np.trace(left.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_dimension_mismatch():
    rho = DensityMatrix(np.eye(8, dtype=complex) / 8)
    with pytest.raises(DimensionError):
        partial_trace(rho, (2, 2), keep=(0,))
    with pytest.raises(DimensionError):
        partial_trace(rho, (2, 2, 2), keep=())


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    for keep in [(0,), (1,), (2,), (0, 2), (0, 1)]:
        a = reduced_density(psi, (2, 3, 2), keep)
        b = partial_trace(rho, (2, 3, 2), keep)
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)


# ---------------------------------------------------------------- purity

def test_purity_pure_and_mixed():
    assert purity(DensityMatrix(np.diag([1.0, 0.0]).astype(complex))) == pytest.approx(1.0)
    assert purity(DensityMatrix(np.eye(2, dtype=complex) / 2)) == pytest.approx(0.5)
    assert purity(DensityMatrix(np.diag([0.75, 0.25]).astype(complex))) == pytest.approx(0.625)


# ---------------------------------------------------------------- schmidt

def test_schmidt_product_state():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    sd = schmidt(v, (2, 2))
    assert sd.rank() == 1
    assert sd.coefficients[0] == pytest.approx(1.0)


def test_schmidt_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    sd = schmidt(bell, (2, 2))
    assert np.allclose(sd.coefficients, [1 / np.sqrt(2)] * 2)


def test_schmidt_already_diagonal():
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(0.9), np.sqrt(0.1)
    sd = schmidt(v, (2, 2))
    assert np.allclose(sd.coefficients, [np.sqrt(0.9), np.sqrt(0.1)])


def test_schmidt_reconstruction_and_left_spectrum():
    rng = np.random.default_rng(19)
    for dl, dr in [(2, 2), (2, 3), (3, 4)]:
        v = rng.standard_normal(dl * dr) + 1j * rng.standard_normal(dl * dr)
        v /= np.linalg.norm(v)
        sd = schmidt(v, (dl, dr))
        assert np.sum(sd.coefficients**2) == pytest.approx(1.0, abs=1e-10)
        rebuilt = sd.reconstruct()
        phase = np.vdot(rebuilt, v)
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.linalg.norm(rebuilt * phase / abs(phase) - v) < 1e-9
        rho_left = reduced_density(v, (dl, dr), (0,))
        evals = np.sort(np.linalg.eigvalsh(rho_left.matrix))[::-1]
        padded = np.zeros(dl)
        padded[: len(sd.coefficients)] = sd.coefficients**2
        assert np.allclose(evals, np.sort(padded)[::-1], atol=1e-10)


def test_schmidt_rejects_unnormalized():
    with pytest.raises(ValueError):
        schmidt(np.array([1.0, 1.0, 0, 0]), (2, 2))


# ---------------------------------------------------------------- swap / permute

def test_swap_operator_involution_and_action():
    s = swap_operator((2, 3, 2), 0, 2)
    assert np.array_equal(s @ s, np.eye(12, dtype=complex))
    rng = np.random.default_rng(23)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = s @ np.kron(np.kron(u, v), w)
    rhs = np.kron(np.kron(w, v), u)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_swap_operator_unequal_dims():
    with pytest.raises(DimensionError):
        swap_operator((2, 3), 0, 1)


def test_permute_subsystems_matches_kron():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = kron_all(a, b, c)
    swapped = permute_subsystems(m, (2, 3, 2), (0, 2, 1))
    assert np.allclose(swapped, kron_all(a, c, b), atol=1e-12)
