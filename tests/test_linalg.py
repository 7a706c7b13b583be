import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medent.linalg import (
    ENTRY_LIMIT,
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    NumericalError,
    _hermitian_stack,
    _merged_ground_level,
    _sector_ground_level,
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


def test_an_overflowing_kron_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^kron of a 1x1 and a 1x1 matrix overflows the float range$"):
            kron(np.array([[1e200]]), np.array([[1e200]]))
        # an imaginary product, i * i, overflowing the real part in the last factor
        with pytest.raises(ValueError, match="^kron of a 2x2 and a 2x2 matrix overflows the float range$"):
            kron_all(np.array([[1e200j]]), I2, 1e200j * SX)
        assert kron(np.array([[1e154]]), np.array([[1e154]]))[0, 0] == 1e154 * 1e154


def bit_pattern(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def test_kron_keeps_the_bits_of_every_finite_product():
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.integers(-300, 150, (2, 3, 3))
    a, b = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))) * scales
    a[0, 0], b[1, 1] = -0.0, complex(0.0, -0.0)
    assert np.array_equal(bit_pattern(kron(a, b)), bit_pattern(np.kron(a, b)))
    assert np.array_equal(bit_pattern(kron_all(a, b, a)), bit_pattern(np.kron(np.kron(a, b), a)))
    # the cached operator stacks built with kron
    from medent.dicke import _ATOM_BASES, SIGMA_MINUS, SIGMA_PLUS
    from medent.theorem import _operator_stacks, hermitian_basis
    from medent.tripartite import PAULI, SIGMA_0, SIGMA_3, _pauli_terms

    def np_kron_all(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = np.kron(out, f)
        return out

    ab, bc, field = _pauli_terms()
    assert np.array_equal(bit_pattern(ab), bit_pattern([[np_kron_all(x, y, SIGMA_0) for y in PAULI] for x in PAULI]))
    assert np.array_equal(bit_pattern(bc), bit_pattern([[np_kron_all(SIGMA_0, x, y) for y in PAULI] for x in PAULI]))
    assert np.array_equal(bit_pattern(field), bit_pattern([np_kron_all(SIGMA_0, x, SIGMA_0) for x in PAULI[1:]]))
    atoms = _ATOM_BASES["product"]
    sigma3 = [np.kron(SIGMA_3, SIGMA_0), np.kron(SIGMA_0, SIGMA_3)]
    assert np.array_equal(bit_pattern(atoms.sigma3), bit_pattern(sigma3))
    ladders = [[np.kron(SIGMA_PLUS, SIGMA_0), np.kron(SIGMA_MINUS, SIGMA_0)],
               [np.kron(SIGMA_0, SIGMA_PLUS), np.kron(SIGMA_0, SIGMA_MINUS)]]
    assert np.array_equal(bit_pattern(atoms.ladders), bit_pattern(ladders))
    assert np.array_equal(bit_pattern(atoms.identity), bit_pattern(np.kron(SIGMA_0, SIGMA_0)))
    eye = np.eye(2, dtype=np.complex128)
    for d_b in (2, 3):
        basis = hermitian_basis(d_b)
        expected = (
            [np_kron_all(sig, g, eye) for sig in PAULI for g in basis],
            [np_kron_all(eye, g, sig) for g in basis for sig in PAULI],
            [np_kron_all(eye, g, eye) for g in basis],
        )
        for stack, terms in zip(_operator_stacks(d_b), expected):
            assert np.array_equal(bit_pattern(stack), bit_pattern(terms))


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


@pytest.mark.parametrize("kind", [HermitianOperator, DensityMatrix])
def test_an_empty_matrix_is_a_dimension_error(kind):
    with pytest.raises(DimensionError, match=r"^operator must not be empty, got \(0, 0\)$"):
        kind(np.zeros((0, 0)))


@pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 0)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigh_stack_rejects_an_empty_stack(shape, dtype):
    message = rf"^expected a non-empty \(n, d, d\) stack, got shape {re.escape(str(shape))}$"
    with pytest.raises(DimensionError, match=message):
        eigh_stack(np.zeros(shape, dtype=dtype))


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


def complex_reference(m):
    """The kernel's complex post-processing of every complex stack, kept as it
    was before exactly real stacks were checked in real arithmetic: LAPACK,
    the pivot phases conj(p) / |p|, and the Gram and residual checks."""
    d = m.shape[-1]
    w, v = np.linalg.eigh(m)
    rows = np.argmax(np.abs(v), axis=-2)
    pivots = v[np.arange(len(v))[:, np.newaxis], rows, np.arange(d)]
    mag = np.hypot(pivots.real, pivots.imag)
    nonzero = mag > 0
    v *= np.where(nonzero, pivots.conj() / np.where(nonzero, mag, 1.0), 1.0)[:, np.newaxis, :]
    assert (np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(d)).max(axis=(1, 2)) <= 1e-10).all()
    residual = np.linalg.norm(m @ v - v * w[:, np.newaxis, :], axis=1).max(axis=1)
    assert (residual <= 1e-9 * np.maximum(np.linalg.norm(m, axis=(1, 2)), 1.0)).all()
    return w, v, pivots


@st.composite
def real_symmetric_stacks(draw):
    """(n, d, d) exactly real symmetric stacks as complex128: dense or with
    exact zeros, some with a planted degenerate level."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 4)), draw(st.integers(2, 40))
    a = rng.standard_normal((n, d, d)) * (rng.random((n, d, d)) < draw(st.sampled_from([0.2, 0.6, 1.0])))
    stack = (a + a.swapaxes(1, 2)) / 2
    multiplicity = draw(st.integers(1, d))
    if multiplicity > 1:
        # U diag(w) U^T with the lowest value repeated
        q = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
        w = np.concatenate([np.full(multiplicity, -1.0), rng.standard_normal(d - multiplicity)])
        stack = (q * w) @ q.swapaxes(1, 2)
        stack = (stack + stack.swapaxes(1, 2)) / 2
    return stack.astype(np.complex128)


@settings(max_examples=150, deadline=None, database=None)
@given(stack=real_symmetric_stacks())
def test_exactly_real_complex_stacks_keep_the_complex_bits(stack):
    # the reference solves what LAPACK is handed: the Hermitian part, whose
    # signed zeros (the draws hold -0.0) may differ from the stack's
    w, v, pivots = complex_reference(_hermitian_stack(stack))
    # only draws in which some pivot's p·(1/|p|) is not sign(p), as about one
    # pivot in seven is not
    assume((pivots.real * (1 / np.abs(pivots.real)) != np.sign(pivots.real)).any())
    dec = eigh_stack(stack)
    assert dec.eigenvalues.tobytes() == w.tobytes()
    assert dec.eigenvectors.dtype == np.complex128
    assert dec.eigenvectors.tobytes() == v.tobytes()
    one = eigh(HermitianOperator(stack[0]))
    assert one.eigenvectors.tobytes() == v[0].tobytes()


@settings(max_examples=50, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), d=st.integers(2, 40), real_rows=st.integers(0, 3))
def test_complex_stacks_keep_the_complex_bits(seed, n, d, real_rows):
    # a stack with any nonzero imaginary entry takes the complex path, even
    # with exactly real matrices in it
    stack = random_hermitian_stack(n, d, np.random.default_rng(seed))
    stack[: min(real_rows, n - 1)].imag = 0.0
    w, v, _ = complex_reference(_hermitian_stack(stack))
    dec = eigh_stack(stack)
    assert dec.eigenvalues.tobytes() == w.tobytes()
    assert dec.eigenvectors.tobytes() == v.tobytes()


def test_a_complex_eigenvector_of_a_real_matrix_raises(monkeypatch):
    rng = np.random.default_rng(37)
    a = rng.standard_normal((3, 6, 6))
    stack = ((a + a.swapaxes(1, 2)) / 2).astype(np.complex128)
    solve = np.linalg.eigh

    def leaky(m):
        w, v = solve(m)
        if np.iscomplexobj(m) and not m.imag.any():
            v[-1, 2, 4] += 1e-20j  # far below the Gram and residual tolerances
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", leaky)
    message = r"^eigenvector of an exactly real matrix has imaginary part 1\.000e-20$"
    for call in (lambda: eigh_stack(stack), lambda: eigh(HermitianOperator(stack[2]))):
        with pytest.raises(NumericalError, match=message):
            call()


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_spectral_range_that_overflows_raises_on_every_path(dtype):
    # entries of 5e307 and eigenvalues -1e308, 0, 0, 1e308: the range overflows,
    # and as the degeneracy tolerance it would merge the whole spectrum into
    # one ground level.  No overflow warning comes before the error
    m = 5e307 * (np.kron(SX, I2) + np.kron(I2, SX)).real.astype(dtype)
    message = r"^spectral range is not finite: -1\.000e\+308 to 1\.000e\+308$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=message):
            eigh_stack(np.stack([np.eye(4, dtype=dtype), m]))
        with pytest.raises(NumericalError, match=message):
            eigh(HermitianOperator(m))
        with pytest.raises(NumericalError, match=message):
            _sector_ground_level(m, ())
        # blocks whose own ranges are finite, merged
        blocks = [(np.array([[0], [1]]), np.array([[-1e308], [1e308]]), np.ones((2, 1, 1)))]
        with pytest.raises(NumericalError, match=message):
            _merged_ground_level(2, blocks)


def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_an_entry_whose_hermitian_part_would_overflow_is_rejected():
    # (M + M^dag) / 2 overflows above half the largest float: the check names
    # the entry before any sum is formed, so no overflow warning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=(
            r"^entry \(0, 0\) has magnitude 1\.000e\+308: "
            r"the Hermitian part \(M \+ M\^dag\) / 2 overflows above 8\.988e\+307$"
        )):
            HermitianOperator(np.diag([1e308, 0.0, -1.0]))
        # the modulus counts, and the entry is named within its matrix of a stack
        big = np.zeros((3, 3), dtype=complex)
        big[1, 2], big[2, 1] = 7e307 + 7e307j, 7e307 - 7e307j
        with pytest.raises(ValueError, match=r"^entry \(1, 2\) has magnitude 9\.899e\+307: "):
            eigh_stack(np.stack([np.eye(3, dtype=complex), big]))
        # at the limit the matrix passes unchanged and solves
        m = np.diag([ENTRY_LIMIT, 0.0, -ENTRY_LIMIT])
        op = HermitianOperator(m)
        assert op.matrix.tobytes() == m.astype(complex).tobytes()
        assert eigh(op).eigenvalues == pytest.approx([-ENTRY_LIMIT, 0.0, ENTRY_LIMIT], rel=1e-15)


def test_the_residual_and_hermiticity_checks_hold_near_the_float_limit(monkeypatch):
    # squared residuals and the Frobenius norm of their tolerance overflow
    # here; both are taken at a power-of-two scale instead, so the matrix
    # solves without a warning and the checks still fail a wrong answer
    m = np.diag([-8.9e307, 0.0, 8.9e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert eigh(HermitianOperator(m)).eigenvalues == pytest.approx(np.diag(m), rel=1e-15)
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max\|M - M\^dag\| = 1\.000e\+200"):
            HermitianOperator(np.array([[1.0, 1e200], [0.0, 1.0]]))

    solve = np.linalg.eigh
    turn = np.array([[1.0, 0.0, 1.0], [0.0, np.sqrt(2), 0.0], [-1.0, 0.0, 1.0]]) / np.sqrt(2)

    def corrupted(stack):
        # columns 0 and 2 turned into each other: still orthonormal and real
        w, v = solve(stack)
        return w, v @ turn

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=r"^eigendecomposition residual 1\.259e\+308$"):
            eigh(HermitianOperator(m))
        # an ordinary matrix stacked with it keeps its own tolerance floor of 1
        with pytest.raises(NumericalError, match=r"^eigendecomposition residual 1\.414e\+00$"):
            eigh_stack(np.stack([np.diag([1.0, 2.0, 3.0]), m]))


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


def swapped_reference(m, dims, pair):
    """Every matrix of an (n, D, D) stack conjugated by the swap of the two
    named subsystems, as the theorem fuzzer computed it before it called
    permute_subsystems."""
    perm = list(range(len(dims)))
    perm[pair[0]], perm[pair[1]] = pair[1], pair[0]
    axes = [0] + [1 + p for p in perm] + [1 + len(dims) + p for p in perm]
    return m.reshape(len(m), *dims, *dims).transpose(axes).reshape(m.shape)


@settings(max_examples=200, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_permute_subsystems_of_a_stack_permutes_each_matrix(dims, n, data):
    perm = data.draw(st.permutations(range(len(dims))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    got = permute_subsystems(m, dims, perm)
    assert got.shape == m.shape
    for g, mi in zip(got, m):
        assert g.tobytes() == permute_subsystems(mi, dims, perm).tobytes()
    pair = data.draw(st.lists(st.integers(0, len(dims) - 1), min_size=2, max_size=2, unique=True))
    swap = list(range(len(dims)))
    swap[pair[0]], swap[pair[1]] = pair[1], pair[0]
    assert permute_subsystems(m, dims, swap).tobytes() == swapped_reference(m, dims, pair).tobytes()


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.zeros(8), DimensionError, "expected a 2-D matrix, got ndim=1"),
        (np.full((8, 8), np.nan), ValueError, "matrix contains NaN or Inf entries"),
        (np.zeros((4, 4)), DimensionError, "matrix dim 4 != prod((2, 2, 2))"),
        (np.zeros((3, 4, 4)), DimensionError, "matrix dim 4 != prod((2, 2, 2))"),
    ],
)
def test_permute_subsystems_rejects_a_bad_operator(matrix, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        permute_subsystems(matrix, (2, 2, 2), (2, 1, 0))
