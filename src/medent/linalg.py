"""Dense complex linear algebra for small multipartite quantum systems.

Everything here works on plain ``numpy.complex128`` arrays (``eigh_stack``
also on real float64 stacks) wrapped in thin dataclasses that enforce the
numerical contracts (Hermiticity, trace, positivity, orthonormality) at
construction time.  Dimensions stay in the few-hundred range, so dense LAPACK
routines are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import frexp, isfinite, prod
from typing import NamedTuple

import numpy as np

# Largest matrix dimension kron() is allowed to produce.
KRON_DIM_LIMIT = 4096

HERMITICITY_RTOL = 1e-12
ORTHONORMALITY_ATOL = 1e-10
RESIDUAL_RTOL = 1e-9
DEGENERACY_RTOL = 1e-9
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
STATE_NORM_ATOL = 1e-8

# the largest |entry| whose Hermitian part (M + M^dag) / 2 cannot overflow
ENTRY_LIMIT = np.finfo(float).max / 2
# the largest magnitude whose squares, summed over a matrix of KRON_DIM_LIMIT^2
# entries, stay finite
_SQUARE_SAFE = 2.0**480


class DimensionError(ValueError):
    """Shapes or subsystem dimensions do not match, or exceed the limit."""


class NumericalError(RuntimeError):
    """A numerical contract (residual, positivity, convergence) failed."""


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a finite 2-D complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def frobenius_norm(m: np.ndarray) -> float:
    """||m||_F, taken of m scaled by a power of two where its squares would overflow."""
    top = float(np.maximum.reduce(np.abs(m), axis=None, initial=0.0))
    if top <= _SQUARE_SAFE:
        return float(np.linalg.norm(m))
    s = 2.0 ** -frexp(top)[1]
    return float(np.linalg.norm(m * s)) / s


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _square_stack(entries) -> np.ndarray:
    """``entries`` as a stack of one complex matrix; it must be square."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"operator must be square, got {m.shape}")
    return m[np.newaxis]


def _raise_first(failed: np.ndarray, values: np.ndarray, make) -> None:
    """Raise ``make(values[i])`` for the first matrix i whose check ``failed``."""
    if failed.any():
        raise make(values[failed.argmax()].item())


def _raise_first_scaled(values: np.ndarray, rtol: float, m: np.ndarray, make, scales=None) -> None:
    """Raise ``make(value, tolerance)`` for the first matrix i whose value
    exceeds rtol * max(||m[i]||_F, 1).

    Where given, ``scales[i]`` is the power of two that matrix i and its value
    were scaled by: they are compared with rtol * max(||m[i]||_F, scales[i]),
    the same verdict, and reported unscaled."""
    floors = 1.0 if scales is None else scales
    # the tolerance is never below rtol * floor, so the norm is needed only above it
    for i in (values > rtol * floors).nonzero()[0].tolist():
        s = 1.0 if scales is None else scales[i].item()
        tol = rtol * max(frobenius_norm(m[i]), s)
        if values[i] > tol:
            # Python floats, which overflow to inf without a warning
            raise make(values[i].item() / s, tol / s)


def _raise_unbounded_entry(m: np.ndarray) -> None:
    """ValueError for a NaN or Inf entry of the (n, d, d) stack ``m``, or else
    for its first entry of largest magnitude, which exceeds ENTRY_LIMIT."""
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    magnitude = np.abs(m)
    i, row, col = np.unravel_index(magnitude.argmax(), m.shape)
    raise ValueError(
        f"entry ({row}, {col}) has magnitude {magnitude[i, row, col]:.3e}: "
        f"the Hermitian part (M + M^dag) / 2 overflows above {ENTRY_LIMIT:.3e}"
    )


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of every matrix in an (n, d, d) complex or real stack.

    Raises ValueError if a matrix has a NaN or Inf entry, or an entry of
    magnitude above ENTRY_LIMIT, before any sum can overflow; or else for the
    first matrix whose max|M - M^dag| exceeds HERMITICITY_RTOL * max(||M||_F, 1).
    """
    # one reduction, on strided stacks too: NaN, Inf and too large an entry fail it
    if not np.maximum.reduce(np.abs(m), axis=None) <= ENTRY_LIMIT:
        _raise_unbounded_entry(m)
    mh = m.conj().swapaxes(1, 2)
    defect = np.abs(m - mh).max(axis=(1, 2))
    _raise_first_scaled(defect, HERMITICITY_RTOL, m, lambda dv, tol: ValueError(
        f"matrix is not Hermitian: max|M - M^dag| = {dv:.3e} (tolerance {tol:.3e})"
    ))
    return (m + mh) / 2


def _density_stack(m: np.ndarray, psd: bool = True) -> np.ndarray:
    """``_hermitian_stack`` plus the density-matrix contract: unit trace within
    TRACE_ATOL and no eigenvalue below -PSD_ATOL (ValueError for the first
    matrix that breaks it).  With ``psd`` False the caller's eigensolve of
    the result gives the positivity verdict, by ``_raise_negative``."""
    m = _hermitian_stack(m)
    trace = m.trace(axis1=1, axis2=2).real
    _raise_first(np.abs(trace - 1.0) > TRACE_ATOL, trace,
                 lambda tr: ValueError(f"trace = {tr!r}, expected 1 within {TRACE_ATOL}"))
    if psd:
        _raise_negative(np.linalg.eigvalsh(m)[:, 0])
    return m


def _raise_negative(low: np.ndarray) -> None:
    """ValueError for the first matrix whose lowest eigenvalue ``low[i]`` is below -PSD_ATOL."""
    _raise_first(low < -PSD_ATOL, low,
                 lambda low: ValueError(f"negative eigenvalue {low:.3e} below -{PSD_ATOL}"))


@dataclass(frozen=True)
class HermitianOperator:
    """A square complex matrix verified to be Hermitian at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian_stack(_square_stack(self.matrix))
        object.__setattr__(self, "matrix", _readonly(m[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _assembled_operator(m: np.ndarray) -> HermitianOperator:
    """``HermitianOperator(m)`` of a real, exactly symmetric ``m`` built of checked
    parts, without the second check, which would return it unchanged, bit for bit."""
    op = object.__new__(HermitianOperator)
    object.__setattr__(op, "matrix", _readonly(m.astype(np.complex128)))
    return op


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite (within tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _density_stack(_square_stack(self.matrix))
        object.__setattr__(self, "matrix", _readonly(m[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Sorted eigenvalues, phase-fixed orthonormal eigenvectors, degeneracy groups.

    ``degeneracy_groups`` partitions the index range into maximal runs whose
    eigenvalue spread stays within ``DEGENERACY_RTOL * max(1, spectral_range)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]
    degeneracy_groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def ground_group(self) -> tuple[int, ...]:
        return self.degeneracy_groups[0]

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def gap(self) -> float:
        """Energy difference between the ground level and the next level up."""
        k = len(self.ground_group)
        if k >= self.dim:
            return 0.0
        return float(self.eigenvalues[k] - self.eigenvalues[0])

    def is_degenerate(self, index: int) -> bool:
        for group in self.degeneracy_groups:
            if index in group:
                return len(group) > 1
        raise IndexError(index)


def _pivots(vectors: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Per column of a matrix or of each matrix in an (n, d, k) stack, its
    entry of largest ``magnitudes`` (the first of equal ones)."""
    rows = magnitudes.argmax(axis=-2)
    stack = (np.arange(len(vectors))[:, np.newaxis],) if vectors.ndim == 3 else ()
    return vectors[(*stack, rows, np.arange(vectors.shape[-1]))]


def _unit_phases(pivots: np.ndarray) -> np.ndarray:
    """conj(p) / |p| per complex pivot p, 1 for a zero one.

    numpy divides by the real |p| as by |p| + 0j, multiplying by 1/|p|: the
    phase of an exactly real pivot p is p·(1/|p|) plus a signed zero times i.
    p·(1/|p|) differs from sign(p) by an ulp on about 14% of pivots.
    """
    # np.hypot rounds like the scalar abs() of a complex number; array np.abs does not
    mag = np.hypot(pivots.real, pivots.imag)
    nonzero = mag > 0
    return np.where(nonzero, pivots.conj() / np.where(nonzero, mag, 1.0), 1.0)


def _pivot_phases(vectors: np.ndarray) -> np.ndarray:
    """Per column of a matrix or of each matrix in an (n, d, k) stack, the unit
    phase that turns its largest-magnitude entry real positive (1 for a zero
    column): sign(p) of a float64 pivot p, ``_unit_phases`` of a complex one,
    whose real part is p·(1/|p|) when p is exactly real."""
    pivots = _pivots(vectors, np.abs(vectors))
    if vectors.dtype == np.float64:
        return np.where(pivots < 0, -1.0, 1.0)
    return _unit_phases(pivots)


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column (of each matrix in a stack) so its largest-magnitude
    entry is real positive."""
    v = np.asarray(vectors, dtype=np.complex128)
    return v * _pivot_phases(v)[..., np.newaxis, :]


def _degeneracy_tol(w: np.ndarray):
    """Largest spread within one degeneracy group, per sorted spectrum (last axis)."""
    return DEGENERACY_RTOL * np.maximum(1.0, w[..., -1] - w[..., 0])


def degeneracy_groups(eigenvalues: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Partition sorted eigenvalues into groups of bounded spread."""
    w = np.asarray(eigenvalues, dtype=float)
    tol = float(_degeneracy_tol(w))
    w = w.tolist()  # Python floats: numpy scalars' arithmetic, at less cost per step
    n = len(w)
    groups = []
    start = 0
    while start < n:
        end = start + 1
        while end < n and w[end] - w[start] <= tol:
            end += 1
        groups.append(tuple(range(start, end)))
        start = end
    return tuple(groups)


class EigenStack(NamedTuple):
    """Eigendecompositions of a stack of n Hermitian d x d matrices.

    Per matrix: ascending eigenvalues (n, d), phase-fixed eigenvectors as
    columns (n, d, d), and the size of the ground group and the gap above it
    under the ``degeneracy_groups`` rule.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ground_sizes: np.ndarray
    gaps: np.ndarray


def _ground_levels(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per ascending spectrum of an (n, d) stack, the size of the ground group
    of ``degeneracy_groups`` (the eigenvalues within tolerance of the lowest)
    and the gap above it (0 if the group is the whole spectrum)."""
    d = w.shape[1]
    sizes = np.count_nonzero(w - w[:, :1] <= _degeneracy_tol(w)[:, np.newaxis], axis=1)
    above = w[np.arange(len(w)), np.minimum(sizes, d - 1)]
    return sizes, np.where(sizes < d, above - w[:, 0], 0.0)


def _raise_infinite_range(w: np.ndarray) -> float:
    """NumericalError for the first ascending spectrum of an (n, d) stack whose
    range w[-1] - w[0] is not finite; else the largest |eigenvalue| of the stack.

    The range scales the degeneracy tolerance, so one that overflowed would
    merge the whole spectrum into the ground level.  It is taken in Python
    floats, which overflow to inf without a warning."""
    lows, highs = w[:, 0].tolist(), w[:, -1].tolist()
    for low, high in zip(lows, highs):
        if not isfinite(high - low):
            raise NumericalError(f"spectral range is not finite: {low:.3e} to {high:.3e}")
    return max(-min(lows), max(highs))


def _eigh_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LAPACK call over a stack of Hermitian matrices, then the phase
    convention and the orthonormality and residual contracts per matrix.

    A complex stack whose imaginary part is exactly zero is still solved as
    complex, but checked as real data: LAPACK reduces it with real Householder
    reflectors, so its eigenvectors must be exactly real too (NumericalError
    if one is not).  Their pivots are found on the real parts, and the Gram
    and residual checks run on the real parts; the vectors stay complex,
    turned by the phases ``_unit_phases`` gives their pivots, p·(1/|p|), not
    sign(p), so every bit is the one the complex checks would return.

    Where a matrix has an eigenvalue above _SQUARE_SAFE, its squared residual
    and the norm of its tolerance would overflow: they are then taken of it
    and its eigenvalues scaled by a power of two (``_raise_first_scaled``).
    """
    d = m.shape[-1]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    top = _raise_infinite_range(w)
    if m.dtype == np.complex128 and not m.imag.any():
        imag = np.abs(v.imag).max(axis=(1, 2))
        _raise_first(imag > 0, imag, lambda g: NumericalError(
            f"eigenvector of an exactly real matrix has imaginary part {g:.3e}"
        ))
        v *= _unit_phases(_pivots(v, np.abs(v.real)))[:, np.newaxis, :]
        m, checked = m.real, v.real
    else:
        # fix_phases without its cast to complex: real eigenvectors stay real
        v *= _pivot_phases(v)[:, np.newaxis, :]
        checked = v

    gram_defect = np.abs(checked.conj().swapaxes(1, 2) @ checked - np.eye(d)).max(axis=(1, 2))
    _raise_first(gram_defect > ORTHONORMALITY_ATOL, gram_defect,
                 lambda g: NumericalError(f"eigenvector orthonormality defect {g:.3e}"))
    shifts, scales = w, None
    if top > _SQUARE_SAFE:
        tops = np.maximum(-w[:, 0], w[:, -1])
        scales = np.where(tops > _SQUARE_SAFE, np.ldexp(1.0, -np.frexp(tops)[1]), 1.0)
        m, shifts = m * scales[:, np.newaxis, np.newaxis], w * scales[:, np.newaxis]
    # the column norms as np.linalg.norm(r, axis=1) computes them, without its wrapper
    r = m @ checked - checked * shifts[:, np.newaxis, :]
    residual = np.sqrt(np.add.reduce((r.conj() * r).real, axis=1)).max(axis=1)
    _raise_first_scaled(residual, RESIDUAL_RTOL, m,
                        lambda r, _: NumericalError(f"eigendecomposition residual {r:.3e}"), scales)
    return w, v


def eigh_stack(matrices) -> EigenStack:
    """``eigh`` of every matrix in a non-empty (n, d, d) stack with one LAPACK call.

    Each matrix is checked as ``HermitianOperator`` checks it and solved as
    ``eigh`` solves it, bit for bit.  Raises the first failed contract, with
    the type and text ``eigh`` raises for it (NumericalError if LAPACK fails
    on the stack).  A float64 stack is solved in real arithmetic and keeps
    real eigenvectors, each turned by sign(p) of its pivot p; any other input
    is solved as complex128.  A complex stack whose imaginary part is exactly
    zero keeps the complex solve and its bits, pivot phases p·(1/|p|) included,
    but its vectors must come out exactly real and are checked on their real
    parts (``_eigh_hermitian``).
    """
    m = np.asarray(matrices)
    if m.dtype != np.float64:
        m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise DimensionError(f"expected an (n, d, d) stack, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError(f"expected a non-empty (n, d, d) stack, got shape {m.shape}")
    w, v = _eigh_hermitian(_hermitian_stack(m))
    return EigenStack(w, v, *_ground_levels(w))


def eigh(h: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian operator.

    Deterministic for identical input: LAPACK output is post-processed with a
    fixed phase convention (largest component of each eigenvector made real
    positive).  Raises NumericalError if LAPACK fails or the orthonormality or
    residual contract is violated.
    """
    w, v = _eigh_hermitian(h.matrix[np.newaxis])
    return EigenDecomposition(
        eigenvalues=_readonly(w[0]),
        eigenvectors=_readonly(v[0]),
        degeneracy_groups=degeneracy_groups(w[0]),
    )


@lru_cache(maxsize=16)
def _pattern_components(dim: int, packed: bytes) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_components`` of a symmetric dim x dim nonzero pattern, given as the
    bytes of ``np.packbits`` of its boolean matrix: per group, its (m, s)
    indices and the (m, s, s) flat indices whose ``take`` from a dim x dim
    matrix is the group's block stack."""
    linked = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=dim * dim)
    return tuple(
        (index, _readonly(index[:, :, np.newaxis] * dim + index[:, np.newaxis, :]))
        for index in _components(linked.reshape(dim, dim).astype(bool))
    )


def _components(linked: np.ndarray) -> tuple[np.ndarray, ...]:
    """The connected components of a symmetric boolean dim x dim pattern.

    Components of equal size form a group.  Returns per group, in ascending
    size, an (m, s) read-only array: one component per row, its indices
    ascending, the rows in the order of their first index.
    """
    dim = len(linked)
    components, unreached = [], np.ones(dim, dtype=bool)
    while unreached.any():
        frontier = np.zeros(dim, dtype=bool)
        frontier[np.argmax(unreached)] = True
        reached = frontier.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reached
            reached |= frontier
        unreached &= ~reached
        components.append(np.flatnonzero(reached))
    # not np.unique, which would import numpy.ma
    sizes = sorted({c.size for c in components})
    return tuple(_readonly(np.stack([c for c in components if c.size == s])) for s in sizes)


def _merged_ground_level(dim: int, blocks) -> tuple[np.ndarray, np.ndarray, float]:
    """The ground level of a dim x dim operator from the eigendecompositions
    of its exact diagonal blocks.

    ``blocks`` holds, per group of equal-size blocks, their basis indices
    (m, s) and their ascending eigenvalues (m, s) and eigenvectors (m, s, s).
    The merged spectrum is grouped as ``degeneracy_groups`` groups the full
    one, so the ground level may span several blocks.  Returns its energies (k,),
    ascending; its members, in that order, embedded in the full basis as the
    columns of a complex (dim, k) array; and the gap above it (0 if none).
    """
    w = np.concatenate([values.ravel() for _, values, _ in blocks])
    order = np.argsort(w, kind="stable")
    w = w[order]
    # each block's range is finite, but the merged one may not be
    _raise_infinite_range(w[np.newaxis])
    (size,), (gap,) = _ground_levels(w[np.newaxis])
    vectors = np.zeros((dim, size), dtype=np.complex128)
    for member, i in enumerate(order[:size].tolist()):
        # i indexes the concatenated spectrum: find its group, then its block and column
        for index, values, eigenvectors in blocks:
            if i < values.size:
                break
            i -= values.size
        block, column = divmod(i, index.shape[1])
        vectors[index[block], member] = eigenvectors[block, :, column]
    return w[:size], vectors, float(gap)


def _block_ground_level(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ground level of the exactly Hermitian matrix ``m``, real or
    complex, as the energies and members ``_merged_ground_level`` returns,
    solved on the connected components of its exact nonzero pattern.

    This is the one block finder of the package: the chain, any operator
    ``ground_state_pair_concurrence`` is given and the Dicke mediator form
    (``dicke.mediator_concurrence``, on its real scatter) all reach it.
    Components of equal size form one ``_eigh_hermitian`` stack, gathered
    by ``take`` on cached flat indices, with the Gram and residual checks
    per block, solved in the arithmetic of ``m``'s dtype.  A lone component
    holds every index in order, so ``m`` itself is solved, and its ground
    level read off the ascending spectrum by ``_ground_levels``, with the
    bits the merge would give.  ``m`` is not checked again: the caller has
    checked it, and its pattern, by which the components are cached, is
    symmetric.
    """
    dim = len(m)
    groups = _pattern_components(dim, np.packbits(m != 0).tobytes())
    if len(groups) == 1 and len(groups[0][0]) == 1:
        w, v = _eigh_hermitian(m[np.newaxis])
        (size,), _ = _ground_levels(w)
        # a real member gains the +0.0 imaginary parts its embedding would give it
        return w[0, :size], v[0, :, :size].astype(np.complex128)
    blocks = []
    for index, flat in groups:
        w, v = _eigh_hermitian(m.take(flat))
        blocks.append((index, w, v))
    return _merged_ground_level(dim, blocks)[:2]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard on the resulting dimension."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if max(rows, cols) > KRON_DIM_LIMIT:
        raise DimensionError(
            f"kron would produce a {rows}x{cols} matrix, limit is {KRON_DIM_LIMIT}"
        )
    return np.kron(a, b)


def kron_all(*factors: np.ndarray) -> np.ndarray:
    out = as_complex_matrix(factors[0])
    for f in factors[1:]:
        out = kron(out, f)
    return out


@lru_cache(maxsize=32)
def _trace_subscripts(dims: tuple[int, ...], keep: tuple, separator: str) -> tuple[str, int, int]:
    """``_trace_out``'s einsum subscripts, the number of kept subsystems and
    their joint dimension."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    n = len(dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep={keep} is not a non-empty subset of 0..{n - 1}")
    row = [chr(ord("a") + k) for k in range(n)]
    col = [row[k] if k not in keep else chr(ord("a") + n + k) for k in range(n)]
    out = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    inputs = "..." + "".join(row) + separator + ("..." if separator else "") + "".join(col)
    return inputs + "->..." + out, len(keep), prod(dims[k] for k in keep)


def _trace_out(dims: tuple[int, ...], keep, separator: str, *tensors) -> np.ndarray:
    """Contract the row and column indices of every subsystem not in ``keep``.

    ``separator`` "" reads one operator tensor (rows then columns), "," a ket
    tensor and its bra.  Axes in front of the subsystem axes are stack axes and
    stay in front of the (d, d) result.
    """
    subscripts, kept, d = _trace_subscripts(dims, tuple(keep), separator)
    reduced = np.einsum(subscripts, *tensors)
    return reduced.reshape(*reduced.shape[: reduced.ndim - 2 * kept], d, d)


def partial_trace(rho: DensityMatrix, dims, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is the
    set of subsystem indices retained (in ascending tensor order).
    """
    dims = tuple(int(d) for d in dims)
    if prod(dims) != rho.dim:
        raise DimensionError(f"prod({dims}) != {rho.dim}")
    return DensityMatrix(_trace_out(dims, keep, "", rho.matrix.reshape(*dims, *dims)))


def reduced_density(state: np.ndarray, dims, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state, without forming the projector."""
    dims = tuple(int(d) for d in dims)
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    if psi.size != prod(dims):
        raise DimensionError(f"state size {psi.size} != prod({dims})")
    t = psi.reshape(dims)
    return DensityMatrix(_trace_out(dims, keep, ",", t, t.conj()))


def _purity_stack(m: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of every checked density matrix in an (n, d, d) stack."""
    return (np.abs(m) ** 2).reshape(len(m), -1).sum(axis=1)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    return float(_purity_stack(rho.matrix[np.newaxis])[0])


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Bipartite normal form of a pure state: sum_j c_j |j>_L |j>_R.

    Coefficients are non-negative and sorted non-increasing; the left and
    right bases are orthonormal columns.  Rank 1 means a product state.
    """

    coefficients: np.ndarray
    basis_left: np.ndarray
    basis_right: np.ndarray

    def rank(self, tol: float = 1e-7) -> int:
        return int(np.count_nonzero(self.coefficients >= tol))

    def reconstruct(self) -> np.ndarray:
        dl = self.basis_left.shape[0]
        dr = self.basis_right.shape[0]
        out = np.zeros(dl * dr, dtype=np.complex128)
        for j, c in enumerate(self.coefficients):
            out += c * np.kron(self.basis_left[:, j], self.basis_right[:, j])
        return out


def _schmidt_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients (n, k), left bases (n, dL, k) and right bases
    (n, dR, k) of a stack of unit vectors given as (n, dL, dR) coefficient
    matrices, each as ``schmidt`` defines them.

    Raises ValueError if a vector's norm deviates from 1 beyond STATE_NORM_ATOL.
    """
    norms = np.linalg.norm(m, axis=(1, 2))
    off = np.flatnonzero(np.abs(norms - 1.0) > STATE_NORM_ATOL)
    if off.size:
        raise ValueError(f"input norm {norms[off[0]]!r} deviates from 1 beyond {STATE_NORM_ATOL}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # phase convention: left vectors real-positive at their largest entry,
    # compensating phases absorbed into the right vectors
    ph = _pivot_phases(u)
    u *= ph[:, np.newaxis, :]
    vh *= ph.conj()[:, :, np.newaxis]
    return s, u, vh.swapaxes(1, 2)


def schmidt(vector: np.ndarray, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit vector on a dL x dR bipartition."""
    dl, dr = int(dims[0]), int(dims[1])
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if v.size != dl * dr:
        raise DimensionError(f"vector size {v.size} != {dl}*{dr}")
    s, u, w = _schmidt_stack(v.reshape(1, dl, dr))
    return SchmidtDecomposition(
        coefficients=_readonly(s[0]),
        basis_left=_readonly(u[0]),
        basis_right=_readonly(w[0]),
    )


def permute_subsystems(matrix: np.ndarray, dims, perm) -> np.ndarray:
    """Conjugate an operator, or every matrix of an (n, D, D) stack, by the
    unitary that reorders tensor factors.

    ``perm[k]`` names the old subsystem that lands in slot k of the output.
    A stack keeps its leading axis; any input that is not 3-D is checked as
    ``as_complex_matrix`` checks it.
    """
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"perm={perm} is not a permutation of 0..{n - 1}")
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 3:
        m = as_complex_matrix(m)
    if m.shape[-2] != prod(dims):
        raise DimensionError(f"matrix dim {m.shape[-2]} != prod({dims})")
    lead = m.shape[:-2]
    k = len(lead)
    axes = [*range(k)] + [k + p for p in perm] + [k + n + p for p in perm]
    return m.reshape(*lead, *dims, *dims).transpose(axes).reshape(m.shape)


def swap_operator(dims, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging subsystems i and j (must have equal dims)."""
    dims = tuple(int(d) for d in dims)
    if dims[i] != dims[j]:
        raise DimensionError(f"cannot swap subsystems of dims {dims[i]} and {dims[j]}")
    perm = list(range(len(dims)))
    perm[i], perm[j] = perm[j], perm[i]
    d = prod(dims)
    eye = np.eye(d, dtype=np.complex128)
    # permute the row multi-index of the identity: S|..x_i..x_j..> = |..x_j..x_i..>
    t = eye.reshape(*dims, d).transpose(list(perm) + [len(dims)])
    return t.reshape(d, d)
