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
from math import prod
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
    return float(np.linalg.norm(m))


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


def _raise_first_scaled(values: np.ndarray, rtol: float, m: np.ndarray, make) -> None:
    """Raise ``make(value, tolerance)`` for the first matrix i whose value
    exceeds rtol * max(||m[i]||_F, 1)."""
    # the tolerance is never below rtol, so the norm is needed only above it
    for i in (values > rtol).nonzero()[0].tolist():
        tol = rtol * max(frobenius_norm(m[i]), 1.0)
        if values[i] > tol:
            raise make(values[i].item(), tol)


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of every matrix in an (n, d, d) complex or real stack.

    Raises ValueError if a matrix has a NaN or Inf entry, or else for the
    first matrix whose max|M - M^dag| exceeds HERMITICITY_RTOL * max(||M||_F, 1).
    """
    # np.isfinite of the complex entries, not of a float64 view: a view needs
    # a contiguous last axis, and a ground-level reduction hands in strided stacks
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
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


def _pivot_phases(vectors: np.ndarray) -> np.ndarray:
    """Per column of a matrix or of each matrix in an (n, d, k) stack, the unit
    phase that turns its largest-magnitude entry real positive (1 for a zero
    column)."""
    rows = np.argmax(np.abs(vectors), axis=-2)
    stack = (np.arange(len(vectors))[:, np.newaxis],) if vectors.ndim == 3 else ()
    pivots = vectors[(*stack, rows, np.arange(vectors.shape[-1]))]
    if vectors.dtype == np.float64:  # a real pivot's phase is its sign
        return np.where(pivots < 0, -1.0, 1.0)
    # np.hypot rounds like the scalar abs() of a complex number; array np.abs does not
    mag = np.hypot(pivots.real, pivots.imag)
    nonzero = mag > 0
    return np.where(nonzero, pivots.conj() / np.where(nonzero, mag, 1.0), 1.0)


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
    n = w.shape[0]
    tol = _degeneracy_tol(w)
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


def _eigh_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LAPACK call over a stack of Hermitian matrices, then the phase
    convention and the orthonormality and residual contracts per matrix."""
    d = m.shape[-1]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    # fix_phases without its cast to complex: real eigenvectors stay real
    v *= _pivot_phases(v)[:, np.newaxis, :]

    gram_defect = np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(d)).max(axis=(1, 2))
    _raise_first(gram_defect > ORTHONORMALITY_ATOL, gram_defect,
                 lambda g: NumericalError(f"eigenvector orthonormality defect {g:.3e}"))
    residual = np.linalg.norm(m @ v - v * w[:, np.newaxis, :], axis=1).max(axis=1)
    _raise_first_scaled(residual, RESIDUAL_RTOL, m,
                        lambda r, _: NumericalError(f"eigendecomposition residual {r:.3e}"))
    return w, v


def eigh_stack(matrices) -> EigenStack:
    """``eigh`` of every matrix in a non-empty (n, d, d) stack with one LAPACK call.

    Each matrix is checked as ``HermitianOperator`` checks it and solved as
    ``eigh`` solves it, bit for bit.  Raises the first failed contract, with
    the type and text ``eigh`` raises for it (NumericalError if LAPACK fails
    on the stack).  A float64 stack is solved in real arithmetic and keeps
    real eigenvectors (pivot entries positive); any other input is solved as
    complex128.
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
def _pattern_components(dim: int, packed: bytes) -> tuple[np.ndarray, ...]:
    """The connected components of a symmetric dim x dim nonzero pattern,
    given as the bytes of ``np.packbits`` of its boolean matrix.

    Components of equal size form a group.  Returns per group, in ascending
    size, an (m, s) read-only array: one component per row, its indices
    ascending, the rows in the order of their first index.
    """
    linked = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=dim * dim)
    linked = linked.reshape(dim, dim).astype(bool)
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


def _merged_ground_level(dim: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The ground level of a dim x dim operator from the eigendecompositions
    of its exact diagonal blocks.

    ``blocks`` holds, per group of equal-size blocks, their basis indices
    (m, s) and their ascending eigenvalues (m, s) and eigenvectors (m, s, s).
    The merged spectrum is grouped as ``degeneracy_groups`` groups the full
    one, so the ground level may span several blocks.  Returns its energies
    (k,) in ascending order and, in the same order, its members embedded in
    the full basis as the columns of a complex (dim, k) array.
    """
    w = np.concatenate([values.ravel() for _, values, _ in blocks])
    order = np.argsort(w, kind="stable")
    w = w[order]
    ground = order[: np.count_nonzero(w - w[0] <= _degeneracy_tol(w))]
    vectors = np.zeros((dim, ground.size), dtype=np.complex128)
    for member, i in enumerate(ground.tolist()):
        # i indexes the concatenated spectrum: find its group, then its block and column
        for index, values, eigenvectors in blocks:
            if i < values.size:
                break
            i -= values.size
        block, column = divmod(i, index.shape[1])
        vectors[index[block], member] = eigenvectors[block, :, column]
    return w[: ground.size], vectors


def _block_ground_level(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ground level of the exactly Hermitian matrix ``m``, real or
    complex, as ``_merged_ground_level`` returns it, solved on the connected
    components of its exact nonzero pattern.

    Components of equal size form one ``_eigh_hermitian`` stack, with the
    Gram and residual checks per block, solved in the arithmetic of ``m``'s
    dtype.  ``m`` is not checked again: the caller has checked it, and its
    pattern, by which the components are cached, is symmetric.
    """
    dim = len(m)
    blocks = []
    for index in _pattern_components(dim, np.packbits(m != 0).tobytes()):
        w, v = _eigh_hermitian(m[index[:, :, np.newaxis], index[:, np.newaxis, :]])
        blocks.append((index, w, v))
    return _merged_ground_level(dim, blocks)


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
