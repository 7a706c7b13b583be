"""Two-qubit concurrence and ground-state entanglement extraction.

Degenerate ground levels are treated by the convention that an entangled
state does not count as the ground state if a non-entangled state of the
same energy exists: the concurrence is evaluated on the normalized projector
onto the whole degenerate subspace and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    _block_ground_level,
    _density_stack,
    _raise_negative,
    _readonly,
    _trace_out,
)
from .tripartite import SIGMA_2

_SPIN_FLIP = np.kron(SIGMA_2, SIGMA_2)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus the spin-flip spectrum it came from.

    ``tilde_lambdas`` are the non-increasing square roots of the eigenvalues
    of rho (sigma2 x sigma2) rho* (sigma2 x sigma2); the value is
    max(0, l1 - l2 - l3 - l4).  ``degenerate_ground`` is meaningful only for
    ground-state queries.
    """

    value: float
    tilde_lambdas: np.ndarray
    degenerate_ground: bool = False


def concurrence_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wootters concurrence of every density matrix in an (n, 4, 4) stack.

    The matrices must already have passed the ``DensityMatrix`` checks but
    positivity, whose verdict comes from this function's eigh of rho.
    Returns the values (n,) and the tilde lambdas (n, 4); a LAPACK failure on
    the stack is raised as numpy raises it.

    The spin-flip spectrum is obtained from the Hermitian similarity partner
    sqrt(rho) (s2 x s2) rho* (s2 x s2) sqrt(rho), which shares eigenvalues
    with the textbook non-Hermitian product but stays in Hermitian-solver
    territory.
    """
    w, v = np.linalg.eigh(rho)
    _raise_negative(w[:, 0])
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))[:, np.newaxis, :]) @ v.conj().swapaxes(1, 2)
    partner = sqrt_rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP @ sqrt_rho
    lam = np.linalg.eigvalsh(partner)
    # the square root amplifies solver noise near zero (sqrt(1e-17) ~ 3e-9),
    # so eigenvalues below the relative noise floor are treated as exact zeros
    floor = 100 * np.finfo(float).eps * np.maximum(lam[:, -1:], 0.0)
    lam = np.sqrt(np.maximum(np.where(lam < floor, 0.0, lam), 0.0))[:, ::-1]
    # l1 - l2 - l3 - l4, subtracted left to right
    value = np.clip(np.subtract.reduce(lam, axis=1), 0.0, 1.0)
    return value, lam


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix (see ``concurrence_stack``)."""
    if rho.dim != 4:
        raise DimensionError(f"concurrence needs a 4x4 density matrix, got dim {rho.dim}")
    values, lams = concurrence_stack(rho.matrix[np.newaxis])
    return ConcurrenceResult(value=float(values[0]), tilde_lambdas=_readonly(lams[0]))


def ground_level_density_stack(vectors: np.ndarray, ground_sizes: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced density matrices of the ground levels of a stack of eigenbases.

    ``vectors`` is (n, D, D) with eigenvectors as columns in ascending energy
    and ``ground_sizes[i]`` the size of basis i's ground group.  A ground
    group of one gives that state's reduction, a degenerate one the equal
    mixture of its members' reductions.  The reductions are one einsum over
    the stack; each member of a ground group is checked as a ``DensityMatrix``,
    and so is each mixture, but for the positivity of the returned matrices,
    whose verdict comes from the caller's eigh of them (``concurrence_stack``).
    The first failed check is raised.
    """
    dims = tuple(int(d) for d in dims)
    n, k = len(vectors), int(ground_sizes.max())
    states = vectors[:, :, :k].swapaxes(1, 2).reshape(n, k, *dims)
    reduced = _trace_out(dims, keep, ",", states, states.conj())
    if k == 1:
        return _density_stack(reduced[:, 0], psd=False)
    # the columns past a smaller group's size stay zero and unchecked
    in_group = np.arange(k) < ground_sizes[:, np.newaxis]
    members = np.zeros_like(reduced)
    members[in_group] = _density_stack(reduced[in_group])
    rho = members[:, 0].copy()
    deg = np.flatnonzero(ground_sizes > 1)
    mixed = np.zeros((deg.size, *rho.shape[1:]), dtype=np.complex128)
    for j in range(k):
        # +0 past the end of a smaller group leaves the sum's bits as they are
        mixed += members[deg, j]
    rho[deg] = _density_stack(mixed / ground_sizes[deg, np.newaxis, np.newaxis], psd=False)
    return rho


def ground_level_density(dec, dims, keep) -> DensityMatrix:
    """Reduced density matrix of the ground level of an EigenDecomposition.

    A degenerate ground level is the equal mixture over its whole subspace.
    """
    rho = ground_level_density_stack(
        dec.eigenvectors[np.newaxis], np.array([len(dec.ground_group)]), dims, keep
    )
    return DensityMatrix(rho[0])


def ground_level_concurrence(vectors, size: int, dims, pair: tuple[int, int]) -> ConcurrenceResult:
    """Pair concurrence of the ground level spanned by the first ``size``
    columns of ``vectors`` (D, >= size), flagged degenerate if ``size`` > 1.

    The reduction and the concurrence run the stack kernels on a stack of one,
    so each check runs once; the values are those of ``concurrence`` of
    ``ground_level_density``, bit for bit.
    """
    dims = tuple(int(d) for d in dims)
    i, j = pair
    if dims[i] != 2 or dims[j] != 2:
        raise DimensionError(f"kept subsystems must be qubits, dims={dims}, pair={pair}")
    rho = ground_level_density_stack(vectors[np.newaxis], np.array([size]), dims, pair)
    values, lams = concurrence_stack(rho)
    return ConcurrenceResult(float(values[0]), _readonly(lams[0]), degenerate_ground=size > 1)


def ground_state_pair_concurrence(
    h: HermitianOperator, dims, pair: tuple[int, int]
) -> ConcurrenceResult:
    """Concurrence of two qubit subsystems in the ground level of ``h``.

    ``dims`` are the tensor-factor dimensions, ``pair`` the indices of the two
    dimension-2 factors to keep.  A degenerate ground level is averaged over
    its subspace and flagged.  The ground level is found on the exact blocks
    of ``h``, in real arithmetic when ``h`` is real (``_block_ground_level``).
    """
    dims = tuple(int(d) for d in dims)
    if prod(dims) != h.dim:
        raise DimensionError(f"prod({dims}) != operator dim {h.dim}")
    _, vectors = _block_ground_level(h.matrix if h.matrix.imag.any() else h.matrix.real)
    return ground_level_concurrence(vectors, vectors.shape[1], dims, pair)


def ground_state_ac_concurrence(h: HermitianOperator, dims) -> ConcurrenceResult:
    """Ground-level concurrence of the two outer qubits of an A-B-C system."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise DimensionError(f"expected three subsystems, got dims={dims}")
    return ground_state_pair_concurrence(h, dims, (0, 2))
