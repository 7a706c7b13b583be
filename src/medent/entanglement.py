"""Two-qubit concurrence and ground-state entanglement extraction.

Degenerate ground levels are treated by the convention that an entangled
state does not count as the ground state if a non-entangled state of the
same energy exists: the concurrence is evaluated on the normalized projector
onto the whole degenerate subspace and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    _density_stack,
    _lapack_stack,
    _raise_any,
    _readonly,
    _trace_out,
    eigh,
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


def concurrence_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Wootters concurrence of every density matrix in an (n, 4, 4) stack.

    The matrices must already have passed the ``DensityMatrix`` checks.
    Returns the values (n,), the tilde lambdas (n, 4) and, per matrix, the
    LAPACK failure or None; if LAPACK fails on the stack, the matrices are
    solved one at a time.

    The spin-flip spectrum is obtained from the Hermitian similarity partner
    sqrt(rho) (s2 x s2) rho* (s2 x s2) sqrt(rho), which shares eigenvalues
    with the textbook non-Hermitian product but stays in Hermitian-solver
    territory.
    """
    errors = [None] * len(rho)
    w, v = _lapack_stack(np.linalg.eigh, rho, errors)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[:, np.newaxis, :]) @ v.conj().swapaxes(1, 2)
    partner = sqrt_rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP @ sqrt_rho
    lam = _lapack_stack(np.linalg.eigvalsh, partner, errors)
    # the square root amplifies solver noise near zero (sqrt(1e-17) ~ 3e-9),
    # so eigenvalues below the relative noise floor are treated as exact zeros
    floor = 100 * np.finfo(float).eps * np.maximum(lam[:, -1], 0.0)
    lam = np.where(lam < floor[:, np.newaxis], 0.0, lam)
    lam = np.sqrt(np.clip(lam, 0.0, None))[:, ::-1]
    value = np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0)
    return value, lam, errors


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix (see ``concurrence_stack``)."""
    if rho.dim != 4:
        raise DimensionError(f"concurrence needs a 4x4 density matrix, got dim {rho.dim}")
    values, lams, errors = concurrence_stack(rho.matrix[np.newaxis])
    _raise_any(errors)
    return ConcurrenceResult(value=float(values[0]), tilde_lambdas=_readonly(lams[0]))


def ground_level_density_stack(
    vectors: np.ndarray, ground_sizes: np.ndarray, dims, keep
) -> tuple[np.ndarray, list]:
    """Reduced density matrices of the ground levels of a stack of eigenbases.

    ``vectors`` is (n, D, D) with eigenvectors as columns in ascending energy
    and ``ground_sizes[i]`` the size of basis i's ground group.  A ground
    group of one gives that state's reduction, a degenerate one the equal
    mixture of its members' reductions.  The reductions are one einsum over
    the stack; each is checked as a ``DensityMatrix``, and so is each mixture.
    Returns the matrices and, per basis, the first failed check or None.
    """
    dims = tuple(int(d) for d in dims)
    n, k = len(vectors), int(ground_sizes.max())
    states = vectors[:, :, :k].swapaxes(1, 2).reshape(n, k, *dims)
    reduced = _trace_out(dims, keep, ",", states, states.conj())
    d = reduced.shape[-1]
    members, member_errors = _density_stack(reduced.reshape(n * k, d, d))
    members = members.reshape(n, k, d, d)
    errors = [
        next((e for e in member_errors[i * k:i * k + size] if e is not None), None)
        for i, size in enumerate(ground_sizes)
    ]
    rho = members[:, 0].copy()
    deg = np.flatnonzero(ground_sizes > 1)
    if deg.size:
        sizes = ground_sizes[deg, np.newaxis, np.newaxis]
        mixed = np.zeros((deg.size, d, d), dtype=np.complex128)
        for j in range(k):
            # +0 past the end of a smaller group leaves the sum's bits as they are
            mixed += np.where(j < sizes, members[deg, j], 0)
        mixed, mixed_errors = _density_stack(mixed / sizes)
        rho[deg] = mixed
        for i, err in zip(deg, mixed_errors):
            if errors[i] is None:
                errors[i] = err
    return rho, errors


def ground_level_density(dec, dims, keep) -> DensityMatrix:
    """Reduced density matrix of the ground level of an EigenDecomposition.

    A degenerate ground level is the equal mixture over its whole subspace.
    """
    rho, errors = ground_level_density_stack(
        dec.eigenvectors[np.newaxis], np.array([len(dec.ground_group)]), dims, keep
    )
    _raise_any(errors)
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
    rho, errors = ground_level_density_stack(vectors[np.newaxis], np.array([size]), dims, pair)
    _raise_any(errors)
    values, lams, errors = concurrence_stack(rho)
    _raise_any(errors)
    return ConcurrenceResult(float(values[0]), _readonly(lams[0]), degenerate_ground=size > 1)


def ground_concurrence_from_decomposition(
    dec, dims, pair: tuple[int, int]
) -> ConcurrenceResult:
    """Ground-level pair concurrence given an existing EigenDecomposition."""
    return ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), dims, pair)


def ground_state_pair_concurrence(
    h: HermitianOperator, dims, pair: tuple[int, int]
) -> ConcurrenceResult:
    """Concurrence of two qubit subsystems in the ground level of ``h``.

    ``dims`` are the tensor-factor dimensions, ``pair`` the indices of the two
    dimension-2 factors to keep.  A degenerate ground level is averaged over
    its subspace and flagged.
    """
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != h.dim:
        raise DimensionError(f"prod({dims}) != operator dim {h.dim}")
    return ground_concurrence_from_decomposition(eigh(h), dims, pair)


def ground_state_ac_concurrence(h: HermitianOperator, dims) -> ConcurrenceResult:
    """Ground-level concurrence of the two outer qubits of an A-B-C system."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise DimensionError(f"expected three subsystems, got dims={dims}")
    return ground_state_pair_concurrence(h, dims, (0, 2))
