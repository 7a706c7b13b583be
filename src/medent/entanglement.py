"""Two-qubit concurrence and ground-state entanglement extraction.

Degenerate ground levels are treated by the convention that an entangled
state does not count as the ground state if a non-entangled state of the
same energy exists: the concurrence is evaluated on the normalized projector
onto the whole degenerate subspace and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    _readonly,
    eigh,
    reduced_density,
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


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    The spin-flip spectrum is obtained from the Hermitian similarity partner
    sqrt(rho) (s2 x s2) rho* (s2 x s2) sqrt(rho), which shares eigenvalues
    with the textbook non-Hermitian product but stays in Hermitian-solver
    territory.
    """
    if rho.dim != 4:
        raise DimensionError(f"concurrence needs a 4x4 density matrix, got dim {rho.dim}")
    m = rho.matrix
    w, v = np.linalg.eigh(m)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    partner = sqrt_rho @ _SPIN_FLIP @ m.conj() @ _SPIN_FLIP @ sqrt_rho
    lam = np.linalg.eigvalsh(partner)
    # the square root amplifies solver noise near zero (sqrt(1e-17) ~ 3e-9),
    # so eigenvalues below the relative noise floor are treated as exact zeros
    floor = 100 * np.finfo(float).eps * max(float(lam[-1]), 0.0)
    lam = np.where(lam < floor, 0.0, lam)
    lam = np.sqrt(np.clip(lam, 0.0, None))[::-1]
    value = float(lam[0] - lam[1] - lam[2] - lam[3])
    value = min(max(value, 0.0), 1.0)
    return ConcurrenceResult(value=value, tilde_lambdas=_readonly(lam))


def ground_level_density(dec, dims, keep) -> DensityMatrix:
    """Reduced density matrix of the ground level of an EigenDecomposition.

    A degenerate ground level is the equal mixture over its whole subspace.
    """
    group = dec.ground_group
    if len(group) == 1:
        return reduced_density(dec.eigenvectors[:, 0], dims, keep)
    mixed = sum(reduced_density(dec.eigenvectors[:, k], dims, keep).matrix for k in group)
    return DensityMatrix(mixed / len(group))


def ground_concurrence_from_decomposition(
    dec, dims, pair: tuple[int, int]
) -> ConcurrenceResult:
    """Ground-level pair concurrence given an existing EigenDecomposition."""
    dims = tuple(int(d) for d in dims)
    i, j = pair
    if dims[i] != 2 or dims[j] != 2:
        raise DimensionError(f"kept subsystems must be qubits, dims={dims}, pair={pair}")
    res = concurrence(ground_level_density(dec, dims, pair))
    return replace(res, degenerate_ground=len(dec.ground_group) > 1)


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
