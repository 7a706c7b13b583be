"""Three-qubit Hamiltonians where the outer qubits couple only to the middle one.

Basis convention: computational product basis |a> |b> |c> with the first
(outer-left) qubit the slowest index and sigma^3 |0> = +|0>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    DimensionError,
    HermitianOperator,
    _readonly,
    eigh,
    kron_all,
)

SIGMA_0 = np.eye(2, dtype=np.complex128)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)

# sigma^3 coupling to both neighbours contributes this effective field on the
# middle qubit when the outer qubits sit in |0>|0>
V_SHIFT = np.array([0.0, 0.0, 2.0])


@dataclass(frozen=True)
class PauliCoefficients:
    """Real coefficient tensors for the two couplings and the middle-site field.

    ``h_ab[j][k]`` multiplies sigma^j x sigma^k x 1, ``h_bc[j][k]`` multiplies
    1 x sigma^j x sigma^k (indices 0..3, 0 = identity), and ``h_b[j - 1]``
    multiplies 1 x sigma^j x 1 for j = 1..3.  Index-0 entries of h_ab/h_bc are
    accepted; a nonzero h^00 is a pure energy shift.
    """

    h_ab: np.ndarray
    h_bc: np.ndarray
    h_b: np.ndarray

    def __post_init__(self):
        ab = np.asarray(self.h_ab, dtype=float)
        bc = np.asarray(self.h_bc, dtype=float)
        b = np.asarray(self.h_b, dtype=float)
        if ab.shape != (4, 4) or bc.shape != (4, 4) or b.shape != (3,):
            raise DimensionError(
                f"expected shapes (4,4), (4,4), (3,); got {ab.shape}, {bc.shape}, {b.shape}"
            )
        for name, arr in (("h_ab", ab), ("h_bc", bc), ("h_b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "h_ab", _readonly(ab))
        object.__setattr__(self, "h_bc", _readonly(bc))
        object.__setattr__(self, "h_b", _readonly(b))

    @staticmethod
    def zero() -> "PauliCoefficients":
        return PauliCoefficients(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros(3))


@lru_cache(maxsize=1)
def _pauli_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only term operators, built on first use (not at import): ab[j, k] =
    sigma^j x sigma^k x 1, bc[j, k] = 1 x sigma^j x sigma^k, b[j - 1] = 1 x sigma^j x 1."""
    return (
        _readonly(np.array([[kron_all(a, b, SIGMA_0) for b in PAULI] for a in PAULI])),
        _readonly(np.array([[kron_all(SIGMA_0, a, b) for b in PAULI] for a in PAULI])),
        _readonly(np.array([kron_all(SIGMA_0, a, SIGMA_0) for a in PAULI[1:]])),
    )


def build_pauli_hamiltonian(c: PauliCoefficients) -> HermitianOperator:
    """Assemble the 8x8 operator from its Pauli coefficient tensors."""
    ab, bc, b = _pauli_terms()
    h = np.zeros((8, 8), dtype=np.complex128)
    for j in range(4):
        for k in range(4):
            if c.h_ab[j, k] != 0.0:
                h += c.h_ab[j, k] * ab[j, k]
            if c.h_bc[j, k] != 0.0:
                h += c.h_bc[j, k] * bc[j, k]
    for j in range(3):
        if c.h_b[j] != 0.0:
            h += c.h_b[j] * b[j]
    return HermitianOperator(h)


@dataclass(frozen=True)
class IsingParams:
    """sigma^3-sigma^3 couplings of strength J plus transverse local fields.

    The outer-site field strength is delta * delta0 / 2 on sigma^1, the middle
    "control" field is lam * lambda0 / 2 on sigma^1.  By convention delta0 and
    lambda0 default to the coupling J, making delta and lam dimensionless.
    """

    j_coupling: float = 1.0
    delta: float = 0.0
    lam: float = 0.0
    delta0: float | None = None
    lambda0: float | None = None

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.delta0 is None:
            object.__setattr__(self, "delta0", self.j_coupling)
        if self.lambda0 is None:
            object.__setattr__(self, "lambda0", self.j_coupling)

    def coefficients(self) -> PauliCoefficients:
        h_ab = np.zeros((4, 4))
        h_bc = np.zeros((4, 4))
        h_b = np.zeros(3)
        h_ab[3, 3] = self.j_coupling
        h_bc[3, 3] = self.j_coupling
        h_ab[1, 0] = self.delta * self.delta0 / 2
        h_bc[0, 1] = self.delta * self.delta0 / 2
        h_b[0] = self.lam * self.lambda0 / 2
        return PauliCoefficients(h_ab, h_bc, h_b)


def build_ising(p: IsingParams) -> HermitianOperator:
    return build_pauli_hamiltonian(p.coefficients())


def ising_hamiltonians(params) -> np.ndarray:
    """The ``build_ising`` matrices of a sequence of IsingParams as one (n, 8, 8)
    stack, bit for bit.

    The terms are added in ``build_pauli_hamiltonian``'s order: delta/2 on
    1 x 1 x X, delta/2 on X x 1 x 1, J on ZZ1, J on 1ZZ, lambda/2 on 1X1.  A
    zero coefficient, which that function skips, adds only signed zeros to a
    sum that never holds -0.0, so no bit changes.  The matrices are not yet
    checked as ``HermitianOperator``.  If a point has a non-finite entry, the
    ValueError ``build_ising`` raises for the first such point is raised.
    """
    outer, coupling, middle = np.array(
        [(p.delta * p.delta0 / 2, p.j_coupling, p.lam * p.lambda0 / 2) for p in params],
        dtype=float,
    ).reshape(-1, 3).T[:, :, np.newaxis, np.newaxis]
    ab, bc, b = _pauli_terms()
    h = np.zeros((len(params), 8, 8), dtype=np.complex128)
    # an infinite coefficient times a zero entry is NaN; such points are raised below
    with np.errstate(invalid="ignore"):
        for c, term in (
            (outer, bc[0, 1]),
            (outer, ab[1, 0]),
            (coupling, ab[3, 3]),
            (coupling, bc[3, 3]),
            (middle, b[0]),
        ):
            h += c * term
    for i in np.flatnonzero(~np.isfinite(h).reshape(len(params), -1).all(axis=1)):
        build_ising(params[i])  # raises the point's ValueError
    return h


def ising_middle_field(p: IsingParams) -> np.ndarray:
    """The middle-site field 3-vector h_B implied by the parameters."""
    return np.array([p.lam * p.lambda0 / 2, 0.0, 0.0])


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form eigenpairs of the zero-outer-field model (J = 1).

    All eight eigenvectors are exact threefold products |a> |alpha_i> |c>.
    Columns of ``eigenvectors`` follow the labelling below (not sorted by
    energy); ``b_factors`` holds the middle-qubit spinors alpha_1..alpha_8 and
    ``outer_bits`` the (a, c) computational labels of each product.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    v: np.ndarray
    b_factors: np.ndarray  # shape (8, 2): row i is alpha_{i+1}
    outer_bits: tuple[tuple[int, int], ...]

    def sorted_eigenvalues(self) -> np.ndarray:
        return np.sort(self.eigenvalues)

    def ground_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The two lowest product states when they are degenerate.

        These are |0> |alpha_minus^(+)> |0> and |1> |alpha_minus^(-)> |1>,
        where alpha_minus^(+/-) is the negative-energy spinor of the middle
        operator with the outer qubits aligned up/down.  Only meaningful when
        the two energies coincide (field orthogonal to the coupling axis).
        """
        e_plus = self.eigenvalues[1]
        e_minus = self.eigenvalues[7]
        tol = 1e-9 * max(1.0, float(np.abs(self.eigenvalues).max()))
        if abs(e_plus - e_minus) > tol:
            raise ValueError(
                f"lowest product pair not degenerate: {e_plus!r} vs {e_minus!r}"
            )
        if e_plus > float(self.eigenvalues.min()) + tol:
            raise ValueError("pair is not the ground level for this field")
        return self.eigenvectors[:, 1].copy(), self.eigenvectors[:, 7].copy()


def _spinor_pair(field: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigen-pair of field . sigma: (plus vector, minus vector, |field|)."""
    op = field[0] * SIGMA_1 + field[1] * SIGMA_2 + field[2] * SIGMA_3
    dec = eigh(HermitianOperator(op))
    # ascending order: index 0 is the negative-energy spinor
    return dec.eigenvectors[:, 1], dec.eigenvectors[:, 0], float(np.linalg.norm(field))


def analytic_ising_spectrum(h_b) -> AnalyticSpectrum:
    """Closed-form spectrum for J = 1 couplings and no outer-site fields.

    The middle operator seen by the product |a> . |c> is h_B . sigma shifted
    by +/- the coupling contribution of the outer bits, giving the three
    spinor families and energies +/-|h_B + v|, +/-|h_B|, +/-|h_B - v| with
    v = (0, 0, 2).
    """
    h = np.asarray(h_b, dtype=float)
    if h.shape != (3,):
        raise DimensionError(f"h_b must be a 3-vector, got shape {h.shape}")

    up = np.array([1.0, 0.0], dtype=np.complex128)
    down = np.array([0.0, 1.0], dtype=np.complex128)

    plus_p, minus_p, norm_p = _spinor_pair(h + V_SHIFT)   # outer bits (0, 0)
    plus_0, minus_0, norm_0 = _spinor_pair(h)             # outer bits (1,0) / (0,1)
    plus_m, minus_m, norm_m = _spinor_pair(h - V_SHIFT)   # outer bits (1, 1)

    alphas = np.array([plus_p, minus_p, plus_0, minus_0, plus_0, minus_0, plus_m, minus_m])
    bits = ((0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1))
    energies = np.array([norm_p, -norm_p, norm_0, -norm_0, norm_0, -norm_0, norm_m, -norm_m])

    vectors = np.zeros((8, 8), dtype=np.complex128)
    outer = {0: up, 1: down}
    for i in range(8):
        a, c = bits[i]
        vectors[:, i] = np.kron(np.kron(outer[a], alphas[i]), outer[c])

    return AnalyticSpectrum(
        eigenvalues=_readonly(energies),
        eigenvectors=_readonly(vectors),
        v=_readonly(V_SHIFT.copy()),
        b_factors=_readonly(alphas),
        outer_bits=bits,
    )
