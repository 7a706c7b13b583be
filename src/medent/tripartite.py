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
        if not np.isfinite(self.j_coupling):
            raise ValueError(f"j_coupling must be finite, got {self.j_coupling}")
        if not -np.inf < self.lam < np.inf:
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not self.delta < np.inf:
            raise ValueError(f"delta must be finite, got {self.delta}")
        if not self.delta >= 0:
            raise ValueError("delta must be non-negative")
        if self.delta0 is None:
            object.__setattr__(self, "delta0", self.j_coupling)
        if self.lambda0 is None:
            object.__setattr__(self, "lambda0", self.j_coupling)
        for name in ("delta0", "lambda0"):
            if not -np.inf < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def coefficients(self) -> PauliCoefficients:
        return _chain_coefficients(*_ising_coefficients([self])[0])


def _chain_coefficients(outer: float, j_coupling: float, middle: float) -> PauliCoefficients:
    """The Pauli tensors of a chain point: ``outer`` on X x 1 x 1 and 1 x 1 x X,
    ``j_coupling`` on ZZ1 and 1ZZ, ``middle`` on 1X1."""
    h_ab = np.zeros((4, 4))
    h_bc = np.zeros((4, 4))
    h_b = np.zeros(3)
    h_ab[3, 3] = h_bc[3, 3] = j_coupling
    h_ab[1, 0] = h_bc[0, 1] = outer
    h_b[0] = middle
    return PauliCoefficients(h_ab, h_bc, h_b)


def _ising_coefficients(params) -> np.ndarray:
    """The (n, 3) coefficient rows (delta * delta0 / 2, J, lam * lambda0 / 2) of
    a sequence of IsingParams."""
    return np.array(
        [(p.delta * p.delta0 / 2, p.j_coupling, p.lam * p.lambda0 / 2) for p in params],
        dtype=float,
    ).reshape(-1, 3)


def build_ising(p: IsingParams) -> HermitianOperator:
    """The chain Hamiltonian of one point: ``ising_hamiltonians`` of [p], checked
    as a ``HermitianOperator``."""
    return HermitianOperator(ising_hamiltonians([p])[0])


@lru_cache(maxsize=1)
def _ising_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only real chain terms: X x 1 x 1 + 1 x 1 x X, ZZ1 + 1ZZ and 1X1."""
    ab, bc, b = _pauli_terms()
    return tuple(_readonly(t.real) for t in (ab[1, 0] + bc[0, 1], ab[3, 3] + bc[3, 3], b[0]))


def ising_hamiltonians(params) -> np.ndarray:
    """The chain matrices of a sequence of IsingParams as one (n, 8, 8) stack,
    each equal bit for bit to ``build_pauli_hamiltonian`` of its point's
    ``coefficients``; ``_ising_matrices`` of their coefficient rows."""
    return _ising_matrices(_ising_coefficients(params))


def _ising_matrices(coefficients: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """The (n, 8, 8) chain stack of (n, 3) coefficient rows (outer, J, middle),
    as ``_chain_coefficients`` names them, in ``dtype`` (complex128 or float64).

    Every term is real, so the stack is summed in float64 from the three
    terms of ``_ising_terms`` and cast to complex once, with the bits of the
    five complex terms added one by one.  A real coefficient times a real
    complex entry has the real product as its real part and a signed zero as
    its imaginary part; the sum starts from +0.0, which absorbs every signed
    zero; and the terms' supports are disjoint but on the diagonal, where
    J·z1 + J·z2 is J·(z1 + z2) exactly (±2J, or a zero that the +0.0 start
    absorbs).  A zero coefficient, which ``build_pauli_hamiltonian`` skips,
    adds only signed zeros.  The matrices are not yet checked as
    ``HermitianOperator``.  If a row is not finite, the ValueError that
    ``_chain_coefficients`` raises for the first such row is raised before any
    term is added; a finite J whose 2J overflows leaves inf on that point's
    diagonal.
    """
    finite = np.isfinite(coefficients).all(axis=1)
    if not finite.all():
        _chain_coefficients(*coefficients[finite.argmin()])
    h = np.zeros((len(coefficients), 8, 8))
    for c, term in zip(coefficients.T[:, :, np.newaxis, np.newaxis], _ising_terms()):
        h += c * term
    return h.astype(dtype, copy=False)


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
