"""Two atoms coupled to one truncated bosonic mode, in three approximations.

Variant "h1" keeps only co-rotating exchange terms, "h2" adds the
counter-rotating ones, and "h3" further adds a quadratic field term whose
coefficient defaults to kappa^2 / omega_a (scaled by the free multiplier
lam_tilde).  Basis ordering: atom1 x atom2 x field, field index fastest.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import prod

import numpy as np

from .entanglement import (
    ConcurrenceResult,
    ground_concurrence_from_decomposition,
    ground_level_concurrence,
)
from .linalg import (
    KRON_DIM_LIMIT,
    DimensionError,
    HermitianOperator,
    NumericalError,
    _degeneracy_tol,
    _readonly,
    eigh,
    eigh_stack,
    kron,
)
from .sweeps import SweepResult, grid_sweep
from .tripartite import SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3

VARIANTS = ("h1", "h2", "h3")

SIGMA_PLUS = (SIGMA_1 + 1j * SIGMA_2) / 2
SIGMA_MINUS = (SIGMA_1 - 1j * SIGMA_2) / 2

DEFAULT_N_MAX = 40
CONVERGENCE_TOL = 1e-6
N_MAX_LIMIT = 160


class FockConvergenceError(NumericalError):
    """Ground-state result still drifting when the Fock cutoff is doubled."""


@dataclass(frozen=True)
class BosonicOperators:
    """Truncated annihilation/creation/number operators on n_max + 1 levels."""

    a: np.ndarray
    a_dagger: np.ndarray
    number: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def bosonic_operators(n_max: int) -> BosonicOperators:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(np.complex128)
    ad = a.conj().T
    return BosonicOperators(a=_readonly(a), a_dagger=_readonly(ad), number=_readonly(ad @ a))


@dataclass(frozen=True)
class DickeConfig:
    """Parameters of the two-atom/one-mode models.

    ``lam`` is the quadratic-term coefficient; leaving it None selects the
    kappa^2 / omega_a default used by variant h3.  ``lam_tilde`` multiplies it.
    """

    variant: str
    kappa: float
    omega_a: float = 1.0
    omega_f: float = 1.0
    lam: float | None = None
    lam_tilde: float = 1.0
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.omega_a <= 0 or self.omega_f <= 0:
            raise ValueError("frequencies must be positive")
        if self.kappa < 0 or self.lam_tilde < 0 or (self.lam is not None and self.lam < 0):
            raise ValueError("kappa, lam and lam_tilde must be non-negative")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def resolved_lam(self) -> float:
        if self.lam is not None:
            return self.lam
        return self.kappa**2 / self.omega_a

    @property
    def dims(self) -> tuple[int, int, int]:
        return (2, 2, self.n_max + 1)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def with_n_max(self, n_max: int) -> "DickeConfig":
        return dataclasses.replace(self, n_max=n_max)


def _dicke_coefficients(cfg: DickeConfig) -> list[float]:
    """The coefficients of ``_dicke_terms`` that ``cfg``'s variant uses, in order."""
    coefficients = [cfg.omega_a / 2, cfg.omega_f, cfg.kappa]
    if cfg.variant in ("h2", "h3"):
        coefficients.append(cfg.kappa)
    if cfg.variant == "h3":
        coefficients.append(cfg.lam_tilde * cfg.resolved_lam)
    return coefficients


def _dicke_terms(n_max: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], ...]:
    """The constant operators of the models at one cutoff, in order: the
    atoms' sigma^3 sum, the photon number, the rotating and the
    counter-rotating exchange, and the quadratic field term (a + a^dag)^2.

    Each is a list of (two-atom operator, field operator) pairs; the term is
    the sum of their Kronecker products, added in list order.
    """
    ops = bosonic_operators(n_max)
    eye_f = np.eye(n_max + 1, dtype=np.complex128)
    x = ops.a + ops.a_dagger
    return (
        [(kron(SIGMA_3, SIGMA_0), eye_f), (kron(SIGMA_0, SIGMA_3), eye_f)],
        [(kron(SIGMA_0, SIGMA_0), ops.number)],
        [
            (kron(SIGMA_PLUS, SIGMA_0), ops.a),
            (kron(SIGMA_MINUS, SIGMA_0), ops.a_dagger),
            (kron(SIGMA_0, SIGMA_PLUS), ops.a),
            (kron(SIGMA_0, SIGMA_MINUS), ops.a_dagger),
        ],
        [
            (kron(SIGMA_PLUS, SIGMA_0), ops.a_dagger),
            (kron(SIGMA_MINUS, SIGMA_0), ops.a),
            (kron(SIGMA_0, SIGMA_PLUS), ops.a_dagger),
            (kron(SIGMA_0, SIGMA_MINUS), ops.a),
        ],
        [(kron(SIGMA_0, SIGMA_0), x @ x)],
    )


def _scattered_dicke(cfg: DickeConfig, order: tuple[int, int, int]) -> HermitianOperator:
    """``cfg``'s Hamiltonian in the product basis of its subsystems (atom,
    atom, field) taken in ``order``, its two parity blocks scattered into place."""
    # no Kronecker product is built, but the full matrix is bounded like one
    if cfg.dim > KRON_DIM_LIMIT:
        raise DimensionError(
            f"the Dicke Hamiltonian would be {cfg.dim}x{cfg.dim}, limit is {KRON_DIM_LIMIT}"
        )
    sectors, blocks = _parity_block_hamiltonian(cfg)
    labels = np.unravel_index(sectors, cfg.dims)
    index = np.ravel_multi_index([labels[k] for k in order], [cfg.dims[k] for k in order])
    h = np.zeros((cfg.dim, cfg.dim), dtype=np.complex128)
    for sector, block in zip(index, blocks):
        h[np.ix_(sector, sector)] = block
    return HermitianOperator(h)


def build_dicke(cfg: DickeConfig) -> HermitianOperator:
    """``cfg``'s Hamiltonian in the basis atom x atom x field."""
    return _scattered_dicke(cfg, (0, 1, 2))


def dicke_mediator_form(cfg: DickeConfig) -> tuple[HermitianOperator, tuple[int, int, int]]:
    """The same operator in the basis atom x field x atom.

    Puts the field in the middle slot so the exchange-symmetry and theorem
    machinery (which expects the mediator between the two outer qubits) can
    consume it directly.
    """
    return _scattered_dicke(cfg, (0, 2, 1)), (2, cfg.n_max + 1, 2)


@dataclass(frozen=True)
class DickeGroundPoint:
    """Ground-level summary of one parameter point at an accepted Fock cutoff."""

    config: DickeConfig
    ground_energy: float
    gap: float
    concurrence: ConcurrenceResult
    nmax_used: int
    converged: bool
    convergence_delta: float


def _evaluate(cfg: DickeConfig) -> tuple[float, float, ConcurrenceResult]:
    dec = eigh(build_dicke(cfg))
    conc = ground_concurrence_from_decomposition(dec, cfg.dims, (0, 1))
    return dec.ground_energy, dec.gap(), conc


@lru_cache(maxsize=2)
def _parity_blocks(n_max: int) -> tuple[np.ndarray, tuple]:
    """The two parity sectors at one cutoff and ``_dicke_terms`` cut into them.

    This is the one assembly of the Dicke Hamiltonian: ``build_dicke`` and the
    cutoff check both start from these blocks.  Parity exp(i pi N), N the
    excitation number, commutes with every term.  The sectors are keyed by the
    integers (s1 + s2 + n) mod 2 of the basis labels, never by a float
    diagonal, and both hold d = 2(n_max + 1) states.  Returns their index
    arrays (2, d) and, per term, the nonzero entries of its two diagonal
    blocks as (index, values) into a real (2, d, d) stack.  Every term is
    checked once to be exactly real with no entry between the sectors.

    The blocks are gathered from the real parts of the factors, after a
    check that these are real, so no full-size or complex term is built.
    """
    s1, s2, n = np.unravel_index(np.arange(4 * (n_max + 1)), (2, 2, n_max + 1))
    key = (s1 + s2 + n) % 2
    sectors = np.stack([np.flatnonzero(key == 0), np.flatnonzero(key == 1)])
    atoms, field = (2 * s1 + s2)[sectors], n[sectors]

    def block(pairs, p: int, q: int) -> np.ndarray:
        """Sector block (p, q) of the sum of kron(a, f) over the pairs, added in order."""
        a_rows, f_rows = atoms[p][:, np.newaxis], field[p][:, np.newaxis]
        return reduce(operator.add, (a[a_rows, atoms[q]] * f[f_rows, field[q]] for a, f in pairs))

    terms = []
    for i, pairs in enumerate(_dicke_terms(n_max)):
        real = [(a.real, f.real) for a, f in pairs]
        if any(a.imag.any() or f.imag.any() for a, f in pairs) or any(
            block(real, p, 1 - p).any() for p in (0, 1)
        ):
            raise AssertionError(f"Dicke term {i} at n_max = {n_max} leaves the real parity blocks")
        blocks = np.stack([block(real, 0, 0), block(real, 1, 1)])
        index = np.nonzero(blocks)
        terms.append((index, _readonly(blocks[index])))
    return sectors, tuple(terms)


def _parity_block_hamiltonian(cfg: DickeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The sectors of ``_parity_blocks`` and ``cfg``'s Hamiltonian as their two
    real diagonal blocks (2, d, d); every entry outside them is zero."""
    sectors, terms = _parity_blocks(cfg.n_max)
    d = sectors.shape[1]
    h = np.zeros((2, d, d))
    for c, (index, values) in zip(_dicke_coefficients(cfg), terms):
        h[index] += c * values
    return sectors, h


def _parity_block_concurrence(cfg: DickeConfig) -> ConcurrenceResult:
    """Ground-level atom-atom concurrence of ``cfg`` from one real ``eigh_stack``
    of its two parity blocks.

    The merged spectrum is grouped as ``degeneracy_groups`` groups the full
    one, so a ground level may span both blocks (the h1 crossings); its
    members are embedded in the full basis for the reduction.
    """
    sectors, h = _parity_block_hamiltonian(cfg)
    dec = eigh_stack(h)
    w = dec.eigenvalues.ravel()
    order = np.argsort(w, kind="stable")
    ground = order[w[order] - w[order[0]] <= _degeneracy_tol(w[order])]
    block, column = np.divmod(ground, sectors.shape[1])
    vectors = np.zeros((cfg.dim, ground.size), dtype=np.complex128)
    vectors[sectors[block], np.arange(ground.size)[:, np.newaxis]] = dec.eigenvectors[block, :, column]
    return ground_level_concurrence(vectors, ground.size, cfg.dims, (0, 1))


def dicke_ground_point(
    cfg: DickeConfig,
    *,
    convergence_tol: float = CONVERGENCE_TOL,
    n_max_limit: int = N_MAX_LIMIT,
) -> DickeGroundPoint:
    """Evaluate one point, doubling the Fock cutoff until the concurrence settles.

    The accepted cutoff is reported as ``nmax_used``; if the value still moves
    by more than ``convergence_tol`` at the cutoff limit the point is returned
    with ``converged=False`` rather than silently accepted.

    Every reported value comes from the full solve at its cutoff.  The doubled
    cutoff is first confirmed on its two real parity blocks; only if they
    reject it is it solved in full, and that solve then decides, reports and
    becomes the next base.  ``convergence_delta`` is the concurrence change the
    deciding solve saw.
    """
    energy, gap, conc = _evaluate(cfg)
    n = cfg.n_max
    while True:
        doubled = cfg.with_n_max(2 * n)
        delta = abs(_parity_block_concurrence(doubled).value - conc.value)
        if not delta <= convergence_tol:
            energy2, gap2, conc2 = _evaluate(doubled)
            delta = abs(conc2.value - conc.value)
        if delta <= convergence_tol:
            return DickeGroundPoint(
                cfg.with_n_max(n), energy, gap, conc, n, True, float(delta)
            )
        if 2 * n >= n_max_limit:
            return DickeGroundPoint(
                doubled, energy2, gap2, conc2, 2 * n, False, float(delta)
            )
        n = 2 * n
        energy, gap, conc = energy2, gap2, conc2


def dicke_ground_concurrence(cfg: DickeConfig, **kwargs) -> ConcurrenceResult:
    """Atom-atom concurrence of the ground level, with Fock-cutoff verification."""
    point = dicke_ground_point(cfg, **kwargs)
    if not point.converged:
        raise FockConvergenceError(
            f"concurrence still changes by {point.convergence_delta:.3e} at "
            f"n_max = {point.nmax_used}"
        )
    return point.concurrence


DICKE_SWEEP_SCHEMA = (
    "variant",
    "kappa",
    "lam_tilde",
    "nmax_used",
    "ground_energy",
    "gap",
    "concurrence",
    "degenerate",
    "status",
)


def dicke_sweep(
    cfg: DickeConfig,
    kappa_grid,
    lam_tilde_grid,
    *,
    convergence_tol: float = CONVERGENCE_TOL,
    n_max_limit: int = N_MAX_LIMIT,
) -> SweepResult:
    """Grid sweep over (kappa, lam_tilde) for one variant template.

    Rows follow lexicographic grid order.  An invalid parameter aborts the
    sweep; numerical failures at one point are recorded in its status column.
    """
    kappas = [float(k) for k in kappa_grid]
    tildes = [float(t) for t in lam_tilde_grid]
    if not kappas or not tildes:
        raise ValueError("grids must be non-empty")
    if kappas != sorted(kappas) or tildes != sorted(tildes):
        raise ValueError("grids must be monotone non-decreasing")
    # every point's config is built before any point runs, so an invalid
    # parameter aborts the sweep instead of becoming an error row
    configs = [dataclasses.replace(cfg, kappa=k, lam_tilde=t) for k in kappas for t in tildes]

    def evaluate(point: dict) -> dict:
        ground = dicke_ground_point(
            dataclasses.replace(cfg, kappa=point["kappa"], lam_tilde=point["lam_tilde"]),
            convergence_tol=convergence_tol,
            n_max_limit=n_max_limit,
        )
        return {
            "nmax_used": ground.nmax_used,
            "ground_energy": ground.ground_energy,
            "gap": ground.gap,
            "concurrence": ground.concurrence.value,
            "degenerate": ground.concurrence.degenerate_ground,
            "status": "ok" if ground.converged else "fock_unconverged",
        }

    points = (
        {"variant": c.variant, "kappa": c.kappa, "lam_tilde": c.lam_tilde, "nmax_used": cfg.n_max}
        for c in configs
    )
    return grid_sweep(DICKE_SWEEP_SCHEMA, points, evaluate)
