"""Two atoms coupled to one truncated bosonic mode, in three approximations.

Variant "h1" keeps only co-rotating exchange terms, "h2" adds the
counter-rotating ones, and "h3" further adds a quadratic field term whose
coefficient defaults to kappa^2 / omega_a (scaled by the free multiplier
lam_tilde).  Basis ordering: atom1 x atom2 x field, field index fastest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import prod

import numpy as np

from .entanglement import ConcurrenceResult, ground_concurrence_from_decomposition
from .linalg import (
    HermitianOperator,
    NumericalError,
    _readonly,
    eigh,
    kron_all,
    permute_subsystems,
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


def build_dicke(cfg: DickeConfig) -> HermitianOperator:
    nf = cfg.n_max + 1
    ops = bosonic_operators(cfg.n_max)
    eye_f = np.eye(nf, dtype=np.complex128)

    h = (cfg.omega_a / 2) * (
        kron_all(SIGMA_3, SIGMA_0, eye_f) + kron_all(SIGMA_0, SIGMA_3, eye_f)
    )
    h += cfg.omega_f * kron_all(SIGMA_0, SIGMA_0, ops.number)

    rotating = (
        kron_all(SIGMA_PLUS, SIGMA_0, ops.a)
        + kron_all(SIGMA_MINUS, SIGMA_0, ops.a_dagger)
        + kron_all(SIGMA_0, SIGMA_PLUS, ops.a)
        + kron_all(SIGMA_0, SIGMA_MINUS, ops.a_dagger)
    )
    h += cfg.kappa * rotating

    if cfg.variant in ("h2", "h3"):
        counter = (
            kron_all(SIGMA_PLUS, SIGMA_0, ops.a_dagger)
            + kron_all(SIGMA_MINUS, SIGMA_0, ops.a)
            + kron_all(SIGMA_0, SIGMA_PLUS, ops.a_dagger)
            + kron_all(SIGMA_0, SIGMA_MINUS, ops.a)
        )
        h += cfg.kappa * counter

    if cfg.variant == "h3":
        x = ops.a + ops.a_dagger
        h += cfg.lam_tilde * cfg.resolved_lam * kron_all(SIGMA_0, SIGMA_0, x @ x)

    return HermitianOperator(h)


def dicke_mediator_form(cfg: DickeConfig) -> tuple[HermitianOperator, tuple[int, int, int]]:
    """The same operator reordered as atom x field x atom.

    Puts the field in the middle slot so the exchange-symmetry and theorem
    machinery (which expects the mediator between the two outer qubits) can
    consume it directly.
    """
    h = build_dicke(cfg)
    reordered = permute_subsystems(h.matrix, cfg.dims, (0, 2, 1))
    return HermitianOperator(reordered), (2, cfg.n_max + 1, 2)


def excitation_number(n_max: int) -> np.ndarray:
    """sum_j sigma_j^3 / 2 + a^dag a, conserved by the co-rotating model."""
    nf = n_max + 1
    eye_f = np.eye(nf, dtype=np.complex128)
    ops = bosonic_operators(n_max)
    return (
        kron_all(SIGMA_3, SIGMA_0, eye_f) / 2
        + kron_all(SIGMA_0, SIGMA_3, eye_f) / 2
        + kron_all(SIGMA_0, SIGMA_0, ops.number)
    )


def parity_operator(n_max: int) -> np.ndarray:
    """exp(i pi (excitation number + 1)); commutes with all three variants."""
    diag = np.diag(excitation_number(n_max)).real
    return np.diag(np.exp(1j * np.pi * (diag + 1)))


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
    """
    energy, gap, conc = _evaluate(cfg)
    n = cfg.n_max
    while True:
        doubled = cfg.with_n_max(2 * n)
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
