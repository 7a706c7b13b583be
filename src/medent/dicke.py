"""Two atoms coupled to one truncated bosonic mode, in three approximations.

Variant "h1" keeps only co-rotating exchange terms, "h2" adds the
counter-rotating ones, and "h3" further adds a quadratic field term whose
coefficient defaults to kappa^2 / omega_a (scaled by the free multiplier
lam_tilde).  Basis ordering: atom1 x atom2 x field, field index fastest.
The Fock-cutoff confirmation works in the collective basis {T-, T0, T+, S}
of the atoms instead, whose total spin J every term conserves.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import inf, prod
from typing import NamedTuple

import numpy as np

from .entanglement import ConcurrenceResult, ground_level_concurrence
from .linalg import (
    KRON_DIM_LIMIT,
    DimensionError,
    HermitianOperator,
    NumericalError,
    _assembled_operator,
    _block_ground_level,
    _hermitian_stack,
    _merged_ground_level,
    _readonly,
    eigh,
    eigh_stack,
    kron,
)
from .sweeps import SweepResult, _point_outcome, grid_sweep
from .tripartite import SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3

VARIANTS = ("h1", "h2", "h3")

SIGMA_PLUS = (SIGMA_1 + 1j * SIGMA_2) / 2
SIGMA_MINUS = (SIGMA_1 - 1j * SIGMA_2) / 2

# The two atoms in the collective basis {T-, T0, T+, S} of total spin J:
# T- = |gg>, T0 = (|eg> + |ge>)/sqrt2, T+ = |ee> and S = (|eg> - |ge>)/sqrt2,
# s = 0 the excited state.  J_z and J_+ are written entry by entry, so every
# entry between the triplet and the singlet is an exact zero; rotating the
# product-basis operators instead leaves about 2e-17 there.
J_Z = _readonly(np.diag([-1.0, 0.0, 1.0, 0.0]))
J_PLUS = _readonly(np.diag([np.sqrt(2), np.sqrt(2), 0.0], k=-1))
# column k: collective state k in the product basis 2 s1 + s2 of the atoms
COLLECTIVE_TO_PRODUCT = _readonly(
    np.array([[0, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, 0, 0]]) * np.sqrt([1, 0.5, 1, 0.5])
)


class _AtomBasis(NamedTuple):
    """The two-atom operators of the models and the integer labels of the basis states."""

    sigma3: tuple[np.ndarray, ...]  # summed: sigma^3_1 + sigma^3_2
    ladders: tuple[tuple[np.ndarray, np.ndarray], ...]  # (raising, lowering), summed
    identity: np.ndarray
    excited: np.ndarray  # excited atoms of each state
    spin: np.ndarray  # total spin J of each state; 0 where J is no label


_ATOM_BASES = {
    "product": _AtomBasis(
        (kron(SIGMA_3, SIGMA_0), kron(SIGMA_0, SIGMA_3)),
        (
            (kron(SIGMA_PLUS, SIGMA_0), kron(SIGMA_MINUS, SIGMA_0)),
            (kron(SIGMA_0, SIGMA_PLUS), kron(SIGMA_0, SIGMA_MINUS)),
        ),
        kron(SIGMA_0, SIGMA_0),
        np.array([2, 1, 1, 0]),
        np.zeros(4, dtype=int),
    ),
    # sigma^3_1 + sigma^3_2 = 2 J_z and sigma^+_1 + sigma^+_2 = J_+
    "collective": _AtomBasis(
        (J_Z, J_Z), ((J_PLUS, J_PLUS.T),), np.eye(4), np.array([0, 1, 2, 1]), np.array([1, 1, 1, 0])
    ),
}

# how many of ``_dicke_terms`` each variant uses, in order; the first three
# conserve the excitation number N, the counter-rotating and the quadratic
# term change it by 0 or 2 and keep only its parity
_TERM_COUNTS = {"h1": 3, "h2": 4, "h3": 5}
_N_CONSERVING_TERMS = 3

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
        # written so that NaN fails every check
        if not (0 < self.omega_a < inf and 0 < self.omega_f < inf):
            raise ValueError("frequencies must be positive and finite")
        lam = 0.0 if self.lam is None else self.lam
        if not all(0 <= x < inf for x in (self.kappa, self.lam_tilde, lam)):
            raise ValueError("kappa, lam and lam_tilde must be non-negative and finite")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        quadratic = self.lam_tilde * self.resolved_lam if self.variant == "h3" else 0.0
        # inf * 0 is NaN, which fails the check too
        if not quadratic < inf:
            raise ValueError(
                f"the h3 quadratic coefficient lam_tilde * lam = {quadratic} is not finite"
            )

    @property
    def resolved_lam(self) -> float:
        if self.lam is not None:
            return self.lam
        try:
            return self.kappa**2 / self.omega_a
        except OverflowError:  # kappa**2 beyond the float range
            return inf

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
    coefficients = [cfg.omega_a / 2, cfg.omega_f, cfg.kappa, cfg.kappa]
    if cfg.variant == "h3":
        coefficients.append(cfg.lam_tilde * cfg.resolved_lam)
    return coefficients[: _TERM_COUNTS[cfg.variant]]


def _dicke_terms(
    n_max: int, atoms: _AtomBasis = _ATOM_BASES["product"]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], ...]:
    """The constant operators of the models at one cutoff, in order: the
    atoms' sigma^3 sum, the photon number, the rotating and the
    counter-rotating exchange, and the quadratic field term (a + a^dag)^2.

    Each is a list of (two-atom operator, field operator) pairs, the atoms in
    the basis of ``atoms``; the term is the sum of their Kronecker products,
    added in list order.
    """
    ops = bosonic_operators(n_max)
    eye_f = np.eye(n_max + 1, dtype=np.complex128)
    x = ops.a + ops.a_dagger
    return (
        [(z, eye_f) for z in atoms.sigma3],
        [(atoms.identity, ops.number)],
        [pair for up, down in atoms.ladders for pair in ((up, ops.a), (down, ops.a_dagger))],
        [pair for up, down in atoms.ladders for pair in ((up, ops.a_dagger), (down, ops.a))],
        [(atoms.identity, x @ x)],
    )


def _check_dim(cfg: DickeConfig) -> None:
    """Bound the full matrix of ``cfg`` like a Kronecker product, though none
    is built, before any block is."""
    if cfg.dim > KRON_DIM_LIMIT:
        raise DimensionError(
            f"the Dicke Hamiltonian would be {cfg.dim}x{cfg.dim}, limit is {KRON_DIM_LIMIT}"
        )


@lru_cache(maxsize=16)
def _scatter_index(n_max: int, order: tuple[int, int, int]) -> np.ndarray:
    """The entries of the two (d, d) blocks of ``_parity_blocks`` as (2, d, d)
    flat indices into the dim x dim matrix on the product basis of the
    subsystems (atom, atom, field) taken in ``order``."""
    dims = (2, 2, n_max + 1)
    labels = np.unravel_index(_parity_blocks(n_max)[0], dims)
    sectors = np.ravel_multi_index([labels[k] for k in order], [dims[k] for k in order])
    return _readonly(sectors[:, :, np.newaxis] * prod(dims) + sectors[:, np.newaxis, :])


def _scattered_dicke(cfg: DickeConfig, order: tuple[int, int, int]) -> np.ndarray:
    """``cfg``'s Hamiltonian as a real array in the product basis of its
    subsystems (atom, atom, field) taken in ``order``: the two checked parity
    blocks of ``_parity_block_hamiltonian`` scattered into place by one
    assignment, so it is exactly symmetric without a check of its own."""
    _check_dim(cfg)
    _, blocks = _parity_block_hamiltonian(cfg)
    h = np.zeros(cfg.dim * cfg.dim)
    h[_scatter_index(cfg.n_max, order)] = blocks
    return h.reshape(cfg.dim, cfg.dim)


def build_dicke(cfg: DickeConfig) -> HermitianOperator:
    """``cfg``'s Hamiltonian in the basis atom x atom x field, checked once, on
    its parity blocks: their exactly symmetric real scatter is not checked again."""
    return _assembled_operator(_scattered_dicke(cfg, (0, 1, 2)))


def dicke_mediator_form(cfg: DickeConfig) -> tuple[HermitianOperator, tuple[int, int, int]]:
    """The same operator in the basis atom x field x atom, checked once, on
    its parity blocks, as ``build_dicke``'s is.

    Puts the field in the middle slot so the exchange-symmetry and theorem
    machinery (which expects the mediator between the two outer qubits) can
    consume it directly.
    """
    return _assembled_operator(_scattered_dicke(cfg, (0, 2, 1))), (2, cfg.n_max + 1, 2)


def mediator_concurrence(cfg: DickeConfig) -> ConcurrenceResult:
    """Ground-level concurrence of the two atoms, the outer qubits of the
    mediator form: ``ground_state_ac_concurrence(*dicke_mediator_form(cfg))``
    bit for bit.  The parity blocks, checked once, are scattered into the
    real mediator-form matrix, which goes through the two steps that
    ``ground_state_pair_concurrence`` runs: ``_block_ground_level``, then
    ``ground_level_concurrence``.  The mediator form holds that real matrix
    as complex with zero imaginary parts, which that function takes back
    to real, so both solve the same real matrix with the same kernel."""
    _, vectors = _block_ground_level(_scattered_dicke(cfg, (0, 2, 1)))
    return ground_level_concurrence(vectors, vectors.shape[1], (2, cfg.n_max + 1, 2), (0, 2))


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


@lru_cache(maxsize=8)
def _sector_blocks(n_max: int, basis: str, n_terms: int) -> tuple[tuple[np.ndarray, tuple], ...]:
    """The first ``n_terms`` of ``_dicke_terms`` at one cutoff, the atoms in
    ``basis`` ("product" or "collective"), cut into the exact sectors of
    those terms.

    The sectors are keyed by the integers (J, N) of the basis labels, N the
    excitation number, when every cut term conserves N, and by (J, N mod 2)
    otherwise; never by a float diagonal.  Sectors of equal size form a group.
    Returns per group, in ascending size, the sectors' index arrays (m, s) in
    ascending key order and, per term, the nonzero entries of its m diagonal
    blocks as (index, values) into a real (m, s, s) stack.  Every term is
    checked once to be exactly real with no entry between two sectors: no
    (atom, field) pair of it may have a nonzero imaginary part or take a basis
    state into another sector.

    The blocks are gathered from the real parts of the factors, after a
    check that these are real, so no full-size or complex term is built.
    """
    atoms, dim_f = _ATOM_BASES[basis], n_max + 1
    atom, n = np.divmod(np.arange(4 * dim_f), dim_f)
    excitations = atoms.excited[atom] + n
    if n_terms > _N_CONSERVING_TERMS:
        excitations %= 2
    # N <= n_max + 2, so J and N never share a key
    _, sector_of, sizes = np.unique(
        atoms.spin[atom] * (n_max + 3) + excitations, return_inverse=True, return_counts=True
    )
    members = np.split(np.argsort(sector_of, kind="stable"), np.cumsum(sizes)[:-1])
    terms = _dicke_terms(n_max, atoms)[:n_terms]

    def leaves(a: np.ndarray, f: np.ndarray) -> bool:
        """Whether kron(a, f) has a nonzero entry between two sectors."""
        (ai, aj), (fi, fj) = np.nonzero(a), np.nonzero(f)
        rows = (ai[:, np.newaxis] * dim_f + fi).ravel()
        cols = (aj[:, np.newaxis] * dim_f + fj).ravel()
        return bool((sector_of[rows] != sector_of[cols]).any())

    for i, pairs in enumerate(terms):
        if any(a.imag.any() or f.imag.any() or leaves(a, f) for a, f in pairs):
            raise AssertionError(f"Dicke term {i} at n_max = {n_max} leaves the real {basis} sectors")
    groups = []
    # not np.unique, which would import numpy.ma
    for size in sorted(set(sizes.tolist())):
        sectors = np.stack([m for m in members if m.size == size])
        a_rows, f_rows = atom[sectors][:, :, np.newaxis], n[sectors][:, :, np.newaxis]
        a_cols, f_cols = atom[sectors][:, np.newaxis, :], n[sectors][:, np.newaxis, :]
        cut = []
        for pairs in terms:
            blocks = reduce(
                operator.add, (a.real[a_rows, a_cols] * f.real[f_rows, f_cols] for a, f in pairs)
            )
            index = np.nonzero(blocks)
            cut.append((index, _readonly(blocks[index])))
        groups.append((sectors, tuple(cut)))
    return tuple(groups)


def _parity_blocks(n_max: int) -> tuple[np.ndarray, tuple]:
    """The two parity sectors of the product basis at one cutoff and every
    term of ``_dicke_terms`` cut into them, as one group of ``_sector_blocks``.

    This is the one assembly of the Dicke Hamiltonian: ``build_dicke`` and
    ``dicke_mediator_form`` start from these blocks.  Parity exp(i pi N)
    commutes with every term, and both sectors hold d = 2(n_max + 1) states.
    Returns their index arrays (2, d) and, per term, (index, values) into a
    real (2, d, d) stack.
    """
    (group,) = _sector_blocks(n_max, "product", max(_TERM_COUNTS.values()))
    return group


def _block_stack(group: tuple[np.ndarray, tuple], coefficients) -> np.ndarray:
    """The coefficient-weighted sum of the terms of one group of
    ``_sector_blocks``, added in order, as its real (m, s, s) block stack."""
    sectors, terms = group
    m, s = sectors.shape
    h = np.zeros((m, s, s))
    for c, (index, values) in zip(coefficients, terms):
        h[index] += c * values
    return h


def _parity_block_hamiltonian(cfg: DickeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The sectors of ``_parity_blocks`` and ``cfg``'s Hamiltonian as their two
    real diagonal blocks (2, d, d); every entry outside them is zero.

    This is the one Hermiticity check of a Dicke Hamiltonian on every route:
    the blocks are returned as ``_hermitian_stack`` returns them.
    """
    group = _parity_blocks(cfg.n_max)
    return group[0], _hermitian_stack(_block_stack(group, _dicke_coefficients(cfg)))


def _sector_point(cfg: DickeConfig) -> tuple[float, float, ConcurrenceResult]:
    """Ground energy, gap and atom-atom concurrence of ``cfg`` on its exact
    sectors in the collective basis, one real ``eigh_stack`` per group of equal-size blocks.

    The ground level may span several sectors (the h1 crossings); its
    members, merged and embedded in the full basis by ``_merged_ground_level``,
    are taken to the product basis for the reduction.
    """
    coefficients = _dicke_coefficients(cfg)
    blocks = []
    for group in _sector_blocks(cfg.n_max, "collective", len(coefficients)):
        dec = eigh_stack(_block_stack(group, coefficients))
        blocks.append((group[0], dec.eigenvalues, dec.eigenvectors))
    energies, vectors, gap = _merged_ground_level(cfg.dim, blocks)
    vectors = (COLLECTIVE_TO_PRODUCT @ vectors.reshape(4, -1)).reshape(cfg.dim, -1)
    conc = ground_level_concurrence(vectors, len(energies), cfg.dims, (0, 1))
    return float(energies[0]), gap, conc


def _settled_cutoff(cfg: DickeConfig, value: float, tol: float, limit: int) -> tuple:
    """Double ``cfg``'s cutoff until the concurrence, ``value`` at its own, settles
    within ``tol``: each doubled cutoff's ``_sector_point`` is compared with the
    previous cutoff's value, and a rejected one becomes the next base.  Returns the
    accepted cutoff (or the first >= ``limit``), whether it was accepted, the
    deciding change and its sector point (None at ``cfg``'s own cutoff)."""
    n, point = cfg.n_max, None
    while True:
        doubled = _sector_point(cfg.with_n_max(2 * n))
        delta = abs(doubled[2].value - value)
        if delta <= tol:
            return n, True, delta, point
        n, point, value = 2 * n, doubled, doubled[2].value
        if n >= limit:
            return n, False, delta, point


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

    ``cfg``'s own cutoff is solved in full, ``eigh(build_dicke(cfg))``, whose complex
    bits the recorded digests hold; every doubled one only on its exact sectors
    (``_settled_cutoff``): (J, N) for h1 and (J, N mod 2) for h2 and h3 in the
    atoms' collective basis, which report any value above it.
    """
    if not convergence_tol >= 0:
        raise ValueError(f"convergence_tol must be >= 0, got {convergence_tol}")
    dec = eigh(build_dicke(cfg))
    conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), cfg.dims, (0, 1))
    n, converged, delta, point = _settled_cutoff(cfg, conc.value, convergence_tol, n_max_limit)
    energy, gap, conc = point or (dec.ground_energy, dec.gap(), conc)
    return DickeGroundPoint(cfg.with_n_max(n), energy, gap, conc, n, converged, delta)


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
    if not convergence_tol >= 0:
        raise ValueError(f"convergence_tol must be >= 0, got {convergence_tol}")
    # every point's config is built before any point runs, so an invalid
    # parameter aborts the sweep instead of becoming an error row
    configs = [dataclasses.replace(cfg, kappa=k, lam_tilde=t) for k in kappas for t in tildes]

    def columns(c: DickeConfig) -> dict:
        ground = dicke_ground_point(c, convergence_tol=convergence_tol, n_max_limit=n_max_limit)
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
    return grid_sweep(DICKE_SWEEP_SCHEMA, points, (_point_outcome(columns, c) for c in configs))
