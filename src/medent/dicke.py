"""Two atoms coupled to one truncated bosonic mode, in three approximations.

Variant "h1" keeps only co-rotating exchange terms, "h2" adds the
counter-rotating ones, and "h3" further adds a quadratic field term whose
coefficient defaults to kappa^2 / omega_a (scaled by the free multiplier
lam_tilde).  Basis ordering: atom1 x atom2 x field, field index fastest.

Every ground level but the sweep's start-cutoff solve is found on the exact
sectors of the collective basis {T-, T0, T+, S} of the atoms, whose total
spin J every term conserves: (J, N) for h1, which conserves the excitation
number N, and (J, N mod 2) for h2 and h3.  ``build_dicke`` and
``dicke_mediator_form`` declare them (``HermitianOperator.sectors``), and
the optimizer's points (``mediator_concurrence``, stacked by
``mediator_outcomes``) and the Fock-cutoff confirmation (``_sector_point``)
solve them as ``ground_state_pair_concurrence`` solves those operators.

A Fock cutoff is verified by a certificate first and by doubling as the
fallback (``_settled_cutoff``): the start cutoff's ground vector, padded with
zeros, proves the concurrence at twice the cutoff within the tolerance where
it can (``_cutoff_certificate``), from its residual and a lower bound on the
next level there, and no doubled cutoff is solved; where it cannot, every
doubled cutoff is solved on its sectors and compared with the previous one.
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
    DEGENERACY_RTOL,
    KRON_DIM_LIMIT,
    DimensionError,
    HermitianOperator,
    NumericalError,
    Sectors,
    _assembled_operator,
    _block_stack,
    _declared_ground_levels,
    _hermitian_stack,
    _readonly,
    _sector_ground_level,
    eigh,
    kron,
)
from .sweeps import POINT_ERRORS, SweepResult, _point_outcome
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
# how far two measured concurrences of (nearly) one vector may differ by the
# kernel's rounding alone: the square root in ``concurrence_stack`` turns
# eigenvalue rounding of about 1e-16 into about 1e-8 (a full complex solve
# reads up to 1.9e-8 where the sectors read an exact 0); a Fock-cutoff
# certificate leaves this much of its tolerance to the two readings
NOISE = 1e-7


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
def _product_index(n_max: int, order: tuple[int, int, int]) -> np.ndarray:
    """Per state of the product basis of the subsystems (atom, atom, field)
    taken in ``order``, its index in the product basis atom x atom x field."""
    return _readonly(np.arange(4 * (n_max + 1)).reshape(2, 2, n_max + 1).transpose(order).ravel())


@lru_cache(maxsize=16)
def _scatter_index(n_max: int, order: tuple[int, int, int]) -> np.ndarray:
    """The entries of the two (d, d) blocks of ``_parity_blocks`` as (2, d, d)
    flat indices into the dim x dim matrix on the product basis of the
    subsystems (atom, atom, field) taken in ``order``."""
    sectors = _product_index(n_max, order).argsort()[_parity_blocks(n_max)[0]]
    dim = 4 * (n_max + 1)
    return _readonly(sectors[:, :, np.newaxis] * dim + sectors[:, np.newaxis, :])


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


def _collective_sectors(cfg: DickeConfig, order: tuple[int, int, int]) -> Sectors:
    """The exact sectors of ``cfg``'s Hamiltonian, declared for the product
    basis of its subsystems (atom, atom, field) taken in ``order``: the
    collective sectors of ``_sector_blocks``, (J, N) for h1 and (J, N mod 2)
    for h2 and h3, with ``cfg``'s coefficients, mapped by
    ``COLLECTIVE_TO_PRODUCT`` and then into ``order``."""
    coefficients = _dicke_coefficients(cfg)
    groups = _sector_blocks(cfg.n_max, "collective", len(coefficients))
    return Sectors(groups, tuple(coefficients), COLLECTIVE_TO_PRODUCT, _product_index(cfg.n_max, order))


def build_dicke(cfg: DickeConfig) -> HermitianOperator:
    """``cfg``'s Hamiltonian in the basis atom x atom x field, checked once, on
    its parity blocks: their exactly symmetric real scatter, declaring its exact
    collective sectors (``HermitianOperator.sectors``), is not checked again."""
    return _assembled_operator(_scattered_dicke(cfg, (0, 1, 2)), _collective_sectors(cfg, (0, 1, 2)))


def dicke_mediator_form(cfg: DickeConfig) -> tuple[HermitianOperator, tuple[int, int, int]]:
    """The same operator in the basis atom x field x atom, checked once, on
    its parity blocks, and declaring its exact sectors, as ``build_dicke``'s.

    Puts the field in the middle slot so the exchange-symmetry and theorem
    machinery (which expects the mediator between the two outer qubits) can
    consume it directly.
    """
    h = _assembled_operator(_scattered_dicke(cfg, (0, 2, 1)), _collective_sectors(cfg, (0, 2, 1)))
    return h, (2, cfg.n_max + 1, 2)


def _mediator_stack(configs: list[DickeConfig]) -> list[ConcurrenceResult]:
    """``mediator_concurrence`` of each of ``configs``, which differ only in
    kappa: the sectors of every point solved together, one real stack per
    block size (``_declared_ground_levels``), each point's bits those of a
    stack of it alone.  Raises the first failure of any point."""
    _check_dim(configs[0])
    sectors = _collective_sectors(configs[0], (0, 2, 1))
    coefficients = np.array([_dicke_coefficients(cfg) for cfg in configs])
    dims = (2, configs[0].n_max + 1, 2)
    return [
        ground_level_concurrence(vectors, len(energies), dims, (0, 2))
        for energies, vectors, _ in _declared_ground_levels(sectors, coefficients)
    ]


def mediator_concurrence(cfg: DickeConfig) -> ConcurrenceResult:
    """Ground-level concurrence of the two atoms, the outer qubits of the
    mediator form: ``ground_state_ac_concurrence(*dicke_mediator_form(cfg))``
    bit for bit, with no full matrix.  Both solve the collective sectors
    that the mediator form declares (``_sector_ground_level``), the ones
    ``_sector_point`` solves, and reduce the ground level in the mediator
    form's basis; the parity blocks are neither built nor checked."""
    (conc,) = _mediator_stack([cfg])
    return conc


def mediator_outcomes(kappas, base: dict) -> list:
    """Per coupling of ``kappas``, ``mediator_concurrence`` of
    ``DickeConfig(kappa=kappa, **base)``, bit for bit, or the POINT_ERRORS
    exception that fails it, its config's or its solve's: the evaluator of
    a ``ControlProblem`` over kappa, as ``optimize --model dicke`` runs it.

    The points with valid configs are one ``_mediator_stack``.  Only the
    points of a stack that fails a check are solved alone, so a failure flags
    only its own point, with the point path's error text.
    """
    outcomes = [_point_outcome(DickeConfig, kappa=kappa, **base) for kappa in kappas]
    valid = [i for i, cfg in enumerate(outcomes) if isinstance(cfg, DickeConfig)]
    if valid:
        configs = [outcomes[i] for i in valid]
        try:
            solved = _mediator_stack(configs)
        except POINT_ERRORS:
            solved = [_point_outcome(mediator_concurrence, cfg) for cfg in configs]
        for i, outcome in zip(valid, solved):
            outcomes[i] = outcome
    return outcomes


@dataclass(frozen=True)
class DickeGroundPoint:
    """Ground-level summary of one parameter point at an accepted Fock cutoff.

    ``certified`` says which rule decided the cutoff: True when the start
    cutoff's certificate (``_cutoff_certificate``) proved it, and
    ``convergence_delta`` is then the proven bound on the change at twice the
    cutoff; False when the doubling decided, and it is the measured change.
    """

    config: DickeConfig
    ground_energy: float
    gap: float
    concurrence: ConcurrenceResult
    nmax_used: int
    converged: bool
    convergence_delta: float
    certified: bool = False


def _sector_keys(n_max: int, basis: str, n_terms: int) -> np.ndarray:
    """The integer sector key of each basis state (atoms in ``basis``, field
    fastest) under the first ``n_terms`` of ``_dicke_terms``: (J, N), N the
    excitation number, if every such term conserves N, else (J, N mod 2)."""
    atoms, dim_f = _ATOM_BASES[basis], n_max + 1
    atom, n = np.divmod(np.arange(4 * dim_f), dim_f)
    excitations = atoms.excited[atom] + n
    if n_terms > _N_CONSERVING_TERMS:
        excitations %= 2
    # N <= n_max + 2, so J and N never share a key
    return atoms.spin[atom] * (n_max + 3) + excitations


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
    blocks as (index, values) into a real (m, s, s) stack: the layout of
    ``Sectors.groups``.  Every term is checked once to be exactly real with
    no entry between two sectors: no (atom, field) pair of it may have a
    nonzero imaginary part or take a basis state into another sector; one
    that conserves N, into another (J, N) sector.

    The blocks are gathered from the real parts of the factors, after a
    check that these are real, so no full-size or complex term is built.
    """
    atoms, dim_f = _ATOM_BASES[basis], n_max + 1
    atom, n = np.divmod(np.arange(4 * dim_f), dim_f)
    keys = _sector_keys(n_max, basis, n_terms)
    _, sector_of, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(sector_of, kind="stable"), np.cumsum(sizes)[:-1])
    terms = _dicke_terms(n_max, atoms)[:n_terms]

    def leaves(a: np.ndarray, f: np.ndarray, keys: np.ndarray) -> bool:
        """Whether kron(a, f) has a nonzero entry between two states of different ``keys``."""
        (ai, aj), (fi, fj) = np.nonzero(a), np.nonzero(f)
        rows = (ai[:, np.newaxis] * dim_f + fi).ravel()
        cols = (aj[:, np.newaxis] * dim_f + fj).ravel()
        return bool((keys[rows] != keys[cols]).any())

    n_keys = _sector_keys(n_max, basis, _N_CONSERVING_TERMS)
    for i, pairs in enumerate(terms):
        exact = n_keys if i < _N_CONSERVING_TERMS else keys
        if any(a.imag.any() or f.imag.any() or leaves(a, f, exact) for a, f in pairs):
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


def _parity_block_hamiltonian(cfg: DickeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The sectors of ``_parity_blocks`` and ``cfg``'s Hamiltonian as their two
    real diagonal blocks (2, d, d); every entry outside them is zero.

    This is the one Hermiticity check of a Dicke Hamiltonian on every route:
    the blocks are returned as ``_hermitian_stack`` returns them.
    """
    group = _parity_blocks(cfg.n_max)
    return group[0], _hermitian_stack(_block_stack(group, np.array([_dicke_coefficients(cfg)])))


def _sector_level(cfg: DickeConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The ground level of ``cfg`` on the exact collective sectors that
    ``build_dicke(cfg)`` declares, as ``_sector_ground_level`` returns it, its
    members in the basis atom x atom x field."""
    return _sector_ground_level(None, _collective_sectors(cfg, (0, 1, 2)))


def _sector_point(cfg: DickeConfig) -> tuple[float, float, ConcurrenceResult]:
    """Ground energy, gap and atom-atom concurrence of ``cfg`` on the exact
    collective sectors that ``build_dicke(cfg)`` declares, as
    ``ground_state_pair_concurrence`` solves them, one real stack per group
    of equal-size blocks; no full matrix is built.

    The ground level may span several sectors (the h1 crossings); its
    members are merged by ``_merged_ground_level`` and taken to the product
    basis for the reduction.
    """
    energies, vectors, gap = _sector_level(cfg)
    conc = ground_level_concurrence(vectors, len(energies), cfg.dims, (0, 1))
    return float(energies[0]), gap, conc


class _PaddedGround(NamedTuple):
    """What the start cutoff's ground vector tells of the cutoff doubled
    (``_padded_ground``)."""

    rho: float  # Rayleigh quotient of its part in block b0
    residual: float  # ||r||, r that part's residual
    off: float  # ||y||, its norm outside b0
    nu0: float  # a lower bound on the second eigenvalue of H_b0
    nu1: float  # a lower bound on every eigenvalue of the other blocks
    spread: float  # an upper bound on the spectral range of H


def _padded_ground(cfg: DickeConfig, vectors: np.ndarray) -> _PaddedGround | None:
    """The start cutoff's ground vector in ``vectors`` (D, 1), in the basis
    atom x atom x field, against the Hamiltonian at twice ``cfg``'s cutoff;
    None for a ground level of more than one vector or a complex one.

    Let psi be the vector in the collective basis, padded with zeros to
    cutoff 2n and normalized, and H = (+)_b H_b the collective sector blocks
    at 2n (``_sector_blocks``).  b0 is the block that holds most of psi,
    x-hat its normalized part there and y the rest; rho = x-hat^T H_b0 x-hat
    and r = H_b0 x-hat - rho x-hat.

    *Lower bounds without eigenvectors.*  Split each block at field level n,
    H_b = [[A, C], [C^T, B]], A on the states m <= n, and take t > 0 and Pi
    the projector onto the rows of C that are nonzero.  Then
    L_b = blockdiag(A - t Pi, B - C^T C / t) <= H_b, since
    H_b - L_b = [[t Pi, C], [C^T, C^T C / t]] = M^T M with
    M = [sqrt(t) Pi, C / sqrt(t)] (Pi C = C).  By Courant-Fischer every
    eigenvalue of H_b is at least the one of L_b of the same index.  The
    spectrum of L_b is that of A - t Pi, solved by ``eigvalsh`` (a_1 <= a_2),
    and that of B - C^T C / t, which is >= g by Gershgorin's theorem, g the
    least B row's diagonal less the absolute sums of its other B entries and
    of its row of C^T C / t, the latter bounded by (|C|^T |C| 1) / t.  The
    second least of the union of two spectra is >= the least of the second
    of one and the first of the other, so the second eigenvalue of H_b0 is
    >= nu0 = min(a_2(b0), g(b0)), and every eigenvalue of the other blocks
    >= nu1 = min over b != b0 of min(a_1(b), g(b)).  t is half the distance
    from rho to the least diagonal entry of a cut row, which keeps both
    halves of L above rho, or 1 if that is less (any t > 0 is valid).

    A is the start cutoff's block of the same sector but for its diagonal:
    the field operators 1, a^dag a, a and a^dag at cutoff 2n truncate to
    theirs at n, and (a + a^dag)^2 does but for its entry (n, n).  So each
    A - t Pi is solved from the start cutoff's blocks, their diagonal that
    of H less t on the cut rows.
    """
    n, dim_f = cfg.n_max, 2 * cfg.n_max + 1
    if vectors.shape[1] != 1 or vectors.imag.any():
        return None
    coefficients = np.array([_dicke_coefficients(cfg)])
    start = COLLECTIVE_TO_PRODUCT.T @ vectors.real.reshape(4, n + 1)
    start /= np.linalg.norm(start)
    padded = np.zeros((4, dim_f))
    padded[:, : n + 1] = start
    padded = padded.ravel()

    blocks = []
    for group in _sector_blocks(2 * n, "collective", len(coefficients[0])):
        h = _block_stack(group, coefficients)
        inner = group[0] % dim_f <= n
        magnitude, diagonal = np.abs(h), h.diagonal(axis1=1, axis2=2)
        # |C| in H's shape: the entries from a state m <= n to one above
        c = np.where(inner[:, :, np.newaxis] & ~inner[:, np.newaxis, :], magnitude, 0.0)
        blocks.append((group[0], h, padded[group[0]], inner, magnitude, c, c.any(axis=2), diagonal))
    b0, off, states, h, x = _most_weight([(index, h, x) for index, h, x, *_ in blocks])
    hx = h @ x
    rho = x @ hx
    residual = np.linalg.norm(hx - rho * x)

    # half the distance from rho to the least diagonal entry of a cut row,
    # and at least 1 (any t > 0 is valid, as where no row is cut)
    cut_diagonals = np.concatenate([d[cut] for *_, cut, d in blocks])
    t = max((cut_diagonals.min() - rho) / 2, 1.0) if cut_diagonals.size else 1.0
    # the diagonal of A - t Pi, at every state m <= n
    shifted = np.empty(4 * dim_f)
    bottoms, tops, g = [], [], []
    for index, h, _, inner, magnitude, c, cut, diagonal in blocks:
        shifted[index] = diagonal - t * cut
        radius = magnitude.sum(axis=2) - np.abs(diagonal)
        bottoms.append((diagonal - radius).min())
        tops.append((diagonal + radius).max())
        # Gershgorin on B - C^T C / t, per block (inf without B): a B row's
        # entries in A are its column of C
        coupled = np.einsum("bij,bi->bj", c, c.sum(axis=2))
        others = radius - c.sum(axis=1)
        g.append(np.where(inner, np.inf, diagonal - others - coupled / t).min(axis=1))
    g = np.concatenate(g)
    shifted = shifted.reshape(4, dim_f)[:, : n + 1].ravel()

    parts, a = [], []
    for group in _sector_blocks(n, "collective", len(coefficients[0])):
        part = _block_stack(group, coefficients)
        s = part.shape[1]
        part[:, np.arange(s), np.arange(s)] = shifted[group[0]]
        try:
            w = np.linalg.eigvalsh(part)
        except np.linalg.LinAlgError:
            return None
        # inf as the second of a block of one state
        a.append(np.column_stack([w[:, 0], w[:, 1] if s > 1 else np.full(len(w), np.inf)]))
        parts.append((group[0], part, start.ravel()[group[0]]))
    a = np.concatenate(a)
    a0, _, inside, _, _ = _most_weight(parts)
    # the same sector as b0 (each sector at n lies in one at 2n): its first
    # state is among b0's
    if not (states == inside[0] // (n + 1) * dim_f + inside[0] % (n + 1)).any():
        return None
    nu0 = min(a[a0, 1], g[b0])
    nu1 = min(np.delete(a[:, 0], a0).min(initial=np.inf), np.delete(g, b0).min(initial=np.inf))
    return _PaddedGround(float(rho), float(residual), off, float(nu0), float(nu1), max(tops) - min(bottoms))


def _cutoff_certificate(cfg: DickeConfig, vectors: np.ndarray, tol: float) -> float | None:
    """A proven bound on |C(2n) - C(n)|, the change of the atom-atom
    concurrence from ``cfg``'s cutoff n to 2n, from the start cutoff's own
    ground level ``vectors`` (D, k) in the basis atom x atom x field; None
    where it cannot prove the bound <= ``tol - NOISE``, and then the cutoff
    must be doubled.  No eigenvector at 2n is computed.  In the terms of
    ``_padded_ground``:

    *One ground state at 2n.*  rho >= the least eigenvalue lambda_1 of
    H_b0, so if nu = min(nu0, nu1) > rho, lambda_1 is the ground energy of
    H, in b0, simple, with gap >= nu - rho.  The 2n ground group of
    ``_ground_levels`` then has size 1 where nu - rho exceeds twice its
    tolerance DEGENERACY_RTOL * max(1, range), the range bounded by
    Gershgorin's theorem on every row of H; the factor 2 covers LAPACK's
    rounding of the eigenvalues, some 1e-14 of the range.

    *sin Theta.*  Write x-hat = cos(theta) u + sin(theta) w, u the ground
    vector of H_b0, w a unit vector orthogonal to it; (H_b0 - rho) keeps the
    two parts orthogonal, and on w it is >= lambda_2 - rho >= nu0 - rho > 0,
    so ||r|| >= sin(theta) (nu0 - rho) (Davis & Kahan, SIAM J. Numer. Anal.
    7, 1 (1970)).  With the sign of u that makes cos(theta) >= 0,
    ||x-hat - u||^2 = 2 (1 - cos(theta)) <= 2 sin(theta)^2.  And
    ||psi - x-hat||^2 = ||y||^2 + (1 - ||x||)^2 <= 2 ||y||^2, as
    1 - ||x|| <= 1 - ||x||^2 = ||y||^2.  So
    ||psi - u|| <= sqrt(2) (||y|| + ||r|| / (nu0 - rho)).

    *Lipschitz constant 8.*  For a unit vector with X its (AC) x (rest)
    reshape, Wootters' lambda_i are the singular values of
    tau = X^T S X, S = s2 x s2 (Wootters, PRL 80, 2245 (1998)): the nonzero
    eigenvalues of rho rho~ = X X^dag S X* X^T S are those of M^dag M with
    M = X^T S X.  For unit X, Y:
    tau_X - tau_Y = (X - Y)^T S X + Y^T S (X - Y), S real orthogonal, so
    ||delta tau||_2 <= 2 ||X - Y||_2 <= 2 ||X - Y||_F.  By Weyl's
    inequality for singular values each lambda_i moves by at most that,
    lambda_1 - lambda_2 - lambda_3 - lambda_4 by at most 4 times it, and
    max(0, .) is 1-Lipschitz: |C(X) - C(Y)| <= 8 ||X - Y||_F.  Padding with
    zeros and the orthogonal collective basis change leave C and the norm
    as they are, and C(u) = C(-u).

    Hence |C(2n) - C(n)| <= 8 sqrt(2) (||y|| + ||r|| / (nu0 - rho)) for the
    exact concurrences; the measured ones each carry the kernel's rounding,
    which ``NOISE`` covers.
    """
    if not tol > NOISE:
        return None
    ground = _padded_ground(cfg, vectors)
    if ground is None:
        return None
    margin = 2 * DEGENERACY_RTOL * max(1.0, ground.spread)
    if not min(ground.nu0, ground.nu1) - ground.rho > margin:
        return None
    bound = 8 * np.sqrt(2) * (ground.off + ground.residual / (ground.nu0 - ground.rho))
    return float(bound) if bound <= tol - NOISE else None


def _most_weight(groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> tuple:
    """Of the blocks (m, s, s) of ``groups``, each with its states (m, s) and
    a vector's parts (m, s), the one that holds most of the vector's weight:
    its index over all groups, the norm of the vector outside it, its states,
    and the block and its normalized part."""
    weights = np.concatenate([np.einsum("bs,bs->b", x, x) for *_, x in groups])
    i = block = int(weights.argmax())
    for index, h, x in groups:
        if block < len(h):
            off = float(np.sqrt(max(weights.sum() - weights[i], 0.0)))
            return i, off, index[block], h[block], x[block] / np.sqrt(weights[i])
        block -= len(h)


def _settled_cutoff(cfg: DickeConfig, value: float, vectors: np.ndarray, tol: float, limit: int) -> tuple:
    """Accept ``cfg``'s cutoff where ``_cutoff_certificate`` proves the
    concurrence, ``value`` at that cutoff and ground level ``vectors``, settled
    within ``tol``; else double the cutoff until the concurrence settles:
    each doubled cutoff's ``_sector_point`` is compared with the previous
    cutoff's value, and a rejected one becomes the next base.  Returns the
    accepted cutoff (or the first >= ``limit``), whether it was accepted, the
    deciding change (the certificate's bound, or the measured change), its
    sector point (None at ``cfg``'s own cutoff) and whether the certificate
    decided."""
    bound = _cutoff_certificate(cfg, vectors, tol)
    if bound is not None:
        return cfg.n_max, True, bound, None, True
    n, point = cfg.n_max, None
    while True:
        doubled = _sector_point(cfg.with_n_max(2 * n))
        delta = abs(doubled[2].value - value)
        if delta <= tol:
            return n, True, delta, point, False
        n, point, value = 2 * n, doubled, doubled[2].value
        if n >= limit:
            return n, False, delta, point, False


def dicke_ground_point(
    cfg: DickeConfig,
    *,
    convergence_tol: float = CONVERGENCE_TOL,
    n_max_limit: int = N_MAX_LIMIT,
) -> DickeGroundPoint:
    """Evaluate one point, certifying its Fock cutoff or doubling it until the
    concurrence settles.

    ``cfg``'s own cutoff is solved in full, ``eigh(build_dicke(cfg))``, whose
    complex bits the recorded digests hold.  Its ground vector first tries to
    prove that the concurrence at twice the cutoff lies within
    ``convergence_tol`` (``_cutoff_certificate``), without solving it; where
    the proof fails, every doubled cutoff is solved on its exact sectors
    (``_settled_cutoff``): (J, N) for h1 and (J, N mod 2) for h2 and h3 in the
    atoms' collective basis, which report any value above the start.  Both
    rules accept the same cutoffs, so the reported values do not depend on
    which decided (``DickeGroundPoint.certified``).

    The accepted cutoff is reported as ``nmax_used``; if the value still moves
    by more than ``convergence_tol`` at the cutoff limit the point is returned
    with ``converged=False`` rather than silently accepted.
    """
    if not convergence_tol >= 0:
        raise ValueError(f"convergence_tol must be >= 0, got {convergence_tol}")
    dec = eigh(build_dicke(cfg))
    size = len(dec.ground_group)
    conc = ground_level_concurrence(dec.eigenvectors, size, cfg.dims, (0, 1))
    n, converged, delta, point, certified = _settled_cutoff(
        cfg, conc.value, dec.eigenvectors[:, :size], convergence_tol, n_max_limit
    )
    energy, gap, conc = point or (dec.ground_energy, dec.gap(), conc)
    return DickeGroundPoint(cfg.with_n_max(n), energy, gap, conc, n, converged, delta, certified)


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

    Rows follow lexicographic grid order, kappa outermost, and the results are
    kept as columns.  An invalid parameter aborts the sweep; numerical failures
    at one point are recorded in its status column.
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

    n = len(configs)
    variant = np.full(n, cfg.variant, dtype=object)
    kappa, lam_tilde = np.repeat(kappas, len(tildes)), np.tile(tildes, len(kappas))
    # a failed point keeps the start cutoff, NaN results and degenerate False
    nmax_used = np.full(n, cfg.n_max, dtype=np.int64)
    energy, gap, conc = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    degenerate = np.zeros(n, dtype=bool)
    status = np.full(n, "ok", dtype=object)
    for i, c in enumerate(configs):
        ground = _point_outcome(
            dicke_ground_point, c, convergence_tol=convergence_tol, n_max_limit=n_max_limit
        )
        if isinstance(ground, Exception):
            status[i] = f"error: {ground}"
            continue
        nmax_used[i], energy[i], gap[i] = ground.nmax_used, ground.ground_energy, ground.gap
        conc[i], degenerate[i] = ground.concurrence.value, ground.concurrence.degenerate_ground
        if not ground.converged:
            status[i] = "fock_unconverged"
    return SweepResult(
        DICKE_SWEEP_SCHEMA,
        (variant, kappa, lam_tilde, nmax_used, energy, gap, conc, degenerate, status),
    )
