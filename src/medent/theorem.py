"""Machine checks of the factorization theorem for exchange-symmetric systems.

For a Hamiltonian of the form H_AB + H_BC + H_B that is invariant under
swapping the outer subsystems, any non-degenerate eigenstate whose middle
reduction is pure must be a full product across all three factors.  This
module hunts for counterexamples with randomly generated Hamiltonians of
exactly that shape, and verifies the corollaries on ground-state
entanglement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

from .entanglement import concurrence_stack, ground_level_density_stack
from .linalg import (
    KRON_DIM_LIMIT,
    DimensionError,
    HermitianOperator,
    _density_stack,
    _hermitian_stack,
    _purity_stack,
    _readonly,
    _schmidt_stack,
    _trace_out,
    degeneracy_groups,
    eigh,
    eigh_stack,
    kron_all,
    permute_subsystems,
)
from .tripartite import PAULI

SYMMETRY_RTOL = 1e-10
PURITY_PURE_ATOL = 1e-10   # counterexample predicate: rho_B purity >= 1 - this
PURITY_EXTRACT_ATOL = 1e-8  # factorization verdict threshold
SCHMIDT_RANK_TOL = 1e-7
FAMILY_ENERGY_RTOL = 1e-9
FAMILY_SAMPLES = 4  # random coefficient vectors per family check
# corollary_check: a non-degenerate ground level counts as entangled above this
# concurrence, and as pure or maximally entangled within this margin of 1
COROLLARY_CONCURRENCE_FLOOR = 0.01
COROLLARY_PURITY_MARGIN = 1e-6
THEOREM_CHUNK = 128  # fuzz trials per stacked solve


def _exchange_symmetric(m: np.ndarray, dims: tuple[int, ...], pair: tuple[int, int]) -> np.ndarray:
    """Per matrix M of an (n, D, D) stack: ||S M S - M||_F <= SYMMETRY_RTOL *
    max(1, ||M||_F), S the swap of the two named subsystems."""
    perm = list(range(len(dims)))
    perm[pair[0]], perm[pair[1]] = pair[1], pair[0]
    defect = np.linalg.norm(permute_subsystems(m, dims, perm) - m, axis=(1, 2))
    return defect <= SYMMETRY_RTOL * np.maximum(1.0, np.linalg.norm(m, axis=(1, 2)))


def is_exchange_symmetric(h: HermitianOperator, dims, pair: tuple[int, int] = (0, 2)) -> bool:
    """True iff conjugating by the swap of the two named subsystems fixes h."""
    dims = tuple(int(d) for d in dims)
    i, j = pair
    if dims[i] != dims[j]:
        raise DimensionError(f"swap partners must have equal dims, got {dims[i]}, {dims[j]}")
    if prod(dims) != h.dim:
        raise DimensionError(f"prod({dims}) != operator dim {h.dim}")
    return bool(_exchange_symmetric(h.matrix[np.newaxis], dims, (i, j))[0])


@dataclass(frozen=True)
class EigenstateAnalysis:
    """Per-eigenstate factorization diagnostics.

    ``schmidt_rank_ac`` is only defined when the middle reduction is pure
    (the outer pair is then in a definite pure state); otherwise None.
    ``ac_concurrence`` requires both outer subsystems to be qubits.
    """

    index: int
    energy: float
    is_degenerate: bool
    purity_b: float
    purity_ac: float
    schmidt_rank_ac: int | None
    ac_concurrence: float | None
    fully_factorized: bool


class MiddleSplit(NamedTuple):
    """The middle reductions of a stack of n states on (d_A, d_B, d_C).

    ``purity_b`` (n,) holds their purities and ``pure`` the indices of the
    states whose purity reaches 1 - PURITY_EXTRACT_ATOL.  Such a state is
    omega_AC x beta; per entry of ``pure``, ``beta`` (p, d_B) holds beta, and
    ``coefficients`` (p, k), ``left`` (p, d_A, k) and ``right`` (p, d_C, k)
    the Schmidt form of omega_AC.
    """

    purity_b: np.ndarray
    pure: np.ndarray
    beta: np.ndarray
    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def ranks(self) -> np.ndarray:
        """The outer Schmidt rank of each pure state."""
        return np.count_nonzero(self.coefficients >= SCHMIDT_RANK_TOL, axis=1)


def _middle_split(states: np.ndarray, dims: tuple[int, ...]) -> MiddleSplit:
    """The middle purity of every state of an (n, D) stack, and the split of
    the pure ones: psi = omega_AC x beta, so beta and omega are the top
    singular vectors of psi split as mediator | outer pair.

    Each middle reduction is checked as a ``DensityMatrix`` (ValueError).
    """
    if states.shape[1:] != (prod(dims),):
        raise DimensionError(f"state size {states.shape[1:]} != prod({dims})")
    t = states.reshape(len(states), *dims)
    p_b = _purity_stack(_density_stack(_trace_out(dims, (1,), ",", t, t.conj())))
    pure = np.flatnonzero(p_b >= 1.0 - PURITY_EXTRACT_ATOL)
    p = len(pure)
    _, beta, omega = _schmidt_stack(t[pure].swapaxes(1, 2).reshape(p, dims[1], dims[0] * dims[2]))
    coefficients, left, right = _schmidt_stack(omega[:, :, 0].reshape(p, dims[0], dims[2]))
    return MiddleSplit(p_b, pure, beta[:, :, 0], coefficients, left, right)


def analyze_eigenstates(h: HermitianOperator, dims) -> tuple[EigenstateAnalysis, ...]:
    """Factorization diagnostics for every eigenstate of ``h``.

    Exchange symmetry is the theorem's premise: if it fails, the analysis
    still runs (it is purely descriptive) but a warning is emitted and
    theorem-based conclusions should not be drawn.

    All eigenstates are reduced as one stack, to the values the scalar
    ``reduced_density``, ``purity`` and ``concurrence`` give.
    """
    dims = tuple(int(d) for d in dims)
    if not is_exchange_symmetric(h, dims):
        warnings.warn(
            "operator is not exchange-symmetric; factorization-theorem checks "
            "do not apply to this spectrum",
            stacklevel=2,
        )
    dec = eigh(h)
    states = np.ascontiguousarray(dec.eigenvectors.T)
    split = _middle_split(states, dims)
    ranks = dict(zip(split.pure.tolist(), split.ranks().tolist()))
    t = states.reshape(dec.dim, *dims)
    qubits = dims[0] == dims[2] == 2
    # for qubits the concurrence's eigensolve of rho_AC gives its positivity verdict
    rho_ac = _density_stack(_trace_out(dims, (0, 2), ",", t, t.conj()), psd=not qubits)
    purity_ac = _purity_stack(rho_ac).tolist()
    conc = concurrence_stack(rho_ac)[0].tolist() if qubits else [None] * dec.dim
    return tuple(
        EigenstateAnalysis(
            index=i,
            energy=float(dec.eigenvalues[i]),
            is_degenerate=dec.is_degenerate(i),
            purity_b=float(split.purity_b[i]),
            purity_ac=purity_ac[i],
            schmidt_rank_ac=ranks.get(i),
            ac_concurrence=conc[i],
            fully_factorized=ranks.get(i) == 1,
        )
        for i in range(dec.dim)
    )


def hermitian_basis(d: int) -> list[np.ndarray]:
    """A real basis of the d x d Hermitian matrices (dimension d^2)."""
    basis = []
    for i in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = 1j
            m[j, i] = -1j
            basis.append(m)
    return basis


@lru_cache(maxsize=4)
def _operator_stacks(d_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only coupling terms on qubit x (d_b) x qubit, each stack in draw
    order: Pauli x basis x 1 (left), 1 x basis x Pauli (independent right)
    and 1 x basis x 1 (mediator-local)."""
    basis_b = hermitian_basis(d_b)
    eye = np.eye(2, dtype=np.complex128)
    return tuple(_readonly(np.array(terms)) for terms in (
        [kron_all(sig, g, eye) for sig in PAULI for g in basis_b],
        [kron_all(eye, g, sig) for g in basis_b for sig in PAULI],
        [kron_all(eye, g, eye) for g in basis_b],
    ))


def _random_combination(coefficients: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k c[k] stack[k] for each row c of an (n, K) coefficient array, added
    term by term in stack order: one contraction would round differently and
    change the bits of H."""
    m = np.zeros((len(coefficients), *stack.shape[1:]), dtype=np.complex128)
    for c, op in zip(coefficients.T, stack):
        m += c[:, np.newaxis, np.newaxis] * op
    return m


def _random_hamiltonians(rngs, d_b: int, break_symmetry: bool) -> np.ndarray:
    """The unchecked matrices that ``random_symmetric_hamiltonian`` draws from
    each of the generators, as one (n, D, D) stack.

    Each generator draws one run of standard normals: the left coefficients,
    then (with ``break_symmetry``) the right ones, then the local ones.
    """
    if d_b < 1:
        raise ValueError(f"mediator dimension d_b must be >= 1, got {d_b}")
    # the stacks hold 2 |PAULI| + 1 operators per basis matrix, each of side 4 d_b;
    # together they may hold as many entries as one matrix at the kron limit
    entries = (2 * len(PAULI) + 1) * d_b**2 * (4 * d_b) ** 2
    if entries > KRON_DIM_LIMIT**2:
        raise DimensionError(
            f"mediator dimension d_b = {d_b} needs {entries} coupling-operator entries, "
            f"limit is {KRON_DIM_LIMIT}**2 = {KRON_DIM_LIMIT**2}"
        )
    left, right, local = _operator_stacks(d_b)
    stacks = (left, right, local) if break_symmetry else (left, local)
    sizes = [len(s) for s in stacks]
    draws = np.array([rng.standard_normal(sum(sizes)) for rng in rngs])
    coefficients = np.split(draws, np.cumsum(sizes[:-1]), axis=1)
    h_ab = _random_combination(coefficients[0], left)
    if break_symmetry:
        h_bc = _random_combination(coefficients[1], right)
    else:
        h_bc = permute_subsystems(h_ab, (2, d_b, 2), (2, 1, 0))
    return h_ab + h_bc + _random_combination(coefficients[-1], local)


def random_symmetric_hamiltonian(
    d_b: int, rng: np.random.Generator, *, break_symmetry: bool = False
) -> HermitianOperator:
    """Random mediated-coupling Hamiltonian on qubit x (d_b) x qubit.

    The left coupling is drawn with standard-normal coefficients over the
    Pauli x Hermitian-basis products, the right coupling is its exact mirror
    under the outer swap, and the middle local term is drawn independently.
    With ``break_symmetry`` the right coupling is drawn independently instead
    of mirrored, leaving the exchange symmetry violated almost surely.
    """
    return HermitianOperator(_random_hamiltonians([rng], d_b, break_symmetry)[0])


@dataclass(frozen=True)
class FamilyCheck:
    """Energy-equality verification across one entangled product family.

    Whenever an eigenstate sum_j c_j |j>_A |beta>_B |j>_C with two or more
    terms shows up, every other coefficient choice in the family must have
    the same energy; ``spread`` is the largest Rayleigh-quotient deviation
    observed over sampled coefficient vectors.
    """

    rank: int
    spread: float
    passed: bool


def _family_coefficients(draws: np.ndarray) -> np.ndarray:
    """The coefficient vectors of p family checks of outer rank r from their
    standard normals, drawn as (p, samples, 2, r): per check the r unit
    vectors, then one complex vector per sample, its real part drawn before
    its imaginary part."""
    p, _, _, rank = draws.shape
    unit = np.broadcast_to(np.eye(rank), (p, rank, rank))
    return np.concatenate([unit, draws[:, :, 0] + 1j * draws[:, :, 1]], axis=1)


def _family_check(h: np.ndarray, beta, left, right, coefficients: np.ndarray) -> list[FamilyCheck]:
    """Family energy checks of p pure states omega_AC x beta under the matrices
    of a (p, D, D) stack.  ``beta``, ``left`` and ``right`` are rows of a
    ``MiddleSplit``; every state has the outer rank r of its (p, K, r)
    ``coefficients``."""
    rank = coefficients.shape[-1]
    states = np.einsum(
        "skj,saj,sb,scj->skabc", coefficients, left[:, :, :rank], beta, right[:, :, :rank]
    ).reshape(*coefficients.shape[:2], -1)
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    energies = np.einsum("ski,sij,skj->sk", states.conj(), h, states).real

    spread = energies.max(axis=1) - energies.min(axis=1)
    scale = np.maximum(1.0, np.linalg.norm(h, axis=(1, 2)))
    return [
        FamilyCheck(rank=rank, spread=s, passed=s <= FAMILY_ENERGY_RTOL * c)
        for s, c in zip(spread.tolist(), scale.tolist())
    ]


def degenerate_family_check(
    h: HermitianOperator,
    psi: np.ndarray,
    dims,
    rng: np.random.Generator,
    samples: int = FAMILY_SAMPLES,
) -> FamilyCheck | None:
    """Run the family energy check if ``psi`` qualifies (pure middle, rank >= 2)."""
    dims = tuple(int(d) for d in dims)
    split = _middle_split(np.asarray(psi, dtype=np.complex128).reshape(1, -1), dims)
    ranks = split.ranks()
    if not ranks.size or ranks[0] < 2:
        return None
    coefficients = _family_coefficients(rng.standard_normal((1, samples, 2, ranks[0])))
    return _family_check(h.matrix[np.newaxis], split.beta, split.left, split.right, coefficients)[0]


@dataclass(frozen=True)
class Counterexample:
    trial: int
    eigenstate_index: int
    energy: float
    purity_b: float
    schmidt_rank_ac: int


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    symmetric: bool
    counterexamples: int
    family_checks: int
    family_ok: bool


@dataclass(frozen=True)
class TheoremFuzzReport:
    """The fuzzer's findings.  ``counterexamples_even`` and
    ``counterexamples_odd`` count the counterexamples psi with <psi|S|psi>
    above and below 0, S the swap of the outer pair."""

    trials: int
    d_b: int
    seed: int
    counterexamples: tuple[Counterexample, ...]
    family_checks: tuple[FamilyCheck, ...]
    trial_records: tuple[TrialRecord, ...]
    skipped_asymmetric: int
    counterexamples_even: int
    counterexamples_odd: int

    @property
    def passed(self) -> bool:
        return not self.counterexamples and all(f.passed for f in self.family_checks)


def _fuzz_chunk(seed: int, trials: range, d_b: int, break_symmetry: bool):
    """The counterexamples, family checks, trial records and counterexample
    swap expectations of a run of consecutive trials.

    The run is drawn, solved and analysed as stacks; every trial keeps the
    bits it has when solved alone.
    """
    dims = (2, d_b, 2)
    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        for t in trials
    ]
    h = _hermitian_stack(_random_hamiltonians(rngs, d_b, break_symmetry))
    symmetric = np.flatnonzero(_exchange_symmetric(h, dims, (0, 2)))
    records = [TrialRecord(t, False, 0, 0, True) for t in trials]
    if not symmetric.size:
        return [], [], records, np.zeros(0)
    h = h[symmetric]
    dec = eigh_stack(h)

    dim = h.shape[-1]
    # row s * dim + i: eigenstate i of the s-th symmetric trial
    states = np.ascontiguousarray(dec.eigenvectors.swapaxes(1, 2)).reshape(-1, dim)
    split = _middle_split(states, dims)
    ranks = split.ranks()
    # with qubit outer parties, rank >= 2 is rank 2
    hits = np.flatnonzero(ranks >= 2)
    rows = split.pure[hits]
    owner, index = np.divmod(rows, dim)
    counts = np.bincount(owner, minlength=len(symmetric))
    # a trial's family draws follow its Hamiltonian's, in eigenstate order
    coefficients = _family_coefficients(np.concatenate([
        rngs[i].standard_normal((count, FAMILY_SAMPLES, 2, 2)) for i, count in zip(symmetric, counts)
    ]))
    checks = _family_check(
        h[owner], split.beta[hits], split.left[hits], split.right[hits], coefficients
    )

    purity_b = split.purity_b[rows]
    level_sizes = {}  # per trial, the size of each eigenvalue's degeneracy group
    found = []
    for k in np.flatnonzero(purity_b >= 1.0 - PURITY_PURE_ATOL).tolist():
        s = int(owner[k])
        if s not in level_sizes:
            groups = degeneracy_groups(dec.eigenvalues[s])
            level_sizes[s] = [len(group) for group in groups for _ in group]
        if level_sizes[s][index[k]] == 1:
            found.append(k)
    psi = states[rows[found]].reshape(len(found), *dims)
    swap = np.einsum("sabc,scba->s", psi.conj(), psi).real
    counterexamples = [
        Counterexample(
            trials[symmetric[owner[k]]],
            int(index[k]),
            float(dec.eigenvalues[owner[k], index[k]]),
            float(purity_b[k]),
            int(ranks[hits[k]]),
        )
        for k in found
    ]

    n_found = np.bincount(owner[found], minlength=len(symmetric))
    ends = np.cumsum(counts).tolist()
    for s, i in enumerate(symmetric.tolist()):
        ok = all(c.passed for c in checks[ends[s] - counts[s]:ends[s]])
        records[i] = TrialRecord(trials[i], True, int(n_found[s]), int(counts[s]), ok)
    return counterexamples, checks, records, swap


def theorem_fuzz(
    trials: int, d_b: int, seed: int, *, break_symmetry: bool = False
) -> TheoremFuzzReport:
    """Hunt for theorem violations over random exchange-symmetric Hamiltonians.

    A violation is a non-degenerate eigenstate with pure middle reduction and
    outer-pair Schmidt rank >= 2.  Trials use independent, seed-derived random
    streams, so the report is reproducible and order-independent; they are
    drawn, solved and analysed THEOREM_CHUNK at a time as stacks.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counterexamples, family_checks, records, swaps = [], [], [], []
    for start in range(0, trials, THEOREM_CHUNK):
        found, checks, chunk_records, swap = _fuzz_chunk(
            seed, range(start, min(start + THEOREM_CHUNK, trials)), d_b, break_symmetry
        )
        counterexamples += found
        family_checks += checks
        records += chunk_records
        swaps.append(swap)
    swap = np.concatenate(swaps)
    return TheoremFuzzReport(
        trials=trials,
        d_b=d_b,
        seed=seed,
        counterexamples=tuple(counterexamples),
        family_checks=tuple(family_checks),
        trial_records=tuple(records),
        skipped_asymmetric=sum(not r.symmetric for r in records),
        counterexamples_even=int(np.count_nonzero(swap > 0)),
        counterexamples_odd=int(np.count_nonzero(swap < 0)),
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Ground-level consequences: entangled only if mixed, maximal only if degenerate."""

    ground_degenerate: bool
    ground_concurrence: float
    ground_purity_ac: float
    mixed_if_entangled_ok: bool
    maximal_implies_degenerate_ok: bool

    @property
    def passed(self) -> bool:
        return self.mixed_if_entangled_ok and self.maximal_implies_degenerate_ok


def corollary_check(h: HermitianOperator, dims) -> CorollaryReport:
    """Check the no-pure-entanglement corollaries on the ground level of ``h``."""
    dims = tuple(int(d) for d in dims)
    if dims[0] != 2 or dims[2] != 2:
        raise DimensionError(f"outer subsystems must be qubits, dims={dims}")
    if not is_exchange_symmetric(h, dims):
        raise ValueError("corollary_check requires an exchange-symmetric operator")

    dec = eigh(h)
    size = len(dec.ground_group)
    degenerate = size > 1
    # rho_AC, its concurrence and its purity from the stack kernels: one check of rho_AC
    rho_ac = ground_level_density_stack(dec.eigenvectors[np.newaxis], np.array([size]), dims, (0, 2))
    conc = float(concurrence_stack(rho_ac)[0][0])
    p_ac = float(_purity_stack(rho_ac)[0])
    # a degenerate ground level passes both corollaries by definition
    mixed_ok = (
        degenerate or conc <= COROLLARY_CONCURRENCE_FLOOR or p_ac < 1.0 - COROLLARY_PURITY_MARGIN
    )
    maximal_ok = degenerate or conc <= 1.0 - COROLLARY_PURITY_MARGIN

    return CorollaryReport(
        ground_degenerate=degenerate,
        ground_concurrence=conc,
        ground_purity_ac=p_ac,
        mixed_if_entangled_ok=mixed_ok,
        maximal_implies_degenerate_ok=maximal_ok,
    )
