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

import numpy as np

from .entanglement import concurrence, ground_level_density
from .linalg import (
    DimensionError,
    HermitianOperator,
    SchmidtDecomposition,
    _readonly,
    eigh,
    frobenius_norm,
    kron_all,
    permute_subsystems,
    purity,
    reduced_density,
    schmidt,
)
from .tripartite import PAULI

SYMMETRY_RTOL = 1e-10
PURITY_PURE_ATOL = 1e-10   # counterexample predicate: rho_B purity >= 1 - this
PURITY_EXTRACT_ATOL = 1e-8  # factorization verdict threshold
SCHMIDT_RANK_TOL = 1e-7
FAMILY_ENERGY_RTOL = 1e-9
FAMILY_SAMPLES = 4  # random coefficient vectors per family check


def is_exchange_symmetric(h: HermitianOperator, dims, pair: tuple[int, int] = (0, 2)) -> bool:
    """True iff conjugating by the swap of the two named subsystems fixes h."""
    dims = tuple(int(d) for d in dims)
    i, j = pair
    if dims[i] != dims[j]:
        raise DimensionError(f"swap partners must have equal dims, got {dims[i]}, {dims[j]}")
    if int(np.prod(dims)) != h.dim:
        raise DimensionError(f"prod({dims}) != operator dim {h.dim}")
    perm = list(range(len(dims)))
    perm[i], perm[j] = j, i
    defect = frobenius_norm(permute_subsystems(h.matrix, dims, perm) - h.matrix)
    return bool(defect <= SYMMETRY_RTOL * max(1.0, frobenius_norm(h.matrix)))


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


def _middle_split(psi, dims) -> tuple[float, np.ndarray | None, SchmidtDecomposition | None]:
    """Purity of psi's middle reduction and, if pure, the mediator state beta and the
    outer pair's Schmidt decomposition: then psi = omega_AC x beta, so beta and omega
    are the top singular vectors of psi split as mediator | outer pair."""
    p_b = purity(reduced_density(psi, dims, (1,)))
    if p_b < 1.0 - PURITY_EXTRACT_ATOL:
        return p_b, None, None
    split = schmidt(np.swapaxes(np.reshape(psi, dims), 0, 1), (dims[1], dims[0] * dims[2]))
    return p_b, split.basis_left[:, 0], schmidt(split.basis_right[:, 0], (dims[0], dims[2]))


def analyze_eigenstates(h: HermitianOperator, dims) -> tuple[EigenstateAnalysis, ...]:
    """Factorization diagnostics for every eigenstate of ``h``.

    Exchange symmetry is the theorem's premise: if it fails, the analysis
    still runs (it is purely descriptive) but a warning is emitted and
    theorem-based conclusions should not be drawn.
    """
    dims = tuple(int(d) for d in dims)
    if not is_exchange_symmetric(h, dims):
        warnings.warn(
            "operator is not exchange-symmetric; factorization-theorem checks "
            "do not apply to this spectrum",
            stacklevel=2,
        )
    dec = eigh(h)
    out = []
    for i, psi in enumerate(dec.eigenvectors.T):
        p_b, _, sd = _middle_split(psi, dims)
        rho_ac = reduced_density(psi, dims, (0, 2))
        rank = None if sd is None else sd.rank(SCHMIDT_RANK_TOL)
        out.append(EigenstateAnalysis(
            index=i,
            energy=float(dec.eigenvalues[i]),
            is_degenerate=dec.is_degenerate(i),
            purity_b=p_b,
            purity_ac=purity(rho_ac),
            schmidt_rank_ac=rank,
            ac_concurrence=concurrence(rho_ac).value if dims[0] == dims[2] == 2 else None,
            fully_factorized=(rank == 1),
        ))
    return tuple(out)


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


def _random_combination(rng: np.random.Generator, stack: np.ndarray) -> np.ndarray:
    """sum_k c_k stack[k] with standard-normal c_k, added term by term in stack
    order: one contraction would round differently and change the bits of H."""
    m = np.zeros(stack.shape[1:], dtype=np.complex128)
    for c, op in zip(rng.standard_normal(len(stack)), stack):
        m += c * op
    return m


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
    left, right, local = _operator_stacks(d_b)
    h_ab = _random_combination(rng, left)
    if break_symmetry:
        h_bc = _random_combination(rng, right)
    else:
        h_bc = permute_subsystems(h_ab, (2, d_b, 2), (2, 1, 0))
    return HermitianOperator(h_ab + h_bc + _random_combination(rng, local))


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


def _family_check(
    h: HermitianOperator, beta: np.ndarray, sd: SchmidtDecomposition, rng, samples: int
) -> FamilyCheck | None:
    """Family energy check for mediator state ``beta``; None below outer Schmidt rank 2."""
    rank = sd.rank(SCHMIDT_RANK_TOL)
    if rank < 2:
        return None
    coeffs = np.vstack([np.eye(rank)] + [
        rng.standard_normal(rank) + 1j * rng.standard_normal(rank) for _ in range(samples)
    ])
    states = np.einsum(
        "kj,aj,b,cj->kabc", coeffs, sd.basis_left[:, :rank], beta, sd.basis_right[:, :rank]
    ).reshape(len(coeffs), h.dim)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    energies = np.einsum("ki,ij,kj->k", states.conj(), h.matrix, states).real

    spread = float(energies.max() - energies.min())
    scale = max(1.0, frobenius_norm(h.matrix))
    return FamilyCheck(
        rank=rank, spread=spread, passed=bool(spread <= FAMILY_ENERGY_RTOL * scale)
    )


def degenerate_family_check(
    h: HermitianOperator,
    psi: np.ndarray,
    dims,
    rng: np.random.Generator,
    samples: int = FAMILY_SAMPLES,
) -> FamilyCheck | None:
    """Run the family energy check if ``psi`` qualifies (pure middle, rank >= 2)."""
    _, beta, sd = _middle_split(psi, tuple(int(d) for d in dims))
    return None if sd is None else _family_check(h, beta, sd, rng, samples)


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
    trials: int
    d_b: int
    seed: int
    counterexamples: tuple[Counterexample, ...]
    family_checks: tuple[FamilyCheck, ...]
    trial_records: tuple[TrialRecord, ...]
    skipped_asymmetric: int

    @property
    def passed(self) -> bool:
        return not self.counterexamples and all(f.passed for f in self.family_checks)


def theorem_fuzz(
    trials: int, d_b: int, seed: int, *, break_symmetry: bool = False
) -> TheoremFuzzReport:
    """Hunt for theorem violations over random exchange-symmetric Hamiltonians.

    A violation is a non-degenerate eigenstate with pure middle reduction and
    outer-pair Schmidt rank >= 2.  Trials use independent, seed-derived random
    streams, so the report is reproducible and order-independent.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = (2, d_b, 2)
    counterexamples: list[Counterexample] = []
    family_checks: list[FamilyCheck] = []
    records: list[TrialRecord] = []
    skipped = 0

    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        h = random_symmetric_hamiltonian(d_b, rng, break_symmetry=break_symmetry)
        symmetric = is_exchange_symmetric(h, dims)
        if not symmetric:
            skipped += 1
            records.append(TrialRecord(t, False, 0, 0, True))
            continue

        n_ce = 0
        n_fam = 0
        fam_ok = True
        dec = eigh(h)
        for i, psi in enumerate(dec.eigenvectors.T):
            p_b, beta, sd = _middle_split(psi, dims)
            rank = 0 if sd is None else sd.rank(SCHMIDT_RANK_TOL)
            if rank < 2:
                continue
            if not dec.is_degenerate(i) and p_b >= 1.0 - PURITY_PURE_ATOL:
                n_ce += 1
                counterexamples.append(Counterexample(t, i, float(dec.eigenvalues[i]), p_b, rank))
            check = _family_check(h, beta, sd, rng, FAMILY_SAMPLES)
            family_checks.append(check)
            n_fam += 1
            fam_ok = fam_ok and check.passed
        records.append(TrialRecord(t, True, n_ce, n_fam, fam_ok))

    return TheoremFuzzReport(
        trials=trials,
        d_b=d_b,
        seed=seed,
        counterexamples=tuple(counterexamples),
        family_checks=tuple(family_checks),
        trial_records=tuple(records),
        skipped_asymmetric=skipped,
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


def corollary_check(
    h: HermitianOperator,
    dims,
    *,
    concurrence_floor: float = 0.01,
    purity_margin: float = 1e-6,
) -> CorollaryReport:
    """Check the no-pure-entanglement corollaries on the ground level of ``h``."""
    dims = tuple(int(d) for d in dims)
    if dims[0] != 2 or dims[2] != 2:
        raise DimensionError(f"outer subsystems must be qubits, dims={dims}")
    if not is_exchange_symmetric(h, dims):
        raise ValueError("corollary_check requires an exchange-symmetric operator")

    dec = eigh(h)
    degenerate = len(dec.ground_group) > 1
    rho_ac = ground_level_density(dec, dims, (0, 2))
    conc = concurrence(rho_ac).value
    p_ac = purity(rho_ac)
    # a degenerate ground level passes both corollaries by definition
    mixed_ok = degenerate or conc <= concurrence_floor or p_ac < 1.0 - purity_margin
    maximal_ok = degenerate or conc <= 1.0 - purity_margin

    return CorollaryReport(
        ground_degenerate=degenerate,
        ground_concurrence=conc,
        ground_purity_ac=p_ac,
        mixed_if_entangled_ok=mixed_ok,
        maximal_implies_degenerate_ok=maximal_ok,
    )
