"""Derivative-free maximization of ground-state outer-pair concurrence.

The objective is cheap (one dense diagonalization per point), low-dimensional
and non-smooth at ground-level crossings, so a multi-start Nelder-Mead simplex
with box clamping is used.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entanglement import ConcurrenceResult
from .linalg import NumericalError
from .sweeps import _point_outcome

log = logging.getLogger(__name__)

# standard simplex coefficients
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5

VALUE_SPREAD_TOL = 1e-12
SIMPLEX_SIZE_TOL = 1e-9

@dataclass(frozen=True)
class ControlProblem:
    """A box of locally controllable parameters and the evaluator to maximize over it.

    ``evaluate`` maps a control vector to the ground-level concurrence of the
    outer qubit pair.  It may raise one of ``sweeps.POINT_ERRORS`` at a point
    where the model cannot be solved; the search then discards that point.
    ``bounds`` holds one finite (lower, upper) interval per control.
    """

    evaluate: Callable[[np.ndarray], ConcurrenceResult]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("bounds must hold at least one interval")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bounds must be finite non-empty intervals, got ({lo}, {hi})")
        box = tuple(np.array([b[k] for b in self.bounds]) for k in (0, 1))
        object.__setattr__(self, "_box", box)  # for clamp and the start points

    @property
    def control_dim(self) -> int:
        return len(self.bounds)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        # np.clip's ufunc, without the np.clip wrapper
        return x.clip(*self._box)


@dataclass(frozen=True)
class OptimizationResult:
    best_controls: np.ndarray
    best_value: float
    evaluations: int
    trace: tuple[tuple[tuple[float, ...], float], ...]
    converged: bool
    best_degenerate_ground: bool
    # distinct control points passed to the evaluator, the re-verification included
    solved: int


class _BudgetSpent(Exception):
    """Ends the search once it has used every evaluation but the re-verification."""


def optimize(problem: ControlProblem, budget: int, seed: int) -> OptimizationResult:
    """Multi-start Nelder-Mead search, restarting until the budget is spent.

    The search maximizes ``problem.evaluate(x).value`` and sees only that
    value, the box and ``budget``, the number of evaluations it requests, the
    re-verification included.  Each distinct control point is passed to
    ``problem.evaluate`` once: a point whose bits repeat an earlier one reuses
    that outcome, yet still counts as an evaluation.  Evaluations that fail
    with one of ``sweeps.POINT_ERRORS`` are logged (once per evaluation) and
    discarded (the point is treated as arbitrarily bad); any other exception
    is a bug and propagates.  The last evaluation re-verifies the best value
    by a fresh ``problem.evaluate`` call at the best controls, and any claim
    of essentially maximal concurrence on a non-degenerate ground level is
    rejected as an implementation-bug alarm.
    """
    if budget < problem.control_dim + 2:
        raise ValueError(f"budget must be at least control_dim + 2 = {problem.control_dim + 2}")

    rng = np.random.default_rng(seed)
    trace: list[tuple[tuple[float, ...], float]] = []
    best_x, best_value = None, -np.inf
    converged = False
    used = 0
    # exact bits of a clamped point (0.0 and -0.0 differ) -> its ConcurrenceResult,
    # or the POINT_ERRORS exception its evaluation raised
    outcomes: dict[bytes, object] = {}

    def evaluate(x: np.ndarray) -> float:
        """The value at ``x``; raise _BudgetSpent if that used the search's last evaluation."""
        nonlocal best_x, best_value, used
        used += 1
        key = np.asarray(x, dtype=float).tobytes()
        if key not in outcomes:
            outcomes[key] = _point_outcome(problem.evaluate, x)
        res = outcomes[key]
        if isinstance(res, Exception):
            log.warning("objective failed at %s: %s", x, res)
            value = -np.inf
        else:
            value = res.value
            trace.append((tuple(map(float, x)), value))
            if value > best_value:
                best_x, best_value = np.array(x), value
        if used == budget - 1:  # one evaluation stays for the re-verification
            raise _BudgetSpent
        return value

    lo, hi = problem._box
    n = problem.control_dim

    try:
        while True:
            x0 = lo + rng.uniform(size=n) * (hi - lo)
            simplex = [problem.clamp(x0)]
            for i in range(n):
                step = np.zeros(n)
                step[i] = 0.1 * (hi[i] - lo[i]) if hi[i] > lo[i] else 0.1
                simplex.append(problem.clamp(x0 + step))
            values = [evaluate(p) for p in simplex]

            while True:
                order = np.argsort(values)[::-1]  # maximizing: best first
                simplex = [simplex[k] for k in order]
                values = [values[k] for k in order]

                # math.hypot, not np.linalg.norm, whose squares overflow above ~1e154
                size = max(math.hypot(*(p - simplex[0])) for p in simplex[1:])
                # a flat or collapsed simplex cannot make progress: mark the
                # restart converged and let multi-start spend the rest of the
                # budget elsewhere
                if all(map(math.isfinite, values)) and (
                    max(values) - min(values) <= VALUE_SPREAD_TOL or size <= SIMPLEX_SIZE_TOL
                ):
                    converged = True
                    break

                # np.mean's sum and division, without its wrapper
                centroid = np.add.reduce(simplex[:-1]) / n
                worst = simplex[-1]
                reflected = problem.clamp(centroid + REFLECTION * (centroid - worst))
                r_val = evaluate(reflected)

                if r_val > values[0]:
                    expanded = problem.clamp(centroid + EXPANSION * (reflected - centroid))
                    e_val = evaluate(expanded)
                    if e_val > r_val:
                        simplex[-1], values[-1] = expanded, e_val
                    else:
                        simplex[-1], values[-1] = reflected, r_val
                elif r_val > values[-2]:
                    simplex[-1], values[-1] = reflected, r_val
                else:
                    contracted = problem.clamp(centroid + CONTRACTION * (worst - centroid))
                    c_val = evaluate(contracted)
                    if c_val > values[-1]:
                        simplex[-1], values[-1] = contracted, c_val
                    else:
                        simplex = [simplex[0]] + [
                            problem.clamp(simplex[0] + SHRINK * (p - simplex[0]))
                            for p in simplex[1:]
                        ]
                        values = [values[0]] + [evaluate(p) for p in simplex[1:]]
    except _BudgetSpent:
        pass

    if best_x is None:
        raise NumericalError("objective evaluation failed at every sampled point")

    # re-verify the reported optimum with the reserved evaluation: a fresh
    # call, not the memo, so that it checks the result
    res = problem.evaluate(best_x)
    verified = res.value
    if abs(verified - best_value) > 1e-12:
        raise NumericalError(f"best value failed re-verification: {best_value!r} vs {verified!r}")

    if verified > 1.0 - 1e-6 and not res.degenerate_ground:
        raise NumericalError(
            "optimizer reports essentially maximal concurrence on a non-degenerate "
            "ground level; this contradicts the factorization theorem and signals a bug"
        )

    return OptimizationResult(
        best_controls=np.array(best_x),
        best_value=float(verified),
        evaluations=budget,
        trace=tuple(trace),
        converged=converged,
        best_degenerate_ground=res.degenerate_ground,
        solved=len(outcomes) + 1,
    )
