"""Bracketed maximization of ground-state outer-pair concurrence over one control.

Every CLI search varies one scalar, so the box is scanned in one stacked
evaluation and the best scan cell's neighbours bracket a refine by Brent's
method: parabolic interpolation with a golden-section fallback (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 5).  Runs are
deterministic: the search draws nothing at random.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entanglement import ConcurrenceResult
from .linalg import NumericalError
from .sweeps import linspace_grid

log = logging.getLogger(__name__)

# the refine solves no new point once its bracket is this narrow, relative to the box
BRACKET_RTOL = 1e-7
# 1 / golden ratio: a golden step moves 1 - INVERSE_PHI of the way into the
# bracket's longer side
INVERSE_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class ControlProblem:
    """A box of locally controllable parameters and the evaluator to maximize over it.

    ``evaluate`` maps an (n, control_dim) stack of control vectors to one
    outcome per row: the ground-level concurrence of the outer qubit pair
    at that point, or the ``sweeps.POINT_ERRORS`` exception that failed it
    (the search then discards that point).  Any other exception propagates.
    ``bounds`` holds one finite (lower, upper) interval per control.
    """

    evaluate: Callable[[np.ndarray], Sequence[ConcurrenceResult | Exception]]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("bounds must hold at least one interval")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"bounds must be finite non-empty intervals, got ({lo}, {hi})")

    @property
    def control_dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class OptimizationResult:
    best_controls: np.ndarray
    best_value: float
    evaluations: int
    trace: tuple[tuple[tuple[float, ...], float], ...]
    # the refine's bracket closed below BRACKET_RTOL of the box within the budget
    converged: bool
    best_degenerate_ground: bool
    # distinct control points passed to the evaluator, the re-verification included
    solved: int


def optimize(problem: ControlProblem, budget: int) -> OptimizationResult:
    """Scan the box, refine the best scan cell by Brent's method, re-verify.

    The search maximizes ``problem.evaluate(x).value`` over one control and
    sees only that value, the box and ``budget``, the number of evaluations
    it requests, the re-verification included:

    - a uniform grid of ``max(2, (budget - 1) // 4)`` points over the box, in
      one stacked evaluation;
    - Brent's maximizer on the bracket of the best grid point's neighbours
      (or of the box edge and its neighbour), started from that grid point
      and its scanned value, one point per step, until the bracket is
      narrower than BRACKET_RTOL of the box: the vertex of the parabola
      through the best point and two earlier ones where it falls well inside
      the bracket, else a golden step, always a golden step while one of the
      three failed;
    - repeated requests of the best point for what is left;
    - a fresh evaluation of the best point, not the memo, which must give
      the same value.

    Each distinct control point is passed to ``problem.evaluate`` once: a
    point whose bits repeat an earlier one reuses that outcome, yet still
    counts as an evaluation and gets its trace entry.  A failed point is
    logged at every request and discarded.  A claim of essentially maximal
    concurrence on a non-degenerate ground level is rejected as an
    implementation-bug alarm.
    """
    if problem.control_dim != 1:
        raise ValueError(f"optimize searches one control, got control_dim = {problem.control_dim}")
    if budget < 3:
        raise ValueError("budget must be at least 3")

    trace: list[tuple[tuple[float, ...], float]] = []
    best_x, best_value = None, -np.inf
    # exact bits of a control (0.0 and -0.0 differ) -> its ConcurrenceResult,
    # or the POINT_ERRORS exception its evaluation raised
    outcomes: dict[bytes, object] = {}

    def request(points: np.ndarray) -> list[float]:
        """The value at each control of ``points`` (-inf where it failed); the
        points not solved before are solved in one stacked evaluation."""
        nonlocal best_x, best_value
        rows = points.reshape(-1, 1)
        keys = [row.tobytes() for row in rows]
        new = {key: row for key, row in zip(keys, rows) if key not in outcomes}
        if new:
            outcomes.update(zip(new, problem.evaluate(np.array(list(new.values())))))
        for row, key in zip(rows, keys):
            res = outcomes[key]
            if isinstance(res, Exception):
                log.warning("objective failed at %s: %s", row, res)
            else:
                trace.append(((float(row[0]),), res.value))
                if res.value > best_value:
                    best_x, best_value = row, res.value
        return [-np.inf if isinstance(outcomes[k], Exception) else outcomes[k].value for k in keys]

    [(lo, hi)] = problem.bounds
    grid = linspace_grid(lo, hi, max(2, (budget - 1) // 4))
    left = budget - 1 - len(grid)
    values = request(grid)
    i = int(np.argmax(values))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    tol = BRACKET_RTOL * (hi - lo)
    # Brent's maximizer from the best grid point, whose value the scan gave:
    # x the best point so far, w the next best and v the w before it; d the
    # last step and e the one before it
    x = w = v = grid[i]
    fx = fw = fv = values[i]
    d = e = 0.0
    # Brent's tolerance: no step is shorter, and his own stop leaves a
    # bracket of at most four of them
    step = tol / 4
    while b - a > tol and left:
        m = a + (b - a) / 2
        parabola = False
        # a parabola through x, w and v, unless one of them failed
        if abs(e) > step and -np.inf not in (fx, fw, fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
            # its vertex, if it falls inside the bracket and the step is
            # shorter than half the step before last
            parabola = abs(p) < abs(q * e / 2) and q * (a - x) < p < q * (b - x)
            e = d
            if parabola:
                d = p / q
                # never within two steps of an end: one step toward the middle
                if x + d - a < 2 * step or b - (x + d) < 2 * step:
                    d = step if x < m else -step
        if not parabola:
            # a golden step into the longer side of the bracket
            e = a - x if x >= m else b - x
            d = (1 - INVERSE_PHI) * e
        u = x + d if abs(d) >= step else x + (step if d > 0 else -step)
        (fu,) = request(np.array([u]))
        left -= 1
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    converged = not b - a > tol
    if left:
        request(np.repeat(grid[i] if best_x is None else best_x, left))

    if best_x is None:
        raise NumericalError("objective evaluation failed at every sampled point")

    # re-verify the reported optimum with the reserved evaluation: a fresh
    # call, not the memo, so that it checks the result
    (res,) = problem.evaluate(best_x[np.newaxis])
    if isinstance(res, Exception):
        raise res
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
