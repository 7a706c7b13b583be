import importlib
import itertools
import logging
import math
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medent.cli import main
from medent.control import BRACKET_RTOL, INVERSE_PHI, ControlProblem, OptimizationResult, optimize
from medent.dicke import DickeConfig, mediator_concurrence
from medent.entanglement import ConcurrenceResult, ground_state_ac_concurrence
from medent.linalg import NumericalError
from medent.sweeps import _ising_outcomes, _point_outcome
from medent.tripartite import IsingParams, build_ising


def ising_point(delta):
    """The per-point evaluator of the chain's middle field lambda at outer field delta."""

    def evaluate(lam):
        return ground_state_ac_concurrence(build_ising(IsingParams(delta=delta, lam=float(lam))), (2, 2, 2))

    return evaluate


def stacked(point):
    """The stack evaluator that ``optimize`` calls, made of a per-point one:
    one outcome per row, a POINT_ERRORS failure returned as its exception."""
    return lambda x: [_point_outcome(point, row[0]) for row in x]


def ising_lambda(delta):
    return stacked(ising_point(delta))


def ising_lambda_problem(delta, lower=0.0, upper=3.0):
    return ControlProblem(evaluate=ising_lambda(delta), bounds=((lower, upper),))


def grid_scan_max(delta, count=3001, upper=3.0):
    best = -1.0
    best_lam = 0.0
    for lam in np.linspace(0.0, upper, count):
        value = ground_state_ac_concurrence(
            build_ising(IsingParams(delta=delta, lam=lam)), (2, 2, 2)
        ).value
        if value > best:
            best, best_lam = value, lam
    return best, best_lam


def test_problem_validation():
    evaluate = ising_lambda(0.0)
    with pytest.raises(ValueError, match="at least one interval"):
        ControlProblem(evaluate=evaluate, bounds=())
    with pytest.raises(ValueError):
        ControlProblem(evaluate=evaluate, bounds=((0.0, np.inf),))
    with pytest.raises(ValueError):
        ControlProblem(evaluate=evaluate, bounds=((1.0, 0.0),))


def test_control_dim_is_the_number_of_bounds():
    problem = ControlProblem(evaluate=ising_lambda(0.0), bounds=((0.0, 1.0), (-1.0, 2.0)))
    assert problem.control_dim == 2
    # derived, so neither settable nor a constructor argument
    with pytest.raises(AttributeError):
        problem.control_dim = 1
    with pytest.raises(TypeError):
        ControlProblem(evaluate=ising_lambda(0.0), control_dim=1, bounds=((0.0, 1.0),))


def test_the_search_rejects_more_than_one_control():
    problem = ControlProblem(evaluate=ising_lambda(0.0), bounds=((0.0, 1.0), (-1.0, 2.0)))
    with pytest.raises(ValueError, match="^optimize searches one control, got control_dim = 2$"):
        optimize(problem, budget=40)


def test_budget_precondition():
    with pytest.raises(ValueError, match="^budget must be at least 3$"):
        optimize(ising_lambda_problem(0.1), budget=2)


def test_constant_objective_converges():
    # degenerate ground at delta = 0 forces the zero-concurrence convention
    # everywhere, so the landscape is exactly constant; 60 evaluations let the
    # bracket close (14 grid points and 29 refine steps)
    result = optimize(ising_lambda_problem(0.0), budget=60)
    assert result.converged
    assert result.best_value == pytest.approx(0.0, abs=1e-12)
    assert result.best_degenerate_ground


def test_matches_grid_scan():
    grid_best, grid_lam = grid_scan_max(0.1)
    result = optimize(ising_lambda_problem(0.1), budget=300)
    assert result.evaluations <= 300
    assert abs(result.best_value - grid_best) <= 1e-3
    assert abs(result.best_controls[0] - grid_lam) <= 0.05


def test_deterministic_under_seed(capsys):
    r1 = optimize(ising_lambda_problem(0.1), budget=120)
    r2 = optimize(ising_lambda_problem(0.1), budget=120)
    assert r1.trace == r2.trace
    assert r1.best_value == r2.best_value
    assert np.array_equal(r1.best_controls, r2.best_controls)
    # the CLI still accepts --seed, which changes no byte of what it writes
    outputs = []
    for seed in ("0", "7"):
        assert main(["optimize", "--model", "ising", "--delta", "0.1", "--budget", "120", "--seed", seed]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_best_so_far_is_monotone():
    result = optimize(ising_lambda_problem(0.1), budget=150)
    running = -np.inf
    for _, value in result.trace:
        running = max(running, value)
    assert running == result.best_value


def test_trace_stays_in_bounds():
    result = optimize(ising_lambda_problem(0.1, lower=0.5, upper=2.5), budget=100)
    for controls, _ in result.trace:
        assert 0.5 - 1e-12 <= controls[0] <= 2.5 + 1e-12


def test_failed_evaluations_are_discarded():
    def flaky(lam):
        if lam > 2.0:
            raise NumericalError("synthetic failure region")
        return ising_point(0.1)(lam)

    problem = ControlProblem(evaluate=stacked(flaky), bounds=((0.0, 3.0),))
    result = optimize(problem, budget=150)
    # the feasible maximum (at the working-region edge) is still found
    feasible_best, _ = grid_scan_max(0.1, count=1001, upper=2.0)
    assert result.best_value >= feasible_best - 5e-3
    assert result.best_controls[0] <= 2.0


def test_all_failures_raises_numerical_error():
    def broken(lam):
        raise NumericalError("always down")

    problem = ControlProblem(evaluate=stacked(broken), bounds=((0.0, 1.0),))
    with pytest.raises(NumericalError):
        optimize(problem, budget=20)


def test_programming_error_propagates():
    def buggy(x):
        raise TypeError("not a numerical failure")

    problem = ControlProblem(evaluate=buggy, bounds=((0.0, 1.0),))
    with pytest.raises(TypeError):
        optimize(problem, budget=20)


def counting(point):
    """The stack evaluator of ``point``, recording the bits of every point it
    is asked to solve and the number of rows of each call."""
    calls, sizes = [], []

    def evaluate(x):
        sizes.append(len(x))
        calls.extend(row.tobytes() for row in x)
        return stacked(point)(x)

    return evaluate, calls, sizes


def counting_evaluator(fail_at=None):
    """The counted delta = 0.1 Ising lambda evaluator, failing with a
    NumericalError at ``fail_at``."""

    def point(lam):
        if lam == fail_at:
            raise NumericalError("synthetic failure region")
        return ising_point(0.1)(lam)

    return counting(point)


def test_each_distinct_point_is_solved_once():
    # the optimum sits on the upper bound, so the search requests it again
    evaluate, calls, sizes = counting_evaluator()
    problem = ControlProblem(evaluate=evaluate, bounds=((0.0, 3.0),))
    result = optimize(problem, budget=300)
    searched = {np.array(controls).tobytes() for controls, _ in result.trace}
    # every search point once, then the re-verification of the best
    assert len(calls) == len(set(calls)) + 1 == len(searched) + 1 == result.solved
    assert set(calls[:-1]) == searched
    assert calls[-1] == result.best_controls.tobytes()
    # a repeated point still counts as an evaluation and gets its trace entry
    assert result.evaluations == 300
    assert len(result.trace) == 299
    assert result.solved < 200
    # the grid in one call, then one refine point per call (the refine starts
    # from the best grid point and its scanned value, and does not request
    # it again), and the re-verification alone
    assert sizes[0] == 74 and set(sizes[1:]) == {1}


def test_the_scan_brackets_a_golden_section_refine():
    evaluate, calls, sizes = counting_evaluator()
    result = optimize(ControlProblem(evaluate=evaluate, bounds=((0.5, 2.5),)), budget=101)
    points = [np.frombuffer(c)[0] for c in calls]
    grid = np.linspace(0.5, 2.5, 25)
    assert np.array_equal(points[:25], grid)
    # the best grid cell is the upper bound: its neighbour and it bracket the
    # refine, which closes below BRACKET_RTOL of the box within the budget
    refine = points[25:-1]
    assert all(grid[-2] < x < grid[-1] for x in refine)
    # the objective rises to the bound, so every parabola through the bound
    # and two points below it peaks beyond the bracket, and every step is a
    # golden step from the bound, 1 - INVERSE_PHI of the way to the bracket's
    # lower end, which the worse point it finds then becomes
    gaps = [2.5 - x for x in refine]
    shares = (1 - INVERSE_PHI) ** np.arange(1, len(refine) + 1)
    assert gaps == pytest.approx(list((grid[-1] - grid[-2]) * shares), rel=1e-6)
    assert result.converged and gaps[-1] <= BRACKET_RTOL * 2.0 < gaps[-2]
    assert result.best_controls[0] == 2.5
    # the rest of the budget repeats the best point, which no call solves again
    assert sum(sizes) == len(points) == result.solved < 100


def test_a_repeated_failure_is_logged_at_every_request(caplog):
    # the model fails at the upper bound of a box one ulp wide, a point the
    # grid requests again and again
    top = math.nextafter(3.0, 4.0)
    evaluate, calls, _ = counting_evaluator(fail_at=top)
    problem = ControlProblem(evaluate=evaluate, bounds=((3.0, top),))
    with caplog.at_level(logging.WARNING, logger="medent.control"):
        result = optimize(problem, budget=150)
    messages = [r.getMessage() for r in caplog.records]
    failures = [m for m in messages if m.startswith("objective failed at ")]
    assert calls.count(np.array([top]).tobytes()) == 1
    assert failures.count(f"objective failed at {np.array([top])}: synthetic failure region") > 1
    # the memo keeps the exception, not the frames of the failed solve
    stored = [r.args[1] for r in caplog.records if r.msg.startswith("objective failed at ")]
    assert stored and all(exc.__traceback__ is None for exc in stored)
    # one warning per requested evaluation that failed, none for a success
    assert len(failures) == result.evaluations - 1 - len(result.trace)
    assert len(calls) == len(set(calls)) + 1 == result.solved == 3


def test_signed_zeros_are_distinct_points():
    # a grid over the box [-0.0, -0.0] holds 0.0 and -0.0
    evaluate, calls, _ = counting_evaluator()
    problem = ControlProblem(evaluate=evaluate, bounds=((-0.0, -0.0),))
    result = optimize(problem, budget=40)
    assert set(calls) == {np.array([0.0]).tobytes(), np.array([-0.0]).tobytes()}
    assert len(calls) == result.solved == 3
    assert result.evaluations == 40


# a broad decoy of height 0.5 and a triangular peak of height 0.9 off the grid
# of a 300-evaluation scan of [0, 10], whose half-width is twice the scan's
# resolution
PLANTED_LO, PLANTED_HI, PLANTED_BUDGET = 0.0, 10.0, 300
PLANTED_PEAK = 7.3141
PLANTED_WIDTH = 2 * (PLANTED_HI - PLANTED_LO) / ((PLANTED_BUDGET - 1) // 4 - 1)


def planted_point(x):
    value = max(0.5 - 0.01 * abs(x - 2.0), 0.9 * (1 - abs(x - PLANTED_PEAK) / PLANTED_WIDTH))
    return ConcurrenceResult(value, np.zeros(4))


def test_a_planted_narrow_peak_is_found():
    # some grid point sits within half a resolution of the peak and reads at
    # least 0.675, so the scan picks its cell and the refine closes on the peak
    lo, hi = PLANTED_LO, PLANTED_HI
    problem = ControlProblem(evaluate=stacked(planted_point), bounds=((lo, hi),))
    result = optimize(problem, PLANTED_BUDGET)
    assert result.converged
    assert abs(result.best_controls[0] - PLANTED_PEAK) <= BRACKET_RTOL * (hi - lo)
    assert result.best_value >= 0.9 * (1 - BRACKET_RTOL * (hi - lo) / PLANTED_WIDTH)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_the_search_finds_the_control_frontier(delta):
    # over lambda in [1, 1e4] the best lambda is sqrt(8 / delta) and
    # 1 - C* = 2 delta - 3 delta^2 + 4.25 delta^3 as pinned at that lambda
    # (tests/test_entanglement.py); measured: lambda* sqrt(delta) - sqrt(8)
    # reads 5.5e-5, 1.1e-6 and -6.8e-6 down the three deltas
    problem = ControlProblem(evaluate=lambda x: _ising_outcomes(x[:, 0], delta, 1.0), bounds=((1.0, 1e4),))
    result = optimize(problem, budget=300)
    assert result.converged and not result.best_degenerate_ground
    assert abs(result.best_controls[0] * math.sqrt(delta) - math.sqrt(8)) <= 1e-3
    excess = (1 - result.best_value) - (2 * delta - 3 * delta**2)
    assert abs(excess - 4.25 * delta**3) <= 0.1 * delta**3 + 1e-11


# ------------------------------------------------------------ per-point references
# The scan and refine as plain loops over requested points: no memo, no
# stacked evaluation.  With Brent's refine it is the oracle of the
# bookkeeping of ``optimize``; with the golden-section refine that
# ``optimize`` ran before it, the bar its quality is held to.

ref_log = logging.getLogger(__name__ + ".reference")


def brent_refine(f, x, fx, a, b, tol, left):
    """Brent's localmin (Brent 1973, ch. 5) on g = -f, from the best grid point
    x and its value fx, over the bracket (a, b), for at most ``left`` points;
    returns the final bracket and the points left."""
    w = v = x
    gx = gw = gv = -fx
    d = e = 0.0
    t = tol / 4
    while b - a > tol and left > 0:
        m = a + (b - a) / 2
        golden = True
        if abs(e) > t and np.inf not in (gx, gw, gv):
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2 * (q - r)
            if q > 0:
                p = -p
            else:
                q = -q
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < 2 * t or b - (x + d) < 2 * t:
                    d = t if x < m else -t
        if golden:
            e = (b if x < m else a) - x
            d = (1 - (math.sqrt(5) - 1) / 2) * e
        u = x + (d if abs(d) >= t else t if d > 0 else -t)
        gu = -f(u)
        left -= 1
        if gu <= gx:
            if u < x:
                b = x
            else:
                a = x
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu
    return a, b, left


def golden_refine(f, x, fx, a, b, tol, left):
    """Golden-section search over the bracket (a, b), for at most ``left``
    points, two to start; returns the final bracket and the points left."""
    phi = (math.sqrt(5) - 1) / 2
    if b - a > tol and left >= 2:
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        left -= 2
        while b - a > tol and left > 0:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = f(d)
            left -= 1
    return a, b, left


def reference_search(point, lo, hi, budget, refine=brent_refine):
    """The result of the search with ``refine`` and its final bracket."""
    trace, solved = [], set()
    best = [None, -np.inf]

    def f(x):
        solved.add(np.float64(x).tobytes())
        res = _point_outcome(point, x)
        if isinstance(res, Exception):
            ref_log.warning("objective failed at %s: %s", np.array([x]), res)
            return -np.inf
        trace.append(((float(x),), res.value))
        if res.value > best[1]:
            best[:] = x, res.value
        return res.value

    grid = np.linspace(lo, hi, max(2, (budget - 1) // 4))
    values = [f(x) for x in grid]
    i = values.index(max(values))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    tol = 1e-7 * (hi - lo)
    a, b, left = refine(f, grid[i], values[i], a, b, tol, budget - 1 - len(grid))
    for _ in range(left):
        f(grid[i] if best[0] is None else best[0])
    if best[0] is None:
        raise NumericalError("objective evaluation failed at every sampled point")
    res = point(best[0])
    result = OptimizationResult(
        np.array([best[0]]), res.value, budget, tuple(trace), b - a <= tol,
        res.degenerate_ground, len(solved) + 1,
    )
    return result, (a, b)


@contextmanager
def failure_warnings(logger_name):
    """Collect the ``objective failed at`` warnings of one logger."""
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            if record.getMessage().startswith("objective failed at "):
                messages.append(record.getMessage())

    logger = logging.getLogger(logger_name)
    handler = Collect(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def run_search(search, logger_name):
    """The result of one search, or the type and text of the error it raised,
    with the ``objective failed at`` warnings it logged."""
    with failure_warnings(logger_name) as warnings:
        try:
            outcome = search()
        except NumericalError as exc:
            outcome = (type(exc), str(exc))
    return outcome, warnings


def result_bits(result):
    """Every field of an OptimizationResult, floats by their exact bits."""
    if not isinstance(result, OptimizationResult):
        return result
    return (
        [(np.array(c).tobytes(), np.float64(v).tobytes()) for c, v in result.trace],
        result.best_controls.tobytes(),
        np.float64(result.best_value).tobytes(),
        result.evaluations,
        result.converged,
        result.best_degenerate_ground,
        result.solved,
    )


@st.composite
def search_cases(draw):
    lower = draw(st.sampled_from([0.0, 0.5, -0.0]) | st.floats(-3.0, 3.0))
    width = draw(st.sampled_from([0.0, 3.0]) | st.floats(0.0, 3.0))
    return dict(
        bounds=((lower, lower + width),),
        delta=draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 2.0)),
        # where the model fails: a band of lambda, its start and width in
        # units of the box
        fail_band=draw(st.none() | st.tuples(st.floats(-0.2, 1.0), st.floats(0.0, 1.2))),
        budget=draw(st.sampled_from([3, 4]) | st.integers(3, 120)),
    )


@settings(max_examples=100, deadline=None, database=None)
@given(case=search_cases())
def test_search_matches_the_per_point_reference_bit_for_bit(case):
    (lo, hi), = case["bounds"]
    delta = case["delta"]

    def failing(lam):
        if case["fail_band"] is None:
            return False
        start, width = case["fail_band"]
        return lo + start * (hi - lo) <= lam <= lo + (start + width) * (hi - lo)

    def point(lam):
        if failing(lam):
            raise NumericalError("synthetic failure region")
        return ising_point(delta)(lam)

    def evaluate(x):
        # the CLI's stacked chain evaluator, failing in the band
        outcomes = _ising_outcomes(x[:, 0], delta, 1.0)
        return [
            NumericalError("synthetic failure region") if failing(lam) else res
            for lam, res in zip(x[:, 0], outcomes)
        ]

    problem = ControlProblem(evaluate=evaluate, bounds=case["bounds"])
    got, got_warnings = run_search(lambda: optimize(problem, case["budget"]), "medent.control")
    want, want_warnings = run_search(lambda: reference_search(point, lo, hi, case["budget"])[0], ref_log.name)
    assert result_bits(got) == result_bits(want)
    assert got_warnings == want_warnings


# ------------------------------------------------------------ golden-section bar
# Brent's refine against the golden-section refine it replaced, after the same
# scan: it finds no less and solves no more distinct points.


def dicke_point(variant, n_max):
    """The per-point evaluator of the cavity coupling kappa, as the CLI solves it."""

    def evaluate(kappa):
        return mediator_concurrence(DickeConfig(variant=variant, kappa=float(kappa), n_max=n_max))

    return evaluate


def brent_and_golden(point, lo, hi, budget):
    """The results of ``optimize`` and of the golden-section reference; the
    first solves no more distinct points."""
    brent = optimize(ControlProblem(evaluate=stacked(point), bounds=((lo, hi),)), budget)
    golden, _ = reference_search(point, lo, hi, budget, golden_refine)
    assert brent.solved <= golden.solved
    return brent, golden


# name: per-point evaluator, box, budget, whether the peak is inside the box
SMOOTH_PEAKS = {
    "README ising": (ising_point(0.1), (0.0, 3.0), 300, False),
    "recorded dicke": (dicke_point("h2", 40), (0.1, 1.1), 60, True),
    "ising box [0, 30]": (ising_point(0.1), (0.0, 30.0), 300, True),
    "constant": (ising_point(0.0), (0.0, 3.0), 60, False),
}


@pytest.mark.parametrize("name", SMOOTH_PEAKS)
def test_brent_matches_golden_section_on_smooth_peaks(name):
    point, (lo, hi), budget, interior = SMOOTH_PEAKS[name]
    brent, golden = brent_and_golden(point, lo, hi, budget)
    assert brent.best_value >= golden.best_value - 1e-14
    if interior:
        assert abs(brent.best_controls[0] - golden.best_controls[0]) <= 2 * BRACKET_RTOL * (hi - lo)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_brent_matches_golden_section_on_the_control_frontier(delta):
    lo, hi = 1.0, 1e4
    brent, golden = brent_and_golden(ising_point(delta), lo, hi, 300)
    # the top is flat to within the rounding noise of C, which decides which of
    # two points inside the bracket tolerance reads higher: the spread of C
    # over 41 points 1e-9 apart around golden's best, where its smooth
    # variation is below 1e-15 (measured: 4.4e-14, 4.7e-13 and 5.4e-12 down
    # the three deltas; Brent reads 7.8e-14 below golden at delta = 1e-3)
    lams = golden.best_controls[0] + 1e-9 * np.arange(-20, 21)
    noise = np.ptp([res.value for res in _ising_outcomes(lams, delta, 1.0)])
    assert brent.best_value >= golden.best_value - max(1e-14, noise)
    # rounding moves the best point too: golden's lies 1.4e-2 below Brent's
    # at delta = 1e-4, 14 bracket tolerances, so Brent must lie no farther
    # from the frontier law sqrt(8 / delta) than golden, to within two
    frontier = math.sqrt(8 / delta)
    off = [abs(r.best_controls[0] - frontier) for r in (brent, golden)]
    assert off[0] <= off[1] + 2 * BRACKET_RTOL * (hi - lo)


def test_brent_matches_golden_section_on_the_planted_peak():
    lo, hi = PLANTED_LO, PLANTED_HI
    brent, golden = brent_and_golden(planted_point, lo, hi, PLANTED_BUDGET)
    tol = BRACKET_RTOL * (hi - lo)
    assert abs(brent.best_controls[0] - golden.best_controls[0]) <= 2 * tol
    # the peak is a kink, so the value falls linearly with the distance from
    # it: each search is within tol of it, and golden reads at most 0.9
    # (measured: Brent 4.8e-8 and golden 1.1e-8 from the peak)
    assert brent.best_value >= golden.best_value - 0.9 / PLANTED_WIDTH * tol


# ------------------------------------------------------------ small budgets


def failing_inside(lam):
    """The delta = 0.1 chain, failing on the open box (0, 3)."""
    if 0.0 < lam < 3.0:
        raise NumericalError("synthetic failure region")
    return ising_point(0.1)(lam)


# name: per-point evaluator, box
SMALL_BUDGET_CASES = {
    "interior peak": (ising_point(0.1), (0.0, 30.0)),
    "edge peak": (ising_point(0.1), (0.0, 3.0)),
    "zero-width box": (ising_point(0.1), (1.3, 1.3)),
    "one-ulp box": (ising_point(0.1), (3.0, math.nextafter(3.0, 4.0))),
    "failing bracket": (failing_inside, (0.0, 3.0)),
}


@pytest.mark.parametrize("budget", range(3, 9))
@pytest.mark.parametrize("name", SMALL_BUDGET_CASES)
def test_a_small_budget_is_spent_exactly(name, budget):
    point, (lo, hi) = SMALL_BUDGET_CASES[name]
    evaluate, calls, _ = counting(point)
    problem = ControlProblem(evaluate=evaluate, bounds=((lo, hi),))
    result, warnings = run_search(lambda: optimize(problem, budget), "medent.control")
    want, (a, b) = reference_search(point, lo, hi, budget)
    assert result_bits(result) == result_bits(want)
    # every request is a trace row or a failure warning, and then the
    # re-verification
    assert result.evaluations == len(result.trace) + len(warnings) + 1 == budget
    # no point is solved twice but the best, by its re-verification
    assert len(calls) == len(set(calls)) + 1 == result.solved
    assert calls[-1] == result.best_controls.tobytes()
    # the final bracket lies between requested points around the best, and
    # closes below BRACKET_RTOL of the box only when the box has no width, or
    # holds two floats, both solved by the scan: the first step from the
    # better one rounds back onto it, and the bracket closes there
    requested = {np.frombuffer(c)[0] for c in calls}
    assert a in requested and b in requested and a <= result.best_controls[0] <= b
    closes = lo == hi or (hi == math.nextafter(lo, hi) and budget > 3)
    assert result.converged == (b - a <= BRACKET_RTOL * (hi - lo)) == closes


# ------------------------------------------------------------ simplex lower bound
# The multi-start Nelder-Mead search that ``optimize`` ran before the scan and
# refine, kept as a lower bound on what the search finds.


def simplex_optimize(point, bounds, budget, seed):
    """(best value, distinct points solved) of the old simplex over ``bounds``,
    a tuple of one (lower, upper) interval, with ``point`` a per-point evaluator."""
    rng = np.random.default_rng(seed)
    lo, hi = (np.array([b[k] for b in bounds]) for k in (0, 1))
    n = len(bounds)
    outcomes, best, used = {}, [-np.inf], [0]

    class Spent(Exception):
        pass

    def evaluate(x):
        used[0] += 1
        key = np.asarray(x, dtype=float).tobytes()
        if key not in outcomes:
            outcomes[key] = _point_outcome(point, x[0])
        res = outcomes[key]
        value = -np.inf if isinstance(res, Exception) else res.value
        best[0] = max(best[0], value)
        if used[0] == budget - 1:
            raise Spent
        return value

    try:
        while True:
            x0 = lo + rng.uniform(size=n) * (hi - lo)
            simplex = [x0.clip(lo, hi)]
            for i in range(n):
                step = np.zeros(n)
                step[i] = 0.1 * (hi[i] - lo[i]) if hi[i] > lo[i] else 0.1
                simplex.append((x0 + step).clip(lo, hi))
            values = [evaluate(p) for p in simplex]
            while True:
                order = np.argsort(values)[::-1]
                simplex = [simplex[k] for k in order]
                values = [values[k] for k in order]
                size = max(math.hypot(*(p - simplex[0])) for p in simplex[1:])
                if all(map(math.isfinite, values)) and (
                    max(values) - min(values) <= 1e-12 or size <= 1e-9
                ):
                    break
                centroid = np.add.reduce(simplex[:-1]) / n
                worst = simplex[-1]
                reflected = (centroid + (centroid - worst)).clip(lo, hi)
                r_val = evaluate(reflected)
                if r_val > values[0]:
                    expanded = (centroid + 2.0 * (reflected - centroid)).clip(lo, hi)
                    e_val = evaluate(expanded)
                    if e_val > r_val:
                        simplex[-1], values[-1] = expanded, e_val
                    else:
                        simplex[-1], values[-1] = reflected, r_val
                elif r_val > values[-2]:
                    simplex[-1], values[-1] = reflected, r_val
                else:
                    contracted = (centroid + 0.5 * (worst - centroid)).clip(lo, hi)
                    c_val = evaluate(contracted)
                    if c_val > values[-1]:
                        simplex[-1], values[-1] = contracted, c_val
                    else:
                        simplex = [simplex[0]] + [
                            (simplex[0] + 0.5 * (p - simplex[0])).clip(lo, hi) for p in simplex[1:]
                        ]
                        values = [values[0]] + [evaluate(p) for p in simplex[1:]]
    except Spent:
        pass
    return best[0], len(outcomes) + 1


def flag(argv, name):
    return argv[argv.index(name) + 1]


def search_cases_of_the_cli():
    """The README optimize commands and the first nine ``control_search``
    operations of the benchmark's seeds 801-803, as CLI argvs."""
    workloads = importlib.import_module("workloads")
    yield ["optimize", "--model", "ising", "--delta", "0.1", "--lower", "0", "--upper", "3",
           "--budget", "300", "--seed", "0"]
    yield ["optimize", "--model", "dicke", "--variant", "h2", "--nmax", "40", "--lower", "0.1",
           "--upper", "1.1", "--budget", "60", "--seed", "1"]
    for seed in (801, 802, 803):
        ops = workloads.control_search_ops(np.random.default_rng(seed), Path("."))
        yield from (op.argv for op in itertools.islice(ops, 9))


def test_the_search_finds_no_less_than_the_simplex(monkeypatch, capsys):
    # on every box, the printed best is no lower than the old simplex's best
    # at the command's seed, and a Dicke search solves no more distinct points
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    for argv in search_cases_of_the_cli():
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        best = float(re.search(r"^best concurrence: (\S+)$", out, re.M)[1])
        solved = int(re.match(r"solved (\d+) distinct points", err)[1])
        bounds = ((float(flag(argv, "--lower")), float(flag(argv, "--upper"))),)
        budget, seed = int(flag(argv, "--budget")), int(flag(argv, "--seed"))
        if flag(argv, "--model") == "ising":
            point = ising_point(float(flag(argv, "--delta")))
        else:
            point = dicke_point(flag(argv, "--variant"), int(flag(argv, "--nmax")))

        simplex_best, simplex_solved = simplex_optimize(point, bounds, budget, seed)
        assert best >= simplex_best, argv
        if flag(argv, "--model") == "dicke":
            assert solved <= simplex_solved, argv
