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
from medent.control import BRACKET_RTOL, ControlProblem, OptimizationResult, optimize
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
    # bracket close (14 grid points and 32 golden-section steps)
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


def counting_evaluator(fail_at=None):
    """The delta = 0.1 Ising lambda evaluator, recording the bits of every point
    it is asked to solve and the number of rows of each call, and failing
    with a NumericalError at ``fail_at``."""
    calls, sizes = [], []

    def point(lam):
        if lam == fail_at:
            raise NumericalError("synthetic failure region")
        return ising_point(0.1)(lam)

    def evaluate(x):
        sizes.append(len(x))
        calls.extend(row.tobytes() for row in x)
        return stacked(point)(x)

    return evaluate, calls, sizes


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
    # the grid in one call, the first two golden-section points in one, then
    # one point per call, and the re-verification alone
    assert sizes[:2] == [74, 2] and set(sizes[2:]) == {1}


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
    assert result.converged and abs(refine[-1] - 2.5) <= BRACKET_RTOL * 2.0
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


def test_a_planted_narrow_peak_is_found():
    # a broad decoy of height 0.5 and a triangular peak of height 0.9 off the
    # grid, whose half-width is twice the scan's resolution: some grid point
    # sits within half a resolution of it and reads at least 0.675, so the
    # scan picks its cell and the refine closes on the peak
    lo, hi, budget = 0.0, 10.0, 300
    resolution = (hi - lo) / ((budget - 1) // 4 - 1)
    peak, width = 7.3141, 2 * resolution

    def point(x):
        value = max(0.5 - 0.01 * abs(x - 2.0), 0.9 * (1 - abs(x - peak) / width))
        return ConcurrenceResult(value, np.zeros(4))

    result = optimize(ControlProblem(evaluate=stacked(point), bounds=((lo, hi),)), budget)
    assert result.converged
    assert abs(result.best_controls[0] - peak) <= BRACKET_RTOL * (hi - lo)
    assert result.best_value >= 0.9 * (1 - BRACKET_RTOL * (hi - lo) / width)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_the_search_finds_the_control_frontier(delta):
    # over lambda in [1, 1e4] the best lambda is sqrt(8 / delta) and
    # 1 - C* = 2 delta - 3 delta^2 + 4.25 delta^3 as pinned at that lambda
    # (tests/test_entanglement.py); measured: lambda* sqrt(delta) - sqrt(8)
    # reads 6.0e-5, -1.6e-5 and -1.4e-4 down the three deltas
    problem = ControlProblem(evaluate=lambda x: _ising_outcomes(x[:, 0], delta, 1.0), bounds=((1.0, 1e4),))
    result = optimize(problem, budget=300)
    assert result.converged and not result.best_degenerate_ground
    assert abs(result.best_controls[0] * math.sqrt(delta) - math.sqrt(8)) <= 1e-3
    excess = (1 - result.best_value) - (2 * delta - 3 * delta**2)
    assert abs(excess - 4.25 * delta**3) <= 0.1 * delta**3 + 1e-11


# ------------------------------------------------------------ per-point reference
# The scan and refine as a plain loop over requested points: no memo, no
# stacked evaluation; the oracle of the bookkeeping of ``optimize``.

ref_log = logging.getLogger(__name__ + ".reference")


def reference_search(point, lo, hi, budget) -> OptimizationResult:
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
    spent, tol, phi = len(grid), 1e-7 * (hi - lo), (math.sqrt(5) - 1) / 2
    if b - a > tol and spent + 2 < budget:
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        spent += 2
        while b - a > tol and spent < budget - 1:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = f(d)
            spent += 1
    for _ in range(budget - 1 - spent):
        f(grid[i] if best[0] is None else best[0])
    if best[0] is None:
        raise NumericalError("objective evaluation failed at every sampled point")
    res = point(best[0])
    return OptimizationResult(
        np.array([best[0]]), res.value, budget, tuple(trace), b - a <= tol,
        res.degenerate_ground, len(solved) + 1,
    )


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
    want, want_warnings = run_search(lambda: reference_search(point, lo, hi, case["budget"]), ref_log.name)
    assert result_bits(got) == result_bits(want)
    assert got_warnings == want_warnings


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
            variant, n_max = flag(argv, "--variant"), int(flag(argv, "--nmax"))

            def point(kappa):
                return mediator_concurrence(DickeConfig(variant=variant, kappa=float(kappa), n_max=n_max))

        simplex_best, simplex_solved = simplex_optimize(point, bounds, budget, seed)
        assert best >= simplex_best, argv
        if flag(argv, "--model") == "dicke":
            assert solved <= simplex_solved, argv
