import logging
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medent.control import ControlProblem, OptimizationResult, optimize
from medent.entanglement import ground_state_ac_concurrence
from medent.linalg import HermitianOperator, NumericalError
from medent.sweeps import _point_outcome
from medent.tripartite import IsingParams, build_ising


def ising_lambda(delta):
    """The evaluator of the Ising chain's middle field lambda at outer field delta."""

    def evaluate(x):
        return ground_state_ac_concurrence(
            build_ising(IsingParams(delta=delta, lam=float(x[0]))), (2, 2, 2)
        )

    return evaluate


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


def test_budget_precondition():
    with pytest.raises(ValueError):
        optimize(ising_lambda_problem(0.1), budget=2, seed=0)


def test_constant_objective_converges():
    # degenerate ground at delta = 0 forces the zero-concurrence convention
    # everywhere, so the landscape is exactly constant
    result = optimize(ising_lambda_problem(0.0), budget=40, seed=3)
    assert result.converged
    assert result.best_value == pytest.approx(0.0, abs=1e-12)
    assert result.best_degenerate_ground


def test_matches_grid_scan():
    grid_best, grid_lam = grid_scan_max(0.1)
    result = optimize(ising_lambda_problem(0.1), budget=300, seed=0)
    assert result.evaluations <= 300
    assert abs(result.best_value - grid_best) <= 1e-3
    assert abs(result.best_controls[0] - grid_lam) <= 0.05


def test_deterministic_under_seed():
    r1 = optimize(ising_lambda_problem(0.1), budget=120, seed=7)
    r2 = optimize(ising_lambda_problem(0.1), budget=120, seed=7)
    assert r1.trace == r2.trace
    assert r1.best_value == r2.best_value
    assert np.array_equal(r1.best_controls, r2.best_controls)


def test_best_so_far_is_monotone():
    result = optimize(ising_lambda_problem(0.1), budget=150, seed=1)
    running = -np.inf
    for _, value in result.trace:
        running = max(running, value)
    assert running == result.best_value


def test_trace_stays_in_bounds():
    result = optimize(ising_lambda_problem(0.1, lower=0.5, upper=2.5), budget=100, seed=2)
    for controls, _ in result.trace:
        assert 0.5 - 1e-12 <= controls[0] <= 2.5 + 1e-12


def test_failed_evaluations_are_discarded():
    def flaky(x):
        if x[0] > 2.0:
            raise NumericalError("synthetic failure region")
        return ising_lambda(0.1)(x)

    problem = ControlProblem(evaluate=flaky, bounds=((0.0, 3.0),))
    result = optimize(problem, budget=150, seed=0)
    # the feasible maximum (at the working-region edge) is still found
    feasible_best, _ = grid_scan_max(0.1, count=1001, upper=2.0)
    assert result.best_value >= feasible_best - 5e-3
    assert result.best_controls[0] <= 2.0


def test_all_failures_raises_numerical_error():
    def broken(x):
        raise NumericalError("always down")

    problem = ControlProblem(evaluate=broken, bounds=((0.0, 1.0),))
    with pytest.raises(NumericalError):
        optimize(problem, budget=20, seed=0)


def test_programming_error_propagates():
    def buggy(x):
        raise TypeError("not a numerical failure")

    problem = ControlProblem(evaluate=buggy, bounds=((0.0, 1.0),))
    with pytest.raises(TypeError):
        optimize(problem, budget=20, seed=0)


def counting_evaluator(fail_at=None):
    """The delta = 0.1 Ising lambda evaluator, recording the bits of every point
    it is asked to solve and failing with a NumericalError at ``fail_at``."""
    calls = []

    def evaluate(x):
        calls.append(np.asarray(x, dtype=float).tobytes())
        if x[0] == fail_at:
            raise NumericalError("synthetic failure region")
        return ising_lambda(0.1)(x)

    return evaluate, calls


def test_each_distinct_point_is_solved_once():
    # the optimum sits on the upper bound, so clamped points repeat
    evaluate, calls = counting_evaluator()
    problem = ControlProblem(evaluate=evaluate, bounds=((0.0, 3.0),))
    result = optimize(problem, budget=300, seed=0)
    searched = {np.array(controls).tobytes() for controls, _ in result.trace}
    # every search point once, then the re-verification of the best
    assert len(calls) == len(set(calls)) + 1 == len(searched) + 1 == result.solved
    assert set(calls[:-1]) == searched
    assert calls[-1] == result.best_controls.tobytes()
    # a repeated point still counts as an evaluation and gets its trace entry
    assert result.evaluations == 300
    assert len(result.trace) == 299
    assert result.solved < 200


def test_a_repeated_failure_is_logged_at_every_request(caplog):
    # the model fails at the upper bound, where the search keeps clamping
    evaluate, calls = counting_evaluator(fail_at=3.0)
    problem = ControlProblem(evaluate=evaluate, bounds=((0.0, 3.0),))
    with caplog.at_level(logging.WARNING, logger="medent.control"):
        result = optimize(problem, budget=150, seed=0)
    messages = [r.getMessage() for r in caplog.records]
    failures = [m for m in messages if m.startswith("objective failed at ")]
    assert calls.count(np.array([3.0]).tobytes()) == 1
    assert failures.count("objective failed at [3.]: synthetic failure region") > 1
    # the memo keeps the exception, not the frames of the failed solve
    stored = [r.args[1] for r in caplog.records if r.msg.startswith("objective failed at ")]
    assert stored and all(exc.__traceback__ is None for exc in stored)
    # one warning per requested evaluation that failed, none for a success
    assert len(failures) == result.evaluations - 1 - len(result.trace)
    assert len(calls) == len(set(calls)) + 1 == result.solved


class SignedZeroProblem(ControlProblem):
    """Clamps every point onto 0.0 or -0.0, by the sign of its control."""

    def clamp(self, x):
        return np.copysign(np.zeros_like(x), x)


def test_signed_zeros_are_distinct_points():
    evaluate, calls = counting_evaluator()
    problem = SignedZeroProblem(evaluate=evaluate, bounds=((-1.0, 1.0),))
    result = optimize(problem, budget=40, seed=0)
    assert set(calls) == {np.array([0.0]).tobytes(), np.array([-0.0]).tobytes()}
    assert len(calls) == result.solved == 3
    assert result.evaluations == 40


# ---------------------------------------------------------------- reference optimizer
# The search as it was while a problem held a model and tensor dimensions and
# a budget object ended it at explicit guards; kept as the oracle of the
# evaluator-based search above.

ref_log = logging.getLogger(__name__ + ".reference")


@dataclass(frozen=True)
class ReferenceProblem:
    model: Callable[[np.ndarray], HermitianOperator]
    control_dim: int
    bounds: tuple[tuple[float, float], ...]
    dims: tuple[int, int, int] = (2, 2, 2)

    def lower(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    def upper(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower(), self.upper())


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


def reference_optimize(problem: ReferenceProblem, budget: int, seed: int) -> OptimizationResult:
    if budget < problem.control_dim + 2:
        raise ValueError(f"budget must be at least control_dim + 2 = {problem.control_dim + 2}")

    rng = np.random.default_rng(seed)
    budget_state = _Budget(budget - 1)
    trace = []
    best: dict = {"x": None, "value": -np.inf, "degenerate": False}
    any_converged = False
    any_success = False
    outcomes: dict[bytes, object] = {}

    def solve(x):
        return ground_state_ac_concurrence(problem.model(x), problem.dims)

    def evaluate(x):
        nonlocal any_success
        budget_state.used += 1
        key = np.asarray(x, dtype=float).tobytes()
        if key not in outcomes:
            outcomes[key] = _point_outcome(solve, x)
        res = outcomes[key]
        if isinstance(res, Exception):
            ref_log.warning("objective failed at %s: %s", x, res)
            return -np.inf
        any_success = True
        value = res.value
        trace.append((tuple(float(c) for c in x), value))
        if value > best["value"]:
            best.update(x=np.array(x), value=value, degenerate=res.degenerate_ground)
        return value

    lo, hi = problem.lower(), problem.upper()
    n = problem.control_dim

    while not budget_state.exhausted:
        x0 = lo + rng.uniform(size=n) * (hi - lo)
        simplex = [problem.clamp(x0)]
        for i in range(n):
            step = np.zeros(n)
            step[i] = 0.1 * (hi[i] - lo[i]) if hi[i] > lo[i] else 0.1
            simplex.append(problem.clamp(x0 + step))
        values = []
        for p in simplex:
            if budget_state.exhausted:
                break
            values.append(evaluate(p))
        if len(values) < len(simplex):
            break

        while not budget_state.exhausted:
            order = np.argsort(values)[::-1]
            simplex = [simplex[k] for k in order]
            values = [values[k] for k in order]

            finite = [v for v in values if np.isfinite(v)]
            size = max(np.linalg.norm(p - simplex[0]) for p in simplex[1:])
            if len(finite) == len(values) and (
                max(values) - min(values) <= 1e-12 or size <= 1e-9
            ):
                any_converged = True
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = problem.clamp(centroid + 1.0 * (centroid - worst))
            r_val = evaluate(reflected)

            if r_val > values[0]:
                if budget_state.exhausted:
                    break
                expanded = problem.clamp(centroid + 2.0 * (reflected - centroid))
                e_val = evaluate(expanded)
                if e_val > r_val:
                    simplex[-1], values[-1] = expanded, e_val
                else:
                    simplex[-1], values[-1] = reflected, r_val
            elif r_val > values[-2]:
                simplex[-1], values[-1] = reflected, r_val
            else:
                if budget_state.exhausted:
                    break
                contracted = problem.clamp(centroid + 0.5 * (worst - centroid))
                c_val = evaluate(contracted)
                if c_val > values[-1]:
                    simplex[-1], values[-1] = contracted, c_val
                else:
                    new_simplex = [simplex[0]]
                    new_values = [values[0]]
                    for p in simplex[1:]:
                        if budget_state.exhausted:
                            break
                        q = problem.clamp(simplex[0] + 0.5 * (p - simplex[0]))
                        new_simplex.append(q)
                        new_values.append(evaluate(q))
                    if len(new_simplex) < len(simplex):
                        break
                    simplex, values = new_simplex, new_values

    if not any_success or best["x"] is None:
        raise NumericalError("objective evaluation failed at every sampled point")

    res = solve(best["x"])
    verified = res.value
    evaluations = budget_state.used + 1
    if abs(verified - best["value"]) > 1e-12:
        raise NumericalError(
            f"best value failed re-verification: {best['value']!r} vs {verified!r}"
        )
    if verified > 1.0 - 1e-6 and not res.degenerate_ground:
        raise NumericalError(
            "optimizer reports essentially maximal concurrence on a non-degenerate "
            "ground level; this contradicts the factorization theorem and signals a bug"
        )

    return OptimizationResult(
        best_controls=np.array(best["x"]),
        best_value=float(verified),
        evaluations=evaluations,
        trace=tuple(trace),
        converged=any_converged,
        best_degenerate_ground=res.degenerate_ground,
        solved=len(outcomes) + 1,
    )


class SignedZeroReference(ReferenceProblem):
    def clamp(self, x):
        return np.copysign(np.zeros_like(x), x)


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


def run_search(search, problem, budget, seed, logger_name):
    """The result of one search, or the type and text of the error it raised,
    with the ``objective failed at`` warnings it logged."""
    with failure_warnings(logger_name) as warnings:
        try:
            outcome = search(problem, budget, seed)
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
    control_dim = draw(st.integers(1, 2))
    bounds = []
    for _ in range(control_dim):
        lower = draw(st.sampled_from([0.0, 0.5]) | st.floats(-3.0, 3.0))
        width = draw(st.sampled_from([0.0, 3.0]) | st.floats(0.0, 3.0))
        bounds.append((lower, lower + width))
    return dict(
        control_dim=control_dim,
        bounds=tuple(bounds),
        delta=draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 2.0)),
        # where the model fails: a band of lambda (the first control), its start
        # and width in units of lambda's interval; a band inside the box makes
        # contractions fail and the simplex shrink
        fail_band=draw(st.none() | st.tuples(st.floats(-0.2, 1.0), st.floats(0.0, 1.2))),
        signed_zero=draw(st.booleans()),
        budget=draw(st.sampled_from([control_dim + 2]) | st.integers(control_dim + 2, 120)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(case=search_cases())
def test_evaluator_search_matches_the_reference_bit_for_bit(case):
    def model(x):
        if case["fail_band"] is not None:
            (lo, hi), (start, width) = case["bounds"][0], case["fail_band"]
            if lo + start * (hi - lo) <= x[0] <= lo + (start + width) * (hi - lo):
                raise NumericalError("synthetic failure region")
        # a second control moves the outer field, by its magnitude
        delta = case["delta"] + sum(abs(float(c)) for c in x[1:])
        return build_ising(IsingParams(delta=delta, lam=float(x[0])))

    def evaluate(x):
        return ground_state_ac_concurrence(model(x), (2, 2, 2))

    new_cls, ref_cls = (
        (SignedZeroProblem, SignedZeroReference)
        if case["signed_zero"]
        else (ControlProblem, ReferenceProblem)
    )
    budget, seed = case["budget"], case["seed"]
    got, got_warnings = run_search(
        optimize, new_cls(evaluate=evaluate, bounds=case["bounds"]), budget, seed, "medent.control"
    )
    reference = ref_cls(model=model, control_dim=case["control_dim"], bounds=case["bounds"])
    want, want_warnings = run_search(reference_optimize, reference, budget, seed, ref_log.name)
    assert result_bits(got) == result_bits(want)
    assert got_warnings == want_warnings
