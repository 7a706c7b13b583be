import logging

import numpy as np
import pytest

from medent.control import ControlProblem, optimize
from medent.entanglement import ground_state_ac_concurrence
from medent.linalg import NumericalError
from medent.tripartite import IsingParams, build_ising


def ising_lambda_problem(delta, lower=0.0, upper=3.0, objective="maximize_concurrence", target=None):
    def model(x):
        return build_ising(IsingParams(delta=delta, lam=float(x[0])))

    return ControlProblem(
        model=model,
        control_dim=1,
        bounds=((lower, upper),),
        dims=(2, 2, 2),
        objective=objective,
        target=target,
    )


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
    model = lambda x: build_ising(IsingParams())
    with pytest.raises(ValueError):
        ControlProblem(model=model, control_dim=0, bounds=())
    with pytest.raises(ValueError):
        ControlProblem(model=model, control_dim=1, bounds=((0.0, np.inf),))
    with pytest.raises(ValueError):
        ControlProblem(model=model, control_dim=1, bounds=((1.0, 0.0),))
    with pytest.raises(ValueError):
        ControlProblem(model=model, control_dim=1, bounds=((0.0, 1.0),), objective="bogus")
    with pytest.raises(ValueError):
        ControlProblem(
            model=model, control_dim=1, bounds=((0.0, 1.0),), objective="target_concurrence"
        )


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
    calls = {"n": 0}

    def flaky_model(x):
        calls["n"] += 1
        if x[0] > 2.0:
            raise NumericalError("synthetic failure region")
        return build_ising(IsingParams(delta=0.1, lam=float(x[0])))

    problem = ControlProblem(
        model=flaky_model, control_dim=1, bounds=((0.0, 3.0),), dims=(2, 2, 2)
    )
    result = optimize(problem, budget=150, seed=0)
    # the feasible maximum (at the working-region edge) is still found
    feasible_best, _ = grid_scan_max(0.1, count=1001, upper=2.0)
    assert result.best_value >= feasible_best - 5e-3
    assert result.best_controls[0] <= 2.0


def test_all_failures_raises_numerical_error():
    def broken_model(x):
        raise NumericalError("always down")

    problem = ControlProblem(
        model=broken_model, control_dim=1, bounds=((0.0, 1.0),), dims=(2, 2, 2)
    )
    with pytest.raises(NumericalError):
        optimize(problem, budget=20, seed=0)


def test_programming_error_propagates():
    def buggy_model(x):
        raise TypeError("not a numerical failure")

    problem = ControlProblem(
        model=buggy_model, control_dim=1, bounds=((0.0, 1.0),), dims=(2, 2, 2)
    )
    with pytest.raises(TypeError):
        optimize(problem, budget=20, seed=0)


def test_target_objective():
    problem = ising_lambda_problem(0.1, objective="target_concurrence", target=0.3)
    result = optimize(problem, budget=200, seed=4)
    achieved = ground_state_ac_concurrence(
        build_ising(IsingParams(delta=0.1, lam=float(result.best_controls[0]))), (2, 2, 2)
    ).value
    assert abs(achieved - 0.3) <= 1e-3


def counting_model(fail_at=None):
    """The delta = 0.1 Ising lambda model, recording the bits of every point it
    is asked to solve and failing with a NumericalError at ``fail_at``."""
    calls = []

    def model(x):
        calls.append(np.asarray(x, dtype=float).tobytes())
        if x[0] == fail_at:
            raise NumericalError("synthetic failure region")
        return build_ising(IsingParams(delta=0.1, lam=float(x[0])))

    return model, calls


def test_each_distinct_point_is_solved_once():
    # the optimum sits on the upper bound, so clamped points repeat
    model, calls = counting_model()
    problem = ControlProblem(model=model, control_dim=1, bounds=((0.0, 3.0),), dims=(2, 2, 2))
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
    model, calls = counting_model(fail_at=3.0)
    problem = ControlProblem(model=model, control_dim=1, bounds=((0.0, 3.0),), dims=(2, 2, 2))
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
    model, calls = counting_model()
    problem = SignedZeroProblem(model=model, control_dim=1, bounds=((-1.0, 1.0),), dims=(2, 2, 2))
    result = optimize(problem, budget=40, seed=0)
    assert set(calls) == {np.array([0.0]).tobytes(), np.array([-0.0]).tobytes()}
    assert len(calls) == result.solved == 3
    assert result.evaluations == 40
