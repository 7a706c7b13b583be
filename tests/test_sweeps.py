import math

import numpy as np
import pytest

from medent.entanglement import ground_state_ac_concurrence
from medent.linalg import eigh
from medent.sweeps import (
    ISING_SWEEP_SCHEMA,
    SweepResult,
    format_value,
    grid_sweep,
    ising_sweep,
    linspace_grid,
    parse_grid_spec,
)
from medent.tripartite import IsingParams, build_ising


def test_format_round_trip_precision():
    values = [0.1, 1 / 3, np.pi, 1e-17, 123456.789, -2.5e-300]
    for v in values:
        assert float(format_value(v)) == v


def test_format_bool_and_int():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(7) == "7"


def test_grid_parsing():
    grid = parse_grid_spec("0:3:31")
    assert len(grid) == 31
    assert grid[0] == 0.0 and grid[-1] == 3.0
    assert len(parse_grid_spec("1:1:1")) == 1
    with pytest.raises(ValueError):
        parse_grid_spec("0:3")
    with pytest.raises(ValueError):
        parse_grid_spec("3:0:5")
    with pytest.raises(ValueError):
        parse_grid_spec("0:3:0")
    with pytest.raises(ValueError):
        linspace_grid(0, 1, 0)


def test_sweep_result_schema_enforced():
    with pytest.raises(ValueError):
        SweepResult(schema=("a", "b"), rows=({"a": 1.0},))


def test_ising_sweep_rows_and_order():
    result = ising_sweep([0.1, 0.5], [0.0, 1.0, 2.0])
    assert len(result.rows) == 6
    assert [(r["delta"], r["lambda"]) for r in result.rows] == [
        (0.1, 0.0),
        (0.1, 1.0),
        (0.1, 2.0),
        (0.5, 0.0),
        (0.5, 1.0),
        (0.5, 2.0),
    ]
    assert all(r["status"] == "ok" for r in result.rows)


def test_ising_sweep_single_point_matches_direct():
    result = ising_sweep([0.1], [1.0])
    row = result.rows[0]
    h = build_ising(IsingParams(delta=0.1, lam=1.0))
    res = ground_state_ac_concurrence(h, (2, 2, 2))
    dec = eigh(h)
    assert row["concurrence"] == pytest.approx(res.value, abs=1e-14)
    assert row["ground_energy"] == pytest.approx(dec.ground_energy, abs=1e-14)
    assert row["gap"] == pytest.approx(dec.gap(), abs=1e-14)
    assert row["degenerate"] is False


def test_csv_round_trip_exact(tmp_path):
    result = ising_sweep([0.01, 1.3], [0.0, 0.7])
    path = tmp_path / "sweep.csv"
    result.write_csv(path)
    back = SweepResult.read_csv(path)
    assert back.schema == result.schema
    assert len(back.rows) == len(result.rows)
    for a, b in zip(back.rows, result.rows):
        for key in result.schema:
            va, vb = a[key], b[key]
            if isinstance(vb, float) and math.isnan(vb):
                assert math.isnan(va)
            else:
                assert va == vb


def test_csv_bytes_deterministic(tmp_path):
    result = ising_sweep([0.2], [0.3, 0.9])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    result.write_csv(p1)
    ising_sweep([0.2], [0.3, 0.9]).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_point_is_flagged_not_raised():
    # a negative outer field is rejected when the point's Hamiltonian is built
    result = ising_sweep([-0.1], [1.0])
    (row,) = result.rows
    assert (row["delta"], row["lambda"]) == (-0.1, 1.0)
    assert row["status"].startswith("error: ")
    assert all(math.isnan(row[c]) for c in ("ground_energy", "gap", "concurrence"))
    assert row["degenerate"] is False


def test_grid_sweep_propagates_programming_errors():
    def evaluate(point):
        raise TypeError("bug in the evaluator")

    with pytest.raises(TypeError, match="bug in the evaluator"):
        grid_sweep(ISING_SWEEP_SCHEMA, [{"delta": 0.1, "lambda": 1.0}], evaluate)
