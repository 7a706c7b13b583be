"""Tests of the benchmark's own arithmetic: span self times and metric lists.

    python3 -m pytest bench/test_tracer.py
"""

import json
from pathlib import Path

import pytest

import run
from tracer import aggregate, self_times

#   0 cli.main          [0, 10]
#   1   sweeps.a        [1, 4]
#   2     linalg.k      [2, 3]
#   3   linalg.k        [5, 9]
#   4     lapack.eigh   [6, 7.5]
#   5     lapack.eigh   [7.5, 8]
NAMES = ["cli.main", "sweeps.a", "linalg.k", "lapack.eigh"]
SPAN_NAME = [0, 1, 2, 2, 3, 3]
STARTS = [0.0, 1.0, 2.0, 5.0, 6.0, 7.5]
ENDS = [10.0, 4.0, 3.0, 9.0, 7.5, 8.0]
PARENTS = [-1, 0, 1, 0, 3, 3]


def test_self_time_subtracts_direct_children_only():
    assert self_times(STARTS, ENDS, PARENTS) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 0.5])


def test_self_times_sum_to_root_duration():
    assert sum(self_times(STARTS, ENDS, PARENTS)) == pytest.approx(ENDS[0] - STARTS[0])


def test_aggregate_by_name_and_layer():
    by_name, by_layer = aggregate(NAMES, SPAN_NAME, STARTS, ENDS, PARENTS, errors={5})
    assert by_name["linalg.k"] == {"self_s": pytest.approx(3.0), "calls": 2, "errors": 0}
    assert by_name["lapack.eigh"] == {"self_s": pytest.approx(2.0), "calls": 2, "errors": 1}
    assert by_layer["linalg"]["self_s"] == pytest.approx(3.0)
    assert by_layer["cli"]["calls"] == 1
    assert sum(v["self_s"] for v in by_layer.values()) == pytest.approx(10.0)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(x) for x in range(1, 31)]
    pct, value = run.tail(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
