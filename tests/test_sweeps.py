import csv
import io
import logging
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medent.cli import main
from medent.control import ControlProblem, optimize
from medent.dicke import DICKE_SWEEP_SCHEMA, DickeConfig, dicke_sweep
from medent.entanglement import (
    concurrence,
    ground_level_concurrence,
    ground_level_density,
    ground_state_ac_concurrence,
)
from medent.linalg import DensityMatrix, NumericalError, eigh, eigh_stack, reduced_density
from medent.sweeps import (
    COLUMN_TYPES,
    ISING_CHUNK,
    ISING_SWEEP_SCHEMA,
    POINT_ERRORS,
    SweepResult,
    _ising_outcomes,
    _ising_stack,
    _point_outcome,
    format_value,
    ising_sweep,
    linspace_grid,
    parse_grid_spec,
)
import medent.dicke
import medent.entanglement
import medent.sweeps
from medent.tripartite import IsingParams, _ising_coefficients, build_ising, ising_hamiltonians


def test_format_round_trip_precision():
    values = [0.1, 1 / 3, np.pi, 1e-17, 123456.789, -2.5e-300]
    for v in values:
        assert float(format_value(v)) == v


def test_format_bool_and_int():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(np.True_) == "1"
    assert format_value(np.False_) == "0"
    assert format_value(7) == "7"


def test_numpy_booleans_round_trip_through_csv(tmp_path):
    # one column of numpy booleans, one mixing them with Python booleans
    columns = ([np.True_, np.False_], [True, np.True_])
    path = tmp_path / "flags.csv"
    SweepResult(("degenerate", "family_ok"), columns).write_csv(path)
    assert path.read_text() == "degenerate,family_ok\n1,1\n0,1\n"
    back = SweepResult.read_csv(path)
    assert back.rows == ({"degenerate": True, "family_ok": True}, {"degenerate": False, "family_ok": True})


def test_grid_parsing():
    grid = parse_grid_spec("0:3:31")
    assert len(grid) == 31
    assert grid[0] == 0.0 and grid[-1] == 3.0
    assert len(parse_grid_spec("1:1:1")) == 1
    # the widest finite grids are kept
    assert parse_grid_spec("-1e308:0:3").tolist() == [-1e308, -5e307, 0.0]
    assert parse_grid_spec("0:1.7e308:2").tolist() == [0.0, 1.7e308]
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
        SweepResult(("a", "b"), ([1.0],))
    with pytest.raises(ValueError):
        SweepResult(("a", "b"), ([1.0], [2.0, 3.0]))


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


def stack_rows(params) -> list[dict]:
    """``_ising_stack`` of the points' coefficient rows, one dict of Python
    values per point."""
    columns = _ising_stack(_ising_coefficients(params))
    return [dict(zip(ISING_SWEEP_SCHEMA[2:6], values)) for values in zip(*(c.tolist() for c in columns))]


def test_failed_chain_points_keep_no_traceback():
    # an invalid parameter fails IsingParams; a field that overflows to inf
    # (lam * lambda0, lambda0 = J) fails the stack, so the chunk is solved
    # again one point at a time
    invalid = _point_outcome(IsingParams, 2.0, -0.1, 1.0)
    non_finite = _point_outcome(stack_rows, [IsingParams(2.0, 0.3, 1.7e308)])
    assert str(invalid) == "delta must be non-negative"
    assert str(non_finite) == "h_b contains non-finite entries"
    assert invalid.__traceback__ is None and non_finite.__traceback__ is None
    result = ising_sweep([-0.1, 0.3], [1.0, 1.7e308], j_coupling=2.0)
    assert result.column("status") == [f"error: {invalid}"] * 2 + ["ok", f"error: {non_finite}"]
    (solved,) = stack_rows([IsingParams(j_coupling=2.0, delta=0.3, lam=1.0)])
    assert {c: result.rows[2][c] for c in solved} == solved


# ---------------------------------------------------------------- stacked chain sweep

def unstacked_ground_level_density(dec):
    """The ground-level rho_AC one member at a time: each reduced and checked on
    its own, a degenerate group summed in order and divided by its size."""
    group = dec.ground_group
    if len(group) == 1:
        return reduced_density(dec.eigenvectors[:, 0], (2, 2, 2), (0, 2))
    mixed = sum(reduced_density(dec.eigenvectors[:, k], (2, 2, 2), (0, 2)).matrix for k in group)
    return DensityMatrix(mixed / len(group))


def reference_row(delta, lam, j_coupling):
    """One point the unstacked way: build_ising -> eigh -> ground concurrence."""
    row = dict(zip(ISING_SWEEP_SCHEMA, (delta, lam, math.nan, math.nan, math.nan, False, "ok")))
    try:
        dec = eigh(build_ising(IsingParams(j_coupling=j_coupling, delta=delta, lam=lam)))
        conc = ground_level_concurrence(dec.eigenvectors, len(dec.ground_group), (2, 2, 2), (0, 2))
    except POINT_ERRORS as exc:
        row["status"] = f"error: {exc}"
        return row
    assert conc.value == concurrence(unstacked_ground_level_density(dec)).value
    row.update(
        ground_energy=dec.ground_energy,
        gap=dec.gap(),
        concurrence=conc.value,
        degenerate=conc.degenerate_ground,
    )
    return row


def reference_rows(deltas, lams, j_coupling=1.0):
    return [reference_row(float(d), float(lam), j_coupling) for d in deltas for lam in lams]


def bits(row):
    """A row with every float as its 8 bytes, so -0.0 and NaN compare exactly."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in row.values())


ORACLE_GRIDS = {
    # the README landscape plus its degenerate delta = 0 row: 806 points
    "readme": ([0.0, *np.linspace(0.01, 2.0, 25)], np.linspace(0.0, 3.0, 31), 1.0),
    "negative_lambda": (np.linspace(0.0, 2.0, 6), np.linspace(-3.0, 3.0, 25), 1.0),
    "j_half": (np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 3.0, 15), 0.5),
    # H = 0: the whole spectrum is one ground group
    "j_zero": ([0.0, 0.5, 1.0], [-1.0, 0.0, 1.0], 0.0),
    "one_chunk": (np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2.0, 32), 1.0),
    "chunk_plus_one": (np.linspace(0.0, 1.0, 3), np.linspace(0.0, 2.0, 43), 1.0),
}


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_ising_sweep_matches_per_point_reference_bit_for_bit(grid):
    deltas, lams, j = ORACLE_GRIDS[grid]
    result = ising_sweep(deltas, lams, j_coupling=j)
    expected = reference_rows(deltas, lams, j)
    assert [bits(r) for r in result.rows] == [bits(r) for r in expected]
    assert all(r["status"] == "ok" for r in result.rows)
    if grid == "readme":
        assert len(result.rows) % ISING_CHUNK != 0
        assert all(r["degenerate"] for r in result.rows if r["delta"] == 0.0)
    if grid == "j_zero":
        assert all(r["degenerate"] and r["gap"] == 0.0 for r in result.rows)


def assert_only_row_failed(result, expected, index, status_prefix):
    rows = result.rows
    assert rows[index]["status"].startswith("error: " + status_prefix)
    assert all(math.isnan(rows[index][c]) for c in ("ground_energy", "gap", "concurrence"))
    assert rows[index]["degenerate"] is False
    others = [bits(r) for i, r in enumerate(rows) if i != index]
    assert others == [bits(r) for i, r in enumerate(expected) if i != index]
    assert all(r["status"] == "ok" for i, r in enumerate(rows) if i != index)


# 200 points with lambda innermost, solved as chunks of 128 and 72; each
# isolation test fails one of them: the first and last of either chunk, and 70
LAMS = list(np.linspace(-1.0, 3.0, 200))
FAILING = (0, 70, ISING_CHUNK - 1, ISING_CHUNK, 199)


def test_invalid_parameter_flags_only_its_row():
    for failing in FAILING:
        deltas = list(np.linspace(0.01, 2.0, 200))
        deltas[failing] = -0.1
        result = ising_sweep(deltas, [1.0])
        assert_only_row_failed(result, reference_rows(deltas, [1.0]), failing, "delta must be non-negative")


@pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf])
def test_a_non_finite_coupling_is_rejected_before_any_point(j, monkeypatch):
    def no_point(*args):
        raise AssertionError("evaluated a point")

    monkeypatch.setattr(medent.sweeps, "_ising_stack", no_point)
    with pytest.raises(ValueError, match=f"^j_coupling must be finite, got {j}$"):
        ising_sweep([0.0, 1.0], [0.0, 1.0], j_coupling=j)


def test_non_finite_parameter_flags_only_its_row():
    for failing in FAILING:
        lams = list(LAMS)
        lams[failing] = math.nan
        result = ising_sweep([0.3], lams)
        expected = reference_rows([0.3], lams)
        assert expected[failing]["status"] == "error: lam must be finite, got nan"
        assert [bits(r) for r in result.rows] == [bits(r) for r in expected]
        assert_only_row_failed(result, expected, failing, "lam must be finite, got nan")


def patch_stacked(monkeypatch, name, target, replace):
    """Wrap numpy.linalg.<name>: on a stack (of one or more matrices) that holds
    ``target``, hand that matrix's slice of the result to ``replace``."""
    solve = getattr(np.linalg, name)

    def patched(a):
        a = np.asarray(a)
        stacked = a.ndim == 3 and a.shape[1:] == target.shape
        hit = np.flatnonzero(np.all(a == target, axis=(1, 2))) if stacked else []
        return replace(solve, a, hit)

    monkeypatch.setattr(np.linalg, name, patched)


def target_hamiltonian(lam):
    return build_ising(IsingParams(delta=0.3, lam=lam)).matrix


def test_contract_failure_flags_only_its_row(monkeypatch):
    # computed before the patch, which also fires on the stacks of one that eigh solves
    expected = reference_rows([0.3], LAMS)

    def skew_eigenvectors(solve, a, hit):
        w, v = solve(a)
        v[hit] *= 1.001
        return w, v

    for failing in FAILING:
        with monkeypatch.context() as patch:
            patch_stacked(patch, "eigh", target_hamiltonian(LAMS[failing]), skew_eigenvectors)
            result = ising_sweep([0.3], LAMS)
        assert_only_row_failed(result, expected, failing, "eigenvector orthonormality defect")


def test_lapack_failure_resolves_the_chunk_one_matrix_at_a_time(monkeypatch):
    expected = reference_rows([0.3], LAMS)
    solve = np.linalg.eigh

    for failing in FAILING:
        target = target_hamiltonian(LAMS[failing])

        def failing_eigh(a):
            a = np.asarray(a)
            if a.shape[-2:] == target.shape and np.any(np.all(a == target, axis=(-2, -1))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", failing_eigh)
            result = ising_sweep([0.3], LAMS)
        assert_only_row_failed(
            result, expected, failing, "eigensolver failed to converge: Eigenvalues did not converge"
        )


def test_density_failure_flags_only_its_row(monkeypatch):
    expected = reference_rows([0.3], LAMS)

    def negative_lowest(solve, a, hit):
        w, v = solve(a)
        w[hit, 0] = -1.0
        return w, v

    for failing in FAILING:
        # the stacked ground-level reduction is bit-identical to the scalar one;
        # its positivity verdict comes from the concurrence's eigh of it
        dec = eigh(build_ising(IsingParams(delta=0.3, lam=LAMS[failing])))
        rho = ground_level_density(dec, (2, 2, 2), (0, 2))
        with monkeypatch.context() as patch:
            patch_stacked(patch, "eigh", rho.matrix, negative_lowest)
            result = ising_sweep([0.3], LAMS)
        assert_only_row_failed(result, expected, failing, "negative eigenvalue -1.000e+00")


def test_readme_grid_makes_two_stacked_eigh_calls_per_chunk(monkeypatch):
    # a sweep that fell back to solving point by point would keep every bit,
    # so only the calls show it: per chunk, one eigh of the Hamiltonians and
    # one of the ground-level reductions, never one of a single matrix
    solve = np.linalg.eigh
    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    result = ising_sweep(parse_grid_spec("0.01:2:25"), parse_grid_spec("0:3:31"))
    assert all(r["status"] == "ok" for r in result.rows)
    chunks = [ISING_CHUNK] * 6 + [775 - 6 * ISING_CHUNK]
    assert shapes == [(n, d, d) for n in chunks for d in (8, 4)]


def test_a_readme_chunk_checks_positivity_only_on_degenerate_members(monkeypatch):
    # per chunk: column 0 of every basis is checked but for positivity, whose
    # verdict is the concurrence's eigh; only the members of degenerate ground
    # groups (the lambda = 0 column) get the eigvalsh of the full check
    deltas, lams = parse_grid_spec("0.01:2:25"), parse_grid_spec("0:3:31")
    params = [IsingParams(delta=d, lam=lam) for d in deltas for lam in lams]
    expected = []
    for start in range(0, len(params), ISING_CHUNK):
        chunk = params[start:start + ISING_CHUNK]
        sizes = eigh_stack(ising_hamiltonians(chunk)).ground_sizes
        degenerate = sizes[sizes > 1]
        expected.append((len(chunk), False))
        if degenerate.size:
            expected += [(int(degenerate.sum()), True), (degenerate.size, False)]
    check = medent.entanglement._density_stack
    calls = []

    def recording(m, psd=True):
        calls.append((len(m), psd))
        return check(m, psd)

    monkeypatch.setattr(medent.entanglement, "_density_stack", recording)
    result = ising_sweep(deltas, lams)
    assert calls == expected
    assert sum(size for size, psd in calls if psd) == 2 * 25
    assert sum(result.column("degenerate")) == 25


def test_invalid_points_leave_the_rest_of_their_chunk_stacked(monkeypatch):
    # 80 points with a negative delta, all in the first chunk: its 48 valid
    # points are still solved as one stack, and each invalid one flags its row
    deltas, lams = np.linspace(-0.5, 2.0, 9), np.linspace(-3.0, 3.0, 40)
    solve = medent.sweeps.eigh_stack
    sizes = []

    def counting(m):
        sizes.append(len(m))
        return solve(m)

    monkeypatch.setattr(medent.sweeps, "eigh_stack", counting)
    result = ising_sweep(deltas, lams)
    monkeypatch.undo()
    assert sizes == [ISING_CHUNK - 80, ISING_CHUNK, 360 - 2 * ISING_CHUNK]

    def alone(point):
        return stack_rows([IsingParams(delta=point["delta"], lam=point["lambda"])])[0]

    expected = []
    for d in deltas:
        for lam in lams:
            row = dict(zip(ISING_SWEEP_SCHEMA, (float(d), float(lam), math.nan, math.nan, math.nan, False, "ok")))
            outcome = _point_outcome(alone, row)
            if isinstance(outcome, Exception):
                row["status"] = f"error: {outcome}"
            else:
                row.update(outcome)
            expected.append(row)
    assert [bits(r) for r in result.rows] == [bits(r) for r in expected]
    assert [bits(r) for r in result.rows] == [bits(r) for r in reference_rows(deltas, lams)]
    statuses = [r["status"] for r in result.rows]
    assert statuses == ["error: delta must be non-negative"] * 80 + ["ok"] * 280


def point_path(lam, delta, j=1.0):
    """What ``optimize --model ising`` solved per point before it stacked its
    points, and what the benchmark's oracle re-solves: the outcome of
    ``ground_state_ac_concurrence(build_ising(...))``."""
    return _point_outcome(
        lambda: ground_state_ac_concurrence(build_ising(IsingParams(j, delta, lam)), (2, 2, 2))
    )


def outcome_bits(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome.value.hex(), outcome.degenerate_ground, outcome.tilde_lambdas.tobytes()


@pytest.mark.parametrize(
    "delta, lams, stacked",
    [
        # lambda = 0 (both signs) splits the chain's pattern into blocks, as
        # does a middle field that underflows to 0 (5e-324 * J / 2); 1e-300 does not
        (0.1, [0.0, -0.0, -1.3, 1e-300, 5e-324, math.sqrt(80.0), 1.7, 3.0], 8),
        # delta = 0 splits it at every lambda, and every ground level is degenerate
        (0.0, [0.0, -1.3, 1e-300, 1.7], 4),
        # the frontier, lambda near sqrt(8 / delta), where C is close to 1
        (1e-4, [math.sqrt(8e4), math.sqrt(8e4) * (1 + 1e-9), 1e4], 3),
    ],
)
def test_the_optimizer_chain_evaluator_gives_the_point_path_bits(delta, lams, stacked, monkeypatch):
    # the point path solves the chain whole, split pattern or not, so every
    # point is a row of one real stack, with the point path's bits
    solve = medent.sweeps.eigh_stack
    stacks = []
    monkeypatch.setattr(medent.sweeps, "eigh_stack", lambda m: stacks.append((m.shape, m.dtype)) or solve(m))
    got = _ising_outcomes(np.array(lams), delta, 1.0)
    assert stacks == [((stacked, 8, 8), np.float64)]
    assert [outcome_bits(o) for o in got] == [outcome_bits(point_path(lam, delta)) for lam in lams]


def test_a_failed_optimizer_chain_point_flags_only_its_row(caplog):
    # J = 2 and lambda = 1e308: the middle field lambda * J / 2 overflows, and
    # the stack fails; its other points keep their bits, and the failed one
    # gives the point path's error, which the search logs
    lams = [0.5, 1e308, 1.7, 0.0]
    got = _ising_outcomes(np.array(lams), 0.1, 2.0)
    want = [point_path(lam, 0.1, 2.0) for lam in lams]
    assert [outcome_bits(o) for o in got] == [outcome_bits(o) for o in want]
    assert str(got[1]) == "h_b contains non-finite entries"
    assert got[1].__traceback__ is None
    problem = ControlProblem(evaluate=lambda x: _ising_outcomes(x[:, 0], 0.1, 2.0), bounds=((0.5, 1e308),))
    with caplog.at_level(logging.WARNING, logger="medent.control"):
        result = optimize(problem, budget=3)
    assert [r.getMessage() for r in caplog.records] == [
        f"objective failed at {np.array([1e308])}: h_b contains non-finite entries"
    ]
    assert result.best_value.hex() == want[0].value.hex()


@pytest.mark.parametrize(
    "rows",
    [
        # one type per column: the per-column formatters
        [{"a": 0.1, "b": True, "c": 7, "d": "ok"}, {"a": math.nan, "b": False, "c": -3, "d": "error: x"}],
        # mixed and numpy types: format_value per cell
        [{"a": np.float64(-0.0), "b": np.True_, "c": np.int64(5), "d": None},
         {"a": 2, "b": 1.5, "c": False, "d": 0.25}],
    ],
)
def test_csv_cells_are_formatted_as_format_value_formats_them(rows):
    schema = ("a", "b", "c", "d")
    text = SweepResult(schema, tuple([row[c] for row in rows] for c in schema)).to_csv_text()
    lines = ["a,b,c,d"] + [",".join(format_value(v) for v in row.values()) for row in rows]
    assert text == "\n".join(lines) + "\n"


# ---------------------------------------------------------------- columnar results

def rowwise_csv_text(schema, rows) -> str:
    """The reference writer: ``csv.writer`` with ``format_value`` per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    writer.writerows([format_value(row[c]) for c in schema] for row in rows)
    return buf.getvalue()


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]
floats = st.sampled_from(EDGE_FLOATS) | st.floats()
int64s = st.integers(-(2**63), 2**63 - 1)
statuses = st.sampled_from(["", "ok", "error: a, b", 'say "x"', "line\nbreak", "cr\rhere", " padded "]) | st.text(
    alphabet=st.sampled_from(list(',"\n\r ab')), max_size=6
)
CELLS = {
    "float": floats,
    "np_float": floats.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "np_int": int64s.map(np.int64),
    "bool": st.booleans(),
    "np_bool": st.booleans().map(np.bool_),
    "status": statuses,
}
ARRAYS = {"float": (floats, np.float64), "int": (int64s, np.int64), "bool": (st.booleans(), np.bool_)}


@st.composite
def columns(draw, n):
    """A list column of one cell kind, a list column mixing kinds, or a numpy array."""
    shape = draw(st.sampled_from(["list", "mixed", "array"]))
    if shape == "array":
        cells, dtype = ARRAYS[draw(st.sampled_from(sorted(ARRAYS)))]
        return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype)
    if shape == "list":
        return draw(st.lists(CELLS[draw(st.sampled_from(sorted(CELLS)))], min_size=n, max_size=n))
    return draw(st.lists(st.one_of(*CELLS.values()), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), width=st.integers(1, 4))
def test_csv_text_matches_the_rowwise_writer(data, n, width):
    schema = tuple(f"c{k}" for k in range(width))
    cols = tuple(data.draw(columns(n)) for _ in schema)
    # the rows the columns hold: numpy scalars where a column is an array
    rows = [{c: col[i] for c, col in zip(schema, cols)} for i in range(n)]
    expected = rowwise_csv_text(schema, rows)
    assert SweepResult(schema, cols).to_csv_text() == expected
    # the same cells as list columns
    lists = tuple([row[c] for row in rows] for c in schema)
    assert SweepResult(schema, lists).to_csv_text() == expected


def distinct_float_bits(result) -> list[bytes]:
    """Per float64 column of ``result``, each distinct bit pattern in the order
    of its first cell."""
    bits = []
    for column in result.columns:
        values = np.asarray(column)
        if values.dtype == np.float64:
            bits += dict.fromkeys(struct.pack("<d", v) for v in values.tolist())
    return bits


def test_each_distinct_float_is_formatted_once_per_column(monkeypatch):
    fmt = medent.sweeps._FORMATTERS[float]
    formatted = []

    def recording(value):
        formatted.append(struct.pack("<d", value))
        return fmt(value)

    monkeypatch.setitem(medent.sweeps._FORMATTERS, float, recording)
    # the landscape's delta and lambda columns hold 25 and 31 distinct values in 775 cells
    landscape = ising_sweep(parse_grid_spec("0.01:2:25"), parse_grid_spec("0:3:31"))
    landscape.to_csv_text()
    assert formatted == distinct_float_bits(landscape)
    assert len(formatted) <= 25 + 31 + 3 * 775
    # 0.0 and -0.0 are formatted apart, in an array and in a list column
    signed = SweepResult(
        ("array", "list", "flag"),
        (np.array([0.0, -0.0, 0.0, math.nan, math.nan, -0.0]), [0.5, 0.5, -0.0, 0.0, 0.5, 0.0], [True] * 6),
    )
    formatted.clear()
    text = signed.to_csv_text()
    assert formatted == distinct_float_bits(signed) and len(formatted) == 6
    assert text == "array,list,flag\n0,0.5,1\n-0,0.5,1\n0,-0,1\nnan,0,1\nnan,0.5,1\n-0,0,1\n"


def test_rows_are_a_view_of_the_columns_with_python_values():
    result = SweepResult(
        ("x", "flag", "status"), (np.array([0.5, -0.0]), np.array([True, False]), ["ok", "error: x"])
    )
    assert result.rows == ({"x": 0.5, "flag": True, "status": "ok"}, {"x": -0.0, "flag": False, "status": "error: x"})
    assert [type(v) for row in result.rows for v in row.values()] == [float, bool, str] * 2
    assert result.rows is result.rows
    assert result.column("x") == [0.5, -0.0] and type(result.column("flag")[0]) is bool
    with pytest.raises(KeyError):
        result.column("missing")
    empty = SweepResult(("a", "b"), ([], []))
    assert (empty.rows, empty.column("a"), empty.to_csv_text()) == ((), [], "a,b\n")


# delta, lambda and J at and beyond every check IsingParams makes, and where
# delta * J / 2 or lambda * J / 2 overflows
EDGE_DELTAS = [0.0, -0.0, -5e-324, 5e-324, 1e308, math.inf, -math.inf, math.nan]
EDGE_LAMS = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("j", [1, 4, -0.0])
def test_the_validity_mask_is_ising_params(j):
    with warnings.catch_warnings():
        # an overflow is a flagged row, not a warning and a plausible number
        warnings.simplefilter("error", RuntimeWarning)
        result = ising_sweep(EDGE_DELTAS, EDGE_LAMS, j_coupling=j)
    points = [(d, lam) for d in EDGE_DELTAS for lam in EDGE_LAMS]
    statuses = result.column("status")
    for (delta, lam), status in zip(points, statuses):
        params = _point_outcome(IsingParams, j, delta, lam)
        built = params if isinstance(params, Exception) else _point_outcome(build_ising, params)
        if isinstance(built, Exception):
            assert status == f"error: {built}"
    assert [bits(r) for r in result.rows] == [bits(r) for r in reference_rows(EDGE_DELTAS, EDGE_LAMS, j)]
    # each kind of failure is reached: an invalid parameter, and for J = 4 an
    # overflow of the outer and of the middle field
    assert "error: delta must be non-negative" in statuses
    assert "error: lam must be finite, got nan" in statuses
    assert ("error: h_ab contains non-finite entries" in statuses) == (j == 4)
    assert ("error: h_b contains non-finite entries" in statuses) == (j == 4)
    assert "ok" in statuses
    # for J = 1 the outer fields delta * J / 2 = 5e307 are finite, but the
    # spectrum's range is not, and as the degeneracy tolerance it would merge
    # the whole spectrum into one ground level
    overflowed = [point for point, status in zip(points, statuses) if status.startswith("error: spectral range")]
    assert overflowed == ([(1e308, lam) for lam in (0.0, -0.0, 1e308, -1e308)] if j == 1 else [])
    assert statuses[points.index((1e308, 0.0))] == (
        "error: spectral range is not finite: -1.000e+308 to 1.000e+308" if j == 1
        else "error: h_ab contains non-finite entries" if j == 4 else "ok"
    )


def count_ising_params(monkeypatch) -> list:
    """Record each IsingParams.__post_init__ call."""
    calls = []
    check = IsingParams.__post_init__

    def counting(self):
        calls.append((self.delta, self.lam))
        check(self)

    monkeypatch.setattr(IsingParams, "__post_init__", counting)
    return calls


def test_the_chain_sweep_builds_no_point_object_and_no_row_dict(monkeypatch):
    calls = count_ising_params(monkeypatch)
    result = ising_sweep(parse_grid_spec("0.01:2:25"), parse_grid_spec("0:3:31"))
    # the sweep-level check of J, and no point's
    assert calls == [(0.0, 0.0)]
    result.to_csv_text()
    result.column("status")
    assert "rows" not in vars(result)
    assert len(result.rows) == 775 and "rows" in vars(result)


def test_each_invalid_chain_point_builds_one_ising_params(monkeypatch):
    calls = count_ising_params(monkeypatch)
    deltas, lams = [0.5, -0.1, math.nan, 1.0], [0.0, math.inf, 1.0]
    result = ising_sweep(deltas, lams)
    invalid = [(d, lam) for d in deltas for lam in lams if not (d >= 0 and math.isfinite(d) and math.isfinite(lam))]
    assert len(invalid) == 8
    assert len(calls) == 1 + len(invalid)
    assert [repr(point) for point in calls[1:]] == [repr(point) for point in invalid]
    assert sum(s != "ok" for s in result.column("status")) == len(invalid)


# ---------------------------------------------------------------- one column path

# the array dtype of each COLUMN_TYPES type
DTYPES = {float: np.float64, bool: np.bool_, int: np.int64, str: np.object_}


def assert_typed_columns(result):
    for name, col in zip(result.schema, result.columns):
        assert isinstance(col, np.ndarray) and col.dtype == DTYPES[COLUMN_TYPES[name]], name


def test_every_sweep_fills_typed_arrays_and_no_row_dict(tmp_path, monkeypatch, capsys):
    assert_typed_columns(ising_sweep([-0.1, 0.3], [0.0, 1.0]))
    cavity = dicke_sweep(DickeConfig(variant="h1", kappa=0.0, n_max=4), [0.0, 0.3], [0.5, 1.0])
    assert_typed_columns(cavity)
    cavity.to_csv_text()
    assert "rows" not in vars(cavity)
    # cmd_sweep's result, the variants' columns joined
    written = []
    write = SweepResult.write_csv

    def recording(self, path):
        written.append(self)
        write(self, path)

    monkeypatch.setattr(SweepResult, "write_csv", recording)
    argv = ["sweep", "--model", "dicke", "--variants", "h1,h2", "--kappa-grid", "0:0.3:2", "--nmax", "4"]
    assert main([*argv, "--out", str(tmp_path / "cavity.csv")]) == 0
    capsys.readouterr()
    (joined,) = written
    assert_typed_columns(joined)
    assert joined.column("variant") == ["h1", "h1", "h2", "h2"]


def test_dicke_sweep_propagates_programming_errors(monkeypatch):
    # a bug at the second kappa stops the sweep before the third is solved
    solve = medent.dicke.dicke_ground_point
    solved = []

    def buggy(cfg, **kwargs):
        solved.append(cfg.kappa)
        if len(solved) == 2:
            raise TypeError("bug in the evaluator")
        return solve(cfg, **kwargs)

    monkeypatch.setattr(medent.dicke, "dicke_ground_point", buggy)
    with pytest.raises(TypeError, match="bug in the evaluator"):
        dicke_sweep(DickeConfig(variant="h1", kappa=0.0, n_max=4), [0.1, 0.2, 0.3], [1.0])
    assert solved == [0.1, 0.2]


def test_dicke_sweep_writes_the_rows_its_points_give(monkeypatch):
    # an ok, an error and a fock_unconverged row, against the rows built from
    # dicke_ground_point one point at a time
    cfg = DickeConfig(variant="h2", kappa=0.0, n_max=1)
    kappas = [0.0, 0.6, 1.2]
    solve = medent.dicke.dicke_ground_point

    def failing(c, **kwargs):
        if c.kappa == 0.6:
            raise NumericalError("planted failure")
        return solve(c, **kwargs)

    rows = []
    for kappa in kappas:
        row = dict(zip(DICKE_SWEEP_SCHEMA, ("h2", kappa, 1.0, 1, math.nan, math.nan, math.nan, False, "ok")))
        point = _point_outcome(failing, DickeConfig(variant="h2", kappa=kappa, n_max=1), n_max_limit=2)
        if isinstance(point, Exception):
            row["status"] = f"error: {point}"
        else:
            row.update(
                nmax_used=point.nmax_used,
                ground_energy=point.ground_energy,
                gap=point.gap,
                concurrence=point.concurrence.value,
                degenerate=point.concurrence.degenerate_ground,
                status="ok" if point.converged else "fock_unconverged",
            )
        rows.append(row)
    assert [row["status"] for row in rows] == ["ok", "error: planted failure", "fock_unconverged"]
    monkeypatch.setattr(medent.dicke, "dicke_ground_point", failing)
    result = dicke_sweep(cfg, kappas, [1.0], n_max_limit=2)
    assert result.to_csv_text() == rowwise_csv_text(DICKE_SWEEP_SCHEMA, rows)


def test_both_sweeps_round_trip_through_csv(tmp_path):
    cavity = DickeConfig(variant="h2", kappa=0.0, n_max=1)
    for result in (
        ising_sweep([-0.1, 0.3], [0.0, math.nan, 1.0]),
        dicke_sweep(cavity, [0.0, 0.4, 1.2], [0.5, 1.0], n_max_limit=2),
    ):
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        back = SweepResult.read_csv(path)
        assert back.schema == result.schema
        assert [bits(r) for r in back.rows] == [bits(r) for r in result.rows]
        assert back.to_csv_text() == path.read_text()


@pytest.mark.parametrize("line, fields", [("1,2,3", 3), ("4", 1), ("", 0)])
def test_read_csv_rejects_a_line_whose_field_count_is_not_the_header_s(line, fields, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(f"a,b\n1,2\n{line}\n4,5\n")
    with pytest.raises(ValueError, match=f"line 3 has {fields} fields, the header 2$"):
        SweepResult.read_csv(path)


@pytest.mark.parametrize("cell", ["True", "yes", "2", "", " 1", "1.0"])
def test_read_csv_rejects_a_bool_cell_other_than_0_or_1(cell, tmp_path):
    path = tmp_path / "flags.csv"
    path.write_text(f'delta,degenerate\n0.1,1\n0.2,0\n0.3,"{cell}"\n')
    with pytest.raises(ValueError) as raised:
        SweepResult.read_csv(path)
    assert str(raised.value) == f"{path}: line 4: degenerate cell {cell!r} is not 0 or 1"


def test_read_csv_names_the_line_and_column_of_an_unreadable_number(tmp_path):
    path = tmp_path / "numbers.csv"
    path.write_text("delta,nmax_used\n0.1,3\n0.2,x\n")
    with pytest.raises(ValueError, match=r"line 3: nmax_used cell 'x' is not a valid int$"):
        SweepResult.read_csv(path)


def test_read_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError) as raised:
        SweepResult.read_csv(path)
    assert str(raised.value) == f"{path}: empty file, no header line"


NON_FINITE_SPECS = {
    "0:inf:3": "grid bounds must be finite, got 0.0 and inf",
    "nan:1:2": "grid bounds must be finite, got nan and 1.0",
    "-inf:0:2": "grid bounds must be finite, got -inf and 0.0",
    "-1e308:1e308:3": "grid width 1e+308 - -1e+308 is not finite",
}


@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_a_grid_spec_with_a_non_finite_bound_or_width_is_rejected(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(NON_FINITE_SPECS[spec])}$"):
            parse_grid_spec(spec)
