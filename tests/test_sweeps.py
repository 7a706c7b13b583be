import math
import struct

import numpy as np
import pytest

from medent.entanglement import (
    concurrence,
    ground_level_concurrence,
    ground_level_density,
    ground_state_ac_concurrence,
)
from medent.linalg import DensityMatrix, eigh, reduced_density
from medent.sweeps import (
    ISING_CHUNK,
    ISING_SWEEP_SCHEMA,
    POINT_ERRORS,
    SweepResult,
    _ising_chunk,
    _ising_stack,
    _point_outcome,
    format_value,
    grid_sweep,
    ising_sweep,
    linspace_grid,
    parse_grid_spec,
)
import medent.sweeps
from medent.tripartite import IsingParams, build_ising


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
    rows = ({"degenerate": np.True_, "family_ok": True}, {"degenerate": np.False_, "family_ok": np.True_})
    path = tmp_path / "flags.csv"
    SweepResult(schema=("degenerate", "family_ok"), rows=rows).write_csv(path)
    assert path.read_text() == "degenerate,family_ok\n1,1\n0,1\n"
    back = SweepResult.read_csv(path)
    assert back.rows == ({"degenerate": True, "family_ok": True}, {"degenerate": False, "family_ok": True})


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
    # a lazy producer runs each point as its row is built: a bug at the second
    # point stops the sweep before the third is drawn
    points = [{"delta": 0.1 * k, "lambda": 1.0} for k in range(3)]
    drawn = []

    def evaluate(k):
        drawn.append(k)
        if k == 1:
            raise TypeError("bug in the evaluator")
        return {}

    with pytest.raises(TypeError, match="bug in the evaluator"):
        grid_sweep(ISING_SWEEP_SCHEMA, points, (_point_outcome(evaluate, k) for k in range(3)))
    assert drawn == [0, 1]


@pytest.mark.parametrize("count", [1, 3])
def test_grid_sweep_rejects_a_producer_of_the_wrong_length(count):
    points = [{"delta": 0.1, "lambda": 1.0}, {"delta": 0.2, "lambda": 1.0}]
    with pytest.raises(ValueError, match="zip"):
        grid_sweep(ISING_SWEEP_SCHEMA, points, iter([{}] * count))


def test_failed_chain_points_keep_no_traceback():
    # an invalid parameter fails IsingParams; a field that overflows to inf
    # (lam * lambda0, lambda0 = J) fails the stack, so the chunk is solved
    # again one point at a time
    invalid, non_finite, solved = _ising_chunk(
        [{"delta": -0.1, "lambda": 1.0}, {"delta": 0.3, "lambda": 1.7e308}, {"delta": 0.3, "lambda": 1.0}],
        2.0,
    )
    assert str(invalid) == "delta must be non-negative"
    assert str(non_finite) == "h_b contains non-finite entries"
    assert invalid.__traceback__ is None and non_finite.__traceback__ is None
    assert solved == _ising_stack([IsingParams(j_coupling=2.0, delta=0.3, lam=1.0)])[0]


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

    monkeypatch.setattr(medent.sweeps, "_ising_chunk", no_point)
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
        return _ising_stack([IsingParams(delta=point["delta"], lam=point["lambda"])])[0]

    points = [{"delta": float(d), "lambda": float(lam)} for d in deltas for lam in lams]
    expected = [grid_sweep(ISING_SWEEP_SCHEMA, [p], [_point_outcome(alone, p)]).rows[0] for p in points]
    assert [bits(r) for r in result.rows] == [bits(r) for r in expected]
    assert [bits(r) for r in result.rows] == [bits(r) for r in reference_rows(deltas, lams)]
    statuses = [r["status"] for r in result.rows]
    assert statuses == ["error: delta must be non-negative"] * 80 + ["ok"] * 280


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
    text = SweepResult(schema=("a", "b", "c", "d"), rows=tuple(rows)).to_csv_text()
    lines = ["a,b,c,d"] + [",".join(format_value(v) for v in row.values()) for row in rows]
    assert text == "\n".join(lines) + "\n"
