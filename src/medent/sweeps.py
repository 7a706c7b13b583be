"""Sweep result container, grid helpers, and deterministic CSV round-tripping.

Numbers are serialized with 17 significant digits so that a parsed file
reproduces the in-memory values bit-exactly; booleans are serialized as 0/1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_stack, ground_level_density_stack
from .linalg import NumericalError, eigh_stack
from .tripartite import IsingParams, ising_hamiltonians

# column name -> python type, shared by every sweep/report schema
COLUMN_TYPES: dict[str, type] = {
    "delta": float,
    "lambda": float,
    "ground_energy": float,
    "gap": float,
    "concurrence": float,
    "degenerate": bool,
    "status": str,
    "variant": str,
    "kappa": float,
    "lam_tilde": float,
    "nmax_used": int,
    "trial": int,
    "symmetric": bool,
    "counterexamples": int,
    "family_checks": int,
    "family_ok": bool,
    "evaluation": int,
    "value": float,
    "control_0": float,
}


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


# exact value type -> the text format_value gives a value of that type
_FORMATTERS = {bool: lambda v: "1" if v else "0", int: str, float: "{:.17g}".format, str: str}


def _column_formatter(values: list):
    """The formatter of a column whose values all have one type in _FORMATTERS,
    else format_value."""
    kinds = set(map(type, values))
    return _FORMATTERS.get(kinds.pop(), format_value) if len(kinds) == 1 else format_value


def parse_value(column: str, text: str):
    kind = COLUMN_TYPES.get(column, str)
    if kind is bool:
        return text == "1"
    return kind(text)


@dataclass(frozen=True)
class SweepResult:
    """Ordered column names plus one record per grid point, in grid order."""

    schema: tuple[str, ...]
    rows: tuple[dict, ...]

    def __post_init__(self):
        for row in self.rows:
            if tuple(row.keys()) != tuple(self.schema):
                raise ValueError(
                    f"row keys {tuple(row.keys())} do not match schema {self.schema}"
                )

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.schema)
        columns = [self.column(c) for c in self.schema]
        writer.writerows(zip(*(map(_column_formatter(col), col) for col in columns)))
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def read_csv(cls, path) -> "SweepResult":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            rows = tuple(
                {c: parse_value(c, cell) for c, cell in zip(header, line)}
                for line in reader
            )
        return cls(schema=header, rows=rows)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def linspace_grid(start: float, stop: float, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if start > stop:
        raise ValueError("grid start must be <= stop")
    return np.linspace(start, stop, count)


def parse_grid_spec(spec: str) -> np.ndarray:
    """Parse a "start:stop:count" axis specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} is not of the form start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"grid spec {spec!r}: {exc}") from None
    return linspace_grid(start, stop, count)


# what a failed point may raise: numerical contract failures, invalid
# dimensions or density matrices (ValueError), and LAPACK failures raised by
# numpy directly; anything else is a programming error and aborts the sweep
POINT_ERRORS = (NumericalError, ValueError, np.linalg.LinAlgError)

# result columns of a point whose evaluation failed, by column type
_UNEVALUATED = {float: float("nan"), bool: False}


def _point_outcome(fn, *args):
    """``fn(*args)``, or the POINT_ERRORS exception that fails the point.

    The exception loses its traceback, which would keep the failed solve's
    arrays alive; any other exception is a programming error and propagates.
    """
    try:
        return fn(*args)
    except POINT_ERRORS as exc:
        return exc.with_traceback(None)


def grid_sweep(schema, points, outcomes) -> SweepResult:
    """One row per grid point, in the order ``points`` yields them.

    Each point is a dict of the row's leading columns, and ``outcomes`` yields
    that point's outcome, in the same order: a dict of the remaining columns
    (``status`` defaults to "ok"), or the exception that failed the point.  A
    failed point keeps NaN results and ``degenerate`` False, and its status
    reads "error: <message>".  Each outcome is drawn only when its point's row
    is built, so a lazy producer stops at the first exception it raises; a
    producer with more or fewer outcomes than points raises ValueError.
    """
    unevaluated = {c: _UNEVALUATED.get(COLUMN_TYPES.get(c)) for c in schema}
    rows = []
    for point, outcome in zip(points, outcomes, strict=True):
        row = dict(unevaluated)
        row.update(point, status="ok")
        if isinstance(outcome, Exception):
            row["status"] = f"error: {outcome}"
        else:
            row.update(outcome)
        rows.append(row)
    return SweepResult(schema=tuple(schema), rows=tuple(rows))


ISING_SWEEP_SCHEMA = (
    "delta",
    "lambda",
    "ground_energy",
    "gap",
    "concurrence",
    "degenerate",
    "status",
)


# grid points per stacked solve of the chain sweep
ISING_CHUNK = 128


def _ising_stack(params: list[IsingParams]) -> list[dict]:
    """The result columns of each point, evaluated as stacks: one Hamiltonian
    assembly, one eigh, one ground-level reduction and one concurrence.

    Raises the first failure of any point.
    """
    dec = eigh_stack(ising_hamiltonians(params))
    rho = ground_level_density_stack(dec.eigenvectors, dec.ground_sizes, (2, 2, 2), (0, 2))
    conc, _ = concurrence_stack(rho)
    columns = zip(
        dec.eigenvalues[:, 0].tolist(), dec.gaps.tolist(), conc.tolist(), (dec.ground_sizes > 1).tolist()
    )
    return [
        {"ground_energy": e, "gap": g, "concurrence": c, "degenerate": deg}
        for e, g, c, deg in columns
    ]


def _ising_chunk(points: list[dict], j_coupling: float) -> list:
    """Each point's result columns, or the POINT_ERRORS exception that fails it.

    Every point's IsingParams is built first, so an invalid parameter fails
    only its own point.  The valid points are solved as one stack, and one at
    a time only if that stack fails a numerical check.
    """
    outcomes = [_point_outcome(IsingParams, j_coupling, p["delta"], p["lambda"]) for p in points]
    params = [o for o in outcomes if isinstance(o, IsingParams)]
    try:
        solved = iter(_ising_stack(params) if params else ())
    except POINT_ERRORS:
        solved = (_point_outcome(lambda q: _ising_stack([q])[0], p) for p in params)
    return [next(solved) if isinstance(o, IsingParams) else o for o in outcomes]


def ising_sweep(delta_grid, lambda_grid, j_coupling: float = 1.0) -> SweepResult:
    """Ground-state sweep of the chain over (delta, lambda), delta outermost.

    The grid is solved ISING_CHUNK points at a time as stacks.  A point with an
    invalid parameter is left out of its chunk's stack, and a chunk whose stack
    fails a numerical check is solved again one point at a time, so a failed
    point flags only its own row.
    """
    deltas = [float(d) for d in delta_grid]
    lams = [float(x) for x in lambda_grid]
    if not deltas or not lams:
        raise ValueError("grids must be non-empty")
    # the coupling is the whole sweep's: a non-finite one fails it before any point
    IsingParams(j_coupling)

    points = [{"delta": d, "lambda": lam} for d in deltas for lam in lams]
    outcomes = (
        outcome
        for start in range(0, len(points), ISING_CHUNK)
        for outcome in _ising_chunk(points[start:start + ISING_CHUNK], j_coupling)
    )
    return grid_sweep(ISING_SWEEP_SCHEMA, points, outcomes)
