"""Sweep result container, grid helpers, and deterministic CSV round-tripping.

Numbers are serialized with 17 significant digits so that a parsed file
reproduces the in-memory values bit-exactly; booleans are serialized as 0/1.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entanglement import (
    ConcurrenceResult,
    concurrence_stack,
    ground_level_density_stack,
    ground_state_ac_concurrence,
)
from .linalg import NumericalError, _readonly, eigh_stack
from .tripartite import IsingParams, _ising_matrices, build_ising

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
_FORMATTERS = {bool: lambda v: "1" if v else "0", int: str, float: "{:.17g}".format}


def _float_fields(col: np.ndarray) -> list[str]:
    """The text of each value of a float64 array, each distinct bit pattern
    formatted once (0.0 and -0.0 apart, as a float-keyed cache would not keep
    them)."""
    keys = col.view(np.int64).tolist()
    values = dict(zip(keys, col.tolist()))
    text = dict(zip(values, map(_FORMATTERS[float], values.values())))
    return list(map(text.__getitem__, keys))


def _csv_field(text: str) -> str:
    """``text`` quoted as ``csv.writer`` quotes a field of a row of several
    (alone in its row, an empty field is written "")."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _column_fields(col) -> list[str]:
    """The CSV fields of one column, as ``format_value`` formats its values
    and ``csv.writer`` quotes them: each distinct float formatted once and
    each distinct text quoted once."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return _float_fields(col)
    values = col.tolist() if isinstance(col, np.ndarray) else list(col)
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return _float_fields(np.array(values))
    if kind in (bool, int):
        # a formatted number never needs quoting
        return list(map(_FORMATTERS[kind], values))
    # a text column, or the format_value texts of a column of other or mixed types
    texts = values if kind is str else list(map(format_value, values))
    quoted = {text: _csv_field(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def parse_value(column: str, text: str):
    """The value of a ``column`` cell that reads ``text``; a cell its column's
    type cannot read, a bool cell other than 0 or 1 included, raises."""
    kind = COLUMN_TYPES.get(column, str)
    if kind is bool:
        if text not in ("0", "1"):
            raise ValueError(f"{column} cell {text!r} is not 0 or 1")
        return text == "1"
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{column} cell {text!r} is not a valid {kind.__name__}") from None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Ordered column names plus one value sequence per column, in grid order.

    A column is a numpy array or a sequence of Python values.  ``rows``, one
    dict per grid point with the schema's keys in order, is derived from the
    columns when first read.
    """

    schema: tuple[str, ...]
    columns: tuple

    def __post_init__(self):
        if len(self.columns) != len(self.schema):
            raise ValueError(f"{len(self.columns)} columns do not match schema {self.schema}")
        if len({len(col) for col in self.columns}) > 1:
            raise ValueError(f"columns of unequal lengths {[len(col) for col in self.columns]}")

    @cached_property
    def rows(self) -> tuple[dict, ...]:
        columns = [self.column(c) for c in self.schema]
        return tuple(dict(zip(self.schema, values)) for values in zip(*columns))

    def to_csv_text(self) -> str:
        """The header as ``csv.writer`` writes it, then one line per row of
        its columns' fields (``_column_fields``) joined by commas."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(self.schema)
        lines = list(map(",".join, zip(*map(_column_fields, self.columns))))
        if len(self.schema) == 1:
            # as csv.writer writes a row of one empty field, so it reads as a row
            lines = [line or '""' for line in lines]
        lines.append("")
        return buf.getvalue() + "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def read_csv(cls, path) -> "SweepResult":
        """The result a ``write_csv`` file holds, each column parsed from the
        file's lines.  An empty file, a line whose field count is not the
        header's, and a cell its column cannot read (``parse_value``) raise a
        ValueError naming the file."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, no header line")
            header = tuple(header)
            columns = tuple([] for _ in header)
            for line in reader:
                if len(line) != len(header):
                    raise ValueError(
                        f"{path}: line {reader.line_num} has {len(line)} fields, "
                        f"the header {len(header)}"
                    )
                try:
                    for column, name, text in zip(columns, header, line):
                        column.append(parse_value(name, text))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        return cls(header, columns)

    def column(self, name: str) -> list:
        """The values of column ``name`` as a list of Python values for an
        array column, else as the values stored."""
        col = dict(zip(self.schema, self.columns))[name]
        return col.tolist() if isinstance(col, np.ndarray) else list(col)


def linspace_grid(start: float, stop: float, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("grid count must be >= 1")
    start, stop = float(start), float(stop)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid bounds must be finite, got {start} and {stop}")
    if start > stop:
        raise ValueError("grid start must be <= stop")
    # in Python floats, so an overflow is inf, not a numpy warning
    if not math.isfinite(stop - start):
        raise ValueError(f"grid width {stop} - {start} is not finite")
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


def _point_outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the POINT_ERRORS exception that fails the point.

    The exception loses its traceback, which would keep the failed solve's
    arrays alive; any other exception is a programming error and propagates.
    """
    try:
        return fn(*args, **kwargs)
    except POINT_ERRORS as exc:
        return exc.with_traceback(None)


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


def _ising_stack(coefficients: np.ndarray, dtype=np.complex128) -> tuple[np.ndarray, ...]:
    """The ground energy, gap, concurrence, degenerate flag and tilde lambdas
    of each chain point of (n, 3) coefficient rows (``tripartite._ising_matrices``),
    evaluated as stacks: one Hamiltonian assembly and one eigh, in ``dtype``,
    then one ground-level reduction and one concurrence, in complex arithmetic.

    Raises the first failure of any point.
    """
    dec = eigh_stack(_ising_matrices(coefficients, dtype))
    vectors = dec.eigenvectors.astype(np.complex128, copy=False)
    rho = ground_level_density_stack(vectors, dec.ground_sizes, (2, 2, 2), (0, 2))
    conc, lams = concurrence_stack(rho)
    return dec.eigenvalues[:, 0], dec.gaps, conc, dec.ground_sizes > 1, lams


def _ising_outcomes(lams, delta: float, j_coupling: float) -> list:
    """Per middle field of ``lams``, ``ground_state_ac_concurrence`` of
    ``build_ising(IsingParams(j_coupling, delta, lam))``, bit for bit, or the
    POINT_ERRORS exception that fails it.

    The point path solves the chain whole in real arithmetic, so every point
    is one row of a float64 ``_ising_stack``, with the same bits.  Only the
    points of a stack that fails a check go through the point path, so a
    failure flags only its own row, with the point path's error text.
    """
    lams = np.asarray(lams, dtype=float)

    def point(lam):
        h = build_ising(IsingParams(j_coupling=j_coupling, delta=delta, lam=lam))
        return ground_state_ac_concurrence(h, (2, 2, 2))

    # the rows _ising_coefficients gives
    with np.errstate(over="ignore", invalid="ignore"):
        fields = np.broadcast_arrays(delta * j_coupling / 2, float(j_coupling), lams * j_coupling / 2)
    try:
        _, _, values, degenerate, tilde = _ising_stack(np.column_stack(fields), np.float64)
    except POINT_ERRORS:
        return [_point_outcome(point, lam) for lam in lams.tolist()]
    return [
        ConcurrenceResult(value, _readonly(row), degenerate_ground=deg)
        for value, deg, row in zip(values.tolist(), degenerate.tolist(), tilde)
    ]


def ising_sweep(delta_grid, lambda_grid, j_coupling: float = 1.0) -> SweepResult:
    """Ground-state sweep of the chain over (delta, lambda), delta outermost.

    The grid is solved ISING_CHUNK points at a time as stacks.  A point with an
    invalid parameter is left out of its chunk's stack, and a chunk whose stack
    fails a numerical check is solved again one point at a time, so a failed
    point flags only its own row.  The results are kept as columns, from the
    grid to the CSV text.
    """
    deltas = [float(d) for d in delta_grid]
    lams = [float(x) for x in lambda_grid]
    if not deltas or not lams:
        raise ValueError("grids must be non-empty")
    # the coupling is the whole sweep's: a non-finite one fails it before any point
    IsingParams(j_coupling)

    delta = np.repeat(deltas, len(lams))
    lam = np.tile(lams, len(deltas))
    n = len(delta)
    # the checks IsingParams makes of delta and lam, NaN failing each; only an
    # invalid point builds one, for its error text
    valid = np.isfinite(lam) & (delta >= 0) & (delta < np.inf)
    status = np.full(n, "ok", dtype=object)
    for i in np.flatnonzero(~valid):
        invalid = _point_outcome(IsingParams, j_coupling, deltas[i // len(lams)], lams[i % len(lams)])
        status[i] = f"error: {invalid}"
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.column_stack(
            (delta * j_coupling / 2, np.full(n, j_coupling, dtype=float), lam * j_coupling / 2)
        )

    results = (np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=bool))
    for start in range(0, n, ISING_CHUNK):
        stacked = start + np.flatnonzero(valid[start:start + ISING_CHUNK])
        if not len(stacked):
            continue
        try:
            solved = [(stacked, _ising_stack(coefficients[stacked]))]
        except POINT_ERRORS:
            points = np.split(stacked, len(stacked))
            solved = [(at, _point_outcome(_ising_stack, coefficients[at])) for at in points]
        for at, outcome in solved:
            if isinstance(outcome, Exception):
                status[at] = f"error: {outcome}"
                continue
            for column, values in zip(results, outcome[:4]):
                column[at] = values
    return SweepResult(ISING_SWEEP_SCHEMA, (delta, lam, *results, status))
