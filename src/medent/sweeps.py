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
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


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
        for row in self.rows:
            writer.writerow([format_value(row[c]) for c in self.schema])
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


def grid_sweep(schema, points, evaluate) -> SweepResult:
    """One row per grid point, in the order ``points`` yields them.

    Each point is a dict of the row's leading columns; ``evaluate(point)`` is
    called once per point, in that order, and returns the remaining columns
    (``status`` defaults to "ok").  A point whose evaluation raises one of
    ``POINT_ERRORS`` keeps NaN results and ``degenerate`` False, and its status
    reads "error: <message>".
    """
    unevaluated = {c: _UNEVALUATED.get(COLUMN_TYPES.get(c)) for c in schema}
    rows = []
    for point in points:
        row = dict(unevaluated)
        row.update(point, status="ok")
        try:
            row.update(evaluate(point))
        except POINT_ERRORS as exc:
            row["status"] = f"error: {exc}"
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


def _ising_chunk(points: list[dict], j_coupling: float) -> list:
    """Per point, its result columns or the POINT_ERRORS exception it failed
    with, evaluated as stacks: one Hamiltonian assembly, one eigh, one
    ground-level reduction and one concurrence for the whole chunk."""
    outcomes, params = [], []
    for point in points:
        try:
            params.append(IsingParams(j_coupling=j_coupling, delta=point["delta"], lam=point["lambda"]))
            outcomes.append(None)
        except ValueError as exc:
            outcomes.append(exc)
    if not params:
        return outcomes
    h, build_errors = ising_hamiltonians(params)
    dec = eigh_stack(h)
    rho, rho_errors = ground_level_density_stack(dec.eigenvectors, dec.ground_sizes, (2, 2, 2), (0, 2))
    conc, _, conc_errors = concurrence_stack(rho)
    # per matrix, the failure of the earliest stage
    stages = zip(build_errors, dec.errors, rho_errors, conc_errors)
    errors = [next((e for e in errs if e is not None), None) for errs in stages]
    valid = [slot for slot, outcome in enumerate(outcomes) if outcome is None]
    for i, slot in enumerate(valid):
        outcomes[slot] = errors[i] or {
            "ground_energy": float(dec.eigenvalues[i, 0]),
            "gap": float(dec.gaps[i]),
            "concurrence": float(conc[i]),
            "degenerate": bool(dec.ground_sizes[i] > 1),
        }
    return outcomes


def ising_sweep(delta_grid, lambda_grid, j_coupling: float = 1.0) -> SweepResult:
    """Ground-state sweep of the chain over (delta, lambda), delta outermost.

    The grid is solved ISING_CHUNK points at a time as stacks; a point that
    fails a parameter or numerical check flags only its own row.
    """
    deltas = [float(d) for d in delta_grid]
    lams = [float(x) for x in lambda_grid]
    if not deltas or not lams:
        raise ValueError("grids must be non-empty")

    points = [{"delta": d, "lambda": lam} for d in deltas for lam in lams]
    outcomes = iter([
        outcome
        for start in range(0, len(points), ISING_CHUNK)
        for outcome in _ising_chunk(points[start:start + ISING_CHUNK], j_coupling)
    ])

    def evaluate(point: dict) -> dict:
        # grid_sweep asks for the points in order, so the next outcome is this point's
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return grid_sweep(ISING_SWEEP_SCHEMA, points, evaluate)
