"""Seeded operation generators and output oracles for the four workloads.

Every operation is one ``medent.cli.main(argv)`` call.  Its ``check`` reads
what the call printed and wrote, raises ``OracleError`` if anything is wrong,
and returns the number of work units the call completed.  The oracles need no
stored reference: grid echoes, value ranges, the closed-form zero-field
spectrum, row counts and re-evaluation of the optimizer's reported best.

Why these workloads (``perturbation`` is unmeasured because no CLI command
reaches it):

- chain_sweep: README-size 25x31 Ising grids.  8x8 problems where assembly and
  wrapper overhead are the whole cost; ``dicke`` and ``theorem`` stay idle.
- cavity_sweep: three-variant Dicke sweeps whose kappa grids straddle the h1
  crossings at 1/sqrt(2) and 1/(sqrt(6)-sqrt(2)).  LAPACK on dims 164-324 and
  the Fock-cutoff doubling dominate; ``tripartite`` stays idle.
- theorem_fuzz: random unstructured Hamiltonians at mediator dims 2 and 3;
  kron-heavy and analyses every eigenstate, not only the ground level.
- control_search: strictly sequential optimizer evaluations on the chain and
  the h2 cavity model, so batching gains nothing and per-call overhead shows.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from medent.dicke import DickeConfig, dicke_mediator_form
from medent.entanglement import ground_state_ac_concurrence
from medent.tripartite import IsingParams, analytic_ising_spectrum, build_ising

H1_CROSSINGS = (1 / sqrt(2), 1 / (sqrt(6) - sqrt(2)))
ENERGY_RTOL = 1e-10

# sha256 of the CSVs the README's sweep/theorem commands write, recorded at the
# commit that introduced this benchmark; the gate reruns them in every run.
README_COMMANDS = {
    "landscape.csv": (
        ["sweep", "--model", "ising", "--delta-grid", "0.01:2:25", "--lambda-grid", "0:3:31"],
        0,
        "612a3a3e117d61349b73dc1a7ce29f55d92734f2d5f56125559d4e78fabedab9",
    ),
    "cavity.csv": (
        ["sweep", "--model", "dicke", "--variants", "h1,h2,h3", "--kappa-grid", "0:1.2:25"],
        0,
        "ce654a89441f9c85b166463b154dd247636881de9ab54dcd613c7ed6dab9e090",
    ),
    "trials.csv": (
        ["theorem", "--trials", "200", "--db-dim", "2", "--seed", "42"],
        4,
        "cf2f0c4e78102137ca93844f1f96d14342aa5edd4b56249299cf041c45acd1ba",
    ),
}


class OracleError(Exception):
    """An operation's exit code or output failed a check."""


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, its output-file path and its oracle."""

    kind: str
    argv: list[str]
    out: Path | None
    check: Callable[[int, str], int]


def _num(x: float) -> str:
    return f"{x:.17g}"


def _read_rows(path: Path, schema: tuple[str, ...]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != schema:
            raise OracleError(f"{path.name}: header {header} != {schema}")
        return [dict(zip(header, line)) for line in reader]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _check_rows(rows: list[dict], expected: int) -> None:
    _expect(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    bad = [r["status"] for r in rows if r["status"] != "ok"]
    _expect(not bad, f"{len(bad)} rows not ok, first: {bad[:1]}")
    conc = np.array([float(r["concurrence"]) for r in rows])
    _expect(bool(np.all((conc >= 0) & (conc <= 1))), "concurrence outside [0, 1]")


def _grid_echo(rows: list[dict], column: str, values: list[float]) -> None:
    got = sorted({float(r[column]) for r in rows})
    _expect(got == sorted(set(values)), f"{column} column does not echo the requested grid")


def _stdout_value(stdout: str, label: str) -> str:
    m = re.search(rf"^{re.escape(label)}: (\S+)$", stdout, re.M)
    if m is None:
        raise OracleError(f"no {label!r} line in output")
    return m.group(1)


CHAIN_SCHEMA = ("delta", "lambda", "ground_energy", "gap", "concurrence", "degenerate", "status")
CAVITY_SCHEMA = (
    "variant", "kappa", "lam_tilde", "nmax_used", "ground_energy", "gap", "concurrence",
    "degenerate", "status",
)
TRIAL_SCHEMA = ("trial", "symmetric", "counterexamples", "family_checks", "family_ok")


def chain_sweep_ops(rng: np.random.Generator, work: Path) -> Iterator[Op]:
    """README-size delta x lambda grids; delta = 0 and lambda = 0 stay in."""
    out = work / "chain.csv"
    while True:
        d_stop, l_stop = rng.uniform(1.8, 2.2), rng.uniform(2.7, 3.3)
        deltas = np.linspace(0.0, d_stop, 25).tolist()
        lams = np.linspace(0.0, l_stop, 31).tolist()

        def check(rc: int, stdout: str, deltas=deltas, lams=lams) -> int:
            _expect(rc == 0, f"exit code {rc}")
            rows = _read_rows(out, CHAIN_SCHEMA)
            _check_rows(rows, len(deltas) * len(lams))
            _grid_echo(rows, "delta", deltas)
            _grid_echo(rows, "lambda", lams)
            for r in rows:
                if float(r["delta"]) == 0.0:
                    lam = float(r["lambda"])
                    exact = float(analytic_ising_spectrum(np.array([lam / 2, 0, 0])).eigenvalues.min())
                    got = float(r["ground_energy"])
                    _expect(
                        abs(got - exact) <= ENERGY_RTOL * max(1.0, abs(exact)),
                        f"delta=0 lambda={lam}: ground energy {got!r} != analytic {exact!r}",
                    )
            return len(rows)

        yield Op(
            "ising",
            ["sweep", "--model", "ising", "--delta-grid", f"0:{_num(d_stop)}:25",
             "--lambda-grid", f"0:{_num(l_stop)}:31", "--out", str(out)],
            out,
            check,
        )


def cavity_sweep_ops(rng: np.random.Generator, work: Path) -> Iterator[Op]:
    """Three kappa points, one below, one between and one above the h1 crossings."""
    out = work / "cavity.csv"
    lo_cross, hi_cross = H1_CROSSINGS
    while True:
        k_lo, k_hi = rng.uniform(0.55, 0.65), rng.uniform(1.0, 1.1)
        kappas = np.linspace(k_lo, k_hi, 3).tolist()
        assert kappas[0] < lo_cross < kappas[1] < hi_cross < kappas[2]
        tilde = rng.uniform(0.5, 1.5)

        def check(rc: int, stdout: str, kappas=kappas, tilde=tilde) -> int:
            _expect(rc == 0, f"exit code {rc}")
            rows = _read_rows(out, CAVITY_SCHEMA)
            _check_rows(rows, 3 * len(kappas))
            _expect(
                [r["variant"] for r in rows] == [v for v in ("h1", "h2", "h3") for _ in kappas],
                "variant order",
            )
            _grid_echo(rows, "kappa", kappas)
            _grid_echo(rows, "lam_tilde", [tilde])
            _expect(all(int(r["nmax_used"]) >= 40 for r in rows), "nmax_used below the start cutoff")
            return len(rows)

        yield Op(
            "dicke",
            ["sweep", "--model", "dicke", "--variants", "h1,h2,h3",
             "--kappa-grid", f"{_num(k_lo)}:{_num(k_hi)}:3",
             "--lam-tilde-grid", f"{_num(tilde)}:{_num(tilde)}:1", "--out", str(out)],
            out,
            check,
        )


# trial counts that make one call cost about the same at both mediator dims
THEOREM_TRIALS = {2: 60, 3: 40}


def theorem_fuzz_ops(rng: np.random.Generator, work: Path) -> Iterator[Op]:
    """Alternating mediator dims 2 and 3, seed drawn per call."""
    out = work / "trials.csv"
    i = 0
    while True:
        d_b = 2 + i % 2
        trials = THEOREM_TRIALS[d_b]
        seed = int(rng.integers(0, 2**31))
        i += 1

        def check(rc: int, stdout: str, trials=trials) -> int:
            rows = _read_rows(out, TRIAL_SCHEMA)
            _expect(len(rows) == trials, f"{len(rows)} trial rows, expected {trials}")
            _expect([int(r["trial"]) for r in rows] == list(range(trials)), "trial numbering")
            _expect(all(r["symmetric"] == "1" for r in rows), "a symmetric trial reported asymmetric")
            n_ce = sum(int(r["counterexamples"]) for r in rows)
            _expect(int(_stdout_value(stdout, "counterexamples")) == n_ce, "counterexample count")
            failed = n_ce > 0 or any(r["family_ok"] != "1" for r in rows)
            _expect(rc == (4 if failed else 0), f"exit code {rc} for {n_ce} counterexamples")
            return trials

        yield Op(
            f"theorem{d_b}",
            ["theorem", "--trials", str(trials), "--db-dim", str(d_b), "--seed", str(seed),
             "--out", str(out)],
            out,
            check,
        )


ISING_BUDGET = 300
DICKE_BUDGET = 60
DICKE_NMAX = 40


def _optimize_check(model: str, lower: float, upper: float, budget: int, reevaluate):
    control = "lambda" if model == "ising" else "kappa"

    def check(rc: int, stdout: str) -> int:
        _expect(rc == 0, f"exit code {rc}")
        x = float(_stdout_value(stdout, f"best {control}"))
        value = float(_stdout_value(stdout, "best concurrence"))
        evaluations = int(_stdout_value(stdout, "evaluations"))
        _expect(lower <= x <= upper, f"best {control} {x!r} outside [{lower!r}, {upper!r}]")
        _expect(0.0 <= value <= 1.0, f"best concurrence {value!r} outside [0, 1]")
        _expect(evaluations == budget, f"{evaluations} evaluations for budget {budget}")
        again = reevaluate(x)
        _expect(again == value, f"best re-evaluates to {again!r}, reported {value!r}")
        return evaluations

    return check


def control_search_ops(rng: np.random.Generator, work: Path) -> Iterator[Op]:
    """Two Ising optimizations, then one Dicke h2 optimization, repeating.

    The Dicke call costs about three Ising calls, so with this mix the median
    operation is an Ising call and the upper tail holds the Dicke calls.
    """
    i = 0
    while True:
        seed = str(int(rng.integers(0, 2**31)))
        if i % 3 != 2:
            delta = rng.uniform(0.02, 0.3)
            lower, upper = rng.uniform(0.0, 0.5), rng.uniform(2.5, 3.5)

            def reevaluate(x, delta=delta):
                h = build_ising(IsingParams(j_coupling=1.0, delta=delta, lam=x))
                return ground_state_ac_concurrence(h, (2, 2, 2)).value

            yield Op(
                "ising",
                ["optimize", "--model", "ising", "--delta", _num(delta), "--lower", _num(lower),
                 "--upper", _num(upper), "--budget", str(ISING_BUDGET), "--seed", seed],
                None,
                _optimize_check("ising", lower, upper, ISING_BUDGET, reevaluate),
            )
        else:
            lower, upper = rng.uniform(0.0, 0.2), rng.uniform(0.9, 1.2)

            def reevaluate(x):
                h, dims = dicke_mediator_form(DickeConfig(variant="h2", kappa=x, n_max=DICKE_NMAX))
                return ground_state_ac_concurrence(h, dims).value

            yield Op(
                "dicke",
                ["optimize", "--model", "dicke", "--variant", "h2", "--nmax", str(DICKE_NMAX),
                 "--lower", _num(lower), "--upper", _num(upper), "--budget", str(DICKE_BUDGET),
                 "--seed", seed],
                None,
                _optimize_check("dicke", lower, upper, DICKE_BUDGET, reevaluate),
            )
        i += 1


# name -> (operation generator, length of the repeating operation mix); runs
# stop at a whole number of mixes so every run weighs the kinds alike
WORKLOADS = {
    "chain_sweep": (chain_sweep_ops, 1),
    "cavity_sweep": (cavity_sweep_ops, 1),
    "theorem_fuzz": (theorem_fuzz_ops, 2),
    "control_search": (control_search_ops, 3),
}


def readme_gate(run, work: Path) -> list[str]:
    """Rerun the README's sweep/theorem commands; return digest mismatches.

    ``run(argv)`` executes one CLI call and returns its exit code.
    """
    problems = []
    for name, (argv, want_rc, digest) in README_COMMANDS.items():
        path = work / name
        rc = run(argv + ["--out", str(path)])
        if rc != want_rc:
            problems.append(f"{name}: exit code {rc}, expected {want_rc}")
            continue
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != digest:
            problems.append(f"{name}: sha256 {got} != recorded {digest}")
    return problems
