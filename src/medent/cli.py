"""Command-line front end: spectrum dumps, parameter sweeps, theorem fuzzing,
and concurrence optimization.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure, 4 theorem
counterexample.  All numeric output is serialized in full round-trip
precision so repeated runs with identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from functools import lru_cache

import numpy as np

from .control import ControlProblem, optimize
from .dicke import (
    CONVERGENCE_TOL,
    N_MAX_LIMIT,
    DickeConfig,
    FockConvergenceError,
    _sector_level,
    _settled_cutoff,
    build_dicke,
    dicke_sweep,
    mediator_outcomes,
)
from .linalg import NumericalError, eigh
from .sweeps import SweepResult, _ising_outcomes, format_value, ising_sweep, parse_grid_spec
from .theorem import TrialRecord, theorem_fuzz
from .tripartite import IsingParams, analytic_ising_spectrum, build_ising, ising_middle_field

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_COUNTEREXAMPLE = 4


def _fmt(x: float) -> str:
    return format_value(float(x))


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """Model constants shared by every command that builds a Hamiltonian."""
    p.add_argument("--j", type=float, default=1.0, help="coupling strength J")
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--omega-a", type=float, default=1.0)
    p.add_argument("--omega-f", type=float, default=1.0)


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    """Model constants plus the parameters of one Ising or Dicke point that
    ``optimize`` holds fixed."""
    _add_model_flags(p)
    p.add_argument("--delta", type=float, default=0.0, help="outer-site field parameter")
    p.add_argument("--variant", default="h1", choices=("h1", "h2", "h3"))
    p.add_argument("--lam-tilde", type=float, default=1.0)
    p.add_argument(
        "--quad-lam", type=float, default=None,
        help="quadratic coefficient override (defaults to kappa^2 / omega_a)",
    )


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="medent")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print sorted eigenvalues and degeneracy groups")
    sp.add_argument("--config", default=None, help="key=value defaults file")
    sp.add_argument("--model", required=True, choices=("ising", "dicke"))
    _add_point_flags(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0, help="middle-site control")
    sp.add_argument("--kappa", type=float, default=0.0)

    sw = sub.add_parser("sweep", help="grid sweep to CSV")
    sw.add_argument("--config", default=None)
    sw.add_argument("--model", required=True, choices=("ising", "dicke"))
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--delta-grid", default="0.01:2:25", help="start:stop:count")
    sw.add_argument("--lambda-grid", default="0:3:31", help="start:stop:count")
    sw.add_argument("--variants", default="h1,h2,h3", help="comma-separated dicke variants")
    sw.add_argument("--kappa-grid", default="0:1.2:25", help="start:stop:count")
    sw.add_argument("--lam-tilde-grid", default="1:1:1", help="start:stop:count")
    _add_model_flags(sw)
    sw.add_argument("--tol", type=float, default=1e-6, help="Fock convergence tolerance")

    th = sub.add_parser("theorem", help="fuzz the factorization theorem")
    th.add_argument("--config", default=None)
    th.add_argument("--trials", type=int, default=200)
    th.add_argument("--db-dim", type=int, default=2, help="mediator dimension")
    th.add_argument("--seed", type=int, default=42)
    th.add_argument("--break-symmetry", action="store_true")
    th.add_argument("--out", default=None, help="optional per-trial CSV report")

    op = sub.add_parser("optimize", help="maximize ground-state concurrence")
    op.add_argument("--config", default=None)
    op.add_argument("--model", required=True, choices=("ising", "dicke"))
    op.add_argument("--budget", type=int, default=300)
    op.add_argument("--seed", type=int, default=0, help="accepted, unused: the search is deterministic")
    op.add_argument("--lower", type=float, default=0.0, help="control lower bound")
    op.add_argument("--upper", type=float, default=3.0, help="control upper bound")
    op.add_argument("--trace-out", default=None, help="optional evaluation-trace CSV")
    _add_point_flags(op)

    return parser


def _load_config_args(path: str) -> list[str]:
    """Turn a key=value file into CLI tokens (later flags override them)."""
    tokens: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    tokens.append(flag)
            else:
                tokens.append(f"{flag}={value}")
    return tokens


# sweep grid flags: their spec may start with "-" (a negative start)
GRID_FLAGS = ("--delta-grid", "--lambda-grid", "--kappa-grid", "--lam-tilde-grid")


def _attach_grid_specs(argv: list[str]) -> list[str]:
    """Join each grid flag and its spec into ``--flag=spec``, so that argparse
    does not read a spec such as -1:1:3 as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in GRID_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _inject_config(argv: list[str]) -> list[str]:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    return [argv[0]] + _load_config_args(path) + argv[1:]


def _check_output_path(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise if its directory is
    missing or not writable, so that a command fails before it solves
    anything; the file itself is neither created nor truncated."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_spectrum(args) -> int:
    if args.model == "ising":
        params = IsingParams(j_coupling=args.j, delta=args.delta, lam=args.lam)
        h = build_ising(params)
    else:
        cfg = DickeConfig(
            variant=args.variant,
            kappa=args.kappa,
            omega_a=args.omega_a,
            omega_f=args.omega_f,
            lam=args.quad_lam,
            lam_tilde=args.lam_tilde,
            n_max=args.nmax,
        )
        h = build_dicke(cfg)

    dec = eigh(h)
    print(f"model: {args.model}  dim: {dec.dim}")
    for i, e in enumerate(dec.eigenvalues):
        print(f"E[{i}] = {_fmt(e)}")
    groups = [g for g in dec.degeneracy_groups]
    print("degeneracy groups: " + " ".join("{" + ",".join(map(str, g)) + "}" for g in groups))

    if args.model == "ising" and args.delta == 0 and args.j == 1.0:
        spectrum = analytic_ising_spectrum(ising_middle_field(params))
        analytic = spectrum.sorted_eigenvalues()
        deviation = float(np.abs(analytic - dec.eigenvalues).max())
        print("analytic: " + " ".join(_fmt(e) for e in analytic))
        print(f"max analytic deviation: {_fmt(deviation)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_output_path(args.out)
    if args.model == "ising":
        result = ising_sweep(
            parse_grid_spec(args.delta_grid),
            parse_grid_spec(args.lambda_grid),
            j_coupling=args.j,
        )
    else:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not variants:
            raise ValueError("no dicke variants given")
        kappas = parse_grid_spec(args.kappa_grid)
        tildes = parse_grid_spec(args.lam_tilde_grid)
        partials = []
        for variant in variants:
            cfg = DickeConfig(
                variant=variant,
                kappa=0.0,
                omega_a=args.omega_a,
                omega_f=args.omega_f,
                lam_tilde=1.0,
                n_max=args.nmax,
            )
            partials.append(dicke_sweep(cfg, kappas, tildes, convergence_tol=args.tol))
        columns = zip(*(part.columns for part in partials))
        result = SweepResult(partials[0].schema, tuple(map(np.concatenate, columns)))

    result.write_csv(args.out)
    statuses = result.column("status")
    ok = statuses.count("ok")
    print(f"wrote {len(statuses)} rows to {args.out} ({ok} ok)")
    if args.model == "dicke":
        variants, concurrences = result.column("variant"), result.column("concurrence")
        for variant in dict.fromkeys(variants):
            values = [
                c for v, c, s in zip(variants, concurrences, statuses) if v == variant and s == "ok"
            ]
            if values:
                print(f"average concurrence {variant}: {_fmt(float(np.mean(values)))}")
    if ok == 0:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_theorem(args) -> int:
    if args.out:
        _check_output_path(args.out)
    report = theorem_fuzz(
        args.trials, args.db_dim, args.seed, break_symmetry=args.break_symmetry
    )
    print(
        f"trials: {report.trials}  mediator dim: {report.d_b}  seed: {report.seed}"
    )
    if report.skipped_asymmetric:
        print(
            f"symmetry violated in {report.skipped_asymmetric} trials: "
            "theorem checks skipped for those"
        )
    print(f"counterexamples: {len(report.counterexamples)}")
    print(
        f"counterexamples by outer swap parity: even {report.counterexamples_even}, "
        f"odd {report.counterexamples_odd}",
        file=sys.stderr,
    )
    print(
        f"family energy checks: {len(report.family_checks)} "
        f"({sum(1 for f in report.family_checks if f.passed)} passed)"
    )
    for ce in report.counterexamples:
        print(
            f"  trial {ce.trial} eigenstate {ce.eigenstate_index}: "
            f"energy={_fmt(ce.energy)} purity_b={_fmt(ce.purity_b)} "
            f"rank={ce.schmidt_rank_ac}"
        )

    if args.out:
        schema = tuple(f.name for f in dataclasses.fields(TrialRecord))
        columns = tuple([getattr(r, name) for r in report.trial_records] for name in schema)
        SweepResult(schema, columns).write_csv(args.out)
        print(f"wrote trial records to {args.out}")

    return EXIT_OK if report.passed else EXIT_COUNTEREXAMPLE


def _check_fock_cutoff(cfg: DickeConfig, best: float) -> None:
    """Confirm that ``best``, the concurrence a Dicke search reports at its
    optimum ``cfg``, is converged at ``cfg``'s own cutoff; write the
    convergence delta to stderr.

    The rule is the sweep's (``_settled_cutoff``): the ground level at
    ``cfg``'s cutoff, solved on its exact sectors as the search solved
    ``best`` (``_sector_level``), first tries to prove the cutoff converged,
    and the delta is then the proven bound; where it cannot, each doubled
    cutoff is solved once, on its exact sectors, and none in full, and the
    delta is the measured change against ``best``.  Raises
    FockConvergenceError if the concurrence needs a larger cutoff or never
    settles below the cutoff limit.
    """
    _, vectors, _ = _sector_level(cfg)
    nmax_used, converged, delta, _, _ = _settled_cutoff(cfg, best, vectors, CONVERGENCE_TOL, N_MAX_LIMIT)
    print(
        f"fock check at best kappa: convergence delta {_fmt(delta)} at n_max = {nmax_used}",
        file=sys.stderr,
    )
    if not converged:
        raise FockConvergenceError(
            f"concurrence at the optimum still changes by {delta:.3e} at n_max = {nmax_used}"
        )
    if nmax_used != cfg.n_max:
        raise FockConvergenceError(
            f"concurrence at the optimum needs n_max = {nmax_used}, above --nmax {cfg.n_max}"
        )


def cmd_optimize(args) -> int:
    if args.trace_out:
        _check_output_path(args.trace_out)
    if args.model == "ising":
        delta = args.delta
        j = args.j
        # an invalid coupling or delta fails the search before any point
        IsingParams(j_coupling=j, delta=delta)

        def evaluate(x):
            return _ising_outcomes(x[:, 0], delta, j)

        control_name = "lambda"
    else:
        base = dict(
            variant=args.variant,
            omega_a=args.omega_a,
            omega_f=args.omega_f,
            lam=args.quad_lam,
            lam_tilde=args.lam_tilde,
            n_max=args.nmax,
        )
        # an invalid model constant fails the search before any point
        DickeConfig(kappa=0.0, **base)

        def evaluate(x):
            return mediator_outcomes(x[:, 0].tolist(), base)

        control_name = "kappa"

    problem = ControlProblem(evaluate=evaluate, bounds=((args.lower, args.upper),))
    result = optimize(problem, args.budget)
    print(
        f"solved {result.solved} distinct points for {result.evaluations} evaluations",
        file=sys.stderr,
    )
    if args.model == "dicke":
        _check_fock_cutoff(
            DickeConfig(kappa=float(result.best_controls[0]), **base), result.best_value
        )
    print(f"control: {control_name} in [{_fmt(args.lower)}, {_fmt(args.upper)}]")
    print(f"best {control_name}: {_fmt(result.best_controls[0])}")
    print(f"best concurrence: {_fmt(result.best_value)}")
    print(f"evaluations: {result.evaluations}")
    print(f"converged: {int(result.converged)}")
    print(f"degenerate ground at best point: {int(result.best_degenerate_ground)}")

    if args.trace_out:
        columns = (
            range(len(result.trace)),
            [controls[0] for controls, _ in result.trace],
            [value for _, value in result.trace],
        )
        SweepResult(("evaluation", "control_0", "value"), columns).write_csv(args.trace_out)
        print(f"wrote trace to {args.trace_out}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_grid_specs(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    # the command is looked up at each call, not bound into the cached parser
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
