"""medent benchmark: drives ``medent.cli.main`` in-process on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload chain_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` runs a closed loop, one operation at a time, for ``--seconds``
after one warm-up operation and reports the end-to-end metrics.  Operation
times are wall times scaled by a speed reference timed between operations (see
``SpeedReference``), set-up times by a reference process paired with each set-up
(see ``measure_setup``); the unscaled wall times are in the record.  ``--trace 1``
runs a fixed, seed-determined list of operations twice each, once untraced and
once with every layer wrapped (alternating which goes first), and reports the
per-layer metrics; the difference between the two passes is the tracing
overhead (raw in ``trace.overhead_s``, as a share of the speed-scaled untraced
time in ``trace.overhead_frac``).  Every operation's output is checked, and every run reruns the
README's sweep/theorem commands (untimed) and compares their CSV digests.

Standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the environment manifest, sample
counts, per-operation times and the speed reference's own timings is written to
``bench/out/<workload>-seed<seed>-trace<trace>.json``, together with the spans
of a traced run.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the problems are at most a few hundred
# wide, and on a small shared machine extra threads only add noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import ALL_LAYERS, Tracer, aggregate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("chain_sweep", "cavity_sweep", "theorem_fuzz", "control_search")

SETUP_PAIRS = 10
SETUP_CODE = "import medent.cli as cli; cli._build_parser()"
# the same kind of start-up with no medent code in it: a fresh interpreter that
# loads numpy and the standard modules the CLI uses
SETUP_REFERENCE_CODE = "import argparse, csv, json, numpy"
SETUP_REFERENCE_NOMINAL_S = 0.15
MIN_OPS = 24  # so the tail percentile has ten samples beyond it and sits above p50
TAIL_BEYOND = 10
# each kind in a workload's operation mix runs at least this often, so the
# tail percentile lands inside the slowest kind rather than on its edge
MIN_PER_KIND = TAIL_BEYOND + 6
# traced operations per second of --seconds; fixed per workload so that the
# exact counts of a traced run repeat for a given seed and run length
TRACE_OPS_PER_S = {
    "chain_sweep": 0.6,
    "cavity_sweep": 0.6,
    "theorem_fuzz": 0.8,
    "control_search": 0.8,
}
# For a given seed and run length a traced run repeats every count bit for
# bit: the *.calls and *.errors metrics, linalg.eigh.dim3_sum and calls_dim*,
# dicke.fock_useful_frac, theorem.eigh_per_trial, control.evaluations and
# sweeps.rows.  Only the *.self_frac metrics and the trace.*_s/_frac ones are timings.
EIGH_DIMS = (8, 12, 164, 324, 644)

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_FUNCS = (
    "linalg.kron",
    "linalg.eigh",
    "linalg.fix_phases",
    "linalg.HermitianOperator",
    "linalg.DensityMatrix",
    "linalg.reduced_density",
    "linalg.schmidt",
    "lapack.eigh",
    "lapack.eigvalsh",
    "dicke.build_dicke",
    "entanglement.concurrence",
)


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {}
    for layer in ALL_LAYERS:
        units[f"{layer}.self_frac"] = "frac"
        units[f"{layer}.errors"] = "count"
    for name in PER_LAYER_FUNCS:
        units[f"{name}.self_frac"] = "frac"
        units[f"{name}.calls"] = "count"
    units["linalg.eigh.dim3_sum"] = "dim3"
    for d in EIGH_DIMS:
        units[f"linalg.eigh.calls_dim{d}"] = "count"
    units["linalg.eigh.calls_dim_other"] = "count"
    units["dicke.fock_useful_frac"] = "frac"
    units["theorem.eigh_per_trial"] = "count"
    units["control.evaluations"] = "count"
    units["sweeps.rows"] = "count"
    units["trace.ops"] = "count"
    units["trace.spans"] = "count"
    units["trace.untraced_s"] = "s"
    units["trace.traced_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units["trace.self_sum_s"] = "s"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() or f"unknown ({res.stderr.strip()})"


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_revision": git_revision(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class SpeedReference:
    """A fixed kernel timed between operations to track the machine's speed.

    On a small shared virtual machine (2 vCPUs) the same operation was seen
    to run up to 1.9x slower for minutes at a time, so raw wall times of
    separate runs differ by more than any bound a change could be judged by,
    while the scaled times stay within a few percent.  The
    kernel does the kind of work medent does (8x8 LAPACK calls, kron,
    Python-level loops, one 200x200 ``eigh``) with fixed inputs and no medent
    code.  A change that leaves work behind after an operation (spinning
    threads, a larger heap) could still slow it and so flatter itself; the
    kernel's timings are kept in the record (``speed_reference``) and printed
    by ``--workload all`` so that a comparison can check them.  ``scale(before, after)`` turns a
    wall time measured between two kernel timings into seconds at the speed
    where the kernel takes ``NOMINAL_S``.
    """

    NOMINAL_S = 0.015

    def __init__(self):
        rng = np.random.default_rng(0)
        a8 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a200 = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self.a8, self.a200 = a8 + a8.conj().T, a200 + a200.conj().T
        self.x, self.eye = np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2, dtype=complex)
        self.timings: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            _, v = np.linalg.eigh(self.a8)
            m = np.kron(np.kron(self.x, self.eye), self.x)
            _ = [abs(complex(v[i, 0])) for i in range(8)]
            np.abs(m - m.conj().T).max()
        np.linalg.eigh(self.a200)
        self.timings.append(time.perf_counter() - t0)
        return self.timings[-1]

    def summary(self) -> dict:
        """The kernel's own timings, so a comparison can see whether a change moved them."""
        return {"n": len(self.timings), "median_s": statistics.median(self.timings),
                "min_s": min(self.timings), "max_s": max(self.timings)}

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / ((before + after) / 2)


def measure_setup() -> tuple[list[float], list[float], list[float]]:
    """(scaled, raw, reference) times of fresh interpreters that import medent.cli
    and build its parser.

    Each set-up process is paired with a reference process (``SETUP_REFERENCE_CODE``)
    run right before or after it.  On a small shared machine one start-up took
    anywhere from 0.14 s to 0.26 s, in streaks that no in-process kernel
    tracked, but two adjacent start-ups slow down alike: over ten runs the
    median of ten paired ratios spread 0.03 of its median, the median of
    twenty unpaired set-ups 0.16.  A set-up time is scaled to the speed where
    the reference process takes ``SETUP_REFERENCE_NOMINAL_S``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(code: str) -> float:
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    raw, reference = [], []
    for i in range(SETUP_PAIRS):
        # alternate which of the pair goes first
        if i % 2:
            reference.append(spawn(SETUP_REFERENCE_CODE))
            raw.append(spawn(SETUP_CODE))
        else:
            raw.append(spawn(SETUP_CODE))
            reference.append(spawn(SETUP_REFERENCE_CODE))
    scaled = [SETUP_REFERENCE_NOMINAL_S * a / b for a, b in zip(raw, reference)]
    return scaled, raw, reference


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"{len(ordered)} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return 100.0 * k / len(ordered), ordered[k - 1]


class Runner:
    """Runs operations through ``medent.cli.main`` and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.failures: list[str] = []

    def call(self, argv: list[str], tracer=None) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=err)
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        return dt, rc, out.getvalue(), err.getvalue()

    def run(self, op, tracer=None) -> tuple[float, int]:
        """Time one operation; return (seconds, work units), units 0 if it failed.

        With a tracer, its wrappers are installed for the CLI call only, so
        the output checks stay untraced.
        """
        from workloads import OracleError

        if op.out is not None and op.out.exists():
            op.out.unlink()
        dt, rc, stdout, stderr = self.call(op.argv, tracer)
        try:
            if rc is None:
                raise OracleError(stderr.strip())
            units = op.check(rc, stdout)
        except Exception as exc:  # noqa: BLE001 - an output the oracle cannot read fails too
            self.failures.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
            return dt, 0
        return dt, units

    def gate(self, work: Path) -> list[str]:
        from workloads import readme_gate

        return readme_gate(lambda argv: self.call(argv)[1], work)


def run_untraced(args, runner: Runner, ops, cycle: int) -> dict:
    ref = SpeedReference()
    ref.measure()
    runner.run(next(ops))  # warm-up, not timed
    warmup_failures = runner.failures[:]
    runner.failures.clear()
    times, raw, units = [], [], 0
    before = ref.measure()
    min_ops = max(MIN_OPS, cycle * MIN_PER_KIND)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(times) < min_ops or len(times) % cycle:
        dt, u = runner.run(next(ops))
        after = ref.measure()
        raw.append(dt)
        times.append(dt * ref.scale(before, after))
        units += u
        before = after
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup, setup_raw, setup_reference = measure_setup()
    pct, tail_value = tail(times)
    attempted, failed = len(times), len(runner.failures)
    metrics = {
        "setup_s": statistics.median(setup),
        "units_per_s": units / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setup),
        "units_per_s": units,
        "op_p50_s": attempted,
        "op_tail_s": attempted,
        "ok_frac": attempted,
        "peak_rss_mb": 1,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "tail_percentile": pct,
        "failed_frac": failed / attempted,
        "warmup_failures": warmup_failures,
        "wall": {
            "setup_s": statistics.median(setup_raw),
            "units_per_s": units / sum(raw),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": tail(raw)[1],
        },
        "op_times_s": times,
        "op_wall_times_s": raw,
        "setup_times_s": setup,
        "setup_wall_times_s": setup_raw,
        "setup_reference_times_s": setup_reference,
        "speed_reference": ref.summary(),
    }


def _eigh_dims(tracer, lo: int, hi: int) -> list[int]:
    eigh_id = tracer.name_index["linalg.eigh"]
    return [tracer.sizes[i] for i in range(lo, hi) if tracer.span_name[i] == eigh_id]


def run_traced(args, runner: Runner, ops, cycle: int) -> dict:
    n_ops = cycle * max(1, round(args.seconds * TRACE_OPS_PER_S[args.workload] / cycle))
    runner.run(next(ops))  # warm-up, not traced
    warmup_failures = runner.failures[:]
    runner.failures.clear()
    tracer = Tracer()
    ref = SpeedReference()
    untraced = traced = 0.0
    scaled = {False: 0.0, True: 0.0}
    before = ref.measure()
    units = rows = evaluations = trials = theorem_eighs = 0
    dicke_dim3 = dicke_useful = 0
    for i in range(n_ops):
        op = next(ops)
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            lo = len(tracer)
            dt, u = runner.run(op, tracer if traced_pass else None)
            after = ref.measure()
            scaled[traced_pass] += dt * ref.scale(before, after)
            before = after
            if not traced_pass:
                untraced += dt
                continue
            traced += dt
            units += u
            dims = _eigh_dims(tracer, lo, len(tracer))
            if op.argv[0] == "sweep":
                rows += u  # one CSV row per grid point
            if op.argv[0] == "optimize":
                evaluations += u
            if op.argv[0] == "theorem":
                trials += u
                theorem_eighs += len(dims)
            if op.kind == "dicke" and u:
                dicke_dim3 += sum(d**3 for d in dims)
                # at the accepted cutoff: one eigh per grid point or evaluation
                accepted = _accepted_dicke_dims(op)
                dicke_useful += sum(d**3 for d in accepted)

    by_name, by_layer = aggregate(
        tracer.names, tracer.span_name, tracer.starts, tracer.ends, tracer.parents, tracer.errors
    )
    # self times as shares of the traced wall time: an idle layer reads 0, and
    # a share does not move with the machine's speed the way seconds do
    self_sum = sum(entry["self_s"] for entry in by_layer.values())
    empty = {"self_s": 0.0, "calls": 0, "errors": 0}
    metrics = {}
    for layer in ALL_LAYERS:
        entry = by_layer.get(layer, empty)
        metrics[f"{layer}.self_frac"] = entry["self_s"] / self_sum
        metrics[f"{layer}.errors"] = entry["errors"]
    for name in PER_LAYER_FUNCS:
        entry = by_name.get(name, empty)
        metrics[f"{name}.self_frac"] = entry["self_s"] / self_sum
        metrics[f"{name}.calls"] = entry["calls"]
    all_dims = _eigh_dims(tracer, 0, len(tracer))
    metrics["linalg.eigh.dim3_sum"] = sum(d**3 for d in all_dims)
    for d in EIGH_DIMS:
        metrics[f"linalg.eigh.calls_dim{d}"] = all_dims.count(d)
    metrics["linalg.eigh.calls_dim_other"] = sum(1 for d in all_dims if d not in EIGH_DIMS)
    metrics["dicke.fock_useful_frac"] = dicke_useful / dicke_dim3 if dicke_dim3 else 0.0
    metrics["theorem.eigh_per_trial"] = theorem_eighs / trials if trials else 0.0
    metrics["control.evaluations"] = evaluations
    metrics["sweeps.rows"] = rows
    metrics.update(
        {
            "trace.ops": n_ops,
            "trace.spans": len(tracer),
            "trace.untraced_s": untraced,
            "trace.traced_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.overhead_frac": scaled[True] / scaled[False] - 1,
            "trace.self_sum_s": self_sum,
        }
    )
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
    tracer.write(spans_path)
    attempted, failed = 2 * n_ops, len(runner.failures)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "eigh_calls_by_dim": {str(d): all_dims.count(d) for d in sorted(set(all_dims))},
        "units": units,
        "failed_frac": failed / attempted,
        "warmup_failures": warmup_failures,
        "by_layer": by_layer,
        "by_name": by_name,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "speed_reference": ref.summary(),
    }


def _accepted_dicke_dims(op) -> list[int]:
    """Matrix dimension at the accepted Fock cutoff for each point of a Dicke op."""
    if op.argv[0] == "optimize":
        nmax = int(op.argv[op.argv.index("--nmax") + 1])
        evaluations = int(op.argv[op.argv.index("--budget") + 1])
        return [4 * (nmax + 1)] * evaluations
    with open(op.out, newline="") as fh:
        return [4 * (int(r["nmax_used"]) + 1) for r in csv.DictReader(fh)]


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, correct = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exit code {res.returncode}", file=sys.stderr)
            return res.returncode or 1
        final = json.loads(res.stdout.strip().splitlines()[-1])
        record = json.loads(record_path(name, args.seed, args.trace).read_text())
        results[name] = (final, record)
        correct = correct and final["correct"]
    print(f"{'workload':<15} {'metric':<28} {'value':>14} {'unit':<6} samples")
    for name, (final, record) in results.items():
        for metric, entry in final["metrics"].items():
            n = record.get("samples", {}).get(metric, "")
            print(f"{name:<15} {metric:<28} {entry['value']:>14.6g} {entry['unit']:<6} {n}")
        for metric, value in record.get("wall", {}).items():
            print(f"{name:<15} {'unscaled ' + metric:<28} {value:>14.6g}")
        print(f"{name:<15} {'failed_frac':<28} {record['failed_frac']:>14.6g} {'frac':<6} "
              f"{final['attempted']}")
        if "tail_percentile" in record:
            print(f"{name:<15} {'op_tail_s percentile':<28} {record['tail_percentile']:>14.4g}")
        ref = record["speed_reference"]
        print(f"{name:<15} {'speed reference median':<28} {ref['median_s']:>14.6g} {'s':<6} {ref['n']}"
              f"  (range {ref['min_s']:.6g}-{ref['max_s']:.6g})")
    summary = {
        "correct": correct,
        "attempted": sum(r[0]["attempted"] for r in results.values()),
        "failed": sum(r[0]["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, (final, _) in results.items()
            for metric, entry in final["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "medent" / "cli.py").is_file():
        print(f"no medent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    from medent import cli
    from workloads import WORKLOADS

    info = manifest(args)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli)
    make_ops, cycle = WORKLOADS[args.workload]
    ops = make_ops(np.random.default_rng(args.seed), work)
    result = (run_traced if args.trace else run_untraced)(args, runner, ops, cycle)
    gate_problems = runner.gate(work)
    failures = result["warmup_failures"] + runner.failures + gate_problems
    for line in failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)

    units = END_TO_END if not args.trace else per_layer_units()
    record = {
        "manifest": info,
        "readme_gate": gate_problems or "ok",
        "failures": failures,
        **result,
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }
    record_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
