"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload chain_sweep --seeds 1-10

Each run lasts ``run_seconds`` from ``BENCHMARK.json`` and reports the
end-to-end metrics (``--trace 0``).  For every metric it prints the median of the per-run values and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median, next to the bound ``BENCHMARK.json`` fixes for it.  The
last line is a JSON object with the per-run values, for recording a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a-b range or comma list")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            print(f"seed {seed}: exit code {res.returncode}", file=sys.stderr)
            return 1
        final = json.loads(res.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **final})
        print(f"seed {seed}: correct={final['correct']} attempted={final['attempted']} "
              f"failed={final['failed']}", file=sys.stderr)

    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": entry["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        bound = bounds[name]
        flag = f"  bound {bound}" + ("  OVER" if spread > bound / 3 else "")
        print(f"{name:<36} median {med:<12.6g} {entry['unit']:<6} spread {spread:.4f}{flag}")
    print(json.dumps({
        "workload": args.workload, "seconds": seconds,
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
