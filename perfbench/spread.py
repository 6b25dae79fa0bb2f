"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload band-wide --runs 10

Runs seeds 1 to RUNS, each for the `run_seconds` of BENCHMARK.json, with
tracing off.  For every metric: median, and (Q3 - Q1) / median over the
runs, with the quartiles of `statistics.quantiles(values, n=4)`.  Each run
is a separate `run.py` process, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import scoring  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={m['value']:.5g}"
                         for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        spread = scoring.quartile_spread(vs) if med else float("nan")
        print(f"{k}: median {med:.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
