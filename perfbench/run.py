"""Solve benchmark for dper.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload band-wide --seed 1 --seconds 24 --trace 0

Workloads: band-wide, band-long, rand-exist, rand-verify (see BENCHMARK.json
for why each exists).  The program is imported from `src/`, nothing is
installed.  Each run

1. writes the workload's instance pool as ER-DIMACS files into a temporary
   directory in the checkout, after checking every text against the digest
   its stored reference maximum was made for;
2. with `--trace 0`, times `import dper.cli` in SETUP_SAMPLES fresh
   interpreters (`setup_s` is the median of the scaled times);
3. runs `worker.py` in a fresh interpreter for `--seconds` seconds;
4. prints one line per metric and, last, one JSON object with the keys
   correct, attempted, failed and metrics.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
End-to-end times are scaled to a reference machine speed measured in the
same run (see `speed.py`); the unscaled values are printed above the result.
Per-layer times are unscaled.
Exits with 2, printing no result, when the program or the references are
missing or do not match, and with 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SETUP_SAMPLES = 3
TIME_LIMIT = 170.0  # seconds for the whole run, set-up included
# Calibrates in the same interpreter, just after the import it scales: the
# probe imports numpy, which `dper.cli` must still load inside the timing.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dper.cli; "
                "d = time.perf_counter() - t; from perfbench import speed; "
                "print(speed.scale(d, [speed.calibrate() for _ in range(5)]))")


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env: dict[str, str]) -> float:
    """Wall time of `import dper.cli` in a fresh interpreter, scaled."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so the worker is killed and waited
    # for, and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "dper" / "cli.py").is_file():
        print(f"error: no dper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = program_env()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        try:
            workloads.materialize(wl, Path(tmp), workloads.load_refs()[wl.name])
        except (OSError, KeyError, workloads.StaleReferenceError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        setup = []
        if not args.trace:
            try:
                setup = [import_seconds(env) for _ in range(SETUP_SAMPLES)]
            except (subprocess.SubprocessError, ValueError, IndexError) as e:
                print(f"error: importing dper.cli failed: {e}", file=sys.stderr)
                return 2
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", wl.name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", tmp]
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, TIME_LIMIT - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            print("error: worker ran out of time", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.splitlines()[-1])
    result = out["result"]
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
        out["info"].append("setup_s is the median of "
                           + ", ".join(f"{s:.4f}" for s in setup))
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for line in out["info"]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
