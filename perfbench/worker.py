"""Closed-loop solve process: one client, one instance at a time.

Started by `run.py` in a fresh interpreter that imports `dper.cli` once and
then forks one child per solve (see `solve`), so that no solve inherits
state from another and the children's peak RSS belongs to this workload
alone.  It visits the workload's pool in the order `--seed` gives, cycling,
and starts solves until `--seconds` have passed.  Every solve goes through
`dper.cli.run_solve` with the default `RunConfig` apart from the timeout,
which is set to the workload's cap.  Each solve is preceded by one
`speed.calibrate()`, whose median time scales the run's times (see
`speed.py`).

With `--trace 1` each instance is solved twice in a row, once plain and once
with spans installed (alternating which goes first); the per-layer metrics
come from the traced solves and `trace.overhead_frac` compares the pairs.

Prints one JSON object as its last line: {"result": ..., "info": [...]}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import pickle
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import scoring, spans, speed, workloads  # noqa: E402


def solve(cli, path: str, cfg, cap: float, reference: float, tracer=None):
    """One run_solve in a forked child, on the benchmark's clock.

    A real `dper solve` runs one instance per process, so each solve starts
    from the state the import left: nothing an earlier visit cached reaches
    a later one.  The child kills itself (SIGALRM) a second after the cap,
    which ends a hung solve and bounds how long it can outlive a killed
    worker.  With a `tracer`, its spans are installed in the child only.
    Returns (Outcome, report, span totals).
    """
    gc.collect()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            signal.alarm(math.ceil(cap) + 1)
            with tracer.installed() if tracer else contextlib.nullcontext():
                begin = time.perf_counter()
                try:
                    report = cli.run_solve(path, cfg)
                except Exception as e:  # a crashing solve is a failure
                    report = {"status": f"raised {type(e).__name__}: {e}"}
                seconds = time.perf_counter() - begin
            with os.fdopen(write_fd, "wb") as f:
                pickle.dump((seconds, report, tracer.reset() if tracer else {}),
                            f)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    try:
        seconds, report, totals = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # none or part written
        seconds, totals = time.perf_counter() - start, {}
        report = {"status": f"solve process ended with wait status {status}"}
    return scoring.judge(report, seconds, cap, reference), report, totals


def end_to_end(visits: dict[str, list[scoring.Outcome]], cap: float,
               calibrations: list[float]):
    """Metrics scaled to reference speed (see `speed.scale`).

    `par2_s` and `solve_s_p50` take each instance's best visit (see
    `scoring.best_of_visits`); `solve_s_tail` takes every visit, so that a
    slowdown that hits only some solves still reaches a time metric.  The
    unscaled values are printed alongside.
    """
    factor = speed.scale(1.0, calibrations)
    solves = [o for outs in visits.values() for o in outs]
    raw_all = [o.seconds for o in solves]
    raw = scoring.best_of_visits(visits)
    best = [replace(o, seconds=o.seconds * factor) for o in raw]
    times = [o.seconds for o in best]
    value, pct, beyond = scoring.tail([t * factor for t in raw_all])
    failed = sum(not o.solved for o in solves)
    metrics = {
        "par2_s": (scoring.par2(best, cap), "s/instance"),
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_tail": (value, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "MB"),
        "solved_frac": (1.0 - failed / len(solves), "ratio"),
    }
    counts = [len(outs) for outs in visits.values()]
    info = [f"{len(solves)} solves of {len(best)} instances, "
            f"{min(counts)} to {max(counts)} visits each; par2_s and "
            f"solve_s_p50 take each instance's fastest visit",
            f"speed factor {factor:.4f} (median calibration "
            f"{statistics.median(calibrations) * 1000:.2f} ms of "
            f"{len(calibrations)}); "
            f"unscaled: par2_s {scoring.par2(raw, cap):.4f}, solve_s_p50 "
            f"{statistics.median(o.seconds for o in raw):.4f}, solve_s_tail "
            f"{scoring.tail(raw_all)[0]:.4f}",
            f"solve_s_tail is p{pct:.1f} of {len(solves)} solve times, "
            f"{beyond} beyond it",
            f"fail_frac {failed / len(solves):.4f} ({failed}/{len(solves)})"]
    return metrics, info


def per_layer(traced, plain: dict[str, list[scoring.Outcome]], cap: float):
    """Per-instance means of span times and counts.

    `traced` holds (name, outcome, report, span totals) for each traced
    solve.  Each value is averaged over an instance's visits first and then
    over the instances, so a partly finished last cycle through the pool
    does not weight the instances it reached twice.  Times ending in `_s` are
    self times except where a name says `solve_s`, `run_solve_s` or names a
    span with no traced children (order, build, width, parse,
    weighted_count), where self and total coincide.
    """
    by_name: dict[str, list[tuple[dict, dict]]] = {}
    for name, _, report, totals in traced:
        by_name.setdefault(name, []).append((report, totals))

    def mean(f):
        """Mean over instances of the mean over visits of f(report, totals)."""
        return statistics.fmean(statistics.fmean(f(r, t) for r, t in visits)
                                for visits in by_name.values())

    def span(name, field=0):
        """A span's total (0), self (1) seconds or calls (2), per instance."""
        return mean(lambda r, t: t.get(name, (0.0, 0.0, 0))[field])

    def report(key):
        return mean(lambda r, t: r.get(key) or 0)

    m = {}
    pbf_self = 0.0
    for op in spans.PBF_OPS:
        self_s = span(f"pbf.{op}", 1)
        pbf_self += self_s
        m[f"pbf.{op}_s"] = (self_s, "s")
        m[f"pbf.{op}_calls"] = (span(f"pbf.{op}", 2), "count")
    nodes = report("diagram_nodes")
    m["pbf.total_s"] = (pbf_self, "s")
    m["pbf.nodes_created"] = (nodes, "count")
    m["pbf.nodes_per_s"] = (nodes / pbf_self if pbf_self else 0.0, "1/s")
    m["executor.solve_s"] = (span("executor.solve"), "s")
    m["executor.self_s"] = (span("executor.solve", 1), "s")
    m["executor.max_support"] = (report("max_support"), "count")
    m["planner.order_s"] = (span("planner.order"), "s")
    m["planner.build_s"] = (span("planner.build"), "s")
    m["planner.self_s"] = (span("planner.plan", 1), "s")
    m["planner.width_s"] = (span("planner.width"), "s")
    m["planner.width"] = (report("width"), "count")
    m["planner.tree_nodes"] = (report("tree_nodes"), "count")
    m["oracle.weighted_count_s"] = (span("oracle.weighted_count"), "s")
    m["oracle.verified_frac"] = (
        mean(lambda r, t: bool(r.get("verification", {}).get("checked"))),
        "ratio")
    m["formula.parse_s"] = (span("formula.parse"), "s")
    m["cli.self_s"] = (span(spans.ROOT_SPAN, 1), "s")
    m["cli.run_solve_s"] = (span(spans.ROOT_SPAN), "s")

    with_spans: dict[str, list[scoring.Outcome]] = {}
    for name, outcome, _, _ in traced:
        with_spans.setdefault(name, []).append(outcome)
    m["trace.overhead_frac"] = (
        scoring.par2(scoring.best_of_visits(with_spans), cap)
        / scoring.par2(scoring.best_of_visits(plain), cap) - 1.0, "ratio")
    return m


def shares(m: dict) -> dict[str, float]:
    """Each layer's share of the traced run_solve time, from `per_layer`.

    cli, formula, planner, executor, pbf and oracle partition the solve.
    """
    v = {name: value for name, (value, _) in m.items()}
    seconds = {
        "cli": v["cli.self_s"],
        "formula": v["formula.parse_s"],
        "planner": sum(v[f"planner.{k}_s"]
                       for k in ("order", "build", "self", "width")),
        "planner.order": v["planner.order_s"],
        "executor": v["executor.self_s"],
        "pbf": v["pbf.total_s"],
        "pbf.exists_project+dsgn": v["pbf.exists_project_s"] + v["pbf.dsgn_s"],
        "oracle": v["oracle.weighted_count_s"],
    }
    return {name: s / v["cli.run_solve_s"] for name, s in seconds.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="materialized instances")
    args = ap.parse_args(argv)

    from dper import cli

    wl = workloads.WORKLOADS[args.workload]
    refs = workloads.load_refs()[wl.name]
    names = [name for name, _ in wl.pool]
    random.Random(args.seed).shuffle(names)
    cfg = cli.RunConfig(timeout=wl.cap)
    tracer = spans.Tracer() if args.trace else None

    plain: dict[str, list[scoring.Outcome]] = {}
    calibrations: list[float] = []
    traced = []
    errors: list[str] = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        name = names[i % len(names)]
        path = str(Path(args.dir) / f"{name}.cnf")
        ref = refs[name]["maximum"]
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_spans in (order if tracer else (False,)):
            if with_spans:
                outcome, report, totals = solve(cli, path, cfg, wl.cap, ref,
                                                tracer)
                traced.append((name, outcome, report, totals))
            else:
                calibrations.append(speed.calibrate())
                outcome, _, _ = solve(cli, path, cfg, wl.cap, ref)
                plain.setdefault(name, []).append(outcome)
            if not outcome.solved:
                errors.append(f"{name}: {outcome.reason}")
        i += 1

    outcomes = ([o for outs in plain.values() for o in outs]
                + [o for _, o, _, _ in traced])
    if tracer:
        metrics = per_layer(traced, plain, wl.cap)
        info = [f"{len(traced)} traced solves of {len(set(plain))} instances",
                "share of traced run_solve time: " + ", ".join(
                    f"{k} {v:.3f}" for k, v in shares(metrics).items())]
    else:
        metrics, info = end_to_end(plain, wl.cap, calibrations)
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.solved for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"result": result, "info": info + errors[:10]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
