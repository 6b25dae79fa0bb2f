"""Command-line front end: solve, plan, bench, and oracle subcommands.

Exit codes: 0 success, 1 input or usage error, 2 deadline exceeded, 3
resource limit.  The wall-clock deadline covers planning and execution
jointly; `plan` honours it while planning.  The diagram node cap can also
be set through the DPER_NODE_LIMIT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import bench as bench_mod
from . import executor, oracle, planner
from .formula import FormulaError, Problem, parse_problem
from .pbf import DeadlineExceeded, ResourceLimitError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEADLINE = 2
EXIT_RESOURCE = 3

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    heuristic: str = "min-fill"
    seed: int = 0
    timeout: float = 1000.0
    fmt: str = "json"
    debug_assert: bool = False
    randomize_ties: bool = False
    free_as_exist: bool = False
    tree_out: str | None = None
    node_limit: int | None = None
    verify: bool = True  # re-count the maximizer when the Y block is small

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


class UsageError(Exception):
    """A bad option or environment setting; reported with exit code 1."""


def _signed_literals(maximizer: dict[int, bool]) -> list[int]:
    return [v if b else -v for v, b in sorted(maximizer.items())]


def _load_problem(path: str, cfg: RunConfig) -> Problem:
    text = Path(path).read_text()
    return parse_problem(text, free_as_exist=cfg.free_as_exist)


def run_solve(path: str, cfg: RunConfig) -> dict:
    """Full pipeline on one instance; returns a JSON-ready report dict."""
    started = time.perf_counter()
    deadline = time.monotonic() + cfg.timeout
    report: dict = {"schema_version": SCHEMA_VERSION, "instance": path}
    try:
        p = _load_problem(path, cfg)
    except (FormulaError, OSError) as e:
        report.update(status="input-error", error=str(e))
        return report
    if cfg.debug_assert and len(p.quantified) > executor.DEBUG_VAR_CAP:
        report.update(status="input-error",
                      error=f"{len(p.quantified)} variables exceed the "
                            f"--debug-assert cap {executor.DEBUG_VAR_CAP}")
        return report
    try:
        t_plan = time.perf_counter()
        tree = planner.plan(p, cfg.heuristic, cfg.seed, cfg.randomize_ties,
                            deadline)
        plan_seconds = time.perf_counter() - t_plan
        # partial stats stay in the report even if the deadline hits later
        report["width"] = planner.width(tree, p)
        report["tree_nodes"] = len(tree.nodes)
        report["plan_seconds"] = plan_seconds
        if time.monotonic() > deadline:
            raise DeadlineExceeded("deadline hit after planning")
        if cfg.tree_out:
            Path(cfg.tree_out).write_text(planner.write_tree(tree, p))
        if cfg.debug_assert:
            result = executor.debug_assert_mode(p, tree, node_limit=cfg.node_limit,
                                                deadline=deadline)
        else:
            result = executor.solve(p, tree, node_limit=cfg.node_limit,
                                    deadline=deadline)
        report.update(
            status="ok",
            maximum=result.maximum,
            maximizer=_signed_literals(result.maximizer),
            diagram_nodes=result.stats.diagram_nodes,
            max_support=result.stats.max_support,
            exec_seconds=result.stats.exec_seconds,
            total_seconds=time.perf_counter() - started,
        )
        if cfg.verify and len(p.Y) <= oracle.ENUM_GUARD:
            recount = oracle.weighted_count(p, result.maximizer)
            agrees = abs(recount - result.maximum) <= 1e-9
            report["verification"] = {
                "checked": True, "weighted_count": recount, "agrees": agrees,
            }
            if not agrees:
                print(f"warning: maximizer re-count {recount!r} disagrees with "
                      f"maximum {result.maximum!r}", file=sys.stderr)
        elif cfg.verify:
            report["verification"] = {"checked": False}
    except DeadlineExceeded:
        report.update(status="deadline",
                      total_seconds=time.perf_counter() - started)
    except ResourceLimitError as e:
        report.update(status="resource", error=str(e),
                      total_seconds=time.perf_counter() - started)
    return report


def _print_report(report: dict, fmt: str):
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
        return
    for key, value in report.items():
        if key == "maximum":
            print(f"maximum: {value:.17g}")
        elif key == "maximizer":
            print("maximizer: " + " ".join(str(l) for l in value))
        elif isinstance(value, dict):
            print(f"{key}: " + " ".join(f"{k}={v}" for k, v in value.items()))
        else:
            print(f"{key}: {value}")


def _status_exit(report: dict) -> int:
    return {
        "ok": EXIT_OK,
        "input-error": EXIT_INPUT,
        "deadline": EXIT_DEADLINE,
        "resource": EXIT_RESOURCE,
    }[report["status"]]


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    report = run_solve(args.input, cfg)
    _print_report(report, cfg.fmt)
    if report["status"] == "input-error":
        print(f"error: {report['error']}", file=sys.stderr)
    return _status_exit(report)


def cmd_plan(args) -> int:
    cfg = _config_from_args(args)
    deadline = time.monotonic() + cfg.timeout
    report: dict = {"schema_version": SCHEMA_VERSION}
    try:
        p = _load_problem(args.input, cfg)
        tree = planner.plan(p, cfg.heuristic, cfg.seed, cfg.randomize_ties,
                            deadline)
    except (FormulaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except DeadlineExceeded:
        report["status"] = "deadline"
    else:
        text = planner.write_tree(tree, p)
        if cfg.tree_out:
            Path(cfg.tree_out).write_text(text)
        else:
            sys.stdout.write(text)
        report.update(status="ok", width=planner.width(tree, p),
                      tree_nodes=len(tree.nodes))
    if cfg.fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
    elif "width" in report:
        print(f"width: {report['width']}", file=sys.stderr)
    else:
        print(f"status: {report['status']}", file=sys.stderr)
    return _status_exit(report)


def _bench_one(path: str, cfg: RunConfig) -> bench_mod.BenchRecord:
    started = time.perf_counter()
    try:
        # reference answers replace the per-run verification sub-step here
        report = run_solve(path, replace(cfg, verify=False))
    except Exception as e:  # a failing instance must never abort the sweep
        report = {"status": "error", "error": f"{type(e).__name__}: {e}"}
    elapsed = report.get("total_seconds", time.perf_counter() - started)
    return bench_mod.BenchRecord(
        name=Path(path).name,
        solved=report["status"] == "ok",
        seconds=elapsed,
        answer=report.get("maximum"),
        width=report.get("width"),
        nodes_created=report.get("diagram_nodes"),
        error=report.get("error"),
    )


def _bench_worker(task):
    path, cfg_kwargs = task
    return _bench_one(path, RunConfig(**cfg_kwargs))


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    base = Path(args.dir)
    if not base.is_dir():
        print(f"error: {base} is not a directory", file=sys.stderr)
        return EXIT_INPUT
    paths = sorted(str(f) for f in base.iterdir() if f.is_file())
    if not paths:
        print(f"error: no instances in {base}", file=sys.stderr)
        return EXIT_INPUT

    if args.jobs > 1:
        cfg_kwargs = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_bench_worker,
                                    [(p, cfg_kwargs) for p in paths]))
    else:
        records = [_bench_one(p, cfg) for p in paths]

    if args.ref_answers:
        refs = bench_mod.load_reference_answers(Path(args.ref_answers).read_text())
        bench_mod.apply_reference_answers(records, refs)

    csv_text = bench_mod.records_to_csv(records, cfg.timeout)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = bench_mod.summarize(records, cfg.timeout)
    lo, hi = summary.ci95
    print(f"instances: {len(records)}  solved: {summary.solved}  "
          f"disqualified: {summary.disqualified}", file=sys.stderr)
    print(f"mean PAR-2: {summary.mean_par2:.3f}  "
          f"95% CI: [{lo:.3f}, {hi:.3f}]", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    try:
        p = _load_problem(args.input, cfg)
        result = oracle.enumerate_solve(p)
    except (FormulaError, OSError, oracle.EnumerationGuardError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "schema_version": SCHEMA_VERSION,
        "status": "ok",
        "maximum": result.maximum,
        "num_maximizers": len(result.maximizers),
        "maximizer": _signed_literals(result.maximizers[0]),
    }
    _print_report(report, cfg.fmt)
    return EXIT_OK


def _config_from_args(args) -> RunConfig:
    node_limit = getattr(args, "node_limit", None)
    if node_limit is None:
        env = os.environ.get("DPER_NODE_LIMIT")
        try:
            node_limit = int(env) if env else None
        except ValueError:
            raise UsageError(f"DPER_NODE_LIMIT must be an integer, got {env!r}") from None
    try:
        return RunConfig(
            heuristic=getattr(args, "heuristic", "min-fill"),
            seed=getattr(args, "seed", 0),
            timeout=getattr(args, "timeout", 1000.0),
            fmt=getattr(args, "format", "json"),
            debug_assert=getattr(args, "debug_assert", False),
            randomize_ties=getattr(args, "randomize_ties", False),
            free_as_exist=getattr(args, "free_as_exist", False),
            tree_out=getattr(args, "tree_out", None),
            node_limit=node_limit,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _add_common(sub):
    sub.add_argument("--heuristic", choices=planner.HEURISTICS, default="min-fill")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--timeout", type=float, default=1000.0,
                     help="wall-clock cap in seconds for planning + execution "
                          "(planning alone for plan)")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--randomize-ties", action="store_true")
    sub.add_argument("--free-as-exist", action="store_true",
                     help="treat declared-but-unquantified unused variables "
                          "as existential")
    sub.add_argument("--node-limit", type=int, default=None,
                     help="diagram node cap (also via DPER_NODE_LIMIT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dper",
        description="Exact exist-random stochastic satisfiability solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="solve one instance")
    s.add_argument("--input", required=True)
    s.add_argument("--debug-assert", action="store_true",
                   help="run with every annotated assertion checked")
    s.add_argument("--tree-out", default=None)
    _add_common(s)
    s.set_defaults(func=cmd_solve)

    s = subs.add_parser("plan", help="emit a graded project-join tree")
    s.add_argument("--input", required=True)
    s.add_argument("--tree-out", default=None)
    _add_common(s)
    s.set_defaults(func=cmd_plan)

    s = subs.add_parser("bench", help="run a directory of instances")
    s.add_argument("--dir", required=True)
    s.add_argument("--ref-answers", default=None,
                   help="file of 'name value' reference answers")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", default=None, help="CSV output path")
    _add_common(s)
    s.set_defaults(func=cmd_bench)

    s = subs.add_parser("oracle", help="brute-force enumeration (debugging)")
    s.add_argument("--input", required=True)
    _add_common(s)
    s.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
