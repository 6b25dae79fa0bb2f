"""Command-line front end: solve, plan, bench, and oracle subcommands.

Every way a run can fail maps, through the one table `FAILURES`, to a report
status and an exit code: 0 `ok`, 1 `input-error` (a bad option, environment
setting or input file, a file that is not UTF-8 included), 2 `deadline`, 3
`resource` (the diagram node cap, or a diagram too deep for the
interpreter's recursion limit).  `solve`, `plan` and `oracle` each print
one report through `_finish`.  A usage error (a missing `--input`, an unknown
option), a bad option value or a bad environment setting is found before any
report exists and prints only its `error:` line.  The wall-clock deadline
covers planning, execution and the maximizer re-count jointly;
`plan` honours it while planning.  A solve runs on dense tables when its
tree is small enough (`executor.DENSE_MAX_WORK`) and on decision diagrams
otherwise; the report's `executor` field names the one that ran.  The node
limit caps the diagram nodes a solve holds at once (dead ones are reclaimed
between tree nodes); a tree runs on tables only when its tables hold fewer
entries in all than the limit, so the limit never stops a table run.  It
can also be set through the DPER_NODE_LIMIT environment variable.

`dper solve` runs one instance per process, so start-up counts: `import
dper.cli` loads the solve path and `argparse`, `json` and `pathlib`; its
records are plain classes, so it needs no `dataclasses`, `inspect` or
`typing`.  Only a subcommand loads the rest: `bench` loads `csv`
(through `dper.bench`) and checks for scipy, `oracle` loads numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import executor, planner
from .formula import FormulaError, Problem, condition, parse_problem
from .pbf import DeadlineExceeded, ResourceLimitError

SCHEMA_VERSION = 1

# The maximizer is re-counted only when |Y| is at most this.  The re-count
# plans and valuates its own tree; on wider Y blocks (50 on the band-wide
# benchmark pool) that would add about 75% to execution.
RECOUNT_MAX_Y = 24


class RunConfig:
    """The options of one run, each with its default; immutable.  `verify`
    re-counts the maximizer when the Y block is small."""

    __slots__ = ("heuristic", "timeout", "fmt", "debug_assert", "free_as_exist",
                 "tree_out", "node_limit", "verify")

    def __init__(self, heuristic: str = "min-fill", timeout: float = 1000.0,
                 fmt: str = "json", debug_assert: bool = False,
                 free_as_exist: bool = False, tree_out: str | None = None,
                 node_limit: int | None = None, verify: bool = True):
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if node_limit is not None and node_limit < 1:
            raise ValueError(f"node limit must be at least 1, got {node_limit}")
        values = (heuristic, timeout, fmt, debug_assert, free_as_exist,
                  tree_out, node_limit, verify)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RunConfig is immutable: cannot set {name!r}")

    def replace(self, **changes) -> RunConfig:
        """A copy with `changes` applied, validated like a new RunConfig."""
        fields = {n: getattr(self, n) for n in self.__slots__}
        return RunConfig(**(fields | changes))


class UsageError(Exception):
    """A bad option, environment setting or input size; reported with exit code 1."""


# The one map from a failure to its report status and exit code.
FAILURES: dict[type[Exception], tuple[str, int]] = {
    FormulaError: ("input-error", 1),
    OSError: ("input-error", 1),
    UnicodeDecodeError: ("input-error", 1),
    UsageError: ("input-error", 1),
    DeadlineExceeded: ("deadline", 2),
    ResourceLimitError: ("resource", 3),
    RecursionError: ("resource", 3),  # only the diagram kernel recurses
}
_FAILURE_TYPES = tuple(FAILURES)
_EXIT_CODES = {"ok": 0, **dict(FAILURES.values())}


def _fail(report: dict, e: Exception) -> dict:
    """Record failure `e` in `report` under its status from FAILURES."""
    cls = next(c for c in type(e).__mro__ if c in FAILURES)
    error = str(e)
    if cls is RecursionError:
        error = f"a decision diagram is too deep for the recursion limit ({e})"
    report.update(status=FAILURES[cls][0], error=error)
    return report


def _signed_literals(maximizer: dict[int, bool]) -> list[int]:
    return [v if b else -v for v, b in sorted(maximizer.items())]


def _load_problem(path: str, cfg: RunConfig) -> Problem:
    text = Path(path).read_text(encoding="utf-8")
    return parse_problem(text, free_as_exist=cfg.free_as_exist)


def _check_cap(p: Problem, cap: int, what: str):
    if len(p.quantified) > cap:
        raise UsageError(f"{len(p.quantified)} variables exceed the {what} cap {cap}")


def _plan(p: Problem, cfg: RunConfig, deadline: float, report: dict):
    """Plan `p`, record the plan's stats in `report` and write `--tree-out`.

    The stats stay in the report even if the deadline hits later.
    """
    t_plan = time.perf_counter()
    tree = planner.plan(p, cfg.heuristic, deadline=deadline)
    plan_seconds = time.perf_counter() - t_plan
    report["width"] = planner.width(tree, p)
    report["tree_nodes"] = len(tree.nodes)
    report["plan_seconds"] = plan_seconds
    if time.monotonic() > deadline:
        raise DeadlineExceeded("deadline hit after planning")
    if cfg.tree_out:
        Path(cfg.tree_out).write_text(planner.write_tree(tree, p))
    return tree


def recount(p: Problem, tau_x: dict[int, bool], cfg: RunConfig,
            deadline: float | None = None) -> float:
    """Probability that a random assignment to Y satisfies p under tau_x.

    A weighted model count of `condition(p, tau_x)`, planned and valuated on
    a tree and store of its own, so that it stays independent of the solve
    it checks.  With X empty the valuation takes no max and records no
    derivative sign to replay.
    """
    q = condition(p, tau_x)
    if () in q.clauses:
        return 0.0
    if not q.clauses:
        return 1.0
    tree = planner.plan(q, cfg.heuristic, deadline=deadline)
    return executor.solve(q, tree, node_limit=cfg.node_limit,
                          deadline=deadline).maximum


def run_solve(path: str, cfg: RunConfig) -> dict:
    """Full pipeline on one instance; returns a JSON-ready report dict."""
    started = time.perf_counter()
    deadline = time.monotonic() + cfg.timeout
    report: dict = {"schema_version": SCHEMA_VERSION, "instance": path}
    try:
        p = _load_problem(path, cfg)
        if cfg.debug_assert:
            _check_cap(p, executor.DEBUG_VAR_CAP, "--debug-assert")
        tree = _plan(p, cfg, deadline, report)
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
            **result.stats.as_dict(),
        )
        if cfg.verify and len(p.Y) <= RECOUNT_MAX_Y:
            t_check = time.perf_counter()
            count = recount(p, result.maximizer, cfg, deadline)
            agrees = abs(count - result.maximum) <= 1e-9
            report["verification"] = {
                "checked": True, "weighted_count": count, "agrees": agrees,
                "seconds": time.perf_counter() - t_check,
            }
            if not agrees:
                print(f"warning: maximizer re-count {count!r} disagrees with "
                      f"maximum {result.maximum!r}", file=sys.stderr)
        elif cfg.verify:
            report["verification"] = {"checked": False}
    except _FAILURE_TYPES as e:
        _fail(report, e)
    report["total_seconds"] = time.perf_counter() - started
    return report


def _text(value) -> str:
    """A report value as text: booleans as JSON spells them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _finish(report: dict, fmt: str | None) -> int:
    """Print a subcommand's report in `fmt` and return its exit code.

    A failed run also prints `error: <message>` on stderr.  JSON is one
    document on stdout.  Text is one `key: value` line per field on stdout,
    except that a report holding a tree (`plan` without `--tree-out`) puts
    the tree alone on stdout and its other lines on stderr.  With no `fmt`
    (a bad option, found before any report) only the error line is printed.
    """
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
    elif fmt == "text":
        lines = dict(report)
        tree = lines.pop("tree", None)
        out = sys.stdout if tree is None else sys.stderr
        for key, value in lines.items():
            if key == "maximum":
                value = f"{value:.17g}"
            elif key == "maximizer":
                value = " ".join(str(l) for l in value)
            elif isinstance(value, dict):
                value = " ".join(f"{k}={_text(v)}" for k, v in value.items())
            print(f"{key}: {_text(value)}", file=out)
        if tree is not None:
            sys.stdout.write(tree)
    return _EXIT_CODES[report["status"]]


def cmd_solve(args, cfg: RunConfig) -> int:
    return _finish(run_solve(args.input, cfg), cfg.fmt)


def cmd_plan(args, cfg: RunConfig) -> int:
    deadline = time.monotonic() + cfg.timeout
    report: dict = {"schema_version": SCHEMA_VERSION, "instance": args.input}
    try:
        p = _load_problem(args.input, cfg)
        tree = _plan(p, cfg, deadline, report)
        report["status"] = "ok"
        if not cfg.tree_out:
            report["tree"] = planner.write_tree(tree, p)
    except _FAILURE_TYPES as e:
        _fail(report, e)
    return _finish(report, cfg.fmt)


def _bench_one(path: str, cfg: RunConfig):
    from . import bench as bench_mod  # with csv, loaded only by `dper bench`

    name = Path(path).name
    started = time.perf_counter()
    try:
        # reference answers replace the per-run verification sub-step here
        report = run_solve(path, cfg.replace(verify=False))
    except Exception as e:  # a fault is reported, but must not end the sweep
        print(f"error: {name}: {type(e).__name__}: {e}", file=sys.stderr)
        report = {"status": "error"}
    elapsed = report.get("total_seconds", time.perf_counter() - started)
    return bench_mod.BenchRecord(
        name=name,
        # an ok run can still end past the cap: the last deadline poll comes
        # before the report is made
        solved=report["status"] == "ok" and elapsed <= cfg.timeout,
        seconds=elapsed,
        answer=report.get("maximum"),
        width=report.get("width"),
        nodes_created=report.get("diagram_nodes"),
        peak_live_nodes=report.get("peak_live_nodes"),
        executor=report.get("executor"),
        status=report["status"],
    )


def cmd_bench(args, cfg: RunConfig) -> int:
    from . import bench as bench_mod

    try:  # the summary's confidence interval; checked before any solve
        import scipy.stats  # noqa: F401
    except ImportError:
        raise UsageError("dper bench needs scipy") from None
    base = Path(args.dir)
    if not base.is_dir():
        raise UsageError(f"{base} is not a directory")
    paths = sorted(str(f) for f in base.iterdir() if f.is_file())
    if not paths:
        raise UsageError(f"no instances in {base}")
    refs: dict[str, float] = {}
    if args.ref_answers:  # read before the sweep, so a bad file costs no solves
        text = Path(args.ref_answers).read_text(encoding="utf-8")
        try:
            refs = bench_mod.load_reference_answers(text)
        except ValueError as e:
            raise UsageError(f"{args.ref_answers}: {e}") from None
        unmatched = sorted(refs.keys() - {Path(p).name for p in paths})
        if unmatched:
            raise UsageError(
                f"{args.ref_answers}: {len(unmatched)} reference names match "
                f"no instance in {base}: {' '.join(unmatched[:5])}")

    records = [_bench_one(p, cfg) for p in paths]
    bench_mod.apply_reference_answers(records, refs)

    csv_text = bench_mod.records_to_csv(records, cfg.timeout)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = bench_mod.BenchSummary(records=records, cap=cfg.timeout)
    lo, hi = summary.ci95
    print(f"instances: {len(records)}  solved: {summary.solved}  "
          f"disqualified: {summary.disqualified}  "
          f"unchecked: {len(records) - len(refs)}  "
          f"errors: {summary.errors}", file=sys.stderr)
    print(f"mean PAR-2: {summary.mean_par2:.3f}  "
          f"95% CI: [{lo:.3f}, {hi:.3f}]", file=sys.stderr)
    return 0


def cmd_oracle(args, cfg: RunConfig) -> int:
    try:
        from . import oracle  # numpy; the solve path never imports it
    except ImportError:
        raise UsageError("dper oracle needs numpy") from None
    report: dict = {"schema_version": SCHEMA_VERSION, "instance": args.input}
    try:
        p = _load_problem(args.input, cfg)
        _check_cap(p, oracle.ENUM_GUARD, "oracle enumeration")
        result = oracle.enumerate_solve(p)
        report.update(
            status="ok",
            maximum=result.maximum,
            num_maximizers=len(result.maximizers),
            maximizer=_signed_literals(result.maximizers[0]),
        )
    except _FAILURE_TYPES as e:
        _fail(report, e)
    return _finish(report, cfg.fmt)


def _config_from_args(args) -> RunConfig:
    """A RunConfig from the options given; RunConfig holds every default."""
    given = {n: getattr(args, n) for n in RunConfig.__slots__ if hasattr(args, n)}
    env = os.environ.get("DPER_NODE_LIMIT")
    if "node_limit" not in given and env:
        try:
            given["node_limit"] = int(env)
        except ValueError:
            raise UsageError(f"DPER_NODE_LIMIT must be an integer, got {env!r}") from None
    try:
        return RunConfig(**given)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _add_common(sub):
    sub.add_argument("--heuristic", choices=planner.HEURISTICS)
    sub.add_argument("--timeout", type=float,
                     help="wall-clock cap in seconds for planning + execution "
                          "(planning alone for plan)")
    sub.add_argument("--format", dest="fmt", choices=("json", "text"))
    sub.add_argument("--free-as-exist", action="store_true",
                     help="treat declared-but-unquantified unused variables "
                          "as existential")
    sub.add_argument("--node-limit", type=int,
                     help="most diagram nodes held at once; a tree runs on "
                          "dense tables only if they hold fewer entries in all "
                          "(also via DPER_NODE_LIMIT)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are UsageError (exit 1), not
    argparse's exit 2, which is the deadline's code."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dper",
        description="Exact exist-random stochastic satisfiability solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        # options not given stay unset, so RunConfig supplies their defaults
        s = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        s.set_defaults(func=func)
        _add_common(s)
        return s

    s = add("solve", cmd_solve, "solve one instance")
    s.add_argument("--input", required=True)
    s.add_argument("--debug-assert", action="store_true",
                   help="run with every annotated assertion checked")
    s.add_argument("--tree-out")

    s = add("plan", cmd_plan, "emit a graded project-join tree")
    s.add_argument("--input", required=True)
    s.add_argument("--tree-out")

    s = add("bench", cmd_bench, "run a directory of instances")
    s.add_argument("--dir", required=True)
    s.add_argument("--ref-answers", default=None,
                   help="file of 'name value' reference answers")
    s.add_argument("--out", default=None, help="CSV output path")

    s = add("oracle", cmd_oracle, "brute-force enumeration (debugging)")
    s.add_argument("--input", required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _config_from_args(args))
    except _FAILURE_TYPES as e:
        # a usage error, a bad option or environment setting, or a bench
        # file: no report
        return _finish(_fail({}, e), None)


if __name__ == "__main__":
    sys.exit(main())
