"""Span tracing from outside the program: wrap each layer's public entry points.

Each function is wrapped where its caller looks it up.  `dper.cli` imports
`parse_problem` by name, so the wrapper replaces `dper.cli.parse_problem`;
`cli` reaches the planner through the module (`planner.plan`), so that one is
replaced on `dper.planner`.  The executor's own `tree_width` binding is left
alone, which keeps its second width computation inside executor self time.

Spans nest through a stack.  A span's self time is its duration minus the
durations of the spans opened directly inside it.  Spans are aggregated per
name in memory as they close: (total seconds, self seconds, calls).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ROOT_SPAN = "cli.run_solve"
# `support` is a property of PbFunc and `clause_func` a DiagramStore method;
# the others are PbFunc methods.  Each is traced as span `pbf.<name>`.
PBF_OPS = ("join", "rand_project", "exists_project", "dsgn", "support",
           "evaluate", "clause_func")


def entry_points():
    """(owner, attribute, span name) for every traced boundary."""
    from dper import cli, executor, oracle, pbf, planner

    points = [
        (cli, "run_solve", ROOT_SPAN),
        (cli, "parse_problem", "formula.parse"),
        (planner, "plan", "planner.plan"),
        (planner, "elimination_order", "planner.order"),
        (planner, "build_graded_tree", "planner.build"),
        (planner, "width", "planner.width"),
        (executor, "solve", "executor.solve"),
        (oracle, "weighted_count", "oracle.weighted_count"),
    ]
    for op in PBF_OPS:
        owner = pbf.DiagramStore if op == "clause_func" else pbf.PbFunc
        points.append((owner, op, f"pbf.{op}"))
    return points


class Tracer:
    """Per-name span totals; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[str, list] = {}   # name -> [total_s, self_s, calls]
        self._stack: list[list[float]] = []  # child seconds of each open span

    def reset(self) -> dict[str, list]:
        """Return the totals gathered so far and start afresh."""
        out, self.totals = self.totals, {}
        return out

    def wrap(self, fn, name: str):
        """`fn` with a span named `name` around every call."""
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                acc = self.totals.setdefault(name, [0.0, 0.0, 0])
                acc[0] += dur
                acc[1] += dur - children[0]
                acc[2] += 1
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in entry_points():
                orig = vars(owner)[attr]  # a property stays a property
                if isinstance(orig, property):
                    new = property(self.wrap(orig.fget, name))
                else:
                    new = self.wrap(orig, name)
                setattr(owner, attr, new)
                saved.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
