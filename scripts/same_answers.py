#!/usr/bin/env python3
"""Print one JSON line of answers and solve counters per instance, so that
two commits can be compared by diffing this script's output.

The instances are the 32 benchmark pool instances (made by
`perfbench.workloads`, which this script only reads) and
`dper.gen.random_instance(Random(20260810 + i))` for i < N.  Each is planned
with min-fill and solved as `dper solve` solves it.  A line holds the
maximum as `float.hex`, the maximizer as sorted signed literals, the
store's counters (executor, diagram_nodes, peak_live_nodes, max_support and
underflow), the x-region's floor `exist_bound` as `float.hex` and the
variable a split solve split on (`split`, 0 if it ran in one process; a
split needs two CPUs, so `taskset -c 0` makes every line 0).  Its
"diagram" object repeats the maximum, maximizer, node counts, max_support,
exist_bound and split of the same tree solved with
`executor.DENSE_MAX_WORK = 0`, so that the diagram kernel is compared on
every instance, not only on those `dper solve` runs on diagrams.

    PYTHONPATH=src python scripts/same_answers.py > answers.jsonl
    PYTHONPATH=src python scripts/same_answers.py --fuzz 20
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # perfbench

from dper import executor, planner  # noqa: E402
from dper.formula import parse_problem  # noqa: E402
from dper.gen import random_instance  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

FUZZ_SEED = 20260810


def instances(fuzz: int):
    """(name, Problem) for each pool instance, then each fuzz instance."""
    for w in WORKLOADS.values():
        for name, text in w.instances():
            yield f"{w.name}/{name}", parse_problem(text)
    for i in range(fuzz):
        yield f"fuzz/{i}", random_instance(random.Random(FUZZ_SEED + i))


def fields(r) -> dict:
    s = r.stats
    return {
        "maximum": r.maximum.hex(),
        "maximizer": [v if b else -v for v, b in sorted(r.maximizer.items())],
        "executor": s.executor,
        "diagram_nodes": s.diagram_nodes,
        "peak_live_nodes": s.peak_live_nodes,
        "max_support": s.max_support,
        "underflow": s.underflow,
        "exist_bound": s.exist_bound.hex(),
        "split": s.split,
    }


def answers(p) -> dict:
    t = planner.plan(p, "min-fill")
    r = executor.solve(p, t)
    saved, executor.DENSE_MAX_WORK = executor.DENSE_MAX_WORK, 0
    try:
        d = fields(executor.solve(p, t))
    finally:
        executor.DENSE_MAX_WORK = saved
    del d["executor"], d["underflow"]
    return {**fields(r), "diagram": d}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fuzz", type=int, default=600,
                    help="fuzz instances after the pool (default 600)")
    args = ap.parse_args()
    for name, p in instances(args.fuzz):
        print(json.dumps({"instance": name, **answers(p)}), flush=True)


if __name__ == "__main__":
    main()
