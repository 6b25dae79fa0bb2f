#!/usr/bin/env python3
"""Generate the band family, solve every instance, and print the
width-bucket table of diagram nodes created (the qualitative cost profile:
bigger width, exponentially bigger diagrams).  Each instance's line also
shows the most nodes its diagram store held at once (peak_live_nodes).
"""

import argparse
import random
import time
from collections import defaultdict

from dper import executor, planner
from dper.gen import band_instance

BUCKETS = (5, 10, 15, 20, 25)


def bucket_of(width):
    for b in BUCKETS:
        if width <= b:
            return b
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", type=int, nargs="+", default=[4, 9, 14, 19, 24])
    ap.add_argument("--per-window", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=float, default=60.0)
    args = ap.parse_args()
    executor.DENSE_MAX_WORK = 0  # the table profiles diagrams, even for small trees

    created = defaultdict(list)
    for w in args.windows:
        for i in range(args.per_window):
            rng = random.Random(args.seed + 1000 * w + i)
            p = band_instance(rng, w)
            tree = planner.plan(p, "min-fill")
            width = planner.width(tree, p)
            t0 = time.perf_counter()
            r = executor.solve(p, tree)
            dt = time.perf_counter() - t0
            status = "ok" if dt <= args.cap else "OVER CAP"
            print(f"window={w:2d} inst={i} width={width:2d} "
                  f"nodes_created={r.stats.diagram_nodes:8d} "
                  f"peak_live_nodes={r.stats.peak_live_nodes:7d} "
                  f"time={dt:6.2f}s {status}")
            created[bucket_of(width)].append(r.stats.diagram_nodes)

    print("\nwidth bucket -> mean diagram nodes created")
    prev = None
    for b in BUCKETS:
        if not created[b]:
            continue
        mean = sum(created[b]) / len(created[b])
        mark = "" if prev is None or mean > prev else "  (not monotone!)"
        print(f"  <= {b:2d}: {mean:12.1f}{mark}")
        prev = mean


if __name__ == "__main__":
    main()
