"""Build `refs.json`: the reference maximum of every pool instance.

    python3 perfbench/make_refs.py

Each maximum comes from `dper solve` (min-fill plan) and is accepted only if

* a min-degree plan of the same instance gives the same maximum,
* and, where |Y| <= oracle.ENUM_GUARD, the brute-force weighted count of the
  returned maximizer equals the maximum,

both within a relative 1e-9 (`scoring.matches`), which for maxima of at most
1 is also an absolute 1e-9.

Band instances are also checked to be byte-identical to
`dper.formula.serialize(dper.gen.band_instance(...))` for the same generator
state.  The references are then fixed: later changes to the program are
measured against them, not used to remake them.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dper import cli, executor, gen, oracle, planner  # noqa: E402
from dper.formula import parse_problem, serialize  # noqa: E402
from perfbench import scoring, workloads  # noqa: E402

BAND_NAME = re.compile(r"band_w(\d+)_l(\d+)_(\d+)$")


def check_band_generator(name: str, text: str) -> None:
    window, length, i = (int(g) for g in BAND_NAME.match(name).groups())
    rng = random.Random(1000 * window + i)
    theirs = serialize(gen.band_instance(rng, window, length))
    if theirs != text:
        raise SystemExit(f"{name}: differs from dper.gen.band_instance")


def reference(name: str, text: str, tmp: Path) -> float:
    path = tmp / f"{name}.cnf"
    path.write_text(text)
    report = cli.run_solve(str(path), cli.RunConfig())
    if report["status"] != "ok":
        raise SystemExit(f"{name}: solve failed: {report}")
    maximum = report["maximum"]
    p = parse_problem(text)
    other = executor.solve(p, planner.plan(p, "min-degree")).maximum
    if not scoring.matches(other, maximum):
        raise SystemExit(f"{name}: min-fill {maximum!r} != min-degree {other!r}")
    checked = "-"
    if len(p.Y) <= oracle.ENUM_GUARD:
        tau = {abs(l): l > 0 for l in report["maximizer"]}
        recount = oracle.weighted_count(p, tau)
        if not scoring.matches(recount, maximum):
            raise SystemExit(f"{name}: re-count {recount!r} != {maximum!r}")
        checked = "re-counted"
    print(f"{name}: width {report['width']} maximum {maximum!r} "
          f"min-degree {other!r} {checked}", flush=True)
    return maximum


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for wl in workloads.WORKLOADS.values():
            entries = {}
            for name, text in wl.instances():
                if name.startswith("band_"):
                    check_band_generator(name, text)
                entries[name] = {"sha256": workloads.digest(text),
                                 "maximum": reference(name, text, Path(tmp))}
            refs[wl.name] = entries
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                   + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
