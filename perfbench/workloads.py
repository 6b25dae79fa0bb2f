"""Workload definitions: instance generators, fixed pools and reference maxima.

The generators live here rather than in `dper.gen`, so that editing the
program's own generators cannot shift the benchmark's inputs.  Each workload
is a fixed pool of instances whose maxima are stored in `refs.json` together
with a digest of the instance text; `--seed` only decides the order in which
the closed loop visits the pool.  The program sees nothing but the ER-DIMACS
files written by `materialize`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

PROBS = (0.4, 0.5, 0.6)


@dataclass(frozen=True)
class Instance:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    X: frozenset[int]
    Y: frozenset[int]
    pr: dict[int, float]


def band(rng: random.Random, window: int, length: int = 3,
         clauses_per_window: int = 2, probs=PROBS) -> Instance:
    """Sliding-window CNF whose trees have width equal to `window`.

    Draws from `rng` in exactly the order `dper.gen.band_instance` does, so
    the two give the same instance for the same generator state.
    """
    n = window * length
    x_cut = max(1, window // 2)
    clauses = []
    for start in range(1, n - window + 2, max(1, window // 2)):
        span = range(start, start + window)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in span))
    for start in range(1, n - window + 2):
        for _ in range(clauses_per_window):
            k = min(3, window)
            vs = rng.sample(range(start, start + window), k)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    X = frozenset(range(1, x_cut + 1))
    Y = frozenset(range(x_cut + 1, n + 1))
    return Instance(num_vars=n, clauses=tuple(clauses), X=X, Y=Y,
                    pr={y: rng.choice(probs) for y in Y})


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int,
                num_exist: int, probs=PROBS) -> Instance:
    """Uniform random 3-CNF with a random existential block of fixed size."""
    variables = range(1, num_vars + 1)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(variables, 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    X = frozenset(rng.sample(variables, num_exist))
    Y = frozenset(variables) - X
    return Instance(num_vars=num_vars, clauses=tuple(clauses), X=X, Y=Y,
                    pr={y: rng.choice(probs) for y in sorted(Y)})


def to_er_dimacs(inst: Instance) -> str:
    """ER-DIMACS text laid out line for line as `dper.formula.serialize`."""
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    if inst.X:
        lines.append("e " + " ".join(str(v) for v in sorted(inst.X)) + " 0")
    by_prob: dict[float, list[int]] = {}
    for v in sorted(inst.Y):
        by_prob.setdefault(inst.pr[v], []).append(v)
    for prob in sorted(by_prob):
        vs = " ".join(str(v) for v in by_prob[prob])
        lines.append(f"r {prob!r} {vs} 0")
    for c in inst.clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    cap: float        # seconds; a solve past it scores 2 * cap (PAR-2)
    pool: tuple[tuple[str, Callable[[], Instance]], ...]  # (name, generator)

    def instances(self):
        for name, make in self.pool:
            yield name, to_er_dimacs(make())


def _band_pool(window: int, length: int, count: int):
    return tuple(
        (f"band_w{window:02d}_l{length}_{i}",
         lambda i=i: band(random.Random(1000 * window + i), window, length))
        for i in range(count))


def _rand_pool(tag: str, num_vars: int, num_clauses: int, num_exist: int,
               count: int, base: int):
    return tuple(
        (f"{tag}_n{num_vars}_m{num_clauses}_e{num_exist}_{i}",
         lambda i=i: random_3cnf(random.Random(base + i), num_vars,
                                 num_clauses, num_exist))
        for i in range(count))


# Why each workload exists is recorded in BENCHMARK.json; in short:
#   band-wide    width 20, |Y| = 50: the diagram kernel does the work.
#   band-long    width 8 over 320 variables: min-fill ordering does the work.
#   rand-exist   2/3 existential: max/ge kernel work (exists_project, dsgn).
#   rand-verify  20 randomized: the maximizer re-count in `oracle` dominates.
# Pools are small enough that a 24 s run visits every instance about six
# times at the commit that made them, so that each instance's fastest visit
# is likely to have escaped interference from other tenants of the host.
WORKLOADS = {
    w.name: w for w in (
        Workload("band-wide", cap=20.0, pool=_band_pool(20, 3, 8)),
        Workload("band-long", cap=20.0, pool=_band_pool(8, 40, 8)),
        Workload("rand-exist", cap=20.0,
                 pool=_rand_pool("rx", 28, 56, 19, 8, base=28000)),
        Workload("rand-verify", cap=20.0,
                 pool=_rand_pool("rv", 25, 50, 5, 8, base=25000)),
    )
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs(path: Path = REFS_PATH) -> dict[str, dict[str, dict]]:
    """workload -> instance name -> {"sha256": ..., "maximum": ...}."""
    return json.loads(path.read_text())


class StaleReferenceError(Exception):
    """A generated instance differs from the one its reference was made for."""


def materialize(workload: Workload, out_dir: Path,
                refs: dict[str, dict]) -> dict[str, float]:
    """Write the pool as ER-DIMACS files; return name -> reference maximum.

    Refuses to run against references made for other instance texts.
    """
    out: dict[str, float] = {}
    for name, text in workload.instances():
        ref = refs.get(name)
        if ref is None or ref["sha256"] != digest(text):
            raise StaleReferenceError(
                f"{workload.name}/{name}: no stored reference for this text")
        (out_dir / f"{name}.cnf").write_text(text)
        out[name] = ref["maximum"]
    return out
