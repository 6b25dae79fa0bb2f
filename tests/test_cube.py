"""Valuating the tree under a cube: `executor._run(..., fixed=cube)`, where
each leaf takes its clause's cofactor by a set of literals
(`formula.cofactor`).

Every store operation is pointwise, so a cube run computes the tree's own
values at every assignment in the cube, with the same float operations.
Hence a cube of the maximizer's literals gives the maximum bit for bit, and
no cube gives more than the maximum, with no rounding margin.  On the fuzz
instances a random cube's maximum is also checked against the oracle's
maximum of the formula with the cube's literals as unit clauses.  The split's
halves are the one-literal cubes of x*; a bound for the randomized region
may run larger ones.

Each run is one process on the store `choose_store` picks.  The pools are
the benchmark's; band-wide, whose cube runs cost about a second per
instance, gives its first 2 instances.  The fuzz instances are those of
`scripts/same_answers.py`.
"""

import random
import sys
from itertools import islice
from pathlib import Path

import pytest

from dper import executor, oracle
from dper.formula import Problem, parse_problem
from dper.gen import random_instance
from dper.planner import plan

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for perfbench
from perfbench.workloads import WORKLOADS  # noqa: E402

FUZZ_SEED = 20260810  # `scripts/same_answers.py`'s
POOL_SHARE = {"band-wide": 2}  # instances taken from a pool, if not all


def run(p, t, cube=frozenset()):
    return executor._run(p, t, executor.choose_store(p, t), fixed=cube)


def check_cubes(p, rng, exact=False) -> tuple[int, int]:
    """Check the maximizer's cubes of 1, 3 and all of its clause-variable
    literals, then two random existential cubes of 1 and 3 literals, with
    `exact` against the oracle too; return how many cubes of each kind
    were checked."""
    t = plan(p)
    r = run(p, t)
    xs = sorted(p.X & p.all_clause_vars())
    if not xs:
        return 0, 0
    lits = [x if r.maximizer[x] else -x for x in xs]
    for k in (1, 3, len(lits)):
        cube = frozenset(rng.sample(lits, min(k, len(lits))))
        assert run(p, t, cube).maximum.hex() == r.maximum.hex(), sorted(cube)
    for k in (1, 3):
        cube = frozenset(rng.choice((x, -x))
                         for x in rng.sample(xs, min(k, len(xs))))
        m = run(p, t, cube).maximum
        assert m <= r.maximum, sorted(cube)
        if exact:
            units = tuple((l,) for l in sorted(cube))
            q = Problem(p.num_vars, p.clauses + units, p.X, p.Y, p.pr)
            assert abs(m - oracle.enumerate_solve(q).maximum) <= 1e-9, sorted(cube)
    return 3, 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pool(name):
    instances = islice(WORKLOADS[name].instances(), POOL_SHARE.get(name))
    checked = [check_cubes(parse_problem(text), random.Random(n))
               for n, text in instances]
    # every pool instance has existential clause variables
    assert set(checked) == {(3, 2)}, name


def test_fuzz():
    maximizer = bounded = 0
    for i in range(600):
        p = random_instance(random.Random(FUZZ_SEED + i))
        m, b = check_cubes(p, random.Random(i), exact=True)
        maximizer += m
        bounded += b
    assert maximizer >= 1500 and bounded >= 1000
