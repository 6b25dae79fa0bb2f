"""An exact certificate for the maximum and the maximizer, past enumeration.

The enumeration oracle stops at 24 variables.  ExactStore is the diagram
store with rational terminals: every probability is the exact value of its
double, and products, maxima and convex combinations are computed without
rounding.  Valuating a tree on it gives the true maximum of the formula as
written, against which the float solve is checked on the benchmark pools:
its maximum and the pool's stored reference maximum (`perfbench/refs.json`)
must be within 1e-12 relative of the exact one, and the exact count of the
formula conditioned on its maximizer must reach the exact maximum within
the same tolerance.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dper.executor import diagram_var_order, solve, valuate
from dper.formula import Problem, condition, parse_problem
from dper.pbf import ONE, ZERO, DiagramStore, PbFunc
from dper.planner import plan

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for perfbench
from perfbench.workloads import WORKLOADS, load_refs, to_er_dimacs  # noqa: E402

REL_TOL = 1e-12
PER_POOL = 2  # instances of each benchmark pool, the first ones


class ExactProb(Fraction):
    """A probability p for which 1.0 - p stays exact: Fraction's reflected
    subtraction turns the result into a float when the other side is one."""

    def __rsub__(self, other):
        return Fraction(other) - Fraction(self)


class ExactStore(DiagramStore):
    """A DiagramStore whose terminals are `Fraction`s, so that the kernel's
    own recursions compute every value exactly."""

    def __init__(self, order):
        super().__init__(order)
        self._val[ZERO], self._val[ONE] = Fraction(0), Fraction(1)

    def constant(self, c):
        return PbFunc(self, self._terminal(Fraction(c)))

    def rand_project(self, f, x, p):
        return super().rand_project(f, x, ExactProb(p))


def exact_value(p: Problem) -> Fraction:
    """The exact maximum of p, from a tree planned for it, on diagrams in
    the order a diagram solve uses."""
    if () in p.clauses:
        return Fraction(0)
    if not p.clauses:
        return Fraction(1)
    t = plan(p)
    store = ExactStore(diagram_var_order(p))
    f = valuate(p, t, t.postorder(), [], store)[t.root]
    value = f.evaluate({})
    assert isinstance(value, Fraction)  # one float anywhere makes it a float
    return value


REFS = load_refs()
POOL = [pytest.param(make, REFS[w.name][name]["maximum"],
                     id=f"{w.name}/{name}")
        for w in WORKLOADS.values() for name, make in w.pool[:PER_POOL]]


def test_exact_terminals_stay_exact():
    # 0.4 is not 2/5 as a double; the store keeps the double's exact value,
    # and 1.0 - p does not round
    p = parse_problem("p cnf 2 2\nr 0.4 1 2 0\n1 2 0\n-1 -2 0\n")
    q = 0.4
    want = Fraction(q) * (1 - Fraction(q)) * 2
    assert exact_value(p) == want
    assert isinstance(1.0 - ExactProb(q), Fraction)


@pytest.mark.parametrize("make, ref", POOL)
def test_float_solve_against_exact(make, ref):
    p = parse_problem(to_er_dimacs(make()))
    r = solve(p, plan(p))
    exact = exact_value(p)
    assert exact > 0
    assert abs(Fraction(r.maximum) - exact) <= REL_TOL * exact
    assert abs(Fraction(ref) - exact) <= REL_TOL * exact
    achieved = exact_value(condition(p, r.maximizer))
    assert abs(achieved - exact) <= REL_TOL * exact
