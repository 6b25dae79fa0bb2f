"""Shared fixtures and truth-table reference helpers.

The table helpers implement the function algebra directly over explicit
truth tables; diagram operations are checked against them by exhaustive
enumeration, keeping the two computation paths independent.
"""

import itertools
import sys

import pytest
from hypothesis import HealthCheck, settings

from dper import executor
from dper.formula import Problem
from dper.pbf import DiagramStore, VarOrder
from dper.planner import PjNode, PjTree

settings.register_profile(
    "suite",
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large],
)
settings.load_profile("suite")

# 6-variable worked example: existential 1,3,5 / randomized 2,4,6 at 1/2.
# Brute force over all 64 assignments gives maximum 0.75, attained exactly
# when variable 1 is true and variables 3, 5 disagree.
EXAMPLE_TEXT = """\
c worked example
p cnf 6 5
e 1 3 5 0
r 0.5 2 4 6 0
2 -4 0
1 6 0
1 0
3 5 0
-3 -5 0
"""


def make_example() -> Problem:
    return Problem(
        num_vars=6,
        clauses=((2, -4), (1, 6), (1,), (3, 5), (-3, -5)),
        X=frozenset({1, 3, 5}),
        Y=frozenset({2, 4, 6}),
        pr={2: 0.5, 4: 0.5, 6: 0.5},
    )


def monolithic_tree(p: Problem) -> PjTree:
    """The unfactored tree, a cross-check that needs no planning: one Y-grade
    node joins every clause leaf under one X-grade root, each projecting the
    clause variables of its block.  Leaf i holds clause i."""
    m, cv = len(p.clauses), p.all_clause_vars()
    nodes = {i: PjNode(clause=i) for i in range(m)}
    nodes[m] = PjNode(children=list(range(m)), projected=cv & p.Y)
    nodes[m + 1] = PjNode(children=[m], projected=cv & p.X)
    return PjTree(nodes=nodes, root=m + 1)


@pytest.fixture
def unchecked(monkeypatch):
    """Skip `debug_assert_mode`'s structural tree checks, so that a corrupted
    tree reaches the annotated assertions."""
    monkeypatch.setattr(executor, "check_tree", lambda t, p: None)


@pytest.fixture
def joined_reads(monkeypatch):
    """Record every `PjTree.joined_vars` call as (its caller's name, that
    caller's caller's name, the map returned)."""
    reads = []
    real = PjTree.joined_vars

    def spy(t, p):
        caller = sys._getframe(1)
        reads.append((caller.f_code.co_name, caller.f_back.f_code.co_name,
                      real(t, p)))
        return reads[-1][2]
    monkeypatch.setattr(PjTree, "joined_vars", spy)
    return reads


@pytest.fixture
def diagrams(monkeypatch):
    """Run every solve on the diagram store, whose counters a test asserts:
    nodes created, peak live nodes, collection and the held-node limit."""
    monkeypatch.setattr(executor, "DENSE_MAX_WORK", 0)


@pytest.fixture
def example() -> Problem:
    return make_example()


@pytest.fixture
def example_text() -> str:
    return EXAMPLE_TEXT


# -- truth-table reference algebra -------------------------------------------


def all_assignments(variables):
    variables = sorted(variables)
    for bits in itertools.product([False, True], repeat=len(variables)):
        yield dict(zip(variables, bits))


def tbl_eval(table, assign):
    """table: dict from frozenset-of-true-vars over its domain to value."""
    vars_, rows = table
    key = frozenset(v for v in vars_ if assign[v])
    return rows[key]


def tbl_from_rows(vars_, values):
    """values: list indexed by bitmask over sorted(vars_)."""
    vars_ = sorted(vars_)
    rows = {}
    for mask, val in enumerate(values):
        rows[frozenset(v for i, v in enumerate(vars_) if (mask >> i) & 1)] = val
    return (tuple(vars_), rows)


def tbl_join(ta, tb):
    va, vb = set(ta[0]), set(tb[0])
    union = sorted(va | vb)
    rows = {}
    for assign in all_assignments(union):
        key = frozenset(v for v in union if assign[v])
        rows[key] = tbl_eval(ta, assign) * tbl_eval(tb, assign)
    return (tuple(union), rows)


def tbl_project(table, x, combine):
    vars_, _ = table
    rest = sorted(set(vars_) - {x})
    rows = {}
    for assign in all_assignments(rest):
        lo = tbl_eval(table, {**assign, x: False})
        hi = tbl_eval(table, {**assign, x: True})
        rows[frozenset(v for v in rest if assign[v])] = combine(lo, hi)
    return (tuple(rest), rows)


def tbl_exists(table, x):
    return tbl_project(table, x, lambda lo, hi: max(lo, hi))


def tbl_rand(table, x, p):
    return tbl_project(table, x, lambda lo, hi: p * hi + (1.0 - p) * lo)


def tbl_dsgn(table, x):
    return tbl_project(table, x, lambda lo, hi: 1.0 if hi >= lo else 0.0)


def diagram_from_table(store: DiagramStore, table):
    """Shannon-expand an explicit table into a canonical diagram."""
    vars_, _ = table
    by_rank = sorted(vars_, key=store.order.rank)

    def build(i, assign):
        if i == len(by_rank):
            key = frozenset(v for v in vars_ if assign[v])
            return store.constant(table[1][key]).root
        v = by_rank[i]
        lo = build(i + 1, {**assign, v: False})
        hi = build(i + 1, {**assign, v: True})
        return store._mk(store.order.rank(v), lo, hi)

    from dper.pbf import PbFunc

    return PbFunc(store, build(0, {}))


def assert_diagram_matches_table(f, table, tol=0.0):
    """Exhaustively compare a diagram against its reference table."""
    vars_ = table[0]
    for assign in all_assignments(vars_):
        want = tbl_eval(table, assign)
        got = f.evaluate(assign)
        assert abs(got - want) <= tol, (assign, got, want)


def fresh_store(variables) -> DiagramStore:
    return DiagramStore(VarOrder(sorted(variables)))
