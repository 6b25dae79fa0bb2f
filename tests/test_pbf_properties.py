"""Algebra properties checked by truth-table enumeration on random diagrams.

Every property runs 500 hypothesis cases over diagrams of up to 10 total
variables.  Values are drawn from one small dyadic pool in [0, 1], the
stores' value domain, so that products are exact in double precision and
maximization distributes over every factor.  The last four tests check
exact supports (against a DAG walk, and against cofactors across
collections), projections under many distinct probabilities, and a solve
whose every randomized variable has its own probability.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dper import oracle
from dper.executor import solve
from dper.formula import Problem, validate
from dper.planner import plan

from conftest import (all_assignments, diagram_from_table, fresh_store,
                      tbl_dsgn, tbl_eval, tbl_exists, tbl_from_rows, tbl_join,
                      tbl_rand)

VAR_POOL = list(range(1, 11))
VALUES = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
PROBS = [0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0]

CASES = settings(max_examples=500)


def two_disjoint_supports(draw, max_each=5, min_f=0):
    names = draw(st.permutations(VAR_POOL))
    na = draw(st.integers(min_f, max_each))
    nb = draw(st.integers(0, max_each))
    va, vb = sorted(names[:na]), sorted(names[na:na + nb])
    fa = tbl_from_rows(va, draw(st.lists(st.sampled_from(VALUES),
                                         min_size=1 << na, max_size=1 << na)))
    fb = tbl_from_rows(vb, draw(st.lists(st.sampled_from(VALUES),
                                         min_size=1 << nb, max_size=1 << nb)))
    return fa, fb


@st.composite
def early_projection_case(draw):
    """f and g with disjoint supports plus a projection set private to f."""
    ta, tb = two_disjoint_supports(draw)
    if ta[0]:
        s = draw(st.lists(st.sampled_from(sorted(ta[0])), unique=True))
    else:
        s = []
    return ta, tb, s


@CASES
@given(early_projection_case())
def test_early_projection_exists_form(case):
    # max commutes with a non-negative untouched factor, exactly
    ta, tb, s = case
    store = fresh_store(set(ta[0]) | set(tb[0]))
    f = diagram_from_table(store, ta)
    g = diagram_from_table(store, tb)
    lhs = f.join(g)
    rhs = f
    for x in s:
        lhs = lhs.exists_project(x)
        rhs = rhs.exists_project(x)
    rhs = rhs.join(g)
    assert lhs == rhs  # canonical handles: exact equality
    ref = tbl_join(ta, tb)
    for x in s:
        ref = tbl_exists(ref, x)
    for assign in all_assignments(ref[0]):
        assert lhs.evaluate(assign) == tbl_eval(ref, assign)

@CASES
@given(early_projection_case(), st.sampled_from(PROBS))
def test_early_projection_rand_form(case, p):
    ta, tb, s = case
    store = fresh_store(set(ta[0]) | set(tb[0]))
    f = diagram_from_table(store, ta)
    g = diagram_from_table(store, tb)
    lhs = f.join(g)
    rhs = f
    for x in s:
        lhs = lhs.rand_project(x, p)
        rhs = rhs.rand_project(x, p)
    rhs = rhs.join(g)
    ref = tbl_join(ta, tb)
    for x in s:
        ref = tbl_rand(ref, x, p)
    for assign in all_assignments(ref[0]):
        a, b = lhs.evaluate(assign), rhs.evaluate(assign)
        want = tbl_eval(ref, assign)
        # convex sums associate differently on the two sides
        assert a == pytest.approx(want, abs=1e-12)
        assert b == pytest.approx(want, abs=1e-12)


@st.composite
def table_and_two_vars(draw):
    vars_ = draw(st.lists(st.sampled_from(VAR_POOL), unique=True,
                          min_size=2, max_size=6))
    rows = draw(st.lists(st.sampled_from(VALUES),
                         min_size=1 << len(vars_), max_size=1 << len(vars_)))
    x = draw(st.sampled_from(vars_))
    y = draw(st.sampled_from([v for v in vars_ if v != x]))
    return tbl_from_rows(vars_, rows), x, y


@CASES
@given(table_and_two_vars())
def test_exists_projection_commutes(case):
    table, x, y = case
    store = fresh_store(table[0])
    f = diagram_from_table(store, table)
    assert (f.exists_project(x).exists_project(y)
            == f.exists_project(y).exists_project(x))
    ref = table
    for v in (x, y):
        f, ref = f.exists_project(v), tbl_exists(ref, v)
        for assign in all_assignments(ref[0]):
            assert f.evaluate(assign) == tbl_eval(ref, assign)

@CASES
@given(table_and_two_vars(), st.sampled_from(PROBS),
       st.sampled_from(PROBS))
def test_rand_projection_commutes(case, p, q):
    table, x, y = case
    store = fresh_store(table[0])
    f = diagram_from_table(store, table)
    a = f.rand_project(x, p).rand_project(y, q)
    b = f.rand_project(y, q).rand_project(x, p)
    ref = tbl_rand(tbl_rand(table, x, p), y, q)
    for assign in all_assignments(ref[0]):
        want = tbl_eval(ref, assign)
        assert a.evaluate(assign) == pytest.approx(want, abs=1e-12)
        assert b.evaluate(assign) == pytest.approx(want, abs=1e-12)


@st.composite
def three_tables(draw):
    names = draw(st.permutations(VAR_POOL))
    sizes = [draw(st.integers(0, 3)) for _ in range(3)]
    out = []
    start = 0
    for k in sizes:
        overlap = draw(st.integers(0, min(start, 1)))  # allow shared vars
        vars_ = sorted(names[start - overlap:start + k])
        rows = draw(st.lists(st.sampled_from(VALUES),
                             min_size=1 << len(vars_),
                             max_size=1 << len(vars_)))
        out.append(tbl_from_rows(vars_, rows))
        start += k
    return out


@CASES
@given(three_tables())
def test_join_commutative_as_handles(tables):
    ta, tb, _ = tables
    store = fresh_store(set(ta[0]) | set(tb[0]))
    f = diagram_from_table(store, ta)
    g = diagram_from_table(store, tb)
    assert f.join(g) == g.join(f)

@CASES
@given(three_tables())
def test_join_associative_as_handles(tables):
    # dyadic value pools keep triple products exact, so both
    # parenthesizations reach the identical stored diagram
    ta, tb, tc = tables
    store = fresh_store(set(ta[0]) | set(tb[0]) | set(tc[0]))
    f = diagram_from_table(store, ta)
    g = diagram_from_table(store, tb)
    h = diagram_from_table(store, tc)
    assert f.join(g).join(h) == f.join(g.join(h))
    ref = tbl_join(tbl_join(ta, tb), tc)
    got = f.join(g).join(h)
    for assign in all_assignments(ref[0]):
        assert got.evaluate(assign) == tbl_eval(ref, assign)


@st.composite
def table_and_var(draw, min_vars=1, max_vars=6):
    vars_ = draw(st.lists(st.sampled_from(VAR_POOL), unique=True,
                          min_size=min_vars, max_size=max_vars))
    rows = draw(st.lists(st.sampled_from(VALUES),
                         min_size=1 << len(vars_), max_size=1 << len(vars_)))
    x = draw(st.sampled_from(vars_))
    return tbl_from_rows(vars_, rows), x


@CASES
@given(table_and_var())
def test_dsgn_tie_rule_and_semantics(case):
    # the small value pool makes genuine ties frequent
    table, x = case
    store = fresh_store(table[0])
    d = diagram_from_table(store, table).dsgn(x)
    assert d.var == x
    ref = tbl_dsgn(table, x)
    for assign in all_assignments(ref[0]):
        hi = tbl_eval(table, {**assign, x: True})
        lo = tbl_eval(table, {**assign, x: False})
        got = d.pick(assign)
        assert got == (tbl_eval(ref, assign) == 1.0)
        assert d.pick({**assign, x: not got}) == got  # x itself is not read
        if hi == lo:
            assert got is True  # ties resolve to assigning 1


@st.composite
def dsgn_join_case(draw):
    ta, tb = two_disjoint_supports(draw, min_f=1)
    x = draw(st.sampled_from(sorted(ta[0])))
    return ta, tb, x


@CASES
@given(dsgn_join_case())
def test_dsgn_survives_positive_factor(case):
    # for non-negative f and g with x private to f: wherever g > 0 the
    # derivative signs of f and f*g agree; where g = 0 the joined
    # cofactors tie and the sign picks 1
    ta, tb, x = case
    store = fresh_store(set(ta[0]) | set(tb[0]))
    f = diagram_from_table(store, ta)
    g = diagram_from_table(store, tb)
    d_f = f.dsgn(x)
    d_fg = f.join(g).dsgn(x)
    ref = tbl_dsgn(ta, x)
    union = sorted((set(ta[0]) | set(tb[0])) - {x})
    for assign in all_assignments(union):
        g_val = tbl_eval(tb, assign)
        joint = d_fg.pick(assign)
        assert d_f.pick(assign) == (tbl_eval(ref, assign) == 1.0)
        if g_val > 0:
            assert joint == d_f.pick(assign)
        elif g_val == 0:
            assert joint is True


def walked_support(f):
    """Variables labelling the nodes reachable from f, by walking the DAG."""
    st_ = f.store
    seen, stack, found = set(), [f.root], set()
    while stack:
        h = stack.pop()
        if h in seen or st_._lev[h] == st_._tlev:
            continue
        seen.add(h)
        found.add(st_.order.variables[st_._lev[h]])
        stack += [st_._lo[h], st_._hi[h]]
    return found


OPS = st.one_of(
    st.tuples(st.just("join"), st.integers(0, 99)),
    st.tuples(st.just("exists"), st.sampled_from(VAR_POOL)),
    st.tuples(st.just("rand"), st.sampled_from(VAR_POOL),
              st.sampled_from(PROBS)),
)


@CASES
@given(st.lists(table_and_var().map(lambda c: c[0]),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 99), OPS), min_size=1, max_size=12))
def test_support_mask_matches_dag_walk(tables, steps):
    # every result must carry its exact support
    store = fresh_store(VAR_POOL)
    pool = [diagram_from_table(store, t) for t in tables]
    for i, (op, *args) in steps:
        f = pool[i % len(pool)]
        if op == "join":
            g = f.join(pool[args[0] % len(pool)])
        elif op == "exists":
            g = f.exists_project(args[0])
        else:
            g = f.rand_project(*args)
        assert args[0] not in g.support or op == "join"
        pool.append(g)
    for f in pool:
        assert f.support == walked_support(f)


SUPPORT_POOL = VAR_POOL[:6]  # few enough to evaluate every assignment
POOL_ASSIGNMENTS = [dict(zip(SUPPORT_POOL, (bool(m >> i & 1) for i in range(6))))
                    for m in range(1 << 6)]


def cofactor_support(f):
    """Variables of SUPPORT_POOL whose flip changes f's value somewhere."""
    values = [f.evaluate(a) for a in POOL_ASSIGNMENTS]
    return {v for i, v in enumerate(SUPPORT_POOL)
            if any(values[m] != values[m | 1 << i] for m in range(1 << 6))}


SMALL_TABLES = st.lists(st.sampled_from(SUPPORT_POOL), unique=True, min_size=1,
                        max_size=4).flatmap(
    lambda vs: st.lists(st.sampled_from(VALUES), min_size=1 << len(vs),
                        max_size=1 << len(vs)).map(lambda r: tbl_from_rows(vs, r)))
STEPS_WITH_COLLECT = st.one_of(
    st.tuples(st.just("join"), st.integers(0, 99)),
    st.tuples(st.just("exists"), st.sampled_from(SUPPORT_POOL)),
    st.tuples(st.just("rand"), st.sampled_from(SUPPORT_POOL),
              st.sampled_from(PROBS)),
    st.tuples(st.just("collect"), st.integers(0, 99)),
    st.tuples(st.just("table"), SMALL_TABLES),
)


@CASES
@given(st.lists(SMALL_TABLES, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 99), STEPS_WITH_COLLECT),
                min_size=1, max_size=16))
def test_support_matches_cofactors_across_collections(tables, steps):
    # a support is walked and a bound recorded per handle, so both must
    # hold for every kept function after collections free slots that later
    # nodes reuse
    store = fresh_store(SUPPORT_POOL)
    pool = [diagram_from_table(store, t) for t in tables]

    def check(f):
        want = cofactor_support(f)
        assert f.support == want
        assert len(want) <= f.support_bound()

    for i, (op, *args) in steps:
        f = pool[i % len(pool)]
        if op == "collect":
            pool = pool[-(args[0] % len(pool)) - 1:]  # keep the newest ones
            store.collect(g.root for g in pool)
            for g in pool:
                check(g)
            continue
        if op == "join":
            g = f.join(pool[args[0] % len(pool)])
        elif op == "exists":
            g = f.exists_project(args[0])
        elif op == "rand":
            g = f.rand_project(*args)
        else:  # its nodes, made by `_mk` alone, have no recorded bound
            g = diagram_from_table(store, args[0])
        check(g)
        pool.append(g)


def test_rand_project_keeps_each_probability_apart():
    # the op cache is not cleared between these calls, so probabilities
    # sharing an op id would get each other's cached results
    rng = random.Random(5)
    vars_ = [1, 2, 3, 4]
    table = tbl_from_rows(vars_, [rng.choice(VALUES) for _ in range(16)])
    store = fresh_store(vars_)
    f = diagram_from_table(store, table)
    for k in range(40):
        p = (k + 1) / 41
        for x in vars_:
            got = f.rand_project(x, p)
            ref = tbl_rand(table, x, p)
            for assign in all_assignments(ref[0]):
                assert got.evaluate(assign) == pytest.approx(
                    tbl_eval(ref, assign), abs=1e-12)


def test_executor_with_a_probability_per_variable():
    # every randomized variable gets its own probability, so each
    # randomized projection runs under its own convex op id
    for seed in range(3):
        rng = random.Random(7100 + seed)
        n, num_x = 23, 3
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3))
            for _ in range(30))
        X = frozenset(range(1, num_x + 1))
        Y = frozenset(range(num_x + 1, n + 1))
        pr = {y: rng.uniform(0.05, 0.95) for y in Y}
        assert len(set(pr.values())) >= 20
        p = Problem(num_vars=n, clauses=clauses, X=X, Y=Y, pr=pr)
        validate(p)
        r = solve(p, plan(p))
        want = oracle.enumerate_solve(p)
        assert abs(r.maximum - want.maximum) <= 1e-9
        assert abs(oracle.weighted_count(p, r.maximizer) - r.maximum) <= 1e-9
