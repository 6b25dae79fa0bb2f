import math
import random
import time

import pytest

from dper.dense import DenseStore
from dper.pbf import (HANDLE_BITS, MAX, ONE, ZERO, DeadlineExceeded,
                      DiagramStore, ResourceLimitError, VarOrder)

from conftest import (all_assignments, assert_diagram_matches_table,
                      diagram_from_table, fresh_store, tbl_from_rows)


class TestConstants:
    def test_constant_value(self):
        st = fresh_store([1])
        assert st.constant(0.75).evaluate({}) == 0.75

    def test_constant_support_empty(self):
        st = fresh_store([1])
        assert st.constant(0.5).support == frozenset()

    def test_multiplicative_identity(self):
        st = fresh_store([1, 2])
        g = st.clause_func((1, -2))
        assert st.constant(1.0).join(g) == g

    def test_annihilator(self):
        st = fresh_store([1, 2])
        g = st.clause_func((1, -2))
        assert st.constant(0.0).join(g) == st.constant(0.0)

    def test_nonfinite_rejected(self):
        st = fresh_store([1])
        with pytest.raises(ValueError):
            st.constant(math.inf)
        with pytest.raises(ValueError):
            st.constant(math.nan)

    def test_outside_unit_interval_rejected(self):
        # [0, 1] is the one value domain of both stores
        for st in (fresh_store([1]), DenseStore(VarOrder([1]))):
            for c in (-0.5, 2.0):
                with pytest.raises(ValueError, match=r"\[0, 1\]"):
                    st.constant(c)

    def test_terminals_deduplicated(self):
        st = fresh_store([1])
        assert st.constant(0.3).root == st.constant(0.3).root


class TestClauseFunc:
    def test_unit_clause(self):
        st = fresh_store([1])
        f = st.clause_func((1,))
        assert f.evaluate({1: True}) == 1.0
        assert f.evaluate({1: False}) == 0.0

    def test_two_literal_clause_truth_table(self):
        # z2 or not z4: false only at z2=0, z4=1
        st = fresh_store([2, 4])
        f = st.clause_func((2, -4))
        for assign in all_assignments([2, 4]):
            want = 1.0 if (assign[2] or not assign[4]) else 0.0
            assert f.evaluate(assign) == want

    def test_empty_clause_is_zero(self):
        st = fresh_store([1])
        assert st.clause_func(()) == st.constant(0.0)

    def test_terminals_are_boolean(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, -2, 3))
        assert {f.evaluate(a) for a in all_assignments([1, 2, 3])} == {0.0, 1.0}


class TestJoin:
    def test_commutes_to_identical_handle(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2))
        g = st.clause_func((-2, 3))
        assert f.join(g) == g.join(f)

    def test_four_entry_product(self):
        # f over {1}: 0.5, 0.75; g over {2}: 0.25, 0.5 -> products 0.125,
        # 0.25, 0.1875, 0.375, all exact
        st = fresh_store([1, 2])
        f = diagram_from_table(st, tbl_from_rows([1], [0.5, 0.75]))
        g = diagram_from_table(st, tbl_from_rows([2], [0.25, 0.5]))
        h = f.join(g)
        assert h.evaluate({1: False, 2: False}) == 0.125
        assert h.evaluate({1: False, 2: True}) == 0.25
        assert h.evaluate({1: True, 2: False}) == 0.1875
        assert h.evaluate({1: True, 2: True}) == 0.375

    def test_support_union(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2)).join(st.clause_func((3,)))
        assert f.support == {1, 2, 3}

    def test_store_mismatch_rejected(self):
        a = fresh_store([1])
        b = fresh_store([1])
        with pytest.raises(ValueError, match="store"):
            a.clause_func((1,)).join(b.clause_func((1,)))


class TestExistsProject:
    def test_two_value_max(self):
        st = fresh_store([1])
        f = diagram_from_table(st, tbl_from_rows([1], [0.2, 0.9]))
        assert f.exists_project(1) == st.constant(0.9)

    def test_absent_variable_is_identity(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1,))
        assert f.exists_project(2) == f

    def test_commutes(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2)).join(st.clause_func((-2, 3)))
        assert (f.exists_project(1).exists_project(3)
                == f.exists_project(3).exists_project(1))

    def test_support_shrinks(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1, 2))
        # max over var 1 of (1 or 2) is constantly true
        assert f.exists_project(1) == st.constant(1.0)
        assert f.exists_project(1).support == frozenset()


class TestMaxShortCut:
    """Every value lies in [0, 1], so max against ZERO or ONE is answered
    at once."""

    @staticmethod
    def spy(st):
        """The list of `_apply` calls the store makes from now on."""
        calls = []
        apply = st._apply

        def counted(op, f, g):
            calls.append((op, f, g))
            return apply(op, f, g)

        st._apply = counted
        return calls

    def test_unit_store_does_not_recurse(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, -2)).join(st.clause_func((2, 3)))
        f = f.rand_project(2, 0.3).root
        calls = self.spy(st)
        assert st._apply(MAX, f, ZERO) == f
        assert st._apply(MAX, ZERO, f) == f
        assert st._apply(MAX, f, ONE) == ONE
        assert st._apply(MAX, ONE, f) == ONE
        assert len(calls) == 4


class TestRandProject:
    def test_convex_combination(self):
        st = fresh_store([1])
        f = diagram_from_table(st, tbl_from_rows([1], [0.0, 1.0]))
        assert f.rand_project(1, 0.4) == st.constant(0.4)

    def test_degenerate_probability_selects_cofactor(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1, 2))
        # p = 1 keeps exactly the x=1 cofactor
        assert f.rand_project(1, 1.0) == st.constant(1.0)
        assert f.rand_project(2, 0.0) == st.clause_func((1,))

    def test_absent_variable_is_identity(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1,))
        assert f.rand_project(2, 0.3) == f

    def test_probability_range_checked(self):
        st = fresh_store([1])
        with pytest.raises(ValueError):
            st.clause_func((1,)).rand_project(1, -0.1)


class TestDsgn:
    def test_prefers_larger_cofactor(self):
        st = fresh_store([1])
        f = diagram_from_table(st, tbl_from_rows([1], [0.2, 0.9]))
        assert f.dsgn(1).pick({}) is True
        g = diagram_from_table(st, tbl_from_rows([1], [0.9, 0.2]))
        assert g.dsgn(1).pick({}) is False

    def test_tie_chooses_one(self):
        st = fresh_store([1])
        f = diagram_from_table(st, tbl_from_rows([1], [0.5, 0.5]))
        assert f.dsgn(1).pick({}) is True

    def test_absent_variable_ties_to_one(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1,))
        assert all(f.dsgn(2).pick(a) for a in all_assignments([1]))

    def test_pick_never_reads_its_variable(self):
        # the sign keeps f itself, which depends on x = 1; a value tau gives
        # x is overridden, so it cannot change the pick.  f = (1 | 2)(-1 | 3)
        # is 3 at x = 1 and 2 at x = 0.
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2)).join(st.clause_func((-1, 3)))
        d = f.dsgn(1)
        assert d.var == 1 and d.f == f
        for a in all_assignments([2, 3]):
            want = a[3] >= a[2]
            picks = {d.pick(a), d.pick({**a, 1: True}), d.pick({**a, 1: False})}
            assert picks == {want}


class TestEvaluate:
    def test_constant_ignores_assignment(self):
        st = fresh_store([1])
        assert st.constant(0.25).evaluate({1: True}) == 0.25

    def test_missing_support_variable(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1, 2))
        with pytest.raises(KeyError, match="support variable"):
            f.evaluate({2: False})

    def test_join_multiplies_pointwise(self):
        st = fresh_store([1, 2, 3])
        f = diagram_from_table(st, tbl_from_rows([1, 2], [0.5, 0.75, 0.0, 1.0]))
        g = diagram_from_table(st, tbl_from_rows([2, 3], [1.0, 0.5, 0.75, 0.25]))
        h = f.join(g)
        for assign in all_assignments([1, 2, 3]):
            assert h.evaluate(assign) == f.evaluate(assign) * g.evaluate(assign)


class TestSupport:
    def test_clause_support(self):
        st = fresh_store([2, 4])
        assert st.clause_func((2, -4)).support == {2, 4}

    def test_projection_removes_var(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2)).join(st.clause_func((2, 3)))
        assert f.exists_project(2).support <= {1, 3}
        assert f.rand_project(2, 0.5).support <= {1, 3}


class TestCanonicity:
    def test_equal_tables_equal_handles(self):
        st = fresh_store([1, 2])
        rows = [0.0, 1.0, 0.5, 1.0]
        f = diagram_from_table(st, tbl_from_rows([1, 2], rows))
        g = diagram_from_table(st, tbl_from_rows([1, 2], rows))
        assert f == g

    def test_reduce_rule_no_redundant_node(self):
        st = fresh_store([1, 2])
        f = diagram_from_table(st, tbl_from_rows([1, 2], [0.5, 0.5, 0.5, 0.5]))
        assert f == st.constant(0.5)

    def test_diagram_matches_table(self):
        st = fresh_store([1, 2, 3])
        table = tbl_from_rows([1, 2, 3], [0.1, 0.9, 0.0, 1.0, 0.5, 0.3, 0.7, 0.2])
        assert_diagram_matches_table(diagram_from_table(st, table), table)


class TestStoreLimits:
    def test_node_limit_enforced(self):
        order = VarOrder(range(1, 21))
        st = DiagramStore(order, node_limit=10)
        with pytest.raises(ResourceLimitError):
            f = st.constant(1.0)
            for v in range(1, 21):
                f = f.join(st.clause_func((v,)))

    def test_cache_clear_preserves_results(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2))
        g = st.clause_func((-2, 3))
        before = f.join(g)
        st.clear_cache()
        assert f.join(g) == before


def chain(st, variables, p=0.3):
    """A function built by joins and projections over `variables`, each
    also with its successor."""
    f = st.constant(1.0)
    for v in variables:
        f = f.join(st.clause_func((v,))).rand_project(v, p).join(
            st.clause_func((v, -(v + 1))))
    return f


def reachable(st, f):
    """Handles of every node under the handle f, f included."""
    seen, stack = {f}, [f]
    while stack:
        h = stack.pop()
        if st._lev[h] != st._tlev:
            for c in (st._lo[h], st._hi[h]):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    return seen


def random_steps(st, rng, steps=400):
    """Random joins, projections and clauses over the variables 1..8 of
    `st`, with collections that free slots for later nodes to reuse;
    yields the functions kept after each step."""
    variables = range(1, 9)

    def clause():
        vs = rng.sample(variables, rng.randint(1, 3))
        return st.clause_func([v if rng.random() < 0.5 else -v for v in vs])

    pool = [clause() for _ in range(4)]
    for _ in range(steps):
        f, r = rng.choice(pool), rng.random()
        if r < 0.35:
            pool.append(f.join(rng.choice(pool)))
        elif r < 0.55:
            pool.append(f.exists_project(rng.choice(variables)))
        elif r < 0.75:
            pool.append(f.rand_project(rng.choice(variables),
                                       rng.choice([0.3, 0.5])))
        elif r < 0.9:
            pool.append(clause())
        else:
            pool = rng.sample(pool, rng.randint(1, len(pool)))
            st.collect(g.root for g in pool)
        yield pool


class TestCollect:
    def test_roots_keep_handles_and_values(self):
        st = fresh_store(range(1, 9))
        f = chain(st, [1, 3, 5])
        g = st.clause_func((2, -4)).join(st.clause_func((4, 6, -8)))
        chain(st, [2, 4, 6])  # dead
        before = {h: [(a, h.evaluate(a)) for a in all_assignments(h.support)]
                  for h in (f, g)}
        supports = {h: h.support for h in (f, g)}
        st.collect([f.root, g.root])
        assert st._free
        for h, rows in before.items():
            assert h.support == supports[h]
            assert [(a, h.evaluate(a)) for a, _ in rows] == rows

    def test_freed_handles_are_reused(self):
        st = fresh_store(range(1, 9))
        chain(st, [1, 3, 5, 7])
        st.collect([])
        freed, size = set(st._free), len(st._lev)
        f = chain(st, [2, 4])
        assert len(st._lev) == size  # nothing appended
        assert reachable(st, f.root) - {0, 1} <= freed

    def test_rebuilding_a_live_node_returns_its_handle(self):
        st = fresh_store(range(1, 9))

        def build():
            f = st.clause_func((1, -2)).join(st.clause_func((2, 3)))
            return f.rand_project(3, 0.3)

        f = build()
        chain(st, [4, 5, 6], p=0.6)  # dead
        st.collect([f.root])
        assert build().root == f.root
        assert st.constant(0.3).root in reachable(st, f.root)

    def test_node_count_includes_reused_nodes(self):
        st = fresh_store(range(1, 9))
        chain(st, [1, 3, 5, 7])
        created = st.node_count
        st.collect([])
        assert st.held_count == 2
        assert st.peak_held == created  # taken before the collection
        chain(st, [1, 3, 5, 7])  # the same nodes again, in reused slots
        assert st.node_count == 2 * created - 2
        assert st.peak_held == st.held_count == created

    def test_deadline_fires_under_handle_reuse(self, monkeypatch):
        monkeypatch.setattr(DiagramStore, "_CHECK_EVERY", 1)
        st = fresh_store(range(1, 9))
        chain(st, [1, 3, 5, 7])
        st.collect([])
        size = len(st._lev)
        st.deadline = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded):
            chain(st, [2, 4])
        assert len(st._lev) == size  # it fired on the reuse path

    def test_deadline_fires_on_the_append_path(self, monkeypatch):
        monkeypatch.setattr(DiagramStore, "_CHECK_EVERY", 4)
        st = fresh_store(range(1, 9))
        st.deadline = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded):
            chain(st, [2, 4, 6])
        assert not st._free  # no slot was reclaimed, so none was reused
        assert len(st._lev) == 5  # it fired when handle 4 was appended

    def test_unique_table_holds_the_live_nodes_keys(self):
        # the unique table must map each live node's key, recomputed from
        # its level and children, to the node
        st = fresh_store(range(1, 9))
        for pool in random_steps(st, random.Random(3)):
            inner = {h for g in pool for h in reachable(st, g.root)
                     if st._lev[h] != st._tlev}
            keys = {h: (st._lev[h] << HANDLE_BITS | st._lo[h]) << HANDLE_BITS
                    | st._hi[h] for h in inner}
            assert st._unique == {k: h for h, k in keys.items()}
        assert st.node_count > len(st._lev)  # freed slots were reused

    def test_bounds_are_kept_for_live_handles_only(self):
        # a bound left on a freed slot would be read for a node that reuses
        # it without recording its own, as a diagram made by `_mk` alone
        st = fresh_store(range(1, 9))
        for pool in random_steps(st, random.Random(5)):
            live = {ZERO, ONE}.union(*(reachable(st, g.root) for g in pool))
            assert st._bounds.keys() <= live
            for g in pool:
                assert g.support_bound() >= len(g.support)
        assert st.node_count > len(st._lev)  # freed slots were reused

    def test_node_count_is_the_nodes_made(self):
        st = fresh_store(range(1, 9))
        made = st.node_count  # the terminals ZERO and ONE
        new = st._new

        def counted(*args):
            nonlocal made
            made += 1
            return new(*args)

        st._new = counted
        for _ in random_steps(st, random.Random(4)):
            assert st.node_count == made
        assert st.node_count > len(st._lev)  # freed slots were reused

    def test_node_limit_counts_held_nodes(self):
        st = DiagramStore(VarOrder(range(1, 10)), node_limit=150)
        for _ in range(5):
            chain(st, range(1, 9))  # 139 nodes, all dead after collect
            st.collect([])
        assert st.node_count > 5 * 139
        assert st.peak_held <= 150
        f = chain(st, range(1, 9))
        st.collect([f.root])
        with pytest.raises(ResourceLimitError):
            chain(st, range(1, 9), p=0.7)  # 139 nodes more than f's


class TestUnderflow:
    def test_product_rounding_to_zero(self):
        st = fresh_store([1])
        h = st.constant(1e-200).join(st.constant(1e-200))
        assert h == st.constant(0.0)
        assert st.underflow

    def test_convex_combination_rounding_to_subnormal(self):
        st = fresh_store([1])
        h = st.clause_func((1,)).rand_project(1, 1e-320)
        assert h.evaluate({}) == 1e-320
        assert st.underflow

    def test_exact_zero_is_not_underflow(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1,)).join(st.clause_func((-1,)))
        assert f.rand_project(1, 0.5) == st.constant(0.0)
        assert st.clause_func((2,)).rand_project(2, 0.0) == st.constant(0.0)
        assert st.constant(1e-300).join(st.constant(1e-7)).evaluate({}) > 0
        assert not st.underflow
