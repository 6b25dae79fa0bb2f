import math

import pytest

from dper.pbf import DiagramStore, ResourceLimitError, VarOrder

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
        assert st.clause_func((1, -2, 3)).terminal_values() == {0.0, 1.0}


class TestJoin:
    def test_commutes_to_identical_handle(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2))
        g = st.clause_func((-2, 3))
        assert f.join(g) == g.join(f)

    def test_four_entry_product(self):
        # f over {1}: 2, 3; g over {2}: 5, 7 -> products 10, 14, 15, 21
        st = fresh_store([1, 2])
        f = diagram_from_table(st, tbl_from_rows([1], [2.0, 3.0]))
        g = diagram_from_table(st, tbl_from_rows([2], [5.0, 7.0]))
        h = f.join(g)
        assert h.evaluate({1: False, 2: False}) == 10.0
        assert h.evaluate({1: False, 2: True}) == 14.0
        assert h.evaluate({1: True, 2: False}) == 15.0
        assert h.evaluate({1: True, 2: True}) == 21.0

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
        assert f.dsgn(1).chooser == st.constant(1.0)
        g = diagram_from_table(st, tbl_from_rows([1], [0.9, 0.2]))
        assert g.dsgn(1).chooser == st.constant(0.0)

    def test_tie_chooses_one(self):
        st = fresh_store([1])
        f = diagram_from_table(st, tbl_from_rows([1], [0.5, 0.5]))
        assert f.dsgn(1).chooser == st.constant(1.0)

    def test_absent_variable_ties_to_one(self):
        st = fresh_store([1, 2])
        f = st.clause_func((1,))
        assert f.dsgn(2).chooser == st.constant(1.0)

    def test_var_not_in_chooser_support(self):
        st = fresh_store([1, 2, 3])
        f = st.clause_func((1, 2)).join(st.clause_func((-1, 3)))
        d = f.dsgn(1)
        assert d.var == 1
        assert 1 not in d.chooser.support
        assert d.chooser.terminal_values() <= {0.0, 1.0}


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
        f = diagram_from_table(st, tbl_from_rows([1, 2], [0.5, 1.5, 0.0, 2.0]))
        g = diagram_from_table(st, tbl_from_rows([2, 3], [1.0, 0.5, 3.0, 0.25]))
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

    def test_equal_masks_are_one_object(self):
        # Python caches ints up to 256 only; above that, each node would
        # otherwise hold its own copy of a mask many nodes share
        st = fresh_store(list(range(1, 13)))
        f = st.clause_func((10, 11)).join(st.clause_func((-10, 12)))
        f.join(st.clause_func((11, -12))).rand_project(10, 0.3)
        masks = [m for m in st._sup if m > 256]
        assert len(masks) > len(set(masks))
        assert len({id(m) for m in masks}) == len(set(masks))


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


class TestDotExport:
    def test_solid_and_dashed_edges(self):
        st = fresh_store([1])
        dot = st.clause_func((1,)).to_dot()
        assert "digraph" in dot
        assert "style=dashed" in dot
        # solid branch has no style attribute
        assert any("->" in ln and "dashed" not in ln for ln in dot.splitlines())
