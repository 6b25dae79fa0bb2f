import copy
import json
import random
import sys
import time

import pytest

from dper import cli, executor, oracle, pbf
from dper.dense import DenseStore
from dper.executor import (DebugAssertionError, debug_assert_mode, solve,
                           tree_var_order, valuate)
from dper.formula import Problem, parse_problem, primal_graph, serialize
from dper.gen import band_instance, random_instance
from dper.pbf import DeadlineExceeded, DiagramStore, ResourceLimitError
from dper.planner import (HEURISTICS, PjTree, TreeError, check_tree,
                          mcs_order, plan, table_entries)
from dper.planner import width as tree_width

from conftest import monolithic_tree


def node_projecting(t, vars_):
    want = frozenset(vars_)
    return next(i for i in t.internal_ids() if t.nodes[i].projected == want)


def leaf_of_clause(t, ci):
    return next(i for i in t.leaf_ids() if t.nodes[i].clause == ci)


def subtree(t, v):
    """The postorder of node v's subtree."""
    return PjTree(t.nodes, v).postorder()


class TestValuate:
    def test_leaf_is_clause_function(self, example):
        t = plan(example)
        store = DiagramStore(tree_var_order(example, t))
        leaf = leaf_of_clause(t, 2)  # unit clause over variable 1
        f = valuate(example, t, [leaf], [], store)[leaf]
        assert f == store.clause_func((1,))

    def test_existential_pair_node(self, example):
        # joining (3 or 5) with (not 3 or not 5) and maxing both vars out
        # yields constant 1, pushing one derivative sign per variable
        t = plan(example)
        v = node_projecting(t, {3, 5})
        store = DiagramStore(tree_var_order(example, t))
        sigma = []
        f = valuate(example, t, subtree(t, v), sigma, store)[v]
        assert f == store.constant(1.0)
        assert [e.var for e in sigma] == [3, 5]

    def test_randomized_pair_node(self, example):
        # (2 or not 4) satisfied by 3 of 4 equally likely assignments
        t = plan(example)
        v = node_projecting(t, {2, 4})
        store = DiagramStore(tree_var_order(example, t))
        sigma = []
        f = valuate(example, t, subtree(t, v), sigma, store)[v]
        assert f == store.constant(0.75)
        assert sigma == []


    @pytest.mark.parametrize("dense", [False, True], ids=["diagram", "dense"])
    def test_region_last_walk_makes_the_same_values(self, example, dense):
        # walking the nodes outside the x-region first leaves exactly its
        # inputs pending, in postorder; the region's nodes then give the
        # root and every sign the functions a plain postorder gives: the
        # same handles on diagrams, which hash-cons, the same entries on
        # tables
        def key(f):
            return (f.root.vars, f.root.entries) if dense else f.root

        problems = [example] + [
            random_instance(random.Random(20260810 + i), max_clauses=12)
            for i in range(50)]
        regions = 0
        for p in problems:
            t = plan(p)
            order, region = t.postorder(), executor.x_region(p, t)
            parent = {c: i for i in order for c in t.nodes[i].children}
            inputs = [i for i in order
                      if i not in region and parent.get(i) in region]
            store = (DenseStore(tree_var_order(p, t)) if dense
                     else DiagramStore(executor.diagram_var_order(p)))
            want_sigma, sigma = [], []
            want = valuate(p, t, order, want_sigma, store)
            done = valuate(p, t, [i for i in order if i not in region],
                           sigma, store)
            assert list(done) == (inputs if region else [t.root])
            valuate(p, t, [i for i in order if i in region], sigma, store,
                    done=done)
            assert list(done) == list(want) == [t.root]
            assert key(done[t.root]) == key(want[t.root])
            assert ([(e.var, key(e.f)) for e in sigma]
                    == [(e.var, key(e.f)) for e in want_sigma])
            # no collection freed the first walk's functions
            assert store.node_count < pbf.COLLECT_FLOOR
            regions += bool(region)
        assert regions >= 20


class TestSolve:
    def test_worked_example_exact(self, example):
        for h in HEURISTICS:
            r = solve(example, plan(example, h))
            assert r.maximum == 0.75
            assert oracle.weighted_count(example, r.maximizer) == 0.75
            assert r.maximizer[1] is True
            assert r.maximizer[3] != r.maximizer[5]

    def test_empty_formula(self):
        p = parse_problem("p cnf 0 0\n")
        r = solve(p, plan(p))
        assert r.maximum == 1.0
        assert r.maximizer == {}

    def test_unsatisfiable_tie_picks_one(self):
        p = parse_problem("p cnf 1 2\ne 1 0\n1 0\n-1 0\n")
        r = solve(p, plan(p))
        assert r.maximum == 0.0
        assert r.maximizer == {1: True}

    def test_unused_existential_defaults_to_zero(self):
        # variable 1 occurs in no clause; a solve on the planned tree and one
        # on the monolithic tree both return it as 0
        p = parse_problem("p cnf 2 1\ne 1 2 0\n2 0\n")
        for t in (plan(p), monolithic_tree(p)):
            r = solve(p, t)
            assert r.maximum == 1.0
            assert r.maximizer == {1: False, 2: True}

    @pytest.mark.usefixtures("diagrams")
    def test_stats_populated(self, example):
        t = plan(example)
        r = solve(example, t)
        assert r.stats.diagram_nodes > 0
        assert tree_width(t, example) == 2
        assert 0 < r.stats.max_support <= tree_width(t, example)

    def test_support_bounded_by_width_fuzz(self):
        rng = random.Random(5)
        for _ in range(100):
            p = random_instance(rng)
            t = plan(p)
            r = solve(p, t)
            assert r.stats.max_support <= tree_width(t, p)

    def test_plan_independence(self):
        rng = random.Random(17)
        for _ in range(60):
            p = random_instance(rng)
            values = {solve(p, plan(p, h)).maximum for h in HEURISTICS}
            assert max(values) - min(values) <= 1e-9

    @pytest.mark.usefixtures("diagrams")
    def test_values_stay_in_unit_interval(self, example, monkeypatch):
        # the diagram kernel's max short-cut relies on every value a solve
        # makes lying in [0, 1]; `constant` checks only the values that enter
        made = []
        terminal = DiagramStore._terminal

        def spy(store, value):
            made.append(value)
            return terminal(store, value)

        monkeypatch.setattr(DiagramStore, "_terminal", spy)
        problems = [example] + [random_instance(random.Random(20260810 + i))
                                for i in range(200)]
        for p in problems:
            solve(p, plan(p))
        assert len(set(made)) > 100
        assert all(0.0 <= v <= 1.0 for v in made)

    @pytest.mark.usefixtures("diagrams")
    def test_node_limit(self, example):
        with pytest.raises(ResourceLimitError):
            solve(example, plan(example), node_limit=5)

    @pytest.mark.usefixtures("diagrams")
    def test_deadline(self, example, monkeypatch):
        monkeypatch.setattr(DiagramStore, "_CHECK_EVERY", 1)
        with pytest.raises(DeadlineExceeded):
            solve(example, plan(example), deadline=time.monotonic() - 1.0)


def collect_everywhere(monkeypatch):
    """Make the diagram store collect at every tree-node boundary."""
    monkeypatch.setattr(pbf, "COLLECT_FLOOR", 0)
    monkeypatch.setattr(pbf, "COLLECT_GROWTH", 0)


@pytest.mark.usefixtures("diagrams")
class TestCollection:
    def test_same_answers_with_collection_at_every_boundary(self, monkeypatch):
        problems = [random_instance(random.Random(20260810 + i))
                    for i in range(600)]
        trees = [plan(p) for p in problems]

        def answers():
            out = []
            for p, t in zip(problems, trees):
                r = solve(p, t)
                out.append((r.maximum.hex(), r.maximizer, r.stats.max_support))
            return out

        monkeypatch.setattr(pbf, "COLLECT_FLOOR", 1 << 62)
        never = answers()
        collect_everywhere(monkeypatch)
        assert answers() == never

    def test_collection_lowers_peak_live_nodes(self, monkeypatch):
        p = random_instance(random.Random(5))
        t = plan(p)
        kept = solve(p, t).stats
        collect_everywhere(monkeypatch)
        swept = solve(p, t).stats
        assert kept.peak_live_nodes == kept.diagram_nodes
        assert swept.peak_live_nodes < kept.peak_live_nodes
        assert swept.diagram_nodes >= kept.diagram_nodes

    def test_node_limit_counts_held_nodes(self, monkeypatch):
        p = band_instance(random.Random(19000), 19)
        t = plan(p)
        stats = solve(p, t).stats
        limit = (stats.peak_live_nodes + stats.diagram_nodes) // 2
        solve(p, t, node_limit=limit)  # holds fewer nodes than it creates
        monkeypatch.setattr(pbf, "COLLECT_FLOOR", 1 << 62)
        with pytest.raises(ResourceLimitError):
            solve(p, t, node_limit=limit)


def answer(r):
    """What a dense solve must reproduce bit for bit."""
    return r.maximum.hex(), r.maximizer, r.stats.max_support, r.stats.underflow


def on_diagrams(monkeypatch, p, t):
    with monkeypatch.context() as m:
        m.setattr(executor, "DENSE_MAX_WORK", 0)
        return solve(p, t)


class TestDense:
    """Dense tables, chosen when a tree's tables hold fewer entries in all
    than DENSE_MAX_WORK and the node limit."""

    def test_byte_identical_to_diagrams(self, monkeypatch):
        problems = [random_instance(random.Random(20260810 + i))
                    for i in range(600)]
        problems += [band_instance(random.Random(16000 + w), w)
                     for w in range(1, 17)]
        problems += [random_instance(random.Random(17000 + i), 30, 90)
                     for i in range(40)]
        # every tree up to width 16 on tables, the wider bands included
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", 1 << 20)
        widths = set()
        for p in problems:
            t = plan(p)
            widths.add(tree_width(t, p))
            r = solve(p, t)
            assert r.stats.executor == "dense"
            assert (r.stats.diagram_nodes, r.stats.peak_live_nodes) == (0, 0)
            assert answer(r) == answer(on_diagrams(monkeypatch, p, t))
        assert max(widths) == 16

    @pytest.mark.parametrize("text, maximum", [
        ("p cnf 1 1\nr 1e-320 1 0\n1 0\n", 1e-320),
        ("p cnf 2 2\nr 1e-200 1 2 0\n1 0\n2 0\n", 0.0),
    ], ids=["subnormal", "zero"])
    def test_underflow_flagged(self, monkeypatch, text, maximum):
        p = parse_problem(text)
        t = plan(p)
        r = solve(p, t)
        assert r.stats.executor == "dense"
        assert r.maximum == maximum
        assert r.stats.underflow is True
        assert answer(r) == answer(on_diagrams(monkeypatch, p, t))

    def run_cli(self, tmp_path, capsys, problem, *flags):
        path = tmp_path / "instance.cnf"
        path.write_text(serialize(problem))
        code = cli.main(["solve", "--input", str(path), *flags])
        return code, json.loads(capsys.readouterr().out)

    def test_deadline_exit_2(self, example, tmp_path, capsys, monkeypatch):
        # the deadline passes after planning; too few diagram nodes would be
        # made for the diagram store's poll, so only the dense one can see it
        real_solve = executor.solve

        def late(p, t, **limits):
            return real_solve(p, t, **{**limits,
                                       "deadline": time.monotonic() - 1.0})
        monkeypatch.setattr(executor, "solve", late)
        code, report = self.run_cli(tmp_path, capsys, example)
        assert code == 2
        assert report["status"] == "deadline"
        assert report["width"] == 2

    def test_node_limit_never_stops_tables(self, example, tmp_path, capsys,
                                           monkeypatch):
        # one 12-literal clause: 2^12 table entries, a diagram of a few nodes
        lits = " ".join(map(str, range(1, 13)))
        p = parse_problem(f"p cnf 12 1\nr 0.5 {lits} 0\n{lits} 0\n")
        t = plan(p)
        entries = table_entries(t, p)
        held = on_diagrams(monkeypatch, p, t).stats.peak_live_nodes
        assert held < entries < executor.DENSE_MAX_WORK
        # a limit the diagram run meets keeps the solve on diagrams
        r = solve(p, t, node_limit=held)
        assert r.stats.executor == "diagram"
        assert answer(r) == answer(on_diagrams(monkeypatch, p, t))
        assert solve(p, t, node_limit=entries + 1).stats.executor == "dense"
        code, report = self.run_cli(tmp_path, capsys, p, "--node-limit", str(held))
        assert (code, report["executor"]) == (0, "diagram")
        code, report = self.run_cli(tmp_path, capsys, example,
                                    "--node-limit", "5")
        assert code == 3
        assert report["status"] == "resource"
        assert "more than 5 nodes" in report["error"]

    def test_choice_follows_table_entries(self):
        # bands of width 13 fit, 14 and 17 do not
        for window, kind in ((13, "dense"), (14, "diagram"), (17, "diagram")):
            p = band_instance(random.Random(window), window)
            t = plan(p)
            assert tree_width(t, p) == window
            fits = table_entries(t, p) < executor.DENSE_MAX_WORK
            assert fits == (kind == "dense")
            assert solve(p, t).stats.executor == kind

    def test_each_store_builds_only_its_order(self, monkeypatch):
        # tables take the tree's projection order, diagrams the MCS order on
        # the primal graph, and neither branch builds the other's
        built = []
        for name in ("tree_var_order", "mcs_order"):
            real = getattr(executor, name)
            monkeypatch.setattr(executor, name,
                                lambda *a, real=real, name=name:
                                built.append(name) or real(*a))
        for window, kind, order in ((13, "dense", "tree_var_order"),
                                    (14, "diagram", "mcs_order")):
            p = band_instance(random.Random(window), window)
            t = plan(p)
            built.clear()
            store = executor.choose_store(p, t)
            assert (store.name, built) == (kind, [order])
        assert store.order.variables == tuple(mcs_order(primal_graph(p)))

    @pytest.mark.parametrize("kind", ["band", "long-clause"])
    def test_planning_and_solving_keep_the_shared_graph(self, kind):
        # the problem builds its graph once, and planning (which eliminates
        # on a copy) and the diagram order both read it without changing it
        if kind == "band":
            p = band_instance(random.Random(14), 14)
        else:  # one 60-literal clause: a 60-clique
            lits = list(range(1, 61))
            p = Problem(60, (tuple(lits),), frozenset(lits[:30]),
                        frozenset(lits[30:]), dict.fromkeys(lits[30:], 0.5))
        g = primal_graph(p)
        fresh = Problem(p.num_vars, p.clauses, p.X, p.Y, p.pr)
        for h in HEURISTICS:
            plan(p, h)
            assert primal_graph(p) is g and g == primal_graph(fresh), h
        assert solve(p, plan(p)).stats.executor == "diagram"
        assert primal_graph(p) is g and g == primal_graph(fresh)

    def test_needs_no_numpy(self, example, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert solve(example, plan(example)).stats.executor == "dense"


def unpruned(monkeypatch, p, t):
    """The solve of `t` with the x-region's joins floored at 0."""
    with monkeypatch.context() as m:
        m.setattr(executor, "exist_bound", lambda inputs, deadline: 0.0)
        return solve(p, t)


def margin_below(maximum, p, t):
    """The bound a search that reaches `maximum` yields."""
    region = executor.x_region(p, t)
    n = sum(c not in region for i in region for c in t.nodes[i].children)
    return maximum * (1.0 - 8 * (n + 1) * 2.0 ** -53)


# at most one of x1, x2, x3 true; x1 alone and x2 alone both reach 3/8
TIED = """p cnf 6 6
e 1 2 3 0
r 0.5 4 5 0
r 0.75 6 0
1 4 0
2 5 0
3 6 0
-1 -2 0
-2 -3 0
-1 -3 0
"""
# the same with x2 worth less: x1 alone reaches 9/16, the one optimum
REACHED = TIED.replace("r 0.5 4 5 0\n", "r 0.5 4 0\nr 0.25 5 0\n").replace(
    "2 5 0", "2 -5 0")


@pytest.mark.parametrize("max_work", [0, 1 << 20], ids=["diagram", "dense"])
class TestExistBound:
    """The x-region's joins floored at a searched lower bound on the
    maximum, on diagrams and on tables: the floor changes no answer."""

    def test_floor_keeps_every_answer(self, example, monkeypatch, max_work):
        # at most 12 clauses, not 20: with 20, 57% of these instances have
        # maximum 0 and leave nothing to floor
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", max_work)
        problems = [example] + [
            random_instance(random.Random(20260810 + i), max_clauses=12)
            for i in range(300)]
        floored = 0
        for p in problems:
            t = plan(p)
            r, u = solve(p, t), unpruned(monkeypatch, p, t)
            assert r.stats.executor == ("diagram" if max_work == 0
                                        else "dense")
            assert answer(r) == answer(u)
            assert u.stats.exist_bound == 0.0
            assert r.stats.exist_bound < r.maximum or r.maximum == 0.0
            floored += r.stats.exist_bound > 0.0
        assert 3 * floored >= len(problems)

    def test_tie_still_goes_to_one(self, monkeypatch, max_work):
        # x3 is projected at the root, then x2, then x1: with x3 false, x2
        # true and x2 false both reach 3/8, so x2's sign ties and picks 1
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", max_work)
        p = parse_problem(TIED)
        t = plan(p)
        r = solve(p, t)
        assert r.maximum == 0.375
        assert r.maximizer == {1: False, 2: True, 3: False}
        assert r.stats.exist_bound == margin_below(0.375, p, t)
        assert answer(r) == answer(unpruned(monkeypatch, p, t))

    def test_search_reaches_the_optimum(self, monkeypatch, max_work):
        # from all false, flipping x1 alone reaches the one optimum, so the
        # bound sits one margin below the maximum
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", max_work)
        p = parse_problem(REACHED)
        t = plan(p)
        r = solve(p, t)
        assert r.maximum == 0.5625
        assert r.maximizer == {1: True, 2: False, 3: False}
        assert r.stats.exist_bound == margin_below(0.5625, p, t)
        u = unpruned(monkeypatch, p, t)
        assert answer(r) == answer(u)
        if max_work == 0:  # the floor removed nodes
            assert r.stats.diagram_nodes < u.stats.diagram_nodes

    def test_search_keeps_its_budget_and_deadline(self, monkeypatch,
                                                  max_work):
        # a flip may overshoot the budget by the inputs it re-evaluates
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", max_work)
        p = parse_problem(REACHED)
        t = plan(p)
        store = executor.choose_store(p, t)
        region = executor.x_region(p, t)
        inputs = list(valuate(p, t, [i for i in t.postorder()
                                     if i not in region], [], store).values())
        n = len(inputs)
        calls = []
        evaluate = pbf.PbFunc.evaluate
        monkeypatch.setattr(pbf.PbFunc, "evaluate",
                            lambda f, a: calls.append(1) or evaluate(f, a))
        for budget in (1, 5, 20):
            monkeypatch.setattr(executor, "SEARCH_BUDGET", budget)
            calls.clear()
            executor.exist_bound(inputs, None)
            assert len(calls) < max(budget, n) + n
        with pytest.raises(DeadlineExceeded):
            executor.exist_bound(inputs, time.monotonic() - 1.0)


class TestSolveMonolithic:
    def test_worked_example(self, example):
        r = solve(example, monolithic_tree(example))
        assert r.maximum == 0.75
        assert oracle.weighted_count(example, r.maximizer) == 0.75

    def test_single_clause(self):
        p = parse_problem("p cnf 1 1\ne 1 0\n1 0\n")
        r = solve(p, monolithic_tree(p))
        assert r.maximum == 1.0 and r.maximizer == {1: True}

    def test_agrees_with_tree_solver(self):
        rng = random.Random(23)
        for _ in range(100):
            p = random_instance(rng)
            a = solve(p, plan(p)).maximum
            b = solve(p, monolithic_tree(p)).maximum
            assert abs(a - b) <= 1e-9

    def test_two_node_tree_is_graded(self, example):
        rng = random.Random(41)
        for p in [example] + [random_instance(rng) for _ in range(50)]:
            check_tree(monolithic_tree(p), p)


# -- corrupted-tree battery ----------------------------------------------------
#
# Each mutation takes the (deterministic) worked-example tree and damages it.
# The semantic mutations change what the run computes and must trip an
# annotated assertion with structural validation turned off (`unchecked`);
# the grade mutations keep both project-join-tree criteria and are caught by
# check_tree's gradedness stage.


def move_x_projection_down(t):
    src, dst = node_projecting(t, {1}), node_projecting(t, {3, 5})
    t.nodes[src].projected = frozenset()
    t.nodes[dst].projected = t.nodes[dst].projected | {1}


def drop_projection(t):
    v = node_projecting(t, {3, 5})
    t.nodes[v].projected = frozenset({5})


def duplicate_projection(t):
    t.nodes[t.root].projected = t.nodes[t.root].projected | {3}


def duplicate_leaf_clause(t):
    t.nodes[leaf_of_clause(t, 1)].clause = 0


def reparent_leaf(t):
    l1 = leaf_of_clause(t, 0)
    parent = node_projecting(t, {2, 4})
    t.nodes[parent].children.remove(l1)
    t.nodes[t.root].children.append(l1)


def root_to_subtree(t):
    t.root = node_projecting(t, {1})


def remove_leaf(t):
    l5 = leaf_of_clause(t, 4)
    v = node_projecting(t, {3, 5})
    t.nodes[v].children.remove(l5)
    del t.nodes[l5]


def swap_grade_label_y_node(t):
    # y node {6} and its x parent {1} exchange projection sets, and clause
    # (1,)'s leaf moves down with variable 1: y now sits above x
    y, x = node_projecting(t, {6}), node_projecting(t, {1})
    l3 = leaf_of_clause(t, 2)
    t.nodes[y].projected, t.nodes[x].projected = (
        t.nodes[x].projected, t.nodes[y].projected)
    t.nodes[x].children.remove(l3)
    t.nodes[y].children.append(l3)


def mislabel_x_grade(t):
    # the empty x root takes variable 6, so it is graded y above x nodes
    v = node_projecting(t, {6})
    t.nodes[v].projected = frozenset()
    t.nodes[t.root].projected = frozenset({6})


def swap_projection_sets(t):
    a, b = node_projecting(t, {2, 4}), node_projecting(t, {1})
    t.nodes[a].projected, t.nodes[b].projected = (
        t.nodes[b].projected, t.nodes[a].projected)


def leaf_with_two_parents(t):
    t.nodes[t.root].children.append(leaf_of_clause(t, 3))


def leaf_valuated_again_while_pending(t):
    # the leaf is valuated again under its own parent while its valuation
    # for the root is still pending
    t.nodes[t.root].children.insert(0, leaf_of_clause(t, 3))


def leaf_listed_twice(t):
    # both of the leaf's valuations are pending until its parent
    leaf = leaf_of_clause(t, 3)
    parent = next(i for i in t.internal_ids() if leaf in t.nodes[i].children)
    t.nodes[parent].children.append(leaf)


def project_foreign_var(t):
    v = node_projecting(t, {6})
    t.nodes[v].projected = t.nodes[v].projected | {5}


MUTATIONS = [
    move_x_projection_down,
    drop_projection,
    duplicate_projection,
    duplicate_leaf_clause,
    reparent_leaf,
    root_to_subtree,
    remove_leaf,
    swap_projection_sets,
    leaf_with_two_parents,
    leaf_valuated_again_while_pending,
    leaf_listed_twice,
    project_foreign_var,
]
GRADE_MUTATIONS = [
    swap_grade_label_y_node,
    mislabel_x_grade,
]
ALL_MUTATIONS = MUTATIONS + GRADE_MUTATIONS

# (point, node, var) of the first annotated assertion each semantic mutation
# trips with structural validation off; nodes are worked-example tree ids
TRIP_POINTS = {
    "move_x_projection_down": ("project-condition", 9, 1),
    "drop_projection": ("post-condition", 10, None),
    "duplicate_projection": ("maximizer", None, 5),
    "duplicate_leaf_clause": ("join-condition", 7, None),
    "reparent_leaf": ("project-condition", 6, 2),
    "root_to_subtree": ("post-condition", 8, None),
    "remove_leaf": ("project-condition", 9, 3),
    "swap_projection_sets": ("project-condition", 6, 1),
    "leaf_with_two_parents": ("join-condition", 10, None),
    "leaf_valuated_again_while_pending": ("join-condition", 4, None),
    "leaf_listed_twice": ("join-condition", 4, None),
    "project_foreign_var": ("project-condition", 7, 5),
}


STORES = ("dense", "diagram")


def by_store(mutations):
    """Each mutation on both stores: on the one `solve` chooses, tables for
    the worked example, under the mutation's name, and pinned to diagrams."""
    return [pytest.param(m, store, id=m.__name__ + ("" if store == "dense"
                                                    else f"-{store}"))
            for store in STORES for m in mutations]


def on_store(monkeypatch, store):
    """Pin the worked example's runs to `store` and return the list that
    records the name of each store `choose_store` then picks."""
    if store == "diagram":
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", 0)
    used = []
    choose = executor.choose_store

    def spy(*args):
        chosen = choose(*args)
        used.append(chosen.name)
        return chosen
    monkeypatch.setattr(executor, "choose_store", spy)
    return used


class TestDebugAssertMode:
    def test_clean_run_matches_solve(self, example):
        t = plan(example)
        r, plain = debug_assert_mode(example, t), solve(example, t)
        assert r.stats.executor == plain.stats.executor == "dense"
        assert r.maximum == plain.maximum == 0.75

    def test_var_cap(self):
        vars_ = " ".join(map(str, range(1, 18)))
        p = parse_problem(f"p cnf 17 0\ne {vars_} 0\n")
        with pytest.raises(ValueError, match="debug cap"):
            debug_assert_mode(p, plan(p))

    def test_fuzz_all_assertions_pass(self):
        rng = random.Random(31)
        for _ in range(100):
            p = random_instance(rng)
            ref = oracle.enumerate_solve(p)
            r = debug_assert_mode(p, plan(p))
            assert abs(r.maximum - ref.maximum) <= 1e-9

    @pytest.mark.parametrize("mutate, store", by_store(ALL_MUTATIONS))
    def test_corruption_trips_before_output(self, example, mutate, store,
                                            monkeypatch):
        # the structural checks run first and catch every mutation, before
        # a store is chosen
        used = on_store(monkeypatch, store)
        bad = copy.deepcopy(plan(example))
        mutate(bad)
        with pytest.raises(TreeError):
            debug_assert_mode(example, bad)
        assert used == []

    @pytest.mark.usefixtures("unchecked")
    @pytest.mark.parametrize("mutate, store", by_store(MUTATIONS))
    def test_semantic_corruption_trips_annotated_assertion(self, example,
                                                           mutate, store,
                                                           monkeypatch):
        used = on_store(monkeypatch, store)
        bad = copy.deepcopy(plan(example))
        mutate(bad)
        with pytest.raises(DebugAssertionError) as info:
            debug_assert_mode(example, bad)
        e = info.value
        assert (e.point, e.node, e.var) == TRIP_POINTS[mutate.__name__]
        assert used == [store]

    @pytest.mark.usefixtures("diagrams", "unchecked")
    @pytest.mark.parametrize("mutate", MUTATIONS,
                             ids=lambda m: m.__name__)
    def test_trip_points_hold_under_collection(self, example, mutate,
                                               monkeypatch):
        # the chosen store is diagrams collecting at every boundary; the
        # annotated checks run on tables of their own, so the trip points
        # must not move
        collect_everywhere(monkeypatch)
        bad = copy.deepcopy(plan(example))
        mutate(bad)
        with pytest.raises(DebugAssertionError) as info:
            debug_assert_mode(example, bad)
        e = info.value
        assert (e.point, e.node, e.var) == TRIP_POINTS[mutate.__name__]

    @pytest.mark.usefixtures("diagrams")
    def test_fuzz_passes_under_collection(self, monkeypatch):
        collect_everywhere(monkeypatch)
        rng = random.Random(32)
        for _ in range(30):
            p = random_instance(rng)
            t = plan(p)
            assert debug_assert_mode(p, t).maximum == solve(p, t).maximum

    @pytest.mark.parametrize("store", STORES)
    def test_sign_reading_an_unassigned_variable_trips(self, example, store,
                                                       monkeypatch):
        # (3 | 5)(-3 | -5) depends on 5, so 3's sign read off it cannot be
        # picked before 5 is assigned
        on_store(monkeypatch, store)
        t = plan(example)
        chosen = executor.choose_store(example, t)
        assert chosen.name == store
        ctx = executor._DebugContext(example, t, chosen)
        ctx.eliminated |= {3, 5}
        f = chosen.clause_func((3, 5)).join(chosen.clause_func((-3, -5)))
        with pytest.raises(DebugAssertionError) as info:
            ctx.picking(f.dsgn(3), {})
        e = info.value
        assert (e.point, e.node, e.var) == ("maximizer", None, 3)
        assert "sign depends on unassigned [5]" in str(e)
        ctx.picking(f.dsgn(3), {5: True})  # once 5 is assigned it passes

    @pytest.mark.parametrize("kernel", [DenseStore, DiagramStore],
                             ids=STORES)
    def test_store_agreement_catches_a_wrong_kernel(self, kernel,
                                                    monkeypatch):
        # p and 1 - p swapped in one store's randomized projection: each
        # annotated check compares that store with itself and passes, and
        # only the second solve, on the other store, can disagree
        real = kernel.rand_project
        monkeypatch.setattr(kernel, "rand_project",
                            lambda self, f, x, p: real(self, f, x, 1.0 - p))
        tripped = 0
        for i in range(100):
            p = random_instance(random.Random(20260810 + i))
            try:
                debug_assert_mode(p, plan(p))
            except DebugAssertionError as e:
                assert e.point == "store-agreement"
                assert "dense gives" in str(e) and ", diagram " in str(e)
                tripped += 1
        assert tripped > 0

    @pytest.mark.parametrize("fault", ["exists_project", "clause_func"])
    def test_store_agreement_catches_a_wrong_diagram_kernel(self, fault,
                                                            monkeypatch):
        # the annotated run is on tables, so a fault in the diagram kernel
        # reaches only the second solve: a product in place of the max, or
        # each clause with its first literal negated
        if fault == "exists_project":
            wrong = (lambda self, f, x:
                     self._abstract(pbf.MUL, f, self.order.rank(x)))
        else:
            real = DiagramStore.clause_func
            wrong = (lambda self, clause:
                     real(self, [-l for l in clause[:1]] + list(clause[1:])))
        monkeypatch.setattr(DiagramStore, fault, wrong)
        tripped = 0
        for i in range(100):
            p = random_instance(random.Random(20260810 + i))
            try:
                debug_assert_mode(p, plan(p))
            except DebugAssertionError as e:
                assert e.point == "store-agreement"
                tripped += 1
        assert tripped > 0

    def test_store_agreement_catches_a_wrong_diagram_floor(self,
                                                           monkeypatch):
        # the diagram kernel floors the x-region at twice the bound, which
        # zeroes the maximum once the bound passes half of it; the
        # annotated run has no floor and the plain run on tables the right
        # one, so only store agreement can see it
        real = DiagramStore.join
        monkeypatch.setattr(DiagramStore, "join",
                            lambda self, f, g, floor=0.0:
                            real(self, f, g, 2 * floor))
        tripped = 0
        for i in range(100):
            p = random_instance(random.Random(20260810 + i))
            try:
                debug_assert_mode(p, plan(p))
            except DebugAssertionError as e:
                assert e.point == "store-agreement"
                assert ", diagram " in str(e)
                tripped += 1
        assert tripped > 0

    def test_stats_match_a_plain_solve_on_diagrams(self, example,
                                                   monkeypatch):
        # the checks run on tables of their own, so they neither add nodes
        # to the diagram run nor count against its limit
        monkeypatch.setattr(executor, "DENSE_MAX_WORK", 0)
        problems = [example] + [random_instance(random.Random(20260810 + i))
                                for i in range(200)]

        def counts(s):
            return (s.executor, s.diagram_nodes, s.peak_live_nodes,
                    s.max_support)

        for i, p in enumerate(problems):
            t = plan(p)
            debug = counts(debug_assert_mode(p, t).stats)
            assert debug == counts(solve(p, t).stats), i
            assert debug[0] == "diagram"

    @pytest.mark.usefixtures("unchecked")
    @pytest.mark.parametrize("store", STORES)
    def test_clause_free_projection_trips_the_post_condition(self, store,
                                                             monkeypatch):
        # a corrupted tree projecting a variable that occurs in no clause
        # trips the root's post-condition on either store, not a missing
        # diagram level
        used = on_store(monkeypatch, store)
        p = parse_problem("p cnf 3 1\ne 1 2 3 0\n1 2 0\n")
        bad = plan(p)
        bad.nodes[bad.root].projected |= {3}
        with pytest.raises(DebugAssertionError) as info:
            debug_assert_mode(p, bad)
        assert (info.value.point, info.value.node) == ("post-condition",
                                                        bad.root)
        assert used == [store]

    @pytest.mark.usefixtures("diagrams")
    def test_node_limit(self, example):
        with pytest.raises(ResourceLimitError):
            debug_assert_mode(example, plan(example), node_limit=5)

    def test_deadline(self, example, monkeypatch):
        # tables poll the deadline in clause_func and node_done; a diagram
        # store polls it as it makes its first node, inside choose_store
        monkeypatch.setattr(DiagramStore, "_CHECK_EVERY", 1)
        for store in STORES:
            with monkeypatch.context() as m:
                used = on_store(m, store)
                with pytest.raises(DeadlineExceeded):
                    debug_assert_mode(example, plan(example),
                                      deadline=time.monotonic() - 1.0)
                assert used == ([store] if store == "dense" else [])

    def test_mutations_are_real_corruptions(self, example):
        # sanity: the pristine tree passes the structural check
        t = plan(example)
        check_tree(t, example)
