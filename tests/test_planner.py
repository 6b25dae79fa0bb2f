import copy
import heapq
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dper import planner
from dper.executor import diagram_var_order, solve, tree_var_order
from dper.formula import Problem, parse_problem, primal_graph, validate
from dper.gen import band_instance, random_instance
from dper.pbf import DeadlineExceeded
from dper.planner import (HEURISTICS, PjNode, PjTree, TreeError,
                          build_graded_tree, check_tree,
                          elimination_order, mcs_order, plan, read_tree,
                          table_entries, width, write_tree)

import test_executor as exec_tests


class TestEliminationOrder:
    def test_lex_is_blocks_ascending(self, example):
        g = primal_graph(example)
        order = elimination_order(g, example.X, example.Y, "lex")
        assert order == [2, 4, 6, 1, 3, 5]

    def test_y_block_always_first(self, example):
        g = primal_graph(example)
        for h in HEURISTICS:
            order = elimination_order(g, example.X, example.Y, h)
            assert set(order) == example.quantified
            positions = {v: i for i, v in enumerate(order)}
            assert max(positions[y] for y in example.Y) < min(
                positions[x] for x in example.X)

    def test_empty_graph_single_existential(self):
        # the graph's vertices, not X and Y, decide what is ordered
        assert elimination_order({}, {1}, set(), "min-fill") == []

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="heuristic"):
            elimination_order({}, set(), set(), "bogus")

    def test_deadline_is_keyword_only(self, example):
        # so a caller still passing a seed positionally fails loudly
        with pytest.raises(TypeError):
            plan(example, "min-fill", time.monotonic() + 60.0)


class TestBuildGradedTree:
    def test_worked_example_valid_low_width(self, example):
        for h in HEURISTICS:
            t = plan(example, h)
            check_tree(t, example)
            assert width(t, example) <= 2

    def test_single_unit_clause(self):
        p = parse_problem("p cnf 1 1\ne 1 0\n1 0\n")
        t = plan(p)
        check_tree(t, p)
        leaves = t.leaf_ids()
        internals = t.internal_ids()
        assert len(leaves) == 1 and len(internals) == 1
        assert t.nodes[internals[0]].projected == {1}
        assert width(t, p) == 1

    def test_empty_formula_trivial_tree(self):
        p = parse_problem("p cnf 0 0\n")
        t = plan(p)
        check_tree(t, p)
        assert width(t, p) == 0

    def test_disjoint_clauses_join_at_root(self):
        p = parse_problem("p cnf 4 2\ne 1 2 3 4 0\n1 2 0\n3 4 0\n")
        t = plan(p)
        check_tree(t, p)
        root_children = t.nodes[t.root].children
        assert len(root_children) == 2

    def test_block_violating_order_rejected(self, example):
        with pytest.raises(TreeError, match="mixes blocks"):
            build_graded_tree(example, [1, 3, 5, 2, 4, 6])

    def test_order_must_cover_all_vars(self, example):
        with pytest.raises(TreeError, match="omits"):
            build_graded_tree(example, [2, 4, 6, 1])

    def test_clause_free_vars_not_projected(self):
        p = parse_problem("p cnf 3 1\ne 1 3 0\nr 0.5 2 0\n1 0\n")
        t = plan(p)
        projected = set().union(*(t.nodes[i].projected
                                  for i in t.internal_ids()))
        assert projected == {1}

    def test_clause_free_vars_leave_tree_unchanged(self):
        # the primal graph alone decides what a tree covers: variables added
        # to either block change no node line and get no diagram level
        for seed in range(50):
            p = random_instance(random.Random(seed))
            n = p.num_vars
            padded = Problem(num_vars=n + 4, clauses=p.clauses,
                             X=p.X | {n + 1, n + 3}, Y=p.Y | {n + 2, n + 4},
                             pr={**p.pr, n + 2: 0.5, n + 4: 0.25})
            validate(padded)
            for h in HEURISTICS:
                t = plan(padded, h)
                assert (write_tree(t, padded).splitlines()[1:]
                        == write_tree(plan(p, h), p).splitlines()[1:])
                for order in (tree_var_order(padded, t),
                              diagram_var_order(padded)):
                    assert sorted(order.variables) == sorted(
                        p.all_clause_vars())


class TestChecks:
    def test_projection_repeated_rejected(self, example):
        t = plan(example)
        bad = copy.deepcopy(t)
        ids = [i for i in bad.internal_ids() if bad.nodes[i].projected]
        a, b = ids[0], ids[1]
        v = next(iter(bad.nodes[a].projected))
        bad.nodes[b].projected = bad.nodes[b].projected | {v}
        with pytest.raises(TreeError, match="projected at both"):
            check_tree(bad, example)

    def test_descendant_criterion(self, example):
        t = plan(example)
        bad = copy.deepcopy(t)
        # move the projection of variable 1 into the subtree over 3, 5
        src = next(i for i in bad.internal_ids()
                   if 1 in bad.nodes[i].projected)
        dst = next(i for i in bad.internal_ids()
                   if 3 in bad.nodes[i].projected)
        bad.nodes[src].projected = bad.nodes[src].projected - {1}
        bad.nodes[dst].projected = bad.nodes[dst].projected | {1}
        with pytest.raises(TreeError, match="not beneath"):
            check_tree(bad, example)

    def test_descendant_violations_match_descendant_sets(self):
        # the interval test must report what explicit descendant sets report,
        # message for message and in the same order
        p = band_instance(random.Random(5), 6, 6)
        t = plan(p)
        bad = copy.deepcopy(t)
        ids = sorted(i for i in bad.internal_ids() if bad.nodes[i].projected)
        for src, dst in zip(ids[-6:], ids[:6]):
            v = min(bad.nodes[src].projected)
            bad.nodes[src].projected = bad.nodes[src].projected - {v}
            bad.nodes[dst].projected = bad.nodes[dst].projected | {v}
        under = {}
        for nid in bad.postorder():
            under[nid] = {nid}.union(*(under[c] for c in bad.nodes[nid].children))
        leaf_of = {bad.nodes[l].clause: l for l in bad.leaf_ids()}
        expected = [
            f"node {nid} projects {v} but clause {ci}'s leaf {leaf_of[ci]} "
            f"is not beneath it"
            for nid in bad.internal_ids() for v in bad.nodes[nid].projected
            for ci in range(len(p.clauses))
            if v in p.clause_vars(ci) and leaf_of[ci] not in under[nid]]
        assert expected
        with pytest.raises(TreeError) as info:
            check_tree(bad, p)
        assert info.value.violations == expected

    def test_graded_wrong_grade_for_node(self):
        # a node projecting both blocks is randomized-grade, wrongly
        p = parse_problem("p cnf 2 1\ne 1 0\nr 0.5 2 0\n1 2 0\n")
        nodes = {1: PjNode(clause=0),
                 2: PjNode(children=[1], projected=frozenset({1, 2}))}
        with pytest.raises(TreeError, match="property 3"):
            check_tree(PjTree(nodes=nodes, root=2), p)

    def test_graded_existential_below_randomized(self):
        # leaf(c0 over var 1) under an X node under a Y node
        p = parse_problem("p cnf 2 1\ne 1 0\nr 0.5 2 0\n1 2 0\n")
        nodes = {
            1: PjNode(clause=0),
            2: PjNode(children=[1], projected=frozenset({1})),
            3: PjNode(children=[2], projected=frozenset({2})),
        }
        with pytest.raises(TreeError, match="property 4"):
            check_tree(PjTree(nodes=nodes, root=3), p)

    def test_empty_projection_takes_either_grade(self):
        # a node projecting nothing, between a Y node and the X root: it is
        # below a randomized node and above an existential one
        p = parse_problem("p cnf 2 1\ne 1 0\nr 0.5 2 0\n1 2 0\n")
        nodes = {
            1: PjNode(clause=0),
            2: PjNode(children=[1], projected=frozenset({2})),
            3: PjNode(children=[2]),
            4: PjNode(children=[3], projected=frozenset({1})),
        }
        check_tree(PjTree(nodes=nodes, root=4), p)
        nodes[2].projected, nodes[4].projected = frozenset({1}), frozenset({2})
        with pytest.raises(TreeError, match="property 4: node 2 "):
            check_tree(PjTree(nodes=nodes, root=4), p)


class TestWidth:
    def test_worked_example_width_two(self, example):
        assert width(plan(example), example) == 2

    def test_width_at_least_max_clause(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_instance(rng)
            if not p.clauses:
                continue
            t = plan(p)
            longest = max(len(c) for c in p.clauses)
            assert width(t, p) >= longest

    # (width, table entries) of the worked-example tree after each mutation;
    # the debug run reads width on such trees before any check rejects them
    CORRUPTED_MEASURES = {
        "move_x_projection_down": (3, 20),
        "drop_projection": (2, 16),
        "duplicate_projection": (2, 16),
        "duplicate_leaf_clause": (3, 28),
        "reparent_leaf": (2, 18),
        "root_to_subtree": (2, 6),
        "remove_leaf": (2, 15),
        "swap_projection_sets": (3, 32),
        "leaf_with_two_parents": (2, 18),
        "leaf_valuated_again_while_pending": (2, 18),
        "leaf_listed_twice": (2, 15),
        "project_foreign_var": (3, 19),
        "swap_grade_label_y_node": (2, 15),
        "mislabel_x_grade": (2, 18),
    }

    def test_measures_on_clean_and_corrupted_trees(self, example):
        t = plan(example)
        assert len(t.nodes) == 10
        leaves = {t.nodes[l].clause: l for l in t.leaf_ids()}
        by_projected = {t.nodes[i].projected: i for i in t.internal_ids()}
        node = lambda *vs: by_projected[frozenset(vs)]
        want = {
            leaves[0]: {2, 4}, leaves[1]: {1, 6}, leaves[2]: {1},
            leaves[3]: {3, 5}, leaves[4]: {3, 5},
            node(2, 4): {2, 4}, node(6): {1, 6}, node(1): {1},
            node(3, 5): {3, 5}, t.root: set(),
        }
        joined = t.joined_vars(example)
        assert joined == want
        assert list(joined) == t.postorder()
        assert (width(t, example), table_entries(t, example)) == (2, 15)
        assert {m.__name__ for m in exec_tests.ALL_MUTATIONS} == set(
            self.CORRUPTED_MEASURES)
        for mutate in exec_tests.ALL_MUTATIONS:
            bad = copy.deepcopy(t)
            mutate(bad)
            measures = (width(bad, example), table_entries(bad, example))
            assert measures == self.CORRUPTED_MEASURES[mutate.__name__]


class TestTreeFiles:
    def test_round_trip(self, example):
        t = plan(example)
        text = write_tree(t, example)
        t2 = read_tree(text, example)
        assert write_tree(t2, example) == text

    def test_worked_example_bytes(self, example):
        # grades come from the projection sets; the empty root is written x
        assert write_tree(plan(example), example) == (
            "pjt 10 5 6\n"
            "l 1 1\n"
            "i 6 y 1 | 2 4\n"
            "l 3 3\n"
            "l 2 2\n"
            "i 7 y 2 | 6\n"
            "i 8 x 3 7 | 1\n"
            "l 4 4\n"
            "l 5 5\n"
            "i 9 x 4 5 | 3 5\n"
            "i 10 x 6 8 9 |\n"
            "r 10\n")

    def test_clause_index_beyond_count(self, example):
        t = plan(example)
        text = write_tree(t, example).replace("l 1 1", "l 1 99")
        with pytest.raises(TreeError, match="beyond clause count"):
            read_tree(text, example)

    def test_graded_violation_rejected(self, example):
        # relabel a randomized-grade node as existential
        text = write_tree(plan(example), example).replace("i 6 y", "i 6 x")
        with pytest.raises(TreeError, match="line 3: node 6 has grade x"):
            read_tree(text, example)

    def test_existential_node_labelled_y_rejected(self, example):
        text = write_tree(plan(example), example).replace("i 9 x", "i 9 y")
        with pytest.raises(TreeError, match="line 10: node 9 has grade y"):
            read_tree(text, example)

    def test_empty_root_may_be_labelled_y(self, example):
        text = write_tree(plan(example), example)
        t = read_tree(text.replace("i 10 x", "i 10 y"), example)
        assert write_tree(t, example) == text

    def test_children_before_parents_required(self, example):
        t = plan(example)
        lines = write_tree(t, example).splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # parent before its leaf
        with pytest.raises(TreeError, match="before parent"):
            read_tree("\n".join(lines), example)

    @pytest.mark.parametrize("old,new", [
        ("l 1 1", "l x 1"),
        ("l 1 1", "l 1 one"),
        ("pjt ", "pjt q"),
    ])
    def test_non_integer_token_names_line(self, example, old, new):
        text = write_tree(plan(example), example).replace(old, new, 1)
        lineno = 1 + text.splitlines().index(
            next(l for l in text.splitlines() if l.startswith(new)))
        with pytest.raises(TreeError, match=f"line {lineno}: expected an integer"):
            read_tree(text, example)

    @pytest.mark.parametrize("first", ["pjt 1 1 1", "pjt 10 5 6"])
    def test_duplicate_header_rejected(self, example, first):
        # a stray first header must not be overridden by the true one
        text = f"{first}\n" + write_tree(plan(example), example)
        with pytest.raises(TreeError, match="line 2: duplicate header"):
            read_tree(text, example)

    @pytest.mark.parametrize("first", ["r 6", "r 10"])
    def test_duplicate_root_line_rejected(self, example, first):
        # a stray root line must not be overridden by the true one
        lines = write_tree(plan(example), example).splitlines()
        assert lines[-1] == "r 10"
        lines.insert(-1, first)
        with pytest.raises(TreeError,
                           match=f"line {len(lines)}: duplicate root line"):
            read_tree("\n".join(lines), example)

    def test_non_integer_internal_token(self, example):
        lines = write_tree(plan(example), example).splitlines()
        i = next(k for k, l in enumerate(lines) if l.startswith("i "))
        nid = lines[i].split()[1]
        grade = lines[i].split()[2]
        lines[i] = f"i {nid} {grade} a |"
        with pytest.raises(TreeError, match=f"line {i + 1}: expected an integer"):
            read_tree("\n".join(lines), example)

    @pytest.mark.parametrize("root_line", ["r", "r 1 2"])
    def test_malformed_root_line(self, example, root_line):
        lines = write_tree(plan(example), example).splitlines()
        assert lines[-1].startswith("r ")
        lines[-1] = root_line
        with pytest.raises(TreeError, match=f"line {len(lines)}: malformed root"):
            read_tree("\n".join(lines), example)

    def test_determinism_same_bytes(self, example):
        a = write_tree(plan(example, "min-fill"), example)
        b = write_tree(plan(example, "min-fill"), example)
        assert a == b


class TestFuzzedTrees:
    def test_every_plan_validates(self):
        rng = random.Random(99)
        for _ in range(150):
            p = random_instance(rng)
            for h in HEURISTICS:
                check_tree(plan(p, h), p)

    @given(data=st.data())
    def test_edited_tree_file_validates_or_raises_tree_error(self, data):
        p = random_instance(random.Random(data.draw(st.integers(0, 2**32 - 1))))
        h = data.draw(st.sampled_from(HEURISTICS))
        lines = [l.split() for l in write_tree(plan(p, h), p).splitlines()]
        token = (st.sampled_from(("pjt", "l", "i", "r", "c", "x", "y", "|",
                                  "-1", "0", "1.5", ""))
                 | st.integers(0, 40).map(str))
        for _ in range(data.draw(st.integers(1, 4))):
            k = data.draw(st.integers(0, len(lines) - 1))
            line = lines[k]
            j = data.draw(st.integers(0, len(line)))
            op = data.draw(st.sampled_from(
                ("replace", "insert", "delete", "drop line", "copy line")))
            if op == "insert" or (op == "replace" and j == len(line)):
                line.insert(j, data.draw(token))
            elif op == "replace":
                line[j] = data.draw(token)
            elif op == "delete" and j < len(line):
                del line[j]
            elif op == "drop line" and len(lines) > 1:
                del lines[k]
            elif op == "copy line":
                lines.insert(data.draw(st.integers(0, len(lines))), list(line))
        text = "".join(" ".join(l) + "\n" for l in lines)
        try:
            t = read_tree(text, p)
        except TreeError:
            return
        check_tree(t, p)

    @staticmethod
    def _edit(lines, rng):
        """Flip one internal line's grade letter, or move one projected
        variable from one internal line to another.  Returns the edited
        text and the moved variable (None for a flip)."""
        lines = [l.split() for l in lines]
        internal = [k for k, l in enumerate(lines) if l[0] == "i"]
        if rng.random() < 0.5:
            line = lines[rng.choice(internal)]
            line[2] = "y" if line[2] == "x" else "x"
            moved = None
        else:
            src = rng.choice([k for k in internal if lines[k][-1] != "|"])
            dst = rng.choice([k for k in internal if k != src])
            bar = lines[src].index("|")
            moved = rng.choice(lines[src][bar + 1:])
            lines[src].remove(moved)
            lines[dst].append(moved)
            moved = int(moved)
        return "".join(" ".join(l) + "\n" for l in lines), moved

    def test_valid_edits_keep_the_maximum(self):
        # an accepted edit changes where variables are projected, never the
        # value: max commutes exactly with the non-negative factors it moves
        # past, so a flip or a moved existential variable keeps the maximum
        # bit for bit; a moved randomized sum only rounds differently
        rng = random.Random(20260810)
        problems = [random_instance(rng) for _ in range(150)]
        problems += [band_instance(random.Random(1000 * w + i), w)
                     for w in (9, 14) for i in range(4)]
        problems += [band_instance(random.Random(8000 + i), 8, 40)
                     for i in range(2)]
        accepted = {"flip": 0, "existential": 0, "randomized": 0}
        for p in problems:
            t = plan(p)
            lines = write_tree(t, p).splitlines()
            if (sum(l.startswith("i ") for l in lines) < 2
                    or not p.all_clause_vars()):
                continue
            want = solve(p, t).maximum
            for _ in range(6):
                text, moved = self._edit(lines, rng)
                try:
                    edited = read_tree(text, p)
                except TreeError:
                    continue
                got = solve(p, edited).maximum
                if moved in p.Y:
                    accepted["randomized"] += 1
                    assert got == pytest.approx(want, rel=1e-14, abs=0)
                else:
                    accepted["flip" if moved is None else "existential"] += 1
                    assert got == want
        assert min(accepted.values()) >= 20, accepted


def _reference_order(graph, X, Y, heuristic="min-fill"):
    """The quadratic order the incremental one must reproduce exactly: every
    step rescans the whole block and rescores every remaining variable."""
    def fill(adj, v):
        nbrs = list(adj[v])
        return sum(1 for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))
                   if nbrs[j] not in adj[nbrs[i]])

    adj = {v: set(ns) for v, ns in graph.items()}
    order = []
    for block in (Y, X):
        remaining = adj.keys() & set(block)
        while remaining:
            if heuristic == "lex":
                pick = min(remaining)
            else:
                score = ((lambda v: len(adj[v])) if heuristic == "min-degree"
                         else (lambda v: fill(adj, v)))
                pick = min(remaining, key=lambda v: (score(v), v))
            order.append(pick)
            remaining.discard(pick)
            nbrs = adj[pick] & set(adj)
            for a in nbrs:
                adj[a] |= nbrs - {a}
                adj[a].discard(pick)
            del adj[pick]
    return order


def _rescoring_order(graph, X, Y):
    """Min-fill by the earlier incremental algorithm, the reference at sizes
    where `_reference_order` is too slow: a lazy heap per block, and after
    each elimination a fresh fill count for every block vertex within two
    hops of the eliminated one."""
    def fill(v):
        nbrs = adj[v]
        d = len(nbrs)
        return (d * (d - 1) - sum(len(nbrs & adj[a]) for a in nbrs)) // 2

    adj = {v: set(ns) for v, ns in graph.items()}
    order = []
    for block in (Y, X):
        score = {v: fill(v) for v in adj if v in block}
        heap = [(s, v) for v, s in score.items()]
        heapq.heapify(heap)
        while score:
            s, pick = heapq.heappop(heap)
            if score.get(pick) != s:
                continue
            order.append(pick)
            del score[pick]
            nbrs = adj.pop(pick)
            for a in nbrs:
                adj[a] |= nbrs
                adj[a] -= {a, pick}
            for w in nbrs.union(*(adj[a] for a in nbrs)) & score.keys():
                new = fill(w)
                if new != score[w]:
                    score[w] = new
                    heapq.heappush(heap, (new, w))
    return order


class TestIncrementalOrder:
    @staticmethod
    def _instances():
        rng = random.Random(20260810)
        for _ in range(200):
            yield random_instance(rng)
        for window in (9, 14, 19):
            for i in range(2):
                yield band_instance(random.Random(1000 * window + i), window)

    def test_matches_reference_order_and_tree_bytes(self):
        compared = 0
        for p in self._instances():
            g = primal_graph(p)
            for h in HEURISTICS:
                ref = _reference_order(g, p.X, p.Y, h)
                got = elimination_order(g, p.X, p.Y, h)
                assert got == ref, h
                assert (write_tree(plan(p, h), p)
                        == write_tree(build_graded_tree(p, ref), p))
                compared += 1
        assert compared == 206 * 3

    @staticmethod
    def _clique_instances():
        """Formulas where simplicial picks and shared closed neighborhoods
        are common, each variable in a random block: single long clauses,
        a long clause with 3-clauses over its variables, two disjoint
        cliques and a repeated clause."""
        rng = random.Random(20261020)

        def problem(clauses):
            vs = sorted({abs(l) for c in clauses for l in c})
            Y = frozenset(v for v in vs if rng.random() < 0.5)
            sign = lambda v: v if rng.random() < 0.5 else -v
            return Problem(num_vars=max(vs), X=frozenset(vs) - Y, Y=Y,
                           pr=dict.fromkeys(Y, 0.5),
                           clauses=tuple(tuple(map(sign, c)) for c in clauses))

        for k in (20, 33, 47, 60):
            yield problem([range(1, k + 1)])
        for _ in range(3):
            long = list(range(1, 31))
            yield problem([long] + [rng.sample(long, 3) for _ in range(12)])
        yield problem([range(1, 16), range(16, 41)])
        yield problem([range(1, 26), range(1, 26), [25, 26, 27], [27, 28]])

    def test_cliques_match_reference_order_and_tree_bytes(self):
        for p in self._clique_instances():
            validate(p)
            g = primal_graph(p)
            for h in HEURISTICS:
                ref = _reference_order(g, p.X, p.Y, h)
                assert elimination_order(g, p.X, p.Y, h) == ref, h
                assert (write_tree(plan(p, h), p)
                        == write_tree(build_graded_tree(p, ref), p))

    def test_clique_scored_once_and_eliminated_without_edges(self,
                                                             monkeypatch):
        # one 300-literal clause is one closed neighborhood, so one fill
        # count, and every pick has fill 0
        lits = " ".join(map(str, range(1, 301)))
        p = parse_problem(f"p cnf 300 1\ne {lits} 0\n{lits} 0\n")
        scored, simplicial = [], []
        real_fill, real_eliminate = planner._fill, planner._eliminate
        monkeypatch.setattr(planner, "_fill",
                            lambda adj, v: scored.append(v) or real_fill(adj, v))
        monkeypatch.setattr(
            planner, "_eliminate",
            lambda adj, pick, h, simple=False: simplicial.append(simple)
            or real_eliminate(adj, pick, h, simple))
        order = elimination_order(primal_graph(p), p.X, p.Y)
        assert order == list(range(1, 301))
        assert scored == [1]
        assert simplicial == [True] * 300

    @pytest.mark.parametrize("seed, length", [(7, 640)] + [
        (8000 + i, 40) for i in range(8)])
    def test_min_fill_matches_rescoring_on_long_bands(self, seed, length):
        # the 5120-variable band planned in CI, and band-long-shaped bands
        p = band_instance(random.Random(seed), 8, length)
        assert len(p.quantified) == 8 * length
        g = primal_graph(p)
        ref = _rescoring_order(g, p.X, p.Y)
        assert elimination_order(g, p.X, p.Y, "min-fill") == ref
        assert (write_tree(plan(p, "min-fill"), p)
                == write_tree(build_graded_tree(p, ref), p))

    def test_lex_plans_without_eliminating(self, monkeypatch):
        # lex scores never change, so lex orders by id alone
        def eliminate(*args):
            raise AssertionError("lex eliminated a vertex")

        monkeypatch.setattr(planner, "_eliminate", eliminate)
        for p in self._instances():
            check_tree(plan(p, "lex"), p)
        p = band_instance(random.Random(7), 8, 10)
        with pytest.raises(DeadlineExceeded):
            plan(p, "lex", deadline=time.monotonic() - 1.0)

    def test_min_fill_scales_to_1280_variables(self):
        p = band_instance(random.Random(7), 8, 160)
        assert len(p.quantified) == 1280
        g = primal_graph(p)
        start = time.perf_counter()
        order = elimination_order(g, p.X, p.Y, "min-fill")
        assert time.perf_counter() - start < 5.0  # quadratic rescans took ~9 s
        assert sorted(order) == sorted(p.quantified)

    def test_expired_deadline_raises(self):
        p = band_instance(random.Random(7), 8, 10)
        g = primal_graph(p)
        past = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded):
            elimination_order(g, p.X, p.Y, deadline=past)
        order = elimination_order(g, p.X, p.Y)
        with pytest.raises(DeadlineExceeded):
            build_graded_tree(p, order, deadline=past)
        with pytest.raises(DeadlineExceeded):
            plan(p, deadline=past)

    def test_deadline_polled_while_scoring(self, monkeypatch):
        # min-fill scores every vertex of a block before its first pick; on
        # one long clause each score walks a clique
        lits = " ".join(map(str, range(1, 301)))
        p = parse_problem(f"p cnf 300 1\ne {lits} 0\n{lits} 0\n")
        scored = []
        real = planner._fill
        monkeypatch.setattr(planner, "_fill",
                            lambda adj, v: scored.append(v) or real(adj, v))
        with pytest.raises(DeadlineExceeded):
            elimination_order(primal_graph(p), p.X, p.Y,
                              deadline=time.monotonic() - 1.0)
        assert len(scored) <= 1


def _naive_mcs(graph):
    """The quadratic search `mcs_order` must reproduce exactly: every step
    scans all unvisited vertices for the most visited neighbors, ties to the
    lowest id."""
    count = dict.fromkeys(graph, 0)
    order = []
    while count:
        v = min(count, key=lambda u: (-count[u], u))
        del count[v]
        order.append(v)
        for w in graph[v]:
            if w in count:
                count[w] += 1
    return order


class TestMcsOrder:
    @staticmethod
    def order_of(text):
        return mcs_order(primal_graph(parse_problem(text)))

    def test_worked_example_by_hand(self, example):
        # edges 2-4, 1-6, 3-5: start at 1, then its neighbor 6; the next
        # component starts at 2, then 4; the last at 3, then 5
        assert mcs_order(primal_graph(example)) == [1, 6, 2, 4, 3, 5]

    def test_most_visited_neighbors_beat_lower_ids(self):
        # after 1 and 4, vertex 5 has two visited neighbors and 2 one; after
        # 5, vertices 2 and 3 have one each and the tie goes to 2
        text = "p cnf 5 4\ne 1 2 3 4 5 0\n1 4 5 0\n2 4 0\n3 5 0\n2 3 0\n"
        assert self.order_of(text) == [1, 4, 5, 2, 3]

    def test_unit_clauses_and_components(self):
        # components {4, 6}, {1, 7} and the unit clause {2}, each started at
        # its lowest id once the one before is done; the clause-free 3 and 5
        # are not in the primal graph
        text = "p cnf 7 4\ne 1 2 3 4 5 6 7 0\n4 6 0\n7 -1 0\n2 0\n-6 0\n"
        assert self.order_of(text) == [1, 7, 2, 4, 6]
        assert self.order_of("p cnf 5 2\ne 1 2 3 4 5 0\n5 0\n-2 0\n") == [2, 5]

    def test_empty_formula(self):
        assert self.order_of("p cnf 3 0\ne 1 2 3 0\n") == []
        assert mcs_order({}) == []

    def test_permutation_of_the_clause_variables(self, example):
        rng = random.Random(20260810)
        for p in [example] + [random_instance(rng) for _ in range(200)]:
            assert sorted(mcs_order(primal_graph(p))) == sorted(
                p.all_clause_vars())

    def test_matches_naive_search(self):
        # the 5120-variable band planned and solved in CI, and fuzz instances
        problems = [band_instance(random.Random(7), 8, 640)]
        rng = random.Random(20260810)
        problems += [random_instance(rng) for _ in range(200)]
        for p in problems:
            g = primal_graph(p)
            assert mcs_order(g) == _naive_mcs(g)
