import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dper.formula import (ParseError, Problem, ValidationError, cofactor,
                          condition, parse_problem, primal_graph, serialize,
                          validate)
from dper.gen import random_instance


class TestParse:
    def test_worked_example(self, example_text, example):
        p = parse_problem(example_text)
        assert p.num_vars == 6
        assert len(p.clauses) == 5
        assert p == example

    def test_empty_formula(self):
        p = parse_problem("p cnf 0 0\n")
        assert p.num_vars == 0
        assert p.clauses == ()
        assert p.X == frozenset() and p.Y == frozenset()

    def test_tautology_dropped(self):
        p = parse_problem("p cnf 1 1\ne 1 0\n1 -1 0\n")
        assert p.clauses == ()

    def test_duplicate_literal_collapsed(self):
        p = parse_problem("p cnf 1 1\ne 1 0\n1 1 0\n")
        assert p.clauses == ((1,),)

    def test_unused_quantified_vars_retained(self):
        p = parse_problem("p cnf 3 1\ne 1 2 0\nr 0.4 3 0\n1 0\n")
        assert p.X == {1, 2} and p.Y == {3}

    def test_comments_and_blank_lines(self):
        p = parse_problem("c hi\n\np cnf 1 1\nc mid\ne 1 0\n1 0\n")
        assert p.clauses == ((1,),)

    def test_clause_lines_slow_and_fast_keep_order(self):
        # a line of distinct quantified variables is taken whole; a
        # tautology or a repeated literal goes through normalize_clause
        p = parse_problem("p cnf 3 5\ne 1 2 0\nr 0.5 3 0\n"
                          "1 -2 3 0\n2 2 0\n1 -1 0\n-3 -1 -3 0\n0\n")
        assert p.clauses == ((1, -2, 3), (2,), (-3, -1), ())

    def test_multiple_r_lines_with_distinct_probs(self):
        p = parse_problem("p cnf 2 0\nr 0.4 1 0\nr 0.6 2 0\n")
        assert p.pr == {1: 0.4, 2: 0.6}


class TestProblem:
    def test_fields_are_immutable(self, example):
        with pytest.raises(AttributeError):
            example.num_vars = 7
        with pytest.raises(AttributeError):
            example.pr = {}
        assert example.num_vars == 6

    def test_equal_when_every_field_is(self, example):
        fields = (example.num_vars, example.clauses, example.X, example.Y,
                  dict(example.pr))
        assert Problem(*fields) == example
        assert Problem(*fields[:4], {**example.pr, 2: 0.25}) != example
        assert Problem(7, *fields[1:]) != example
        assert example != fields

    def test_pr_defaults_to_a_fresh_dict(self):
        a = Problem(1, (), frozenset({1}), frozenset())
        b = Problem(1, (), frozenset({1}), frozenset())
        assert a.pr == {} and a.pr is not b.pr and a == b


class TestParseErrors:
    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_problem("p dnf 2 1\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_problem("e 1 0\n1 0\n")

    def test_quantified_twice(self):
        with pytest.raises(ParseError, match="quantified twice"):
            parse_problem("p cnf 1 0\ne 1 0\nr 0.5 1 0\n")

    def test_clause_var_unquantified(self):
        with pytest.raises(ParseError, match="unquantified"):
            parse_problem("p cnf 2 1\ne 1 0\n2 0\n")

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_problem("p cnf 1 0\nr 1.5 1 0\n")

    def test_clause_not_terminated(self):
        with pytest.raises(ParseError, match="0-terminated"):
            parse_problem("p cnf 2 1\ne 1 2 0\n1 2\n")

    def test_quantifier_line_not_terminated(self):
        with pytest.raises(ParseError, match="0-terminated"):
            parse_problem("p cnf 1 0\ne 1\n")

    def test_quantifier_after_clause(self):
        with pytest.raises(ParseError, match="after clause"):
            parse_problem("p cnf 2 1\ne 1 0\n1 0\ne 2 0\n")

    def test_variable_beyond_header(self):
        with pytest.raises(ParseError, match="beyond header"):
            parse_problem("p cnf 1 0\ne 2 0\n")

    @pytest.mark.parametrize("line, message", [
        ("1 0 2 0", "literal 0 inside clause"),
        ("2 -4 0", "variable 4 beyond header count 3"),
        ("-1 3 0", "variable 3 used in clause but unquantified"),
        ("3 3 -4 0", "variable 3 used in clause but unquantified"),
    ])
    def test_clause_errors_name_their_line(self, line, message):
        # after a clause line of distinct quantified variables, each bad
        # line falls back to the per-literal checks and fails on its line
        text = f"p cnf 3 2\ne 1 2 0\n1 -2 0\n{line}\n"
        with pytest.raises(ParseError, match=f"^line 4: {message}$"):
            parse_problem(text, free_as_exist=True)

    def test_tautology_counted_as_a_clause_line(self):
        p = parse_problem("p cnf 2 3\ne 1 2 0\n1 2 0\n1 -1 0\n2 2 0\n")
        assert p.clauses == ((1, 2), (2,))
        with pytest.raises(ParseError, match="declares 2 clauses but file has 3"):
            parse_problem("p cnf 2 2\ne 1 2 0\n1 2 0\n1 -1 0\n2 2 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="declares"):
            parse_problem("p cnf 1 2\ne 1 0\n1 0\n")
        # comment lines are not clauses; a dropped tautology still is one
        with pytest.raises(ParseError, match="declares 2 clauses but file has 1"):
            parse_problem("c head\np cnf 1 2\ne 1 0\nc 1 0\nc\n1 0\nc\ttail\n")
        with pytest.raises(ParseError, match="declares 1 clauses but file has 2"):
            parse_problem("p cnf 1 1\ne 1 0\n1 -1 0\n1 0\n")

    def test_free_variables_rejected_by_default(self):
        with pytest.raises(ParseError, match="free-as-exist"):
            parse_problem("p cnf 2 1\ne 1 0\n1 0\n")

    def test_free_variables_join_x_with_flag(self):
        p = parse_problem("p cnf 2 1\ne 1 0\n1 0\n", free_as_exist=True)
        assert p.X == {1, 2}

    def test_free_variable_error_names_first_few_and_count(self):
        with pytest.raises(ParseError) as err:
            parse_problem("p cnf 9 1\ne 2 0\nr 0.5 4 0\n2 4 0\n")
        assert "7 unquantified unused variables (1, 3, 5, 6, 7, ...)" in str(err.value)

    def test_huge_header_bounded(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_problem("p cnf 3000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(str(err.value)) < 200
        assert "3000000" in str(err.value)
        assert peak < 10 * 2**20


class TestValidate:
    def test_worked_example_ok(self, example):
        validate(example)

    def test_partition_violation(self):
        p = Problem(2, ((1,),), frozenset({1}), frozenset({1, 2}),
                    {1: 0.5, 2: 0.5})
        with pytest.raises(ValidationError, match="both blocks"):
            validate(p)

    def test_probability_range(self):
        p = Problem(1, (), frozenset(), frozenset({1}), {1: 1.5})
        with pytest.raises(ValidationError, match="outside"):
            validate(p)

    def test_pr_domain_mismatch(self):
        p = Problem(2, (), frozenset({1}), frozenset({2}), {1: 0.5, 2: 0.5})
        with pytest.raises(ValidationError, match="domain"):
            validate(p)

    def test_all_violations_reported(self):
        p = Problem(1, ((2,),), frozenset({1}), frozenset({1}), {1: 2.0})
        with pytest.raises(ValidationError) as err:
            validate(p)
        assert len(err.value.violations) >= 3


class TestCofactor:
    def test_satisfied_clause_is_none(self):
        assert cofactor((2, -4, 1), frozenset({1})) is None
        assert cofactor((2, -4), frozenset({3, -4})) is None

    def test_negations_stripped_in_order(self):
        assert cofactor((2, -4, 1, 5), frozenset({-1, 4, 6})) == (2, 5)
        assert cofactor((-1,), frozenset({1})) == ()

    def test_no_literal_keeps_the_clause(self):
        c = (2, -4)
        assert cofactor(c, frozenset()) is c
        assert cofactor(c, frozenset({1, -3})) == c


class TestCondition:
    def test_worked_example(self, example):
        q = condition(example, {1: True, 3: False, 5: True})
        assert q.clauses == ((2, -4),)
        assert q.X == frozenset() and q.Y == example.Y and q.pr == example.pr
        assert q.num_vars == example.num_vars

    def test_false_literals_stripped_in_order(self, example):
        q = condition(example, {1: False, 3: True, 5: True})
        assert q.clauses == ((2, -4), (6,), (), ())

    def test_no_existential_block_unchanged(self):
        p = Problem(2, ((1, -2), (2,)), frozenset(), frozenset({1, 2}),
                    {1: 0.4, 2: 0.5})
        q = condition(p, {})
        assert q == p

    def test_missing_existential_var_rejected(self, example):
        with pytest.raises(ValueError, match="missing"):
            condition(example, {1: True})


class TestPrimalGraph:
    def test_worked_example_edges(self, example):
        g = primal_graph(example)
        assert g[2] == {4} and g[4] == {2}
        assert g[1] == {6} and g[6] == {1}
        assert g[3] == {5} and g[5] == {3}

    def test_empty_formula(self):
        assert primal_graph(parse_problem("p cnf 0 0\n")) == {}

    def test_unit_clause(self):
        g = primal_graph(parse_problem("p cnf 1 1\ne 1 0\n1 0\n"))
        assert g == {1: set()}

    def test_edges_exactly_cooccurrences(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_instance(rng)
            g = primal_graph(p)
            expected = set()
            for c in p.clauses:
                vs = sorted({abs(l) for l in c})
                for i in range(len(vs)):
                    for j in range(i + 1, len(vs)):
                        expected.add((vs[i], vs[j]))
            got = {(u, v) for u, ns in g.items() for v in ns if u < v}
            assert got == expected
            assert set(g) == p.all_clause_vars()


class TestRoundTrip:
    @given(st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_serialize_parse_identity(self, seed):
        p = random_instance(random.Random(seed))
        assert parse_problem(serialize(p)) == p

    def test_clause_vars_quantified_after_parse(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_instance(rng)
            p2 = parse_problem(serialize(p))
            assert p2.all_clause_vars() <= p2.X | p2.Y
