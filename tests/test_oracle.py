import random

import pytest

from dper.formula import Problem, parse_problem
from dper.gen import random_instance
from dper.oracle import (EnumerationGuardError, enumerate_solve,
                         weighted_count)


class TestWeightedCount:
    def test_worked_example_optimum(self, example):
        assert weighted_count(example, {1: True, 3: True, 5: False}) == 0.75
        assert weighted_count(example, {1: True, 3: False, 5: True}) == 0.75

    def test_falsifying_unit_clause_gives_zero(self, example):
        for tau in ({1: False, 3: True, 5: False},
                    {1: False, 3: False, 5: True}):
            assert weighted_count(example, tau) == 0.0

    def test_no_randomized_block_is_boolean(self):
        p = parse_problem("p cnf 2 1\ne 1 2 0\n1 -2 0\n")
        assert weighted_count(p, {1: True, 2: True}) == 1.0
        assert weighted_count(p, {1: False, 2: True}) == 0.0

    def test_missing_existential_var_rejected(self, example):
        with pytest.raises(ValueError, match="missing"):
            weighted_count(example, {1: True})

    def test_guard(self):
        ys = list(range(1, 26))
        p = Problem(25, (), frozenset(), frozenset(ys),
                    {y: 0.5 for y in ys})
        with pytest.raises(EnumerationGuardError):
            weighted_count(p, {})


class TestEnumerateSolve:
    def test_worked_example_argmax_set(self, example):
        res = enumerate_solve(example)
        assert res.maximum == 0.75
        assert len(res.maximizers) == 2
        for tau in res.maximizers:
            assert tau[1] is True and tau[3] != tau[5]
            assert weighted_count(example, tau) == res.maximum  # exact

    def test_empty_formula(self):
        res = enumerate_solve(parse_problem("p cnf 0 0\n"))
        assert res.maximum == 1.0
        assert res.maximizers == [{}]

    def test_no_existential_block_degenerates_to_counting(self):
        p = parse_problem("p cnf 2 2\nr 0.4 1 2 0\n1 0\n-2 0\n")
        res = enumerate_solve(p)
        assert res.maximizers == [{}]
        assert res.maximum == weighted_count(p, {})
        assert res.maximum == pytest.approx(0.4 * 0.6)

    def test_guard(self):
        vs = list(range(1, 26))
        p = Problem(25, (), frozenset(vs), frozenset(), {})
        with pytest.raises(EnumerationGuardError):
            enumerate_solve(p)


class TestInvariants:
    def test_maximizers_all_evaluate_exactly(self):
        rng = random.Random(13)
        for _ in range(60):
            p = random_instance(rng)
            res = enumerate_solve(p)
            for tau in res.maximizers:
                assert weighted_count(p, tau) == res.maximum

    def test_adding_a_clause_never_increases_maximum(self):
        rng = random.Random(29)
        for _ in range(60):
            p = random_instance(rng)
            if not p.clauses:
                continue
            smaller = Problem(p.num_vars, p.clauses[:-1], p.X, p.Y, p.pr)
            assert enumerate_solve(p).maximum <= enumerate_solve(smaller).maximum
