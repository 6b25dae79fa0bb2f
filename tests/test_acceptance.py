"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import copy
import random
import time
from collections import defaultdict

import pytest

from dper import bench, executor, oracle, planner
from dper.executor import DebugAssertionError, debug_assert_mode
from dper.gen import band_instance, random_instance
from dper.planner import HEURISTICS, TreeError

import test_executor as exec_tests
import test_pbf_properties as prop_tests
from conftest import make_example, monolithic_tree

TOL = 1e-9
FUZZ_COUNT = 2000
FUZZ_SEED = 20260810


def fuzz_instances(count=FUZZ_COUNT):
    for i in range(count):
        yield i, random_instance(random.Random(FUZZ_SEED + i))


def test_criterion_1_worked_example():
    """Maximum 0.75 exactly, maximizer optimal, under one second."""
    p = make_example()
    start = time.perf_counter()
    ref = oracle.enumerate_solve(p)  # full 2^6 enumeration
    result = executor.solve(p, planner.plan(p))
    elapsed = time.perf_counter() - start
    assert ref.maximum == 0.75
    assert result.maximum == 0.75
    assert oracle.weighted_count(p, result.maximizer) == 0.75
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: worked example solved exactly "
          f"(0.75 in {elapsed:.3f}s)")


def test_criterion_2_oracle_equivalence_fuzz():
    """2000 random instances: solves on the trees of every heuristic and on
    the unfactored two-node tree agree with the oracle to 1e-9."""
    start = time.perf_counter()
    for i, p in fuzz_instances():
        ref = oracle.enumerate_solve(p)
        maxima = {}
        for h in HEURISTICS:
            r = executor.solve(p, planner.plan(p, h))
            maxima[h] = r.maximum
            assert abs(r.maximum - ref.maximum) <= TOL, (i, h)
            assert abs(oracle.weighted_count(p, r.maximizer)
                       - ref.maximum) <= TOL, (i, h)
        rm = executor.solve(p, monolithic_tree(p))
        assert abs(rm.maximum - ref.maximum) <= TOL, i
        assert abs(oracle.weighted_count(p, rm.maximizer)
                   - ref.maximum) <= TOL, i
        for tau in ref.maximizers:
            assert oracle.weighted_count(p, tau) == ref.maximum, i
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 2 PASS: {FUZZ_COUNT} fuzz instances, 3 heuristics' "
          f"trees + the monolithic tree + oracle agree ({elapsed:.1f}s)")


PROPERTY_CHECKS = [
    prop_tests.test_early_projection_exists_form,
    prop_tests.test_early_projection_rand_form,
    prop_tests.test_exists_projection_commutes,
    prop_tests.test_rand_projection_commutes,
    prop_tests.test_join_commutative_as_handles,
    prop_tests.test_join_associative_as_handles,
    prop_tests.test_dsgn_tie_rule_and_semantics,
    prop_tests.test_dsgn_survives_positive_factor,
]


def test_criterion_3_algebra_properties():
    """The full property suite: 500 enumerated cases per property."""
    start = time.perf_counter()
    for check in PROPERTY_CHECKS:
        check()
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 3 PASS: {len(PROPERTY_CHECKS)} algebra properties "
          f"x 500 cases ({elapsed:.1f}s)")


def test_criterion_4_debug_assert_mode():
    """Annotated runs are clean on the fuzz suite; corruptions always trip."""
    start = time.perf_counter()
    for i, p in fuzz_instances():
        r = debug_assert_mode(p, planner.plan(p))
        ref = oracle.enumerate_solve(p)
        assert abs(r.maximum - ref.maximum) <= TOL, i
        assert r.stats.executor == "dense", i  # checked on tables, as solved

    p = make_example()
    tripped = 0
    for mutate in exec_tests.MUTATIONS:
        bad = copy.deepcopy(planner.plan(p))
        mutate(bad)
        try:
            debug_assert_mode(p, bad)
        except (TreeError, DebugAssertionError):
            tripped += 1
        else:
            raise AssertionError(f"{mutate.__name__} produced output")
    assert tripped == len(exec_tests.MUTATIONS) >= 10
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 4 PASS: {FUZZ_COUNT} clean annotated runs, "
          f"{tripped} corruption types all tripped ({elapsed:.1f}s)")


def test_criterion_5_structural_guarantees():
    """Planner outputs pass check_tree, which checks gradedness and implies
    the sibling lemma; diagrams never exceed the width."""
    start = time.perf_counter()
    plans = 0
    rng = random.Random(FUZZ_SEED)
    while plans < 1200:
        p = random_instance(rng)
        for h in HEURISTICS:
            t = planner.plan(p, h)
            planner.check_tree(t, p)
            plans += 1
        r = executor.solve(p, t)
        assert r.stats.max_support <= planner.width(t, p)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 5 PASS: {plans} plans validated by check_tree, which "
          f"implies the sibling lemma, and the width bound holds ({elapsed:.1f}s)")


def test_criterion_6_harness_arithmetic():
    """PAR-2 arithmetic and the 1e-6 disqualification rule."""
    # five records with known times and one timeout at a 50s cap:
    # scores {2, 4, 6, 8, 100}, mean exactly 24
    records = [bench.BenchRecord(f"i{k}", True, float(2 * k))
               for k in range(1, 5)]
    records.append(bench.BenchRecord("timeout", False, 50.0))
    summary = bench.BenchSummary(records=records, cap=50.0)
    assert summary.mean_par2 == 24.0

    refs = {"wrong": 0.5, "close": 0.5}
    checked = [
        bench.BenchRecord("wrong", True, 1.0, answer=0.5 + 2e-6),
        bench.BenchRecord("close", True, 1.0, answer=0.5 + 1e-9),
    ]
    bench.apply_reference_answers(checked, refs)
    assert checked[0].disqualified and not checked[0].solved
    assert checked[1].solved and not checked[1].disqualified
    print("\nACCEPTANCE 6 PASS: PAR-2 mean exact, 1e-6 disqualification rule "
          "flags wrong answers and passes 1e-9 perturbations")


@pytest.mark.usefixtures("diagrams")
def test_criterion_7_width_scaling_smoke():
    """Cluster-scale tables are out of reach here; instead the generated
    band family must show the qualitative cost profile: all instances with
    width <= 25 solve under 60s and the mean number of diagram nodes
    created grows monotonically over the width buckets."""
    buckets = (5, 10, 15, 20, 25)
    nodes_created = defaultdict(list)
    count = 0
    start = time.perf_counter()
    for window in (4, 9, 14, 19, 24):
        for i in range(4):
            rng = random.Random(1000 * window + i)
            p = band_instance(rng, window)
            t = planner.plan(p, "min-fill")
            w = planner.width(t, p)
            assert w <= 25
            t0 = time.perf_counter()
            r = executor.solve(p, t)
            assert time.perf_counter() - t0 < 60.0
            bucket = next(b for b in buckets if w <= b)
            nodes_created[bucket].append(r.stats.diagram_nodes)
            count += 1
    assert count >= 20
    assert all(nodes_created[b] for b in buckets), "every width bucket is populated"
    means = [sum(nodes_created[b]) / len(nodes_created[b]) for b in buckets]
    assert all(a < b for a, b in zip(means, means[1:])), means
    elapsed = time.perf_counter() - start
    pretty = ", ".join(f"<={b}: {m:.0f}" for b, m in zip(buckets, means))
    print(f"\nACCEPTANCE 7 PASS: {count} instances under 60s cap; bucket mean "
          f"nodes created monotone ({pretty}) in {elapsed:.1f}s")
