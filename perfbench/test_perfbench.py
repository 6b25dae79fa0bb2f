"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dper import cli, oracle  # noqa: E402
from dper.bench import BenchRecord  # noqa: E402
from dper.formula import parse_problem  # noqa: E402
from perfbench import scoring, spans, worker, workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_excludes_direct_children_only():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def mid():
        clock.now += 2.0
        traced_leaf()
        clock.now += 3.0

    def top():
        clock.now += 10.0
        traced_mid()
        traced_leaf()

    traced_leaf = tr.wrap(leaf, "leaf")
    traced_mid = tr.wrap(mid, "mid")
    tr.wrap(top, "top")()
    totals = tr.reset()
    assert totals["top"] == [17.0, 10.0, 1]   # 17 minus mid (6) and leaf (1)
    assert totals["mid"] == [6.0, 5.0, 1]
    assert totals["leaf"] == [2.0, 2.0, 2]
    assert tr.reset() == {}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def boom():
        clock.now += 4.0
        raise ValueError

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.reset() == {"boom": [4.0, 4.0, 1]}


def test_installed_wraps_then_restores():
    from dper import pbf, planner

    before = (planner.plan, pbf.PbFunc.__dict__["support"], cli.parse_problem)
    with spans.Tracer().installed():
        assert planner.plan is not before[0]
        assert cli.parse_problem.__wrapped__ is before[2]
    assert (planner.plan, pbf.PbFunc.__dict__["support"],
            cli.parse_problem) == before


@pytest.mark.parametrize("n, index, pct, beyond", [
    (11, 0, 100 / 11, 10),
    (20, 9, 50.0, 10),
    (100, 89, 90.0, 10),
    (1000, 989, 99.0, 10),
])
def test_tail_keeps_ten_samples_beyond(n, index, pct, beyond):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    assert scoring.tail(samples) == (float(index), pytest.approx(pct), beyond)


def test_tail_with_too_few_samples_is_the_upper_quartile():
    assert scoring.tail([5.0]) == (5.0, 100.0, 0)
    assert scoring.tail([3.0, 1.0, 2.0]) == (2.5, 75.0, 1)
    eight = [float(i) for i in range(8)]
    random.Random(8).shuffle(eight)
    assert scoring.tail(eight) == (5.25, 75.0, 2)
    assert scoring.tail([float(i) for i in range(10)]) == (6.75, 75.0, 3)


def test_par2_agrees_with_dper_bench():
    cap = 5.0
    rng = random.Random(7)
    outcomes = [scoring.Outcome(rng.uniform(0.1, 9.0), rng.random() < 0.6,
                                False, "") for _ in range(40)]
    records = [BenchRecord(name=str(i), solved=o.solved, seconds=o.seconds)
               for i, o in enumerate(outcomes)]
    expected = sum(r.par2(cap) for r in records) / len(records)
    assert scoring.par2(outcomes, cap) == pytest.approx(expected, rel=1e-15)


def test_best_of_visits_takes_fastest_and_any_failure():
    o = scoring.Outcome
    visits = {"a": [o(3.0, True, False, ""), o(2.0, True, False, "")],
              "b": [o(1.0, True, False, ""), o(5.0, False, True, "bad")]}
    a, b = scoring.best_of_visits(visits)
    assert (a.seconds, a.solved, a.wrong) == (2.0, True, False)
    assert (b.seconds, b.solved, b.wrong, b.reason) == (1.0, False, True, "bad")
    assert scoring.par2([a, b], cap=4.0) == (2.0 + 8.0) / 2


def test_judge_failures():
    ok = {"status": "ok", "maximum": 0.25,
          "verification": {"checked": True, "weighted_count": 0.25,
                           "agrees": True}}
    assert scoring.judge(ok, 1.0, 2.0, 0.25).solved
    # ok from the program, but past the benchmark's own cap
    late = scoring.judge(ok, 2.5, 2.0, 0.25)
    assert not late.solved and not late.wrong
    wrong = scoring.judge(ok, 1.0, 2.0, 0.25 * (1 + 1e-8))
    assert not wrong.solved and wrong.wrong
    assert scoring.judge(ok, 1.0, 2.0, 0.25 * (1 + 1e-12)).solved
    bad_recount = dict(ok, verification={"checked": True, "agrees": False,
                                         "weighted_count": 0.2})
    assert scoring.judge(bad_recount, 1.0, 2.0, 0.25).wrong
    timeout = scoring.judge({"status": "deadline"}, 2.0, 2.0, 0.25)
    assert not timeout.solved and not timeout.wrong


@pytest.fixture
def small_instance(tmp_path):
    inst = workloads.random_3cnf(random.Random(3), 10, 20, 4)
    text = workloads.to_er_dimacs(inst)
    path = tmp_path / "small.cnf"
    path.write_text(text)
    return str(path), oracle.enumerate_solve(parse_problem(text)).maximum


def test_wrong_reference_counts_as_failure(small_instance):
    path, maximum = small_instance
    cfg = cli.RunConfig(timeout=10.0)
    right, _, _ = worker.solve(cli, path, cfg, 10.0, maximum)
    assert right.solved
    wrong, _, _ = worker.solve(cli, path, cfg, 10.0, maximum + 1e-6)
    assert not wrong.solved and wrong.wrong


def test_hung_solve_is_killed_and_counts_as_failure():
    class Hangs:
        @staticmethod
        def run_solve(path, cfg):
            time.sleep(60)

    outcome, report, _ = worker.solve(Hangs, "unused.cnf", None, 0.5, 1.0)
    assert not outcome.solved and not outcome.wrong
    assert report["status"].startswith("solve process ended")
    assert outcome.seconds < 10


def test_traced_shares_partition_the_solve(small_instance):
    path, maximum = small_instance
    cfg = cli.RunConfig(timeout=10.0)
    tr = spans.Tracer()
    plain = {"small": [worker.solve(cli, path, cfg, 10.0, maximum)[0]]}
    outcome, report, totals = worker.solve(cli, path, cfg, 10.0, maximum, tr)
    assert outcome.solved and tr.reset() == {}  # spans stay in the child
    m = worker.per_layer([("small", outcome, report, totals)], plain, 10.0)
    share = worker.shares(m)
    layers = ("formula", "planner", "executor", "pbf", "oracle", "cli")
    assert sum(share[l] for l in layers) == pytest.approx(1.0)
    assert m["oracle.verified_frac"][0] == 1.0
    assert m["pbf.join_calls"][0] > 0


def test_per_layer_weights_instances_equally():
    # "a" was reached twice in the last, partial cycle through the pool
    o = scoring.Outcome(1.0, True, False, "")

    def visit(name, calls, nodes):
        return (name, o, {"diagram_nodes": nodes},
                {"pbf.join": [1.0, 1.0, calls]})

    traced = [visit("a", 10, 100), visit("b", 30, 300), visit("a", 10, 100)]
    m = worker.per_layer(traced, {"a": [o], "b": [o]}, 10.0)
    assert m["pbf.join_calls"][0] == 20.0
    assert m["pbf.nodes_created"][0] == 200.0


def test_stored_references_match_generated_pools(tmp_path):
    refs = workloads.load_refs()
    for wl in workloads.WORKLOADS.values():
        maxima = workloads.materialize(wl, tmp_path, refs[wl.name])
        assert sorted(maxima) == sorted(refs[wl.name])
    with pytest.raises(workloads.StaleReferenceError):
        workloads.materialize(wl, tmp_path, {})


def test_quartile_spread():
    assert scoring.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)
