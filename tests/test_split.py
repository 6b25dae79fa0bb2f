"""The split solve: the two cofactors of the root's last existential
variable x*, solved in two processes (`executor.split_var`,
`executor._split_run`).

The halves must give the unsplit run's maximum, bit for bit, and its
maximizer; `solve` must split exactly where the gate holds; a failure in
either process must be the solve's failure, with its status and exit
code; and no process may outlive a solve.
"""

import errno
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from dper import cli, executor
from dper.dense import DenseStore
from dper.formula import parse_problem
from dper.gen import random_instance
from dper.pbf import (DeadlineExceeded, DiagramStore, ResourceLimitError,
                      poll_deadline)
from dper.planner import plan, table_entries

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for perfbench
from perfbench.workloads import WORKLOADS  # noqa: E402


def pool(name):
    return [(n, parse_problem(text)) for n, text in WORKLOADS[name].instances()]


RAND_EXIST = pool("rand-exist")


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may run on, as the gate reads them."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    set_cpus(2)
    return set_cpus


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def last_exist(p, t) -> int:
    """x*, if the root projects an existential variable and no randomized
    one, else 0."""
    root = t.nodes[t.root]
    if root.is_leaf or root.projected & p.Y or not root.projected & p.X:
        return 0
    return max(root.projected)


def answer(r):
    return r.maximum.hex(), r.maximizer


def same_halves(p, t, x, dense=False):
    """The split run's answer and the unsplit run's, on one kind of store."""
    def store():
        if dense:
            return DenseStore(executor.tree_var_order(p, t))
        return DiagramStore(executor.diagram_var_order(p))
    split = executor._split_run(p, t, store(), x)
    assert split.stats.split == x
    return answer(split), answer(executor._run(p, t, store()))


class TestSameAnswers:
    @pytest.mark.parametrize("name,p", RAND_EXIST, ids=[n for n, _ in RAND_EXIST])
    def test_rand_exist_pool(self, name, p):
        t = plan(p)
        x = last_exist(p, t)
        assert x
        split, whole = same_halves(p, t, x)
        assert split == whole
        assert_no_child()

    @pytest.mark.parametrize("dense", [False, True], ids=["diagram", "dense"])
    def test_fuzz(self, dense):
        checked = ones = 0
        for seed in range(200):
            p = random_instance(random.Random(seed))
            t = plan(p)
            x = last_exist(p, t)
            if not x:
                continue
            split, whole = same_halves(p, t, x, dense)
            assert split == whole, seed
            checked += 1
            ones += whole[1][x]
        assert checked >= 50
        assert 0 < ones < checked  # both halves win somewhere
        assert_no_child()


def test_counters_cover_both_halves():
    # each half run alone, in this process, on a store of its own
    for _, p in RAND_EXIST:
        t = plan(p)
        x = last_exist(p, t)
        s = executor._split_run(p, t, executor.choose_store(p, t), x).stats
        one, zero = (executor._run(p, t, executor.choose_store(p, t),
                                   fixed=lit).stats for lit in (x, -x))
        assert s.split == x
        assert s.diagram_nodes == one.diagram_nodes + zero.diagram_nodes
        assert s.peak_live_nodes == one.peak_live_nodes + zero.peak_live_nodes
        assert s.max_support == max(one.max_support, zero.max_support)
        assert s.underflow == (one.underflow or zero.underflow)
        assert s.exist_bound == max(one.exist_bound, zero.exist_bound)
        assert (one.split, zero.split) == (0, 0)


class TestGate:
    def test_solve_splits_where_the_gate_holds(self, cpus):
        splits = []
        for _, p in RAND_EXIST:
            t = plan(p)
            x = executor.split_var(p, t)
            assert x in (0, last_exist(p, t))
            assert executor.solve(p, t).stats.split == x
            splits.append(x)
        assert sum(map(bool, splits)) >= 4
        assert_no_child()

    def test_declines_with_one_cpu(self, cpus):
        _, p = RAND_EXIST[1]
        t = plan(p)
        assert executor.split_var(p, t)
        cpus(1)
        assert executor.split_var(p, t) == 0
        assert executor.solve(p, t).stats.split == 0

    def test_declines_with_another_thread(self, cpus):
        _, p = RAND_EXIST[1]
        t = plan(p)
        assert executor.split_var(p, t)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert executor.split_var(p, t) == 0
        finally:
            stop.set()
            other.join(10)
        assert not other.is_alive()

    def test_declines_with_a_node_limit(self, cpus):
        _, p = RAND_EXIST[1]
        t = plan(p)
        assert executor.split_var(p, t)
        assert executor.split_var(p, t, node_limit=10 ** 6) == 0
        assert executor.solve(p, t, node_limit=10 ** 6).stats.split == 0

    def test_declines_below_min_entries(self, cpus, monkeypatch):
        _, p = RAND_EXIST[1]
        t = plan(p)
        entries = table_entries(t, p)
        monkeypatch.setattr(executor, "SPLIT_MIN_ENTRIES", entries)
        assert executor.split_var(p, t)
        monkeypatch.setattr(executor, "SPLIT_MIN_ENTRIES", entries + 1)
        assert executor.split_var(p, t) == 0

    @pytest.mark.parametrize("workload", ["band-wide", "band-long",
                                          "rand-verify"])
    def test_declines_on_other_pools(self, cpus, workload):
        for _, p in pool(workload):
            assert executor.split_var(p, plan(p)) == 0


def split_instance(tmp_path):
    """A rand-exist pool instance the gate splits, as a file."""
    name, p = RAND_EXIST[1]
    assert executor.split_var(p, plan(p))
    f = tmp_path / f"{name}.cnf"
    f.write_text(dict(WORKLOADS["rand-exist"].instances())[name])
    return str(f)


def test_solve_reads_one_joined_map(tmp_path, cpus, joined_reads):
    # the width report, the store choice and the split gate read the one
    # map the tree keeps; the re-count, a solve of its own, is off
    path = split_instance(tmp_path)
    joined_reads.clear()
    report = cli.run_solve(path, cli.RunConfig(verify=False))
    assert report["status"] == "ok" and report["split"]
    assert {r[:2] for r in joined_reads} == {
        ("width", "_plan"), ("table_entries", "choose_store"),
        ("table_entries", "split_var"), ("split_var", "solve")}
    assert all(r[2] is joined_reads[0][2] for r in joined_reads)


class TestFailures:
    def test_deadline_in_the_child_exits_2(self, cpus, tmp_path, capsys,
                                           monkeypatch):
        real, halves = executor._run, []

        def late_child(p, t, store, obs=None, fixed=0):
            if fixed > 0:  # the x* = 1 half, in the child
                time.sleep(max(0.0, store.deadline - time.monotonic()))
                poll_deadline(store.deadline, "execution")
            r = real(p, t, store, obs, fixed)
            halves.append(fixed)
            return r
        monkeypatch.setattr(executor, "_run", late_child)
        path = split_instance(tmp_path)
        code = cli.main(["solve", "--input", path, "--timeout", "1.5"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["status"]) == (2, "deadline")
        assert len(halves) == 1 and halves[0] < 0  # this process's half ended
        assert_no_child()

    def test_failure_here_kills_the_child(self, cpus, monkeypatch):
        real = executor._run

        def fail_here(p, t, store, obs=None, fixed=0):
            if fixed > 0:
                time.sleep(60)
            elif fixed < 0:
                raise ResourceLimitError("diagram store would hold more nodes")
            return real(p, t, store, obs, fixed)
        monkeypatch.setattr(executor, "_run", fail_here)
        _, p = RAND_EXIST[1]
        start = time.monotonic()
        with pytest.raises(ResourceLimitError):
            executor.solve(p, plan(p))
        assert time.monotonic() - start < 30
        assert_no_child()

    @pytest.mark.parametrize("error,raised", [
        (DeadlineExceeded("deadline hit during execution"), DeadlineExceeded),
        (ResourceLimitError("too many nodes"), ResourceLimitError),
        (RecursionError("too deep"), RecursionError),
        (ValueError("a bug"), RuntimeError)])
    def test_child_failure_raised_here(self, cpus, monkeypatch, error, raised):
        real = executor._run

        def fail_there(p, t, store, obs=None, fixed=0):
            if fixed > 0:
                raise error
            return real(p, t, store, obs, fixed)
        monkeypatch.setattr(executor, "_run", fail_there)
        _, p = RAND_EXIST[1]
        with pytest.raises(raised, match=str(error)):
            executor.solve(p, plan(p))
        assert_no_child()

    def test_child_that_dies_without_a_result(self, cpus, monkeypatch):
        real = executor._run

        def die(p, t, store, obs=None, fixed=0):
            if fixed > 0:
                os._exit(1)
            return real(p, t, store, obs, fixed)
        monkeypatch.setattr(executor, "_run", die)
        _, p = RAND_EXIST[1]
        with pytest.raises(RuntimeError, match="without a result"):
            executor.solve(p, plan(p))
        assert_no_child()

    @pytest.mark.parametrize("call,error", [
        ("pipe", OSError(errno.EMFILE, "Too many open files")),
        ("fork", BlockingIOError(errno.EAGAIN,
                                 "Resource temporarily unavailable"))],
        ids=["pipe", "fork"])
    def test_no_pipe_or_process_solves_unsplit(self, cpus, monkeypatch, call,
                                               error):
        _, p = RAND_EXIST[1]
        t = plan(p)
        whole = answer(executor._run(p, t, executor.choose_store(p, t)))

        def fail():
            raise error
        monkeypatch.setattr(os, call, fail)
        r = executor.solve(p, t)
        assert (answer(r), r.stats.split) == (whole, 0)


ORPHAN_SCRIPT = """
import os, sys, time
from dper import executor, planner
from dper.formula import parse_problem

os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork


def fork_and_tell():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


def sleep(p, t, store, obs=None, fixed=0):
    time.sleep(60)


os.fork = fork_and_tell
executor._run = sleep
p = parse_problem(sys.stdin.read())
executor.solve(p, planner.plan(p))
"""


def gone(pid: int) -> bool:
    """Whether process `pid` has ended: reaped, or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_child_ends_when_its_parent_is_killed():
    name, _ = RAND_EXIST[1]
    text = dict(WORKLOADS["rand-exist"].instances())[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(executor.__file__).parents[1])] + sys.path))
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        proc.stdin.write(text)
        proc.stdin.close()
        child = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(10)
    deadline = time.monotonic() + 5
    while not gone(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(child)
