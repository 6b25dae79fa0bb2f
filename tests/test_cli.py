import io
import json
import math
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from dper import bench, cli, executor, oracle, planner
from dper.formula import (ParseError, Problem, condition, parse_problem,
                          serialize, validate)
from dper.gen import band_instance, random_instance
from dper.pbf import DeadlineExceeded, DiagramStore

from conftest import EXAMPLE_TEXT


@pytest.fixture
def example_file(tmp_path):
    f = tmp_path / "example.cnf"
    f.write_text(EXAMPLE_TEXT)
    return str(f)


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSolveCommand:
    def test_json_report(self, example_file, capsys):
        code, out, _ = run_cli(["solve", "--input", example_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["maximum"] == 0.75
        assert report["maximizer"] == [1, -3, 5]
        assert report["width"] == 2
        assert report["verification"]["agrees"] is True

    def test_report_keys_in_order(self, example_file, capsys):
        _, out, _ = run_cli(["solve", "--input", example_file], capsys)
        report = json.loads(out)
        assert list(report) == [
            "schema_version", "instance", "width", "tree_nodes",
            "plan_seconds", "status", "maximum", "maximizer", "executor",
            "diagram_nodes", "peak_live_nodes", "max_support", "underflow",
            "exist_bound", "split", "exec_seconds", "verification",
            "total_seconds"]
        assert list(report["verification"]) == [
            "checked", "weighted_count", "agrees", "seconds"]

    def test_text_matches_json_numbers(self, example_file, capsys):
        _, json_out, _ = run_cli(["solve", "--input", example_file], capsys)
        report = json.loads(json_out)
        code, text_out, _ = run_cli(
            ["solve", "--input", example_file, "--format", "text"], capsys)
        assert code == 0
        line = next(l for l in text_out.splitlines() if l.startswith("maximum:"))
        assert float(line.split(":")[1]) == report["maximum"]
        assert f"{report['maximum']:.17g}" in line

    def test_text_booleans_as_in_json(self, example_file, capsys):
        code, out, _ = run_cli(
            ["solve", "--input", example_file, "--format", "text"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "underflow: false" in lines
        check = next(l for l in lines if l.startswith("verification:"))
        assert "checked=true" in check.split() and "agrees=true" in check.split()
        assert "True" not in out and "False" not in out

    def test_debug_assert_flag(self, example_file, capsys):
        code, out, _ = run_cli(
            ["solve", "--input", example_file, "--debug-assert"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["maximum"] == 0.75
        _, plain, _ = run_cli(["solve", "--input", example_file], capsys)
        assert report["max_support"] == json.loads(plain)["max_support"] == 2

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        f = tmp_path / "bad.cnf"
        f.write_text("p dnf oops\n")
        code, _, err = run_cli(["solve", "--input", str(f)], capsys)
        assert code == 1
        assert "line 1" in err

    def test_deadline_exit_2(self, example_file, capsys):
        code, out, _ = run_cli(
            ["solve", "--input", example_file, "--timeout", "1e-9"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "deadline"
        assert "width" not in report  # it fired while planning

    def test_run_past_the_deadline_exit_2(self, example_file, capsys,
                                          monkeypatch):
        # the deadline is polled once more after the stack replay
        replay = executor._replay_stack

        def slow_replay(*args):
            time.sleep(0.5)
            return replay(*args)
        monkeypatch.setattr(executor, "_replay_stack", slow_replay)
        code, out, _ = run_cli(["solve", "--input", example_file,
                                "--timeout", "0.3"], capsys)
        report = json.loads(out)
        assert (code, report["status"]) == (2, "deadline")
        assert "maximum" not in report and report["total_seconds"] > 0.5

    def test_deadline_after_planning_keeps_plan_stats(self, example_file,
                                                      capsys, monkeypatch):
        def expire(*args, **kwargs):
            raise DeadlineExceeded("deadline hit during execution")
        monkeypatch.setattr(executor, "solve", expire)
        code, out, _ = run_cli(["solve", "--input", example_file], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "deadline"
        assert report["width"] == 2  # partial stats survive

    def test_deep_diagram_exit_3(self, tmp_path, capsys, monkeypatch):
        # execution raises the recursion limit to cover every diagram level,
        # so only a kernel recursion deeper than that, here an endless one,
        # reaches the backstop
        def endless(self, op, f, g):
            return endless(self, op, f, g)

        monkeypatch.setattr(DiagramStore, "_apply", endless)
        lits = " ".join(map(str, range(1, 301)))
        f = tmp_path / "clause300.cnf"
        f.write_text(f"p cnf 300 1\nr 0.5 {lits} 0\n{lits} 0\n")
        limit = sys.getrecursionlimit()
        code, out, err = run_cli(["solve", "--input", str(f),
                                  "--heuristic", "lex"], capsys)
        assert sys.getrecursionlimit() == limit  # restored
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "resource"
        assert "diagram is too deep for the recursion limit" in report["error"]
        assert err == f"error: {report['error']}\n"

    def test_deadline_covers_planning(self, tmp_path):
        f = tmp_path / "band.cnf"
        f.write_text(serialize(band_instance(random.Random(7), 8, 40)))
        report = cli.run_solve(str(f), cli.RunConfig(timeout=1e-9))
        assert report["status"] == "deadline"
        assert "width" not in report

    def test_debug_assert_over_cap_exit_1(self, tmp_path, capsys):
        f = tmp_path / "band.cnf"
        f.write_text(serialize(band_instance(random.Random(1), 9)))
        code, out, err = run_cli(
            ["solve", "--input", str(f), "--debug-assert"], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "input-error"
        assert err.startswith("error:") and "debug-assert cap" in err

    @pytest.mark.usefixtures("diagrams")
    def test_node_counts_reported(self, example_file, capsys):
        _, out, _ = run_cli(["solve", "--input", example_file], capsys)
        report = json.loads(out)
        assert 0 < report["peak_live_nodes"] <= report["diagram_nodes"]
        assert report["underflow"] is False

    @pytest.mark.parametrize("text, maximum", [
        ("p cnf 1 1\nr 1e-320 1 0\n1 0\n", 1e-320),
        ("p cnf 2 2\nr 1e-200 1 2 0\n1 0\n2 0\n", 0.0),
    ], ids=["subnormal", "zero"])
    def test_underflow_flagged(self, tmp_path, capsys, text, maximum):
        f = tmp_path / "tiny.cnf"
        f.write_text(text)
        code, out, _ = run_cli(["solve", "--input", str(f)], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["maximum"] == maximum
        assert report["underflow"] is True

    @pytest.mark.usefixtures("diagrams")
    def test_node_limit_exit_3(self, example_file, capsys):
        code, out, _ = run_cli(
            ["solve", "--input", example_file, "--node-limit", "5"], capsys)
        assert code == 3
        assert json.loads(out)["status"] == "resource"

    def test_debug_assert_node_limit_exit_3(self, example_file, capsys):
        code, out, _ = run_cli(["solve", "--input", example_file,
                                "--debug-assert", "--node-limit", "5"], capsys)
        assert code == 3
        assert json.loads(out)["status"] == "resource"

    @pytest.mark.usefixtures("diagrams")
    def test_node_limit_env_var(self, example_file, capsys, monkeypatch):
        monkeypatch.setenv("DPER_NODE_LIMIT", "5")
        code, out, _ = run_cli(["solve", "--input", example_file], capsys)
        assert code == 3

    def test_non_integer_node_limit_env_exit_1(self, example_file, capsys,
                                               monkeypatch):
        monkeypatch.setenv("DPER_NODE_LIMIT", "abc")
        code, out, err = run_cli(["solve", "--input", example_file], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "DPER_NODE_LIMIT" in err

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_non_positive_timeout_exit_1(self, example_file, capsys, timeout):
        code, out, err = run_cli(
            ["solve", "--input", example_file, "--timeout", timeout], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "timeout" in err

    @pytest.mark.parametrize("flag, env", [("-5", None), ("0", None),
                                           (None, "0")])
    def test_node_limit_below_1_exit_1(self, example_file, capsys,
                                       monkeypatch, flag, env):
        argv = ["solve", "--input", example_file]
        if flag is not None:
            argv += ["--node-limit", flag]
        if env is not None:
            monkeypatch.setenv("DPER_NODE_LIMIT", env)
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "node limit" in err

    def test_total_seconds_covers_recount(self, example_file, capsys,
                                          monkeypatch):
        real_recount = cli.recount

        def slow_recount(*args):
            time.sleep(0.02)
            return real_recount(*args)
        monkeypatch.setattr(cli, "recount", slow_recount)
        _, out, _ = run_cli(["solve", "--input", example_file], capsys)
        report = json.loads(out)
        assert report["verification"]["seconds"] >= 0.02
        assert report["total_seconds"] >= report["verification"]["seconds"]

    @pytest.mark.parametrize("command", ["solve", "plan"])
    def test_non_utf8_input_exit_1(self, tmp_path, capsys, command):
        f = tmp_path / "latin1.cnf"
        f.write_bytes(EXAMPLE_TEXT.replace("worked", "w\xf6rked").encode("latin-1"))
        code, out, err = run_cli([command, "--input", str(f)], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "input-error"
        assert err.startswith("error:") and "utf-8" in err

    def test_deadline_inside_recount_exit_2(self, example_file, capsys,
                                            monkeypatch):
        calls = []
        real_solve = executor.solve

        def second_expires(p, t, **limits):
            calls.append((p, limits))
            if len(calls) == 2:
                raise DeadlineExceeded("deadline hit during execution")
            return real_solve(p, t, **limits)
        monkeypatch.setattr(executor, "solve", second_expires)
        code, out, _ = run_cli(["solve", "--input", example_file,
                                "--node-limit", "1000"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "deadline"
        assert "verification" not in report
        (solved, solve_limits), (recounted, recount_limits) = calls
        assert not recounted.X  # the conditioned formula
        assert recount_limits == solve_limits
        assert solve_limits["node_limit"] == 1000

    def test_primal_graph_built_once(self, tmp_path, monkeypatch):
        # planning and the diagram order read the one graph the problem
        # keeps; the re-count, a solve of its own, is off
        built = []
        real = Problem._primal_graph.func
        counted = cached_property(lambda p: built.append(p) or real(p))
        counted.__set_name__(Problem, "_primal_graph")
        monkeypatch.setattr(Problem, "_primal_graph", counted)
        f = tmp_path / "band14.cnf"
        f.write_text(serialize(band_instance(random.Random(14), 14)))
        report = cli.run_solve(str(f), cli.RunConfig(verify=False))
        assert (report["status"], report["executor"]) == ("ok", "diagram")
        assert len(built) == 1

    def test_debug_run_reads_one_joined_map(self, example_file, joined_reads):
        # the width report, the store choice and the debug observer's width
        # bound read the one map the tree keeps; the re-count is off
        report = cli.run_solve(example_file,
                               cli.RunConfig(debug_assert=True, verify=False))
        assert report["status"] == "ok"
        assert {r[:2] for r in joined_reads} == {
            ("width", "_plan"), ("table_entries", "choose_store"),
            ("width", "__init__")}
        assert all(r[2] is joined_reads[0][2] for r in joined_reads)

    def test_unwritable_tree_out_exit_1(self, example_file, tmp_path, capsys):
        tree_path = tmp_path / "missing" / "t.pjt"
        code, out, err = run_cli(["solve", "--input", example_file,
                                  "--tree-out", str(tree_path)], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "input-error"
        assert err.startswith("error:") and "Traceback" not in err

    def test_tree_out_is_readable(self, example_file, tmp_path, capsys):
        tree_path = tmp_path / "t.pjt"
        code, _, _ = run_cli(["solve", "--input", example_file,
                              "--tree-out", str(tree_path)], capsys)
        assert code == 0
        p = parse_problem(EXAMPLE_TEXT)
        t = planner.read_tree(tree_path.read_text(), p)
        assert planner.width(t, p) == 2


class TestRunConfig:
    def test_fields_are_immutable(self):
        cfg = cli.RunConfig()
        with pytest.raises(AttributeError):
            cfg.timeout = 5.0
        assert cfg.timeout == 1000.0

    @pytest.mark.parametrize("bad", [{"timeout": 0}, {"node_limit": 0}])
    def test_rejects_non_positive_limits(self, bad):
        with pytest.raises(ValueError):
            cli.RunConfig(**bad)

    def test_replace_keeps_other_fields_and_validates(self):
        cfg = cli.RunConfig(heuristic="lex", timeout=7.0, node_limit=9)
        off = cfg.replace(verify=False)
        assert (off.heuristic, off.timeout, off.node_limit, off.verify) == (
            "lex", 7.0, 9, False)
        assert cfg.verify
        with pytest.raises(ValueError):
            cfg.replace(timeout=0)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["solve", "--input", "{f}", "--seed", "3"],
        ["plan", "--input", "{f}", "--randomize-ties"],
        ["solve", "--input", "{f}", "--timeout", "abc"],
        ["solve", "--input", "{f}", "--heuristic", "bogus"],
        [],
        ["bogus"],
    ], ids=["no-input", "seed", "randomize-ties", "timeout-abc",
            "unknown-heuristic", "no-subcommand", "unknown-subcommand"])
    def test_exit_1_with_one_error_line(self, example_file, capsys, argv):
        code, out, err = run_cli([a.format(f=example_file) for a in argv],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", "--help"])
        assert info.value.code == 0
        assert "--input" in capsys.readouterr().out


class TestPlanCommand:
    def test_json_report_holds_tree(self, example_file, capsys):
        code, out, _ = run_cli(["plan", "--input", example_file], capsys)
        assert code == 0
        report = json.loads(out)  # one document, the tree inside it
        p = parse_problem(EXAMPLE_TEXT)
        tree = planner.read_tree(report["tree"], p)
        assert report["width"] == planner.width(tree, p) == 2
        assert report["tree_nodes"] == len(tree.nodes)

    def test_deterministic_bytes(self, example_file, capsys):
        args = ["plan", "--input", example_file, "--heuristic", "lex",
                "--format", "text"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_output_validates(self, example_file, capsys):
        code, out, _ = run_cli(
            ["plan", "--input", example_file, "--format", "text"], capsys)
        assert code == 0
        p = parse_problem(EXAMPLE_TEXT)
        planner.read_tree(out, p)

    def test_parse_failure_exit_1(self, tmp_path, capsys):
        f = tmp_path / "bad.cnf"
        f.write_text("nonsense\n")
        code, _, _ = run_cli(["plan", "--input", str(f)], capsys)
        assert code == 1

    def test_unwritable_tree_out_exit_1(self, example_file, tmp_path, capsys):
        tree_path = tmp_path / "missing" / "t.pjt"
        code, out, err = run_cli(["plan", "--input", example_file,
                                  "--tree-out", str(tree_path)], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "input-error"
        assert err.startswith("error:") and "Traceback" not in err

    def test_deadline_exit_2(self, tmp_path, capsys):
        f = tmp_path / "band.cnf"
        f.write_text(serialize(band_instance(random.Random(7), 8, 40)))
        tree_path = tmp_path / "t.pjt"
        code, out, _ = run_cli(["plan", "--input", str(f), "--timeout", "1e-9",
                                "--tree-out", str(tree_path)], capsys)
        assert code == 2
        assert json.loads(out)["status"] == "deadline"
        assert not tree_path.exists()


STATUS_EXIT = {"ok": 0, "input-error": 1, "deadline": 2, "resource": 3}


@st.composite
def mutated_er_dimacs(draw):
    """A few byte edits of the worked example or a small random instance."""
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    text = (EXAMPLE_TEXT if seed is None
            else serialize(random_instance(random.Random(seed))))
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b" -0123456789\nprec.") | st.integers(0, 255))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert":
            data.insert(i, byte)
        elif i < len(data) and op == "replace":
            data[i] = byte
        elif i < len(data):
            del data[i]
    return bytes(data)


class TestCliFuzz:
    @given(data=mutated_er_dimacs())
    def test_every_run_ends_in_a_status(self, data):
        try:
            p = parse_problem(data.decode("utf-8"))
        except (UnicodeDecodeError, ParseError):
            pass
        else:  # parse_problem's line checks cover every Problem invariant
            validate(p)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fuzz.cnf"
            path.write_bytes(data)
            for command in ("solve", "plan", "oracle"):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([command, "--input", str(path),
                                     "--timeout", "5"])
                report = json.loads(out.getvalue())  # exactly one document
                assert code == STATUS_EXIT[report["status"]], command
                if report["status"] != "ok":
                    assert err.getvalue() == f"error: {report['error']}\n"
                check = report.get("verification", {})
                assert check.get("agrees", True), report


class TestBenchCommand:
    @pytest.fixture
    def bench_dir(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "a.cnf").write_text(EXAMPLE_TEXT)
        (d / "b.cnf").write_text("p cnf 1 1\ne 1 0\n1 0\n")
        (d / "c.cnf").write_text("p cnf 2 1\ne 1 0\nr 0.4 2 0\n1 2 0\n")
        return d

    def test_csv_and_summary(self, bench_dir, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        code, _, err = run_cli(
            ["bench", "--dir", str(bench_dir), "--out", str(out_csv),
             "--timeout", "60"], capsys)
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == ("name,solved,seconds,par2,answer,width,"
                           "nodes_created,peak_live_nodes,executor,status")
        assert len(rows) == 4
        assert all(r.split(",")[1] == "1" for r in rows[1:])
        assert all(r.split(",")[8] == "dense" for r in rows[1:])  # small trees
        assert all(r.split(",")[9] == "ok" for r in rows[1:])
        assert "errors: 0" in err and "mean PAR-2" in err

    def test_failed_run_records_its_status(self, bench_dir, tmp_path, capsys):
        # a variable beyond the header: unsolved like a timeout, but the
        # row says why
        (bench_dir / "b.cnf").write_text("p cnf 1 1\ne 1 0\n1 2 0\n")
        out_csv = tmp_path / "results.csv"
        code, _, err = run_cli(["bench", "--dir", str(bench_dir),
                                "--out", str(out_csv)], capsys)
        assert code == 0
        rows = [r.split(",") for r in out_csv.read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[4], r[9]) for r in rows] == [
            ("a.cnf", "1", "0.75", "ok"), ("b.cnf", "0", "", "input-error"),
            ("c.cnf", "1", "1", "ok")]
        assert "errors: 0" in err  # an input error is not a fault

    def test_fault_is_reported_and_the_sweep_goes_on(self, bench_dir, tmp_path,
                                                     capsys, monkeypatch):
        (bench_dir / "c.cnf").unlink()
        real_solve = executor.solve

        def fail_on_b(p, t, **limits):
            if p.num_vars == 1:  # b.cnf
                raise ValueError("bad state")
            return real_solve(p, t, **limits)
        monkeypatch.setattr(executor, "solve", fail_on_b)
        out_csv = tmp_path / "results.csv"
        code, _, err = run_cli(["bench", "--dir", str(bench_dir),
                                "--out", str(out_csv)], capsys)
        assert code == 0
        rows = [r.split(",") for r in out_csv.read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[9]) for r in rows] == [("a.cnf", "1", "ok"),
                                                      ("b.cnf", "0", "error")]
        lines = err.splitlines()
        assert lines[0] == "error: b.cnf: ValueError: bad state"
        assert lines[1].startswith("instances: 2  solved: 1  ")
        assert lines[1].endswith("  errors: 1")

    def test_solves_with_the_recount_off(self, bench_dir, tmp_path, capsys,
                                         monkeypatch):
        configs = []
        run_solve = cli.run_solve

        def recording(path, cfg):
            configs.append(cfg)
            return run_solve(path, cfg)

        monkeypatch.setattr(cli, "run_solve", recording)
        out_csv = tmp_path / "results.csv"
        code, _, _ = run_cli(
            ["bench", "--dir", str(bench_dir), "--out", str(out_csv),
             "--timeout", "60"], capsys)
        assert code == 0
        assert [(c.verify, c.timeout) for c in configs] == [(False, 60.0)] * 3
        rows = out_csv.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["1"] * 3

    @pytest.mark.usefixtures("diagrams")
    def test_nodes_created_column(self, bench_dir, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        run_cli(["bench", "--dir", str(bench_dir), "--out", str(out_csv),
                 "--timeout", "60"], capsys)
        rows = [r.split(",") for r in out_csv.read_text().splitlines()[1:]]
        for row in rows:
            report = cli.run_solve(str(bench_dir / row[0]),
                                   cli.RunConfig(verify=False))
            assert int(row[6]) == report["diagram_nodes"] > 0
            assert int(row[7]) == report["peak_live_nodes"] > 0

    def test_unsolved_record_leaves_nodes_created_empty(self):
        r = bench.BenchRecord("t", False, 5.0)
        row = bench.records_to_csv([r], cap=5.0).splitlines()[1]
        assert row.split(",")[6] == row.split(",")[7] == ""

    def test_reference_answers_disqualify(self, bench_dir, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        # a.cnf answer off by more than 1e-6; b.cnf perturbed within 1e-9
        refs.write_text("a.cnf 0.7500020\nb.cnf 1.000000000001\n")
        code, _, err = run_cli(
            ["bench", "--dir", str(bench_dir), "--ref-answers", str(refs),
             "--timeout", "60"], capsys)
        assert code == 0
        assert "disqualified: 1  unchecked: 1" in err  # c.cnf has no reference

    def test_unmatched_reference_exit_1_before_solving(
            self, bench_dir, tmp_path, capsys, monkeypatch):
        refs = tmp_path / "refs.txt"
        refs.write_text("a.cnf 0.75\n" + "".join(f"x{i}.cnf 0.5\n"
                                                  for i in range(7)))
        solved = []
        monkeypatch.setattr(cli, "run_solve", lambda *a: solved.append(a))
        code, out, err = run_cli(["bench", "--dir", str(bench_dir),
                                  "--ref-answers", str(refs)], capsys)
        assert code == 1
        assert out == "" and solved == []
        assert err == (f"error: {refs}: 7 reference names match no instance "
                       f"in {bench_dir}: x0.cnf x1.cnf x2.cnf x3.cnf x4.cnf\n")

    @pytest.mark.parametrize("text, problem", [
        ("a.cnf 0.75\nb.cnf\n", "line 2: expected 'name value'"),
        ("# refs\n\na.cnf abc\n", "line 3: expected 'name value'"),
        ("a.cnf 0.75\nb.cnf nan\n", "line 2: expected 'name value'"),
        ("b.cnf 1.0\na.cnf 0.75\nb.cnf 0.1\n",
         "line 3: 'b.cnf' is listed twice"),
        (None, "No such file"),
    ], ids=["one-field", "not-a-number", "nan", "listed-twice", "missing"])
    def test_bad_reference_file_exit_1_before_solving(
            self, bench_dir, tmp_path, capsys, monkeypatch, text, problem):
        refs = tmp_path / "refs.txt"
        if text is not None:
            refs.write_text(text)
        solved = []
        monkeypatch.setattr(cli, "run_solve", lambda *a: solved.append(a))
        code, out, err = run_cli(["bench", "--dir", str(bench_dir),
                                  "--ref-answers", str(refs)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and problem in err
        assert err.count("\n") == 1
        assert solved == []

    def test_run_past_the_cap_scores_unsolved(self, tmp_path, capsys,
                                              monkeypatch):
        # a slow stack replay ends the run past --timeout: it reports
        # deadline, with no answer
        d = tmp_path / "one"
        d.mkdir()
        (d / "a.cnf").write_text(EXAMPLE_TEXT)
        replay = executor._replay_stack

        def slow_replay(*args):
            time.sleep(0.5)
            return replay(*args)
        monkeypatch.setattr(executor, "_replay_stack", slow_replay)
        out_csv = tmp_path / "results.csv"
        code, _, err = run_cli(["bench", "--dir", str(d), "--out", str(out_csv),
                                "--timeout", "0.25"], capsys)
        assert code == 0
        row = out_csv.read_text().splitlines()[1].split(",")
        assert float(row[2]) > 0.5 and (row[4], row[9]) == ("", "deadline")
        assert (row[1], row[3]) == ("0", "0.500000")  # PAR-2: twice the cap
        assert "solved: 0" in err

    def test_unwritable_out_exit_1(self, bench_dir, tmp_path, capsys):
        out_csv = tmp_path / "missing" / "results.csv"
        code, out, err = run_cli(["bench", "--dir", str(bench_dir),
                                  "--out", str(out_csv)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestOracleCommand:
    def test_reports_enumerated_maximum(self, example_file, capsys):
        code, out, _ = run_cli(["oracle", "--input", example_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["maximum"] == 0.75
        assert report["num_maximizers"] == 2

    def test_missing_file_reports_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cnf"
        code, out, err = run_cli(["oracle", "--input", str(missing)], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "input-error"
        assert err == f"error: {report['error']}\n"


class TestRecount:
    def test_agrees_with_enumeration_on_fuzz(self):
        cfg = cli.RunConfig()
        zeros = ones = counted = no_x = 0
        for i in range(600):
            p = random_instance(random.Random(20260810 + i))
            rng = random.Random(i)
            tau = {x: rng.random() < 0.5 for x in p.X}
            got = cli.recount(p, tau, cfg)
            assert abs(got - oracle.weighted_count(p, tau)) <= 1e-9, i
            q = condition(p, tau)
            if () in q.clauses:
                zeros += 1
            elif not q.clauses:
                ones += 1
            else:
                counted += 1
            no_x += not p.X
        assert min(zeros, ones, counted, no_x) > 0

    def test_short_cuts_skip_planning(self, example, monkeypatch):
        def no_plan(*args, **kwargs):
            raise AssertionError("planned a trivial re-count")
        monkeypatch.setattr(planner, "plan", no_plan)
        cfg = cli.RunConfig()
        p = Problem(2, ((1,), (1, 2)), frozenset({1}), frozenset({2}),
                    {2: 0.5})
        assert cli.recount(p, {1: False}, cfg) == 0.0
        assert cli.recount(p, {1: True}, cfg) == 1.0

    def test_follows_run_heuristic(self, example, monkeypatch):
        seen = []
        real_plan = planner.plan

        def spy(p, heuristic, **kwargs):
            seen.append(heuristic)
            return real_plan(p, heuristic, **kwargs)
        monkeypatch.setattr(planner, "plan", spy)
        cfg = cli.RunConfig(heuristic="lex")
        assert cli.recount(example, {1: True, 3: False, 5: True}, cfg) == 0.75
        assert seen == ["lex"]


class TestParScoring:
    def test_mean_of_three_solved(self):
        records = [bench.BenchRecord(f"i{k}", True, float(k))
                   for k in (1, 2, 3)]
        s = bench.BenchSummary(records=records, cap=1000.0)
        assert s.mean_par2 == 2.0

    def test_timeout_scores_twice_cap(self):
        records = [bench.BenchRecord("a", True, 10.0),
                   bench.BenchRecord("b", False, 100.0)]
        s = bench.BenchSummary(records=records, cap=100.0)
        assert [r.par2(100.0) for r in records] == [10.0, 200.0]
        assert s.mean_par2 == 105.0

    def test_synthetic_five_record_set(self):
        # hand computation: scores {2, 4, 6, 8, 2*50} -> mean 24
        records = [bench.BenchRecord(f"i{k}", True, float(2 * k))
                   for k in range(1, 5)]
        records.append(bench.BenchRecord("t", False, 50.0))
        s = bench.BenchSummary(records=records, cap=50.0)
        assert s.mean_par2 == 24.0

    @pytest.mark.parametrize("computed", [
        {"mean_par2": 5.0}, {"ci95": (0.0, 1.0)}, {"solved": 3},
        {"disqualified": 1}])
    def test_computed_fields_are_not_parameters(self, computed):
        with pytest.raises(TypeError):
            bench.BenchSummary(records=[], cap=1.0, **computed)

    def test_ci_is_student_t(self):
        scores = [1.0, 2.0, 3.0, 4.0, 200.0]
        mean, (lo, hi) = bench.mean_with_ci(scores)
        n = len(scores)
        s2 = sum((x - mean) ** 2 for x in scores) / (n - 1)
        half = scipy.stats.t.ppf(0.975, n - 1) * math.sqrt(s2 / n)
        assert lo == pytest.approx(mean - half)
        assert hi == pytest.approx(mean + half)

    def test_single_record_ci_degenerates(self):
        mean, (lo, hi) = bench.mean_with_ci([5.0])
        assert mean == lo == hi == 5.0

    def test_reference_tolerance_boundary(self):
        refs = {"good": 0.5, "bad": 0.5}
        records = [
            bench.BenchRecord("good", True, 1.0, answer=0.5 + 1e-9),
            bench.BenchRecord("bad", True, 1.0, answer=0.5 + 2e-6),
        ]
        bench.apply_reference_answers(records, refs)
        assert records[0].solved and not records[0].disqualified
        assert records[1].disqualified and not records[1].solved

    def test_reference_file_parsing(self):
        text = "# comment\na.cnf 0.5\nb.cnf 1.0  # trailing\n\n"
        assert bench.load_reference_answers(text) == {"a.cnf": 0.5,
                                                      "b.cnf": 1.0}


class TestConsoleScript:
    @pytest.mark.parametrize("module", ["scipy", "numpy", "multiprocessing",
                                        "dataclasses", "inspect"])
    def test_import_leaves_module_unloaded(self, module):
        code = f"import sys, dper, dper.cli; print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_import_without_site_leaves_typing_unloaded(self):
        # site's .pth files may load typing themselves; without them,
        # nothing dper.cli loads needs it
        code = "import sys, dper.cli; print('typing' in sys.modules)"
        out = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_solve_without_numpy(self, example_file):
        code = ("import sys; sys.modules['numpy'] = None; "
                "from dper import cli; "
                f"sys.exit(cli.main(['solve', '--input', {example_file!r}]))")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        check = json.loads(out.stdout)["verification"]
        assert check["checked"] and check["agrees"]
        assert check["weighted_count"] == 0.75

    def test_dense_solve_leaves_numpy_unloaded(self, tmp_path):
        f = tmp_path / "band.cnf"
        f.write_text(serialize(band_instance(random.Random(12), 12)))
        code = ("import json, sys; from dper import cli, executor; "
                "dense = cli.run_solve(sys.argv[1], cli.RunConfig()); "
                "loaded = 'numpy' in sys.modules; executor.DENSE_MAX_WORK = 0; "
                "diagram = cli.run_solve(sys.argv[1], cli.RunConfig()); "
                "print(json.dumps([[r['executor'], r['maximum'], r['maximizer']] "
                "for r in (dense, diagram)] + [loaded]))")
        out = subprocess.run([sys.executable, "-c", code, str(f)],
                             capture_output=True, text=True, check=True)
        dense, diagram, loaded = json.loads(out.stdout)
        assert loaded is False
        assert (dense[0], diagram[0]) == ("dense", "diagram")
        assert dense[1:] == diagram[1:]

    def test_oracle_without_numpy_exit_1(self, example_file):
        code = ("import sys; sys.modules['numpy'] = None; "
                "from dper import cli; "
                f"sys.exit(cli.main(['oracle', '--input', {example_file!r}]))")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stderr == "error: dper oracle needs numpy\n"

    def test_bench_without_scipy_exit_1_before_solving(self, example_file):
        # the check comes before the sweep, so no CSV is printed
        code = ("import sys; sys.modules['scipy'] = None; "
                "from dper import cli; "
                "sys.exit(cli.main(['bench', '--dir', sys.argv[1]]))")
        out = subprocess.run([sys.executable, "-c", code,
                              str(Path(example_file).parent)],
                             capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == "error: dper bench needs scipy\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_free_as_exist_rss_follows_clause_text(self, tmp_path):
        # 300k clause-free variables are neither planned nor valuated, which
        # would take about 239 MB.  The child reports its own high-water
        # mark, report printing included: VmHWM, in KB.  Its ru_maxrss would
        # not do, since Linux carries the peak of the process that spawned
        # it, this test process, across the exec.
        f = tmp_path / "wide.cnf"
        f.write_text("p cnf 300000 1\ne 1 0\n1 0\n")
        code = ("import sys; from dper import cli; "
                "code = cli.main(['solve', '--free-as-exist', '--input', "
                "sys.argv[1]]); print(open('/proc/self/status').read()"
                ".split('VmHWM:')[1].split()[0], file=sys.stderr); "
                "sys.exit(code)")
        out = subprocess.run([sys.executable, "-c", code, str(f)],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["maximum"] == 1.0
        assert len(report["maximizer"]) == 300_000
        assert int(out.stderr) < 150 * 1024

    def test_long_clause_solves_under_the_default_recursion_limit(self, tmp_path):
        # one 1,100-literal clause is a diagram 1,100 levels deep, deeper
        # than the interpreter's default limit of 1,000 frames
        lits = " ".join(map(str, range(1, 1101)))
        f = tmp_path / "clause1100.cnf"
        f.write_text(f"p cnf 1100 1\nr 0.5 {lits} 0\n{lits} 0\n")
        out = subprocess.run([sys.executable, "-m", "dper.cli", "solve",
                              "--heuristic", "lex", "--input", str(f)],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert (report["status"], report["executor"]) == ("ok", "diagram")
        assert report["maximum"] == 1.0  # 1 - 2**-1100, rounded
        assert report["max_support"] == 1100
        assert report["total_seconds"] < 2.0

    def test_long_clause_solves_under_min_fill(self, tmp_path):
        # the default heuristic: the clause is one 1,100-clique, whose fill
        # min-fill scores once (one closed neighborhood) and whose every
        # pick is simplicial, so planning takes O(k^2), not O(k^3), time
        lits = " ".join(map(str, range(1, 1101)))
        f = tmp_path / "clause1100.cnf"
        f.write_text(f"p cnf 1100 1\nr 0.5 {lits} 0\n{lits} 0\n")
        out = subprocess.run([sys.executable, "-m", "dper.cli", "solve",
                              "--input", str(f)],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert (report["status"], report["executor"]) == ("ok", "diagram")
        assert report["max_support"] == 1100
        assert report["total_seconds"] < 2.0

    def test_module_entry_point(self, example_file):
        out = subprocess.run(
            [sys.executable, "-m", "dper.cli", "solve", "--input", example_file],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["maximum"] == 0.75
