import json
import math
import random
import subprocess
import sys

import pytest
import scipy.stats

from dper import bench, cli, executor, planner
from dper.formula import parse_problem, serialize
from dper.gen import band_instance
from dper.pbf import DeadlineExceeded

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

    def test_text_matches_json_numbers(self, example_file, capsys):
        _, json_out, _ = run_cli(["solve", "--input", example_file], capsys)
        report = json.loads(json_out)
        code, text_out, _ = run_cli(
            ["solve", "--input", example_file, "--format", "text"], capsys)
        assert code == 0
        line = next(l for l in text_out.splitlines() if l.startswith("maximum:"))
        assert float(line.split(":")[1]) == report["maximum"]
        assert f"{report['maximum']:.17g}" in line

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

    def test_tree_out_is_readable(self, example_file, tmp_path, capsys):
        tree_path = tmp_path / "t.pjt"
        code, _, _ = run_cli(["solve", "--input", example_file,
                              "--tree-out", str(tree_path)], capsys)
        assert code == 0
        p = parse_problem(EXAMPLE_TEXT)
        t = planner.read_tree(tree_path.read_text(), p)
        assert planner.width(t, p) == 2


class TestPlanCommand:
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

    def test_deadline_exit_2(self, tmp_path, capsys):
        f = tmp_path / "band.cnf"
        f.write_text(serialize(band_instance(random.Random(7), 8, 40)))
        tree_path = tmp_path / "t.pjt"
        code, out, _ = run_cli(["plan", "--input", str(f), "--timeout", "1e-9",
                                "--tree-out", str(tree_path)], capsys)
        assert code == 2
        assert json.loads(out)["status"] == "deadline"
        assert not tree_path.exists()


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
        assert rows[0] == "name,solved,seconds,par2,answer,width,nodes_created"
        assert len(rows) == 4
        assert all(r.split(",")[1] == "1" for r in rows[1:])
        assert "mean PAR-2" in err

    def test_nodes_created_column(self, bench_dir, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        run_cli(["bench", "--dir", str(bench_dir), "--out", str(out_csv),
                 "--timeout", "60"], capsys)
        rows = [r.split(",") for r in out_csv.read_text().splitlines()[1:]]
        for row in rows:
            report = cli.run_solve(str(bench_dir / row[0]),
                                   cli.RunConfig(verify=False))
            assert int(row[6]) == report["diagram_nodes"] > 0

    def test_unsolved_record_leaves_nodes_created_empty(self):
        r = bench.BenchRecord("t", False, 5.0)
        row = bench.records_to_csv([r], cap=5.0).splitlines()[1]
        assert row.split(",")[6] == ""

    def test_reference_answers_disqualify(self, bench_dir, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        # a.cnf answer off by more than 1e-6; b.cnf perturbed within 1e-9
        refs.write_text("a.cnf 0.7500020\nb.cnf 1.000000000001\n")
        code, _, err = run_cli(
            ["bench", "--dir", str(bench_dir), "--ref-answers", str(refs),
             "--timeout", "60"], capsys)
        assert code == 0
        assert "disqualified: 1" in err

    def test_parallel_jobs_match_serial(self, bench_dir, tmp_path, capsys):
        a = tmp_path / "serial.csv"
        b = tmp_path / "parallel.csv"
        run_cli(["bench", "--dir", str(bench_dir), "--out", str(a),
                 "--timeout", "60"], capsys)
        run_cli(["bench", "--dir", str(bench_dir), "--out", str(b),
                 "--timeout", "60", "--jobs", "2"], capsys)

        def answers(path):
            rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
            return [(r[0], r[4]) for r in rows]

        assert answers(a) == answers(b)


class TestOracleCommand:
    def test_reports_enumerated_maximum(self, example_file, capsys):
        code, out, _ = run_cli(["oracle", "--input", example_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["maximum"] == 0.75
        assert report["num_maximizers"] == 2


class TestParScoring:
    def test_mean_of_three_solved(self):
        records = [bench.BenchRecord(f"i{k}", True, float(k))
                   for k in (1, 2, 3)]
        s = bench.summarize(records, cap=1000.0)
        assert s.mean_par2 == 2.0

    def test_timeout_scores_twice_cap(self):
        records = [bench.BenchRecord("a", True, 10.0),
                   bench.BenchRecord("b", False, 100.0)]
        s = bench.summarize(records, cap=100.0)
        assert [r.par2(100.0) for r in records] == [10.0, 200.0]
        assert s.mean_par2 == 105.0

    def test_synthetic_five_record_set(self):
        # hand computation: scores {2, 4, 6, 8, 2*50} -> mean 24
        records = [bench.BenchRecord(f"i{k}", True, float(2 * k))
                   for k in range(1, 5)]
        records.append(bench.BenchRecord("t", False, 50.0))
        s = bench.summarize(records, cap=50.0)
        assert s.mean_par2 == 24.0

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
    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, dper.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_module_entry_point(self, example_file):
        out = subprocess.run(
            [sys.executable, "-m", "dper.cli", "solve", "--input", example_file],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["maximum"] == 0.75
