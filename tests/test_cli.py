import json
import os

import pytest

from timefuel import cli
from timefuel.cli import main
from timefuel.solver import SolverFailedError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_restricted_line_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--max-switches", "4")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 10
        assert "0,-1,0,1" in lines

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 10
        assert [0, 1] in data

    def test_deterministic_order(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--n", "3")
        _, second, _ = run(capsys, "enumerate", "--n", "3")
        assert first == second


class TestCount:
    def test_n4(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4")
        assert code == 0
        assert out.strip() == "formula: 23, brute-force: 23"


class TestBuild:
    def test_writes_instance_files(self, capsys, tmp_path, example_problem_file):
        out_dir = tmp_path / "instances"
        code, out, _ = run(
            capsys, "build", "--problem", str(example_problem_file), "--out", str(out_dir)
        )
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == [
            "OP1-minus.json",
            "OP1-plus.json",
            "OP2-minus.json",
            "OP2-plus.json",
        ]
        data = json.loads((out_dir / "OP2-minus.json").read_text())
        assert data["n_vars"] == 4
        assert data["constraint_spec"]["levels"] == [0, -1, 0, 1]
        assert len(data["constraint_spec"]["states"]) == 2


class TestSolve:
    def test_solve_report(self, capsys, tmp_path, example_problem_file):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "solve",
            "--problem",
            str(example_problem_file),
            "--out",
            str(report_path),
        )
        assert code == 0
        assert "sequence=-1,0,1" in out
        report = json.loads(report_path.read_text())
        assert report["best"]["cost"] == pytest.approx(1.8940, abs=5e-4)
        assert len(report["instances"]) == 4

    def test_malformed_problem_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solve", "--problem", str(bad))
        assert code == 1
        assert "error" in err.lower()

    def test_unknown_field_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"eigenvalues": [[-1, 1]], "b": [1], "x0": [0.5], "k": 1, "zz": 1}
            )
        )
        code, _, err = run(capsys, "solve", "--problem", str(bad))
        assert code == 1

    def test_infeasible_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "infeasible.json"
        bad.write_text(
            json.dumps({"eigenvalues": [[1, 1]], "b": [1], "x0": [2.0], "k": 1})
        )
        code, _, err = run(capsys, "solve", "--problem", str(bad))
        assert code == 2
        assert "infeasible" in err.lower()
        # the certificate of the scalar mode: mu.x0 over h(mu) is its gauge 2
        assert "mu.x0 = " in err and "> h(mu) = " in err

    def test_directory_as_problem_exits_1(self, capsys, tmp_path):
        # an OSError other than a missing file is an input error too
        code, out, err = run(capsys, "solve", "--problem", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_solver_failure_exits_3(self, capsys, monkeypatch, example_problem_file):
        # a refusal that the LP contradicts is not reported as infeasible
        def fail(spec):
            raise SolverFailedError("the LP reaches the origin at cost 1.946168")

        monkeypatch.setattr(cli, "solve_time_fuel", fail)
        code, out, err = run(capsys, "solve", "--problem", str(example_problem_file))
        assert code == 3
        assert out == ""
        assert "solver failed" in err and "1.946168" in err

    @pytest.mark.parametrize(
        "field, text",
        [
            ("x0", "[NaN, 0.4]"),
            ("x0", "[false, 0.4]"),
            ("k", "Infinity"),
            ("k", "NaN"),
            ("b", "[1, Infinity]"),
            ("b", "[1, true]"),
        ],
    )
    def test_bad_number_exits_1(self, capsys, tmp_path, field, text):
        # Python's json accepts NaN and Infinity; such data are invalid, not
        # infeasible (exit 2 is kept for an unreachable x0)
        data = {
            "eigenvalues": "[[-1, 1], [-2, 1]]",
            "b": "[1, 1]",
            "x0": "[0.6, 0.4]",
            "k": "1",
            field: text,
        }
        bad = tmp_path / "bad.json"
        bad.write_text("{" + ", ".join(f'"{f}": {v}' for f, v in data.items()) + "}")
        code, _, err = run(capsys, "solve", "--problem", str(bad))
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize("value", ["0", "nan", "inf", "-1", "1.1"])
    def test_bad_max_time_exits_1(self, capsys, example_problem_file, value):
        # the final time is free: neither command takes a horizon bound
        for command in ("solve", "table"):
            code, _, err = run(
                capsys, command, "--problem", str(example_problem_file),
                "--max-time", value,
            )
            assert code == 1
            assert "--max-time" in err

    @pytest.mark.parametrize("command", ["solve", "table"])
    @pytest.mark.parametrize("flag", ["--starts", "--seed"])
    def test_start_flags_exit_1(self, capsys, example_problem_file, command, flag):
        # the LP seeds every solve: neither command takes a start count or a
        # seed
        code, out, err = run(capsys, command, "--problem", str(example_problem_file), flag, "2")
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flag} 2" in err

    def test_same_seed_gives_same_bytes(self, capsys, tmp_path, example_problem_file):
        outputs = []
        for label in ("first", "second"):
            path = tmp_path / f"report_{label}.json"
            code, _, _ = run(
                capsys,
                "solve",
                "--problem",
                str(example_problem_file),
                "--out",
                str(path),
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestSimulate:
    def test_csv_columns(self, capsys, tmp_path, example_problem_file):
        sched = tmp_path / "sched.json"
        sched.write_text(
            json.dumps({"breakpoints": [0.0, 0.5, 1.0, 1.5], "levels": [-1, 0, 1]})
        )
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            "--problem",
            str(example_problem_file),
            "--schedule",
            str(sched),
            "--csv",
            str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,u"
        first = lines[1].split(",")
        assert first == ["0", "0.6", "0.4", "-1"]
        assert len(lines) == 2 + 3 * 20

    def test_stdout_without_csv_flag(self, capsys, tmp_path, example_problem_file):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"breakpoints": [0.0, 1.0], "levels": [1]}))
        code, out, _ = run(
            capsys,
            "simulate",
            "--problem",
            str(example_problem_file),
            "--schedule",
            str(sched),
            "--samples",
            "2",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,x1,x2,u"

    @pytest.mark.parametrize(
        "text",
        [
            '{"breakpoints": [0.0, 1.0]}',
            '{"breakpoints": [0.0, NaN], "levels": [1]}',
            '{"breakpoints": [0.0, Infinity], "levels": [1]}',
            '{"breakpoints": [0.0, 1.0, NaN], "levels": [1, -1]}',
            '{"breakpoints": [0.0, 1.0, 2.0], "levels": [0.6, 1]}',
            '{"breakpoints": [0.0, 1.0], "levels": [-1.9]}',
            '{"breakpoints": [0.0, 1.0], "levels": [true]}',
            '{"breakpoints": [0.0, 1.0], "levels": 5}',
            '{"breakpoints": [0.0, null], "levels": [1]}',
        ],
        ids=[
            "missing-levels",
            "nan-breakpoint",
            "infinite-breakpoint",
            "nan-inner-breakpoint",
            "fractional-level",
            "negative-fractional-level",
            "boolean-level",
            "non-list-levels",
            "null-breakpoint",
        ],
    )
    def test_bad_schedule_exits_1(self, capsys, tmp_path, example_problem_file, text):
        # Python's json reads NaN, Infinity and true; none is a valid
        # breakpoint or level, and a fractional level is not truncated
        sched = tmp_path / "sched.json"
        sched.write_text(text)
        code, out, err = run(
            capsys,
            "simulate",
            "--problem",
            str(example_problem_file),
            "--schedule",
            str(sched),
        )
        assert code == 1
        assert out == ""
        assert "error" in err.lower()


class TestTable:
    def test_rows(self, capsys, example_problem_file):
        code, out, _ = run(
            capsys,
            "table",
            "--problem",
            str(example_problem_file),
            "--k",
            "1",
            "--k",
            "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert "-1,0,1" in lines[1]

    def test_empty_k_list_usage_error(self, capsys, example_problem_file):
        code, _, err = run(capsys, "table", "--problem", str(example_problem_file))
        assert code == 1

    @pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
    def test_nonpositive_k_usage_error(self, capsys, example_problem_file, k):
        code, _, _ = run(
            capsys, "table", "--problem", str(example_problem_file), "--k", k
        )
        assert code == 1

    def test_csv_format(self, capsys, tmp_path, example_problem_file):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys,
            "table",
            "--problem",
            str(example_problem_file),
            "--k",
            "1",
            "--format",
            "csv",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,cost,final_time,on_duration,sparsity,sequence"
        assert lines[1].startswith("1,1.89")

    def test_table_row_matches_solve(self, capsys, tmp_path, example_problem_file):
        # same numbers whether asked via `table` or via a plain `solve`
        table_path = tmp_path / "table.json"
        report_path = tmp_path / "report.json"
        common = ["--problem", str(example_problem_file)]
        assert run(capsys, "table", *common, "--k", "1", "--format", "json",
                   "--out", str(table_path))[0] == 0
        assert run(capsys, "solve", *common, "--out", str(report_path))[0] == 0
        row = json.loads(table_path.read_text())[0]
        best = json.loads(report_path.read_text())["best"]
        assert row["cost"] == best["cost"]
        assert row["final_time"] == best["final_time"]
        assert row["on_duration"] == best["on_duration"]
        assert row["sparsity"] == best["sparsity"]
        assert row["sequence"] == best["sequence"]


class TestUsage:
    def test_missing_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["count", "--order", "4"]) == 1
