import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

from timefuel import parse_problem, solve_time_fuel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reports.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reports_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comparison_set():
    # names are unique, and a line is the report of a direct solve
    tool = load_tool()
    problems = dict(tool.problems())
    assert len(problems) == len(list(tool.problems())) == 14 + 6 + 6 + 30 + 20
    reference = parse_problem(
        {"eigenvalues": [[-1, 1], [-2, 1]], "b": [1, 1], "x0": [0.6, 0.4], "k": 1}
    )
    direct = json.dumps(solve_time_fuel(reference).as_dict(), sort_keys=True)
    assert tool.report_line("ref2-k1", problems["ref2-k1"]) == f"ref2-k1\t{direct}"


def test_src_solves_with_another_package(tmp_path):
    # `--src` solves the set with the package of another `src` directory,
    # imported before the set's own imports: here a copy whose solve raises
    package = tmp_path / "src" / "timefuel"
    shutil.copytree(
        TOOL.parent.parent / "src" / "timefuel", package, ignore=shutil.ignore_patterns("__pycache__")
    )
    with open(package / "__init__.py", "a") as init:
        init.write("\n\ndef solve_time_fuel(spec, options=None):\n    raise RuntimeError('the copy')\n")
    run = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(package.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = run.stdout.splitlines()
    assert len(lines) == 14 + 6 + 6 + 30 + 20
    assert all(line.endswith("\tRuntimeError: the copy") for line in lines)


def report(best_id, word, cost, ties, programs):
    """A report dict with one program per (id, status, residual)."""
    return {
        "best": {"instance_id": best_id, "sequence": word, "cost": cost},
        "ties": ties,
        "instances": [
            {"instance_id": i, "status": status, "constraint_residual": residual}
            for i, status, residual in programs
        ],
    }


def write_reports(path, reports):
    lines = [f"{k}\t{v if isinstance(v, str) else json.dumps(v)}" for k, v in reports.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_compare(tmp_path, capsys):
    # one line per changed problem, old -> new where a field moved; the
    # tool exits 1 when an exit kind, best, tie or status moves
    old = {
        "same": report("A", [1], 2.0, ["A"], [("A", "converged", 1e-12)]),
        "moved": report(
            "A", [1], 2.0, ["A"], [("A", "converged", 1e-12), ("B", "converged", 1e-9)]
        ),
        "failed": "SolverFailedError: t_f 1.5",
    }
    new = dict(old)
    new["moved"] = report(
        "B",
        [-1, 0, 1],
        2.0 * (1 + 3e-11),
        ["B", "A"],
        [("A", "infeasible", 0.1), ("B", "converged", 5e-17)],
    )
    new["failed"] = "SolverFailedError: t_f 1.25"
    paths = [write_reports(tmp_path / "old.txt", old), write_reports(tmp_path / "new.txt", new)]
    expected = [
        "moved\texit solved\tbest A [1] -> B [-1,0,1]\tcost +3.0e-11"
        "\tstatus A converged -> infeasible\tties A -> B,A\tresidual 1.0e-09 -> 5.0e-17",
        "failed\texit SolverFailedError\tbest -\tcost -\tstatus -\tties -\tresidual -",
        "2 of 3 problems changed",
    ]
    tool = load_tool()
    assert tool.compare(*paths) == (expected, True)
    assert tool.main(["--compare", *paths]) == 1
    assert capsys.readouterr().out == "\n".join(expected) + "\n"

    # floats and exception messages alone: the same lines, exit 0
    floats = dict(old)
    floats["moved"] = report(
        "A",
        [1],
        2.0 * (1 - 1e-13),
        ["A"],
        [("A", "converged", 3e-12), ("B", "converged", 1e-10)],
    )
    floats["failed"] = "SolverFailedError: t_f 1.25"
    paths[1] = write_reports(tmp_path / "floats.txt", floats)
    expected = [
        "moved\texit solved\tbest A [1]\tcost -1.0e-13\tstatus none\tties A"
        "\tresidual 1.0e-09 -> 1.0e-10",
        "failed\texit SolverFailedError\tbest -\tcost -\tstatus -\tties -\tresidual -",
        "2 of 3 problems changed",
    ]
    assert tool.compare(*paths) == (expected, False)
    assert tool.main(["--compare", *paths]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_compare_lists_added_and_removed(tmp_path, capsys):
    # a problem in one file only is listed, and only the problems both
    # files have can move the exit code
    old = {
        "kept": report("A", [1], 2.0, ["A"], [("A", "converged", 1e-12)]),
        "gone": "SolverFailedError: t_f 1.5",
    }
    new = {
        "kept": report("A", [1], 2.0 * (1 + 1e-14), ["A"], [("A", "converged", 1e-12)]),
        "new": report("B", [-1], 1.0, ["B"], [("B", "converged", 1e-13)]),
    }
    paths = [write_reports(tmp_path / "old.txt", old), write_reports(tmp_path / "new.txt", new)]
    expected = [
        "kept\texit solved\tbest A [1]\tcost +1.0e-14\tstatus none\tties A\tresidual 1.0e-12",
        "gone\tremoved",
        "new\tadded",
        "3 of 3 problems changed",
    ]
    tool = load_tool()
    assert tool.compare(*paths) == (expected, False)
    assert tool.main(["--compare", *paths]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"
