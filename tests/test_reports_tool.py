import importlib.util
import json
from pathlib import Path

from timefuel import SolverOptions, parse_problem, solve_time_fuel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reports.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reports_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comparison_set():
    # names are unique, and a line is the report of a direct solve
    tool = load_tool()
    problems = {name: (spec, options) for name, spec, options in tool.problems()}
    assert len(problems) == len(list(tool.problems())) == 14 + 6 + 30 + 20
    reference = parse_problem(
        {"eigenvalues": [[-1, 1], [-2, 1]], "b": [1, 1], "x0": [0.6, 0.4], "k": 1}
    )
    options = SolverOptions(starts=16, seed=0)
    direct = json.dumps(solve_time_fuel(reference, options).as_dict(), sort_keys=True)
    assert tool.report_line("ref2-k1", *problems["ref2-k1"]) == f"ref2-k1\t{direct}"


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
