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
