import importlib.util
from pathlib import Path

from timefuel import parse_problem

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lp_check.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("lp_check_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lines():
    # a feasible line carries the word, exact cost and horizon and a digest
    # of the inputs; a refusal's line says only that
    tool = load_tool()
    reference = parse_problem(
        {"eigenvalues": [[-1, 1], [-2, 1]], "b": [1, 1], "x0": [0.6, 0.4], "k": 1}
    )
    name, verdict, word, cost, horizon, crc = tool.lp_line("ref2-k1", reference).split("\t")
    assert (name, verdict, word) == ("ref2-k1", "feasible", "-1,0,1")
    assert abs(float(cost) - 1.8940) < 5e-3 and repr(float(cost)) == cost
    assert 0.0 < float(horizon) < float(cost) and len(crc) == 8
    unreachable = parse_problem({"eigenvalues": [[1, 1]], "b": [1], "x0": [2.0], "k": 1})
    assert tool.lp_line("unreachable", unreachable) == "unreachable\tinfeasible"
