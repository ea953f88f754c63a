import importlib.util
from pathlib import Path

import pytest

from timefuel import parse_problem, simulate

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
    # a refusal's line carries the certificate: mu.x0 and h(mu), whose
    # ratio is the gauge |x0| lam / |b| = 2 of the scalar unstable mode
    unreachable = parse_problem({"eigenvalues": [[1, 1]], "b": [1], "x0": [2.0], "k": 1})
    name, verdict, mu_x0, h = tool.lp_line("unreachable", unreachable).split("\t")
    assert (name, verdict) == ("unreachable", "infeasible")
    assert float(mu_x0) / float(h) == pytest.approx(2.0, rel=1e-9)
    assert repr(float(mu_x0)) == mu_x0 and repr(float(h)) == h


def test_uncertified_refusal_line(monkeypatch):
    # an LP refusal the certificate cannot prove prints both gauge bounds
    tool = load_tool()
    monkeypatch.setattr(simulate, "lp_oracle", lambda spec, t_max: None)
    reachable = parse_problem({"eigenvalues": [[1, 1]], "b": [1], "x0": [0.5], "k": 1})
    name, verdict, word, lower, upper = tool.lp_line("reachable", reachable).split("\t")
    assert (name, verdict, word) == ("reachable", "infeasible", "uncertified")
    assert float(lower) == pytest.approx(0.5, rel=1e-9)
    assert float(upper) == pytest.approx(0.5, rel=1e-9)
