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
    # of the inputs; a refusal's line carries the certificate; each ends
    # with the LPs the search solved and the HiGHS runs among them
    tool = load_tool()
    reference = parse_problem(
        {"eigenvalues": [[-1, 1], [-2, 1]], "b": [1, 1], "x0": [0.6, 0.4], "k": 1}
    )
    line = tool.lp_line("ref2-k1", reference)
    name, verdict, word, cost, horizon, crc, lps, runs = line.split("\t")
    assert (name, verdict, word) == ("ref2-k1", "feasible", "-1,0,1")
    assert abs(float(cost) - 1.8940) < 5e-3 and repr(float(cost)) == cost
    assert 0.0 < float(horizon) < float(cost) and len(crc) == 8
    assert 0 < int(runs) < int(lps) <= 20
    # a refusal's line carries the certificate: mu.x0 and h(mu), whose
    # ratio is the gauge |x0| lam / |b| = 2 of the scalar unstable mode
    unreachable = parse_problem({"eigenvalues": [[1, 1]], "b": [1], "x0": [2.0], "k": 1})
    name, verdict, mu_x0, h, lps, runs = tool.lp_line("unreachable", unreachable).split("\t")
    assert (name, verdict, lps, runs) == ("unreachable", "infeasible", "0", "0")
    assert float(mu_x0) / float(h) == pytest.approx(2.0, rel=1e-9)
    assert repr(float(mu_x0)) == mu_x0 and repr(float(h)) == h


def test_uncertified_refusal_line(monkeypatch):
    # an LP refusal the certificate cannot prove prints both gauge bounds
    tool = load_tool()
    monkeypatch.setattr(simulate, "lp_oracle", lambda spec, t_max: None)
    reachable = parse_problem({"eigenvalues": [[1, 1]], "b": [1], "x0": [0.5], "k": 1})
    name, verdict, word, lower, upper, lps, runs = tool.lp_line("reachable", reachable).split("\t")
    assert (name, verdict, word, lps, runs) == ("reachable", "infeasible", "uncertified", "0", "0")
    assert float(lower) == pytest.approx(0.5, rel=1e-9)
    assert float(upper) == pytest.approx(0.5, rel=1e-9)


def test_compare(tmp_path, capsys):
    # one line per problem, old -> new where the verdict, word or horizon
    # moved; the tool exits 1 when a verdict flips, a word moves or a cost
    # rises by more than COST_REL_TOL, and 0 on a fall or a smaller rise
    tool = load_tool()
    old = [
        "same\tfeasible\t-1,0,1\t2.0\t1.5\t0000abcd\t20\t20",
        "cheaper\tfeasible\t1\t1.0\t0.5\t0000abcd\t30\t30",
        "refused\tinfeasible\t1.5\t1.0\t7\t7",
        "dropped\tfeasible\t1\t1.0\t0.5\t0000abcd\t9\t9",
    ]
    new = [
        "same\tfeasible\t-1,0,1\t2.00001\t1.5\t0000abcd\t10\t8",
        "cheaper\tfeasible\t1\t0.99\t0.49\t0000dcba\t1\t1",
        "refused\tinfeasible\t1.5\t1.0\t0\t0",
    ]
    paths = [tmp_path / "old.txt", tmp_path / "new.txt"]
    for path, lines in zip(paths, (old, new)):
        path.write_text("\n".join(lines) + "\n")
    expected = [
        "same\tfeasible\tword -1,0,1\thorizon 1.5\tcost +5.0e-06\tLPs 20 -> 10\tHiGHS runs 20 -> 8",
        "cheaper\tfeasible\tword 1\thorizon 0.5 -> 0.49\tcost -1.0e-02\tLPs 30 -> 1"
        "\tHiGHS runs 30 -> 1",
        "refused\tinfeasible\tword -\thorizon -\tcost -\tLPs 7 -> 0\tHiGHS runs 7 -> 0",
        "dropped\tremoved",
        "0 of 4 problems moved; LPs 66 -> 11; HiGHS runs 66 -> 9",
    ]
    assert tool.compare(*paths) == (expected, False)
    assert tool.main(["--compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"

    # a flipped verdict, a moved word and a cost rise past 1e-4 each fail
    moved = [
        "same\tfeasible\t-1,0,1\t2.001\t1.5\t0000abcd\t10\t8",
        "cheaper\tfeasible\t1,0,-1\t0.99\t0.49\t0000dcba\t1\t1",
        "refused\tfeasible\t1\t3.0\t2.0\t0000abcd\t5\t4",
    ]
    for line in moved:
        paths[1].write_text(line + "\n")
        lines, failed = tool.compare(*paths)
        assert failed, line
        assert tool.main(["--compare", *map(str, paths)]) == 1
    assert lines[2] == (
        "refused\tinfeasible -> feasible\tword - -> 1\thorizon - -> 2.0\tcost -\tLPs 7 -> 5"
        "\tHiGHS runs 7 -> 4"
    )
