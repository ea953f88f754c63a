"""Print the solve report of every problem of the comparison set.

One line per problem: its name, a tab, then
`json.dumps(report.as_dict(), sort_keys=True)`, or the exception class and
message when the solve raises.  Two commits compare by `diff` of their
output:

    python3 tools/reports.py > reports.txt

The set, in this order:

- the 14 benchmark problems of `bench/workloads.py`, at 16 starts, seed 0;
- six named problems at 16 starts, seed 0 (the n=6 one at 6): the
  silently suboptimal problem, the stiff n=2 problem, the n=6 test
  problem, the two n=5 draws that only the LP-seeded start solves, and the
  unstable problem whose converged optimum the simulator rejects;
- the 30-problem `default_rng(2026)` sweep (ROADMAP, Baseline), at 16
  starts, seed 0;
- the 20 problems of acceptance criterion 08, drawn as its test draws
  them, at 24 starts, seed 3.

The benchmark's problem sets and the test helpers are imported read-only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from conftest import random_schedule, random_system  # noqa: E402
from timefuel import SolverOptions, parse_problem, solve_time_fuel, validate_problem  # noqa: E402
from timefuel.simulate import reachability_x0  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLIND = SolverOptions(starts=16, seed=0)


def _problem(eigenvalues, x0, k) -> dict:
    """Problem dict with b = 1; an eigenvalue is an integer or a pair."""
    return {
        "eigenvalues": [list(e) if isinstance(e, tuple) else [int(e), 1] for e in eigenvalues],
        "b": [1] * len(eigenvalues),
        "x0": list(x0),
        "k": k,
    }


NAMED = {
    "suboptimal": (_problem((-1, 2, -3), (0.3, 0.1, 0.1), 2), BLIND),
    "stiff-n2": (_problem((-4, -5), (0.0248, -0.0663), 0.5), BLIND),
    "n6": (
        _problem(range(-1, -7, -1), (0.1, 0.2, 0.4, 0.5, 0.8, 1.0), 1),
        SolverOptions(starts=6, seed=0),
    ),
    "n5-lp2.72957": (
        _problem((-2, -3, -4, -5, -6), (0.1222, 0.489, -0.2847, -0.3398, 0.1125), 1),
        BLIND,
    ),
    "n5-lp2.63353": (
        _problem((-2, -3, -4, -5, -6), (-0.184, -0.4323, 0.3869, -0.4779, 0.0373), 1),
        BLIND,
    ),
    "unstable": (_problem(((-1, 2), 1, 4), (0.2, 0.2109, -0.1805), 1), BLIND),
}


def _sweep():
    rng = np.random.default_rng(2026)
    for i in range(30):
        n = 2 + i % 3
        lam = [int(v) for v in rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3], n, replace=False)]
        u = rng.uniform(-1.0, 1.0, n)
        # inside |b / lambda| for an unstable mode
        x0 = [round(float(v * (0.8 / l if l > 0 else 0.48)), 4) for v, l in zip(u, lam)]
        k = float(rng.choice([0.5, 1.0, 2.0]))
        yield f"sweep-{i}", parse_problem(_problem(lam, x0, k)), BLIND


def _criterion_08():
    rng = np.random.default_rng(77)
    solved = 0
    while solved < 20:
        n = 1 if solved < 8 else 2
        system = random_system(rng, n)
        gen = random_schedule(rng, max_bangs=2, max_segment=0.5)
        x0 = reachability_x0(system, gen)
        if np.max(np.abs(x0)) < 0.05 or np.max(np.abs(x0)) > 50.0:
            continue
        k = float(rng.uniform(0.5, 3.0))
        yield f"c08-{solved}", validate_problem(system, x0, k), SolverOptions(starts=24, seed=3)
        solved += 1


def problems():
    """(name, spec, options) of every problem of the set, in order."""
    for cases in WORKLOADS.values():
        for case in cases():
            yield case.name, parse_problem(case.problem), BLIND
    for name, (problem, options) in NAMED.items():
        yield name, parse_problem(problem), options
    yield from _sweep()
    yield from _criterion_08()


def report_line(name, spec, options) -> str:
    try:
        text = json.dumps(solve_time_fuel(spec, options).as_dict(), sort_keys=True)
    except Exception as exc:  # the line records every failure; the run goes on
        text = f"{type(exc).__name__}: {exc}"
    return f"{name}\t{text}"


if __name__ == "__main__":
    for problem in problems():
        print(report_line(*problem), flush=True)
