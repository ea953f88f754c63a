"""Print the solve report of every problem of the comparison set.

One line per problem: its name, a tab, then
`json.dumps(report.as_dict(), sort_keys=True)`, or the exception class and
message when the solve raises.  Two commits compare by `diff` of their
output:

    python3 tools/reports.py > reports.txt

or, one line per changed problem and a count line, by

    python3 tools/reports.py --compare old.txt new.txt

which exits 1 when an exit kind, a best id or word, a tie list or a
program status changes, and 0 when only floats or exception messages do.

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

import argparse
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


def _read(path) -> dict:
    """Problem name -> report dict, or the exception line of a failed solve."""
    reports = {}
    for line in Path(path).read_text().splitlines():
        name, text = line.split("\t", 1)
        reports[name] = json.loads(text) if text.startswith("{") else text
    return reports


def _summary(report) -> dict:
    """The fields a comparison line shows, as strings; None for a missing line."""
    if not isinstance(report, dict):
        kind = "absent" if report is None else report.split(":", 1)[0]
        return {"exit": kind, "best": "-", "ties": "-", "residual": "-"}
    best = report["best"]
    residuals = [
        s["constraint_residual"] for s in report["instances"] if s["status"] == "converged"
    ]
    return {
        "exit": "solved",
        "best": f"{best['instance_id']} [{','.join(map(str, best['sequence']))}]",
        "ties": ",".join(report["ties"]),
        "residual": f"{max(residuals):.1e}" if residuals else "-",
    }


def _change(old: str, new: str) -> str:
    return old if old == new else f"{old} -> {new}"


def compare_line(name: str, old, new) -> str:
    """Exit kind, best id and word, best cost's relative change, program
    status changes, ties and largest converged constraint residual, old -> new."""
    a, b = _summary(old), _summary(new)
    cost = status = "-"
    if isinstance(old, dict) and isinstance(new, dict):
        before, after = old["best"]["cost"], new["best"]["cost"]
        cost = f"{(after - before) / abs(before):+.1e}"
        was = {s["instance_id"]: s["status"] for s in old["instances"]}
        moved = [
            f"{s['instance_id']} {was.get(s['instance_id'])} -> {s['status']}"
            for s in new["instances"]
            if was.get(s["instance_id"]) != s["status"]
        ]
        status = ", ".join(moved) or "none"
    return (
        f"{name}\texit {_change(a['exit'], b['exit'])}\tbest {_change(a['best'], b['best'])}"
        f"\tcost {cost}\tstatus {status}\tties {_change(a['ties'], b['ties'])}"
        f"\tresidual {_change(a['residual'], b['residual'])}"
    )


def _outcome(report):
    """What a comparison must not change: exit kind, best id and word,
    ties and every program's status."""
    summary = _summary(report)
    programs = report["instances"] if isinstance(report, dict) else []
    statuses = {s["instance_id"]: s["status"] for s in programs}
    return summary["exit"], summary["best"], summary["ties"], statuses


def compare(old_path, new_path) -> tuple[list[str], bool]:
    """One `compare_line` per problem whose line differs, then a count
    line; and whether any problem's `_outcome` changed."""
    old, new = _read(old_path), _read(new_path)
    names = list(old) + [name for name in new if name not in old]
    changed = [name for name in names if old.get(name) != new.get(name)]
    lines = [compare_line(name, old.get(name), new.get(name)) for name in changed]
    moved = any(_outcome(old.get(name)) != _outcome(new.get(name)) for name in changed)
    return lines + [f"{len(changed)} of {len(names)} problems changed"], moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        lines, moved = compare(*args.compare)
        print("\n".join(lines))
        return 1 if moved else 0
    for problem in problems():
        print(report_line(*problem), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
