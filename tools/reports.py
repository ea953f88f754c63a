"""Print the solve report of every problem of the comparison set.

One line per problem: its name, a tab, then
`json.dumps(report.as_dict(), sort_keys=True)`, or the exception class and
message when the solve raises.  Write it, for this tree's package or for
the `src` directory of another tree, solved on this tree's problem set:

    python3 tools/reports.py [--src OTHER/src] > reports.txt

Two such files compare by `diff`, or, one line per changed problem and a
count line, by

    python3 tools/reports.py --compare old.txt new.txt

which lists a problem that only one file has as `added` or `removed`, and
exits 1 when an exit kind, a best id or word, a tie list or a program
status of a problem both files have changes, and 0 when only floats or
exception messages do.

The set, in this order, each solved with the default options:

- the 14 benchmark problems of `bench/workloads.py`;
- six named problems: the silently suboptimal problem, the stiff n=2
  problem, the n=6 test problem, the two n=5 draws that only the
  LP-seeded start solves, and the unstable problem whose converged
  optimum the simulator rejects;
- the six `default_rng(77)` draws `hi-n6-0` ... `hi-n8-1` (ROADMAP,
  Baseline), two for each n in 6, 7, 8;
- the 30-problem `default_rng(2026)` sweep (ROADMAP, Baseline);
- the 20 problems of acceptance criterion 08, drawn as its test draws
  them.

The benchmark's problem sets and the test helpers are imported read-only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

from workloads import WORKLOADS  # noqa: E402

# The package is imported where it is used, so that `main` can choose it.


def _problem(eigenvalues, x0, k) -> dict:
    """Problem dict with b = 1; an eigenvalue is an integer or a pair."""
    return {
        "eigenvalues": [list(e) if isinstance(e, tuple) else [e, 1] for e in eigenvalues],
        "b": [1] * len(eigenvalues),
        "x0": list(x0),
        "k": k,
    }


NAMED = {
    "suboptimal": _problem((-1, 2, -3), (0.3, 0.1, 0.1), 2),
    "stiff-n2": _problem((-4, -5), (0.0248, -0.0663), 0.5),
    "n6": _problem(range(-1, -7, -1), (0.1, 0.2, 0.4, 0.5, 0.8, 1.0), 1),
    "n5-lp2.72957": _problem((-2, -3, -4, -5, -6), (0.1222, 0.489, -0.2847, -0.3398, 0.1125), 1),
    "n5-lp2.63353": _problem((-2, -3, -4, -5, -6), (-0.184, -0.4323, 0.3869, -0.4779, 0.0373), 1),
    "unstable": _problem(((-1, 2), 1, 4), (0.2, 0.2109, -0.1805), 1),
}


def _high_order():
    from timefuel import parse_problem

    rng = np.random.default_rng(77)
    for n in (6, 7, 8):
        for i in range(2):
            rates = sorted(rng.choice(np.arange(1, 11), n, replace=False))
            x0 = [round(float(v), 4) for v in rng.uniform(-0.5, 0.5, n)]
            yield f"hi-n{n}-{i}", parse_problem(_problem([-r for r in rates], x0, 1))


def _sweep():
    from timefuel import parse_problem

    rng = np.random.default_rng(2026)
    for i in range(30):
        n = 2 + i % 3
        lam = list(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3], n, replace=False))
        u = rng.uniform(-1.0, 1.0, n)
        # inside |b / lambda| for an unstable mode
        x0 = [round(float(v * (0.8 / l if l > 0 else 0.48)), 4) for v, l in zip(u, lam)]
        k = float(rng.choice([0.5, 1.0, 2.0]))
        yield f"sweep-{i}", parse_problem(_problem(lam, x0, k))


def _criterion_08():
    from conftest import random_schedule, random_system
    from timefuel import validate_problem
    from timefuel.simulate import reachability_x0

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
        yield f"c08-{solved}", validate_problem(system, x0, k)
        solved += 1


def problems():
    """(name, spec) of every problem of the set, in order."""
    from timefuel import parse_problem

    for cases in WORKLOADS.values():
        for case in cases():
            yield case.name, parse_problem(case.problem)
    for name, problem in NAMED.items():
        yield name, parse_problem(problem)
    yield from _high_order()
    yield from _sweep()
    yield from _criterion_08()


def report_line(name, spec) -> str:
    from timefuel import solve_time_fuel

    try:
        text = json.dumps(solve_time_fuel(spec).as_dict(), sort_keys=True)
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
    """The fields a comparison line shows, as strings."""
    if not isinstance(report, dict):
        return {"exit": report.split(":", 1)[0], "best": "-", "ties": "-", "residual": "-"}
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
    """One line per problem whose line differs, a `compare_line` or, for a
    problem in one file only, `added` or `removed`, then a count line; and
    whether the `_outcome` of a problem both files have changed."""
    old, new = _read(old_path), _read(new_path)
    names = list(old) + [name for name in new if name not in old]
    changed = [name for name in names if old.get(name) != new.get(name)]
    shared = [name for name in changed if name in old and name in new]
    lines = [
        compare_line(name, old[name], new[name])
        if name in shared
        else f"{name}\t{'added' if name in new else 'removed'}"
        for name in changed
    ]
    moved = any(_outcome(old[name]) != _outcome(new[name]) for name in shared)
    return lines + [f"{len(changed)} of {len(names)} problems changed"], moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        lines, moved = compare(*args.compare)
        print("\n".join(lines))
        return 1 if moved else 0
    sys.path.insert(0, str(args.src.resolve()))
    for problem in problems():
        print(report_line(*problem), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
