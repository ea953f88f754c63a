"""Count the work of one solve of every benchmark problem.

Each problem of the workload sets of `bench/workloads.py` is solved once,
with the default options, and per problem these integer counts are kept:

- `lm_passes` and `lm_row_passes`: calls of `solver._solve_rows`, one per
  restoration pass, and the rows those calls solve;
- `kernel_calls` and `kernel_rows`: calls of `solver.reach_kernel` and the
  time vectors they evaluate;
- `slsqp_calls`: SLSQP runs started, the calls of `solver._slsqp`;
- `slsqp_steps`: calls of scipy's SLSQP routine `solver.slsqp` (0 in
  trees that called it through `minimize`);
- `polish_calls`: calls of `solver._polish`;
- `lp_solves`: fixed-horizon LPs solved, the calls of `simulate._lp_transfer`;
- `highs_runs`: HiGHS runs, the calls of `simulate._dense_lp`: the
  transfer LPs and the certificate's gauge LP, which runs on every problem
  whose x0 has an unstable part.

The counts do not depend on timing, so two runs give the same bytes.  Write
them, for this tree's package or for the `src` directory of another tree
(a name that the tree lacks counts 0):

    python3 tools/work_counts.py [--src OTHER/src] [--workload W] [--out FILE]

which writes `BENCH_counts.json` at the repository root by default; compare
two such files, per workload and per problem, by

    python3 tools/work_counts.py --compare OLD NEW

The benchmark's problem sets are imported read-only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = (
    "lm_passes",
    "lm_row_passes",
    "kernel_calls",
    "kernel_rows",
    "slsqp_calls",
    "slsqp_steps",
    "polish_calls",
    "lp_solves",
    "highs_runs",
)


def _counted(module, name, counts, calls, rows=None, rows_arg=0):
    """Wrap module.name so that each call adds 1 to counts[calls] and, when
    `rows` is given, the length of its positional argument `rows_arg` to
    counts[rows].  A name that the module lacks is left alone."""
    inner = getattr(module, name, None)
    if inner is None:
        return

    def wrapper(*args, **kwargs):
        counts[calls] += 1
        if rows is not None:
            counts[rows] += len(args[rows_arg])
        return inner(*args, **kwargs)

    setattr(module, name, wrapper)


def count_work(workloads: dict) -> dict:
    """Workload -> problem name -> counts of one solve, for a dict of
    workload name -> its `bench/workloads.py` case list."""
    from timefuel import parse_problem, simulate, solve_time_fuel, solver

    counts = Counter()
    _counted(solver, "_solve_rows", counts, "lm_passes", "lm_row_passes")
    _counted(solver, "reach_kernel", counts, "kernel_calls", "kernel_rows", rows_arg=3)
    _counted(solver, "_slsqp", counts, "slsqp_calls")
    _counted(solver, "slsqp", counts, "slsqp_steps")
    _counted(solver, "_polish", counts, "polish_calls")
    _counted(simulate, "_lp_transfer", counts, "lp_solves")
    _counted(simulate, "_dense_lp", counts, "highs_runs")
    result = {}
    for workload, cases in workloads.items():
        result[workload] = {}
        for case in cases:
            counts.clear()
            try:
                solve_time_fuel(parse_problem(case.problem))
            except (solver.InfeasibleProblemError, solver.SolverFailedError):
                pass  # a refusal's work counts like a solve's
            result[workload][case.name] = {name: int(counts[name]) for name in COUNTS}
    return result


def _moved(old: dict, new: dict, every: bool = False) -> str:
    shown = [
        f"{c} {old.get(c, 0)} -> {new[c]}" + (f" ({new[c] / old[c]:.2f}x)" if old.get(c) else "")
        for c in COUNTS
        if every or old.get(c, 0) != new[c]
    ]
    return ", ".join(shown) or "unchanged"


def compare(old: dict, new: dict) -> list[str]:
    """Per workload its summed counts, old -> new with the ratio, then per
    problem the counts that moved; a count a file lacks reads 0."""
    lines = []
    for workload, problems in new.items():
        before = old.get(workload, {})
        total = [
            {c: sum(p.get(c, 0) for p in side.values()) for c in COUNTS}
            for side in (before, problems)
        ]
        lines.append(f"{workload} ({len(problems)} solves): {_moved(*total, every=True)}")
        for name, counts in problems.items():
            moved = _moved(before[name], counts) if name in before else f"absent -> {counts}"
            lines.append(f"  {name}: {moved}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_counts.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text())["workloads"] for path in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    workloads = {name: WORKLOADS[name]() for name in names}
    record = {"workloads": count_work(workloads)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
