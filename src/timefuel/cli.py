"""Command-line front end.

Subcommands: enumerate, count, build, solve, simulate, table.  Exit codes:
0 success, 1 usage, validation or file error, 2 infeasible problem (the
fixed-horizon LP finds no transfer either), 3 solver failure (the LP finds
a transfer, the local solves do not).  All outputs
are deterministic for fixed inputs, flags and seed; JSON is emitted with
sorted keys and CSV uses '.' decimals with 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .builder import build_all
from .model import _is_number, load_problem, validate_problem
from .sequences import (
    brute_force_candidates,
    count_all_candidates,
    enumerate_candidates,
    plus_part,
)
from .simulate import InvalidScheduleError, SwitchingSchedule, propagate
from .solver import (
    InfeasibleProblemError,
    SolverFailedError,
    SolverOptions,
    solve_time_fuel,
)

USAGE_ERROR = 1
INFEASIBLE_EXIT = 2
SOLVER_FAILED_EXIT = 3

#: Numeric columns of `table`: k, then fields of the best solution.
TABLE_FIELDS = ("k", "cost", "final_time", "on_duration", "sparsity")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this tool reserves 2 for
    # infeasible problems
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return USAGE_ERROR


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _sorted_sequences(seqs):
    return sorted(seqs, key=lambda s: (len(s.levels), s.levels))


def cmd_enumerate(args) -> int:
    seqs = _sorted_sequences(enumerate_candidates(args.n, args.max_switches))
    if args.format == "json":
        print(json.dumps([list(s.levels) for s in seqs]))
    else:
        for seq in seqs:
            print(",".join(str(v) for v in seq.levels))
    return 0


def cmd_count(args) -> int:
    formula = count_all_candidates(args.n)
    brute = len(plus_part(brute_force_candidates(args.n)))
    print(f"formula: {formula}, brute-force: {brute}")
    return 0


def cmd_build(args) -> int:
    spec = load_problem(args.problem)
    os.makedirs(args.out, exist_ok=True)
    for inst in build_all(spec):
        path = os.path.join(args.out, f"{inst.instance_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(path)
    return 0


def cmd_solve(args) -> int:
    spec = load_problem(args.problem)
    report = solve_time_fuel(spec, SolverOptions(args.starts, args.seed))
    payload = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    best = report.best
    print(
        f"cost={_fmt(best.cost)} t_f={_fmt(best.final_time)} "
        f"on={_fmt(best.on_duration)} sparsity={_fmt(best.sparsity)} "
        f"sequence={','.join(str(v) for v in best.schedule.levels)}"
    )
    return 0


def _load_schedule(path) -> SwitchingSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if (
        not isinstance(data, dict)
        or set(data) != {"breakpoints", "levels"}
        or not isinstance(data["levels"], list)
        or not isinstance(data["breakpoints"], list)
        or not all(_is_number(t) for t in data["breakpoints"])
    ):
        raise InvalidScheduleError(
            'schedule file must hold {"breakpoints": [numbers], "levels": [...]}'
        )
    return SwitchingSchedule(
        tuple(float(t) for t in data["breakpoints"]), tuple(data["levels"])
    )


def cmd_simulate(args) -> int:
    spec = load_problem(args.problem)
    schedule = _load_schedule(args.schedule)
    trajectory = propagate(
        spec.system, spec.x0, schedule, samples_per_segment=args.samples
    )
    levels = schedule.levels
    rows = [[trajectory.sample_times[0], *trajectory.states[0], levels[0] if levels else 0]]
    for i in range(1, len(trajectory.sample_times)):
        # sample i falls in segment (i - 1) // samples_per_segment
        u = levels[(i - 1) // args.samples]
        rows.append([trajectory.sample_times[i], *trajectory.states[i], u])
    header = ["t"] + [f"x{i + 1}" for i in range(spec.order)] + ["u"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_table(args) -> int:
    if not args.k:
        print("table: at least one --k value is required", file=sys.stderr)
        return USAGE_ERROR
    spec = load_problem(args.problem)
    # every k is checked before the first solve
    specs = [validate_problem(spec.system, spec.x0, k, spec.max_switches) for k in args.k]
    rows = []
    for k, kspec in zip(args.k, specs):
        report = solve_time_fuel(kspec, SolverOptions(args.starts, args.seed))
        best = report.best
        row = {f: getattr(best, f) for f in TABLE_FIELDS[1:]}
        rows.append({"k": k, **row, "sequence": list(best.schedule.levels)})
    if args.format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        lines = [",".join(TABLE_FIELDS + ("sequence",))]
        for r in rows:
            seq = " ".join(str(v) for v in r["sequence"])
            lines.append(",".join([*(_fmt(r[f]) for f in TABLE_FIELDS), seq]))
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"{'k':>8} {'J*':>12} {'t_f':>12} {'on':>12} {'sparsity':>12}  sequence"
        ]
        for r in rows:
            seq = ",".join(str(v) for v in r["sequence"])
            lines.append(
                f"{r['k']:>8g} {r['cost']:>12.6f} {r['final_time']:>12.6f} "
                f"{r['on_duration']:>12.6f} {r['sparsity']:>12.6f}  {seq}"
            )
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="timefuel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list admissible switching sequences")
    p.add_argument("--n", type=int, required=True, help="system order")
    p.add_argument("--max-switches", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form vs brute-force sequence count")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("build", help="write one JSON file per static program")
    p.add_argument("--problem", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve the time-fuel problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--starts", type=int, default=SolverOptions.starts)
    p.add_argument("--seed", type=int, default=SolverOptions.seed)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="propagate a schedule and emit CSV")
    p.add_argument("--problem", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--csv", default=None, help="output CSV path (default stdout)")
    p.add_argument("--samples", type=int, default=20, help="samples per segment")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table", help="performance table over several k values")
    p.add_argument("--problem", required=True)
    p.add_argument("--k", type=float, action="append", default=[])
    p.add_argument("--starts", type=int, default=SolverOptions.starts)
    p.add_argument("--seed", type=int, default=SolverOptions.seed)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return INFEASIBLE_EXIT
    except SolverFailedError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return SOLVER_FAILED_EXIT
    except (ValueError, OSError) as exc:
        # ProblemError and InvalidScheduleError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
