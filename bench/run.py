"""timefuel benchmark: time to a verified answer on three problem mixes.

Run from the repository root:

    python3 bench/run.py --workload ref2 --seed 1 --seconds 15 --trace 0

One caller solves one problem at a time through the public API
(`parse_problem` then `solve_time_fuel`, 16 starts, solver seed 0, the
library's default thread count), in whole passes over the workload's fixed
problem set in an order drawn from `--seed`, for at least two passes and
`--seconds`.  Every answer is checked with this directory's own closed
forms.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
same loop with spans around each layer's public entry points and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from workloads import COST_REL_TOL, BOUND_REL_TOL, TERMINAL_TOL, WORKLOADS, terminal_state

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The acceptance-suite solver setting.
STARTS = 16
SOLVER_SEED = 0

#: Passes over the problem set in every run, whatever `--seconds` says.
MIN_PASSES = 2

#: Fresh interpreters timed for `setup_s`; the median is reported.
SETUP_PROCESSES = 5
#: The warm-up: a one-start solve of a scalar problem runs every first-call
#: path (build, restoration, L-BFGS-B, polish, simulation) once.
WARM_UP = (
    "timefuel.solve_time_fuel("
    "timefuel.parse_problem({'eigenvalues': [[-1, 1]], 'b': [1], 'x0': [0.5], 'k': 1}), "
    f"timefuel.SolverOptions(starts=1, seed={SOLVER_SEED}))"
)

#: Failure kinds that mean a returned answer is untrue.  The others
#: (a refusal of a feasible problem, a cost above the known reference, a
#: crash) mean the program gave no answer or a worse one; all count as
#: failed.
WRONG_ANSWER = ("schedule_for_infeasible", "off_origin", "cost_mismatch", "nondeterministic")

#: Kernel micro-measure sizes: (label, order, slot count).
KERNEL_SIZES = (("small", 2, 4), ("large", 6, 13))
KERNEL_CALLS = 2000
KERNEL_REPEATS = 5


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_timefuel():
    """The package from this checkout's `src`, never an installed copy."""
    if not (SRC / "timefuel" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import timefuel

    if Path(timefuel.__file__).resolve().parent.parent != SRC:
        return None
    return timefuel


def measure_setup() -> float:
    """Median wall time of a fresh interpreter's `import timefuel` and warm-up."""
    env = {k: v for k, v in os.environ.items() if k not in ("TIMEFUEL_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(SETUP_PROCESSES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import timefuel\n{WARM_UP}"],
            cwd=ROOT,
            env=env,
            check=True,
            timeout=120,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def answer_text(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


def check(case, report) -> str | None:
    """Failure kind of a returned report, or None when it verifies."""
    if not case.feasible:
        return "schedule_for_infeasible"
    best = report.best
    bp = [float(t) for t in best.schedule.breakpoints]
    levels = [int(v) for v in best.schedule.levels]
    if (
        not bp
        or bp[0] != 0.0
        or len(levels) != len(bp) - 1
        or any(b <= a for a, b in zip(bp, bp[1:]))
        or any(v not in (-1, 0, 1) for v in levels)
    ):
        return "off_origin"
    problem = case.problem
    lam = [n / d for n, d in problem["eigenvalues"]]
    final = terminal_state(lam, problem["b"], problem["x0"], bp, levels)
    if max(abs(v) for v in final) > TERMINAL_TOL:
        return "off_origin"
    on = sum(bp[j + 1] - bp[j] for j, v in enumerate(levels) if v)
    expected = problem["k"] * bp[-1] + on
    if abs(best.cost - expected) > COST_REL_TOL * max(1.0, abs(expected)):
        return "cost_mismatch"
    if case.cost_bound is not None and best.cost > (
        case.cost_bound * (1.0 + BOUND_REL_TOL) + case.cost_slack
    ):
        return "above_reference"
    return None


def _untraced(_name: str):
    return nullcontext()


class Loop:
    """Closed loop over one workload set, one problem at a time."""

    def __init__(self, timefuel):
        self.tf = timefuel
        self.tracer = None
        self.options = timefuel.SolverOptions(starts=STARTS, seed=SOLVER_SEED)
        self.pass_s: list[float] = []
        self.kinds: dict[str, int] = {}
        #: attempt index -> failure kinds
        self.failures: dict[int, list[str]] = {}
        #: (seconds, case) of every attempt
        self.attempts: list[tuple[float, object]] = []

    def solve(self, case):
        """(seconds, answer text, failure kind) of one solve."""
        tf = self.tf
        span = self.tracer.span if self.tracer else _untraced
        with span("model.parse"):
            spec = tf.parse_problem(case.problem)
        start = perf_counter()
        try:
            with span("request"):
                report = tf.solve_time_fuel(spec, self.options)
        except tf.InfeasibleProblemError as exc:
            seconds = perf_counter() - start
            return seconds, f"infeasible: {exc}", ("false_infeasible" if case.feasible else None)
        except Exception as exc:  # any other exception is a failed answer
            seconds = perf_counter() - start
            return seconds, f"error: {exc!r}", "exception"
        seconds = perf_counter() - start
        return seconds, answer_text(report), check(case, report)

    def run(self, cases, seconds: float, tracer=None) -> None:
        """Whole passes over `cases`: MIN_PASSES, then more until `seconds`.

        Whole passes keep every problem equally often in the sample, so the
        median does not depend on where the time ran out, and every problem
        is solved at least twice, which checks that its report repeats byte
        for byte.  With a tracer the first pass runs untraced and the later
        ones traced, so the pass times give the tracing overhead.
        """
        first_answer: dict[int, str] = {}
        start = perf_counter()
        while len(self.pass_s) < MIN_PASSES or perf_counter() - start < seconds:
            self.tracer = tracer if self.pass_s else None
            pass_start = perf_counter()
            with self.tracer.installed() if self.tracer else nullcontext():
                for position, case in enumerate(cases):
                    took, text, kind = self.solve(case)
                    self.attempts.append((took, case))
                    index = len(self.attempts) - 1
                    if kind is not None:
                        self.record(index, kind)
                    if first_answer.setdefault(position, text) != text:
                        self.record(index, "nondeterministic")
            self.pass_s.append(perf_counter() - pass_start)
        self.tracer = None

    def record(self, index: int, kind: str) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        self.failures.setdefault(index, []).append(kind)

    @property
    def failed(self) -> int:
        return len(self.failures)


def kernel_us(timefuel, order: int, slots: int) -> float:
    """Median microseconds of one `reach` plus `constraint_jacobian` call."""
    problem = {
        "eigenvalues": [[-i, 1] for i in range(1, order + 1)],
        "b": [1] * order,
        "x0": [0.1] * order,
        "k": 1,
    }
    instances = timefuel.build_all(timefuel.parse_problem(problem))
    instance = min(instances, key=lambda inst: (abs(inst.slot_count - slots), inst.instance_id))
    times = [0.1 * (j + 1) for j in range(instance.slot_count)]
    samples = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        for _ in range(KERNEL_CALLS):
            instance.reach(times)
            instance.constraint_jacobian(times)
        samples.append((perf_counter() - start) / KERNEL_CALLS * 1e6)
    return statistics.median(samples)


def layer_metrics(timefuel, tracer, overhead: float) -> dict:
    """Per-layer metrics of a traced run, as means per solve."""
    solves = max(tracer.calls("request"), 1)
    t = tracer
    programs = t.counts.get("builder.programs", 0.0)
    converged = t.counts.get("solver.programs_converged", 0.0)
    simulate = ("simulate.schedule", "simulate.propagate", "simulate.evaluate_cost")
    kernel = ("builder.residuals", "builder.jacobian")
    request = t.total("request")
    metrics = {
        "model.parse_s": (t.total("model.parse") / solves, "s"),
        "sequences.enumerate_calls": (t.calls("sequences.enumerate") / solves, "count"),
        "sequences.enumerate_s": (t.total("sequences.enumerate") / solves, "s"),
        "builder.build_s": (t.total("builder.build") / solves, "s"),
        "builder.programs": (programs / solves, "count"),
        "builder.residual_calls": (t.calls("builder.residuals") / solves, "count"),
        "builder.jacobian_calls": (t.calls("builder.jacobian") / solves, "count"),
        "builder.kernel_s": (sum(t.total(k) for k in kernel) / solves, "s"),
        "solver.solve_nlp_s": (t.total("solver.solve_nlp") / solves, "s"),
        "solver.nlp_self_s": (t.self_time("solver.solve_nlp") / solves, "s"),
        "solver.programs_converged": (converged / solves, "count"),
        "solver.programs_infeasible": (t.counts.get("solver.programs_infeasible", 0.0) / solves, "count"),
        "solver.programs_iteration_limit": (
            t.counts.get("solver.programs_iteration_limit", 0.0) / solves,
            "count",
        ),
        "solver.converged_ratio": (converged / programs if programs else 0.0, "ratio"),
        "solver.wasted_s": (t.counts.get("solver.wasted_s", 0.0) / solves, "s"),
        "solver.lbfgsb_calls": (t.calls("solver.lbfgsb") / solves, "count"),
        "solver.lbfgsb_self_s": (t.self_time("solver.lbfgsb") / solves, "s"),
        "solver.slsqp_calls": (t.calls("solver.slsqp") / solves, "count"),
        "solver.slsqp_self_s": (t.self_time("solver.slsqp") / solves, "s"),
        "simulate.verify_s": (sum(t.total(s) for s in simulate) / solves, "s"),
        "simulate.propagate_calls": (t.calls("simulate.propagate") / solves, "count"),
        "simulate.rejected": (t.counts.get("simulate.rejected", 0.0) / solves, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        # share of solve_time_fuel wall time spent inside layer spans
        "trace.coverage_frac": (1.0 - t.self_time("request") / request if request else 0.0, "ratio"),
    }
    for label, order, slots in KERNEL_SIZES:
        try:
            metrics[f"builder.kernel_us_{label}"] = (kernel_us(timefuel, order, slots), "us")
        except AttributeError as exc:  # a kernel entry point was renamed
            t.absent.append(str(exc))
    # a metric whose wrapped name no longer exists is reported as absent
    needs = {
        "timefuel.solver.build_all": ("builder.build_s", "builder.programs"),
        "timefuel.builder.enumerate_candidates": ("sequences.",),
        "timefuel.solver.solve_nlp": (
            "solver.solve_nlp_s",
            "solver.nlp_self_s",
            "solver.programs_",
            "solver.converged_ratio",
            "solver.wasted_s",
        ),
        "timefuel.solver.propagate": ("simulate.propagate_calls", "simulate.rejected"),
        "timefuel.solver.minimize": ("solver.lbfgsb", "solver.slsqp"),
        "timefuel.NlpInstance.constraint_residuals": ("builder.residual_calls", "builder.kernel_"),
        "timefuel.NlpInstance.constraint_jacobian": ("builder.jacobian_calls", "builder.kernel_"),
    }
    for name in t.absent:
        for prefix in needs.get(name, ()):
            for metric in [m for m in metrics if m.startswith(prefix)]:
                del metrics[metric]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    # the library's default thread count
    os.environ.pop("TIMEFUEL_THREADS", None)
    timefuel = import_timefuel()
    if timefuel is None:
        return fail(f"no timefuel package under {SRC}")

    setup_s = measure_setup() if not args.trace else None
    exec(WARM_UP, {"timefuel": timefuel})
    # the seed orders the fixed problem set of the workload
    cases = WORKLOADS[args.workload]()
    random.Random(args.seed).shuffle(cases)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(timefuel.SolverOptions().feas_tol)
    loop = Loop(timefuel)
    loop.run(cases, args.seconds, tracer)

    solve_s = [took for took, _case in loop.attempts]
    attempted = len(solve_s)
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} solves in "
        f"{len(loop.pass_s)} passes, one caller, closed loop"
    )
    print(
        f"fail_frac = {loop.failed / attempted:.4f} ratio "
        f"({loop.failed} failed / {attempted} attempted) {json.dumps(loop.kinds, sort_keys=True)}"
    )
    for index, (took, case) in enumerate(loop.attempts):
        outcome = ",".join(loop.failures.get(index, ["ok"]))
        print(f"  {case.name:24s} {took:8.3f} s  {outcome}")
    if args.trace:
        traced = statistics.mean(loop.pass_s[1:])
        metrics = layer_metrics(timefuel, tracer, traced / loop.pass_s[0] - 1.0)
        for name in tracer.absent:
            print(f"absent: {name}")
        samples = dict.fromkeys(metrics, tracer.calls("request"))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "solve_s_p50": (statistics.median(solve_s), "s"),
            "solve_s_max": (max(solve_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        samples = {
            "solve_s_p50": attempted,
            "solve_s_max": attempted,
            "setup_s": SETUP_PROCESSES,
            "peak_rss_mb": 1,
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples[name]})")
    print(
        json.dumps(
            {
                "correct": not any(k in loop.kinds for k in WRONG_ANSWER),
                "attempted": attempted,
                "failed": loop.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
