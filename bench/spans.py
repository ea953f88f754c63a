"""Span tracing from outside the package, for the traced benchmark run.

Spans are recorded only here, around calls into each layer's public names as
the calling layer looks them up (for example `timefuel.solver.build_all`),
so the package itself is untouched.  A name that no longer exists is
reported as absent instead of failing the run, which keeps the traced run
working while the solver internals are refactored.

Spans are aggregated as they end: per name a call count, the total time and
the self time (span time minus the time of the spans it caused).  The
tracer keeps one stack and assumes the library solves on a single thread,
which is its default.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

#: The minimize methods the solver uses, by span name.
MINIMIZE_SPANS = {"l-bfgs-b": "solver.lbfgsb", "slsqp": "solver.slsqp"}


class Tracer:
    """Aggregated span times plus counters observed at the span boundaries."""

    def __init__(self, feas_tol: float):
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        #: counter name -> value
        self.counts: dict[str, float] = {}
        #: "module.attr" of every wrapped name that no longer exists
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._feas_tol = feas_tol

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + value

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def _enter(self) -> float:
        self._stack.append([0.0])
        return perf_counter()

    def _exit(self, name: str, start: float) -> float:
        elapsed = perf_counter() - start
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - children
        return elapsed

    @contextmanager
    def span(self, name: str):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, name, fn, observe=None):
        """`fn` inside a span; `observe(result, seconds)` sees each result."""

        def traced(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._exit(name, start)
            if observe is not None:
                observe(result, elapsed)
            return result

        return traced

    def _minimize(self, fn):
        def traced(*args, **kwargs):
            method = str(kwargs.get("method", "")).lower()
            name = MINIMIZE_SPANS.get(method, "solver.minimize_other")
            return self.wrap(name, fn)(*args, **kwargs)

        return traced

    def _observe_programs(self, result, _seconds):
        self.add("builder.programs", len(result))

    def _observe_nlp(self, solution, seconds):
        status = getattr(solution, "status", "unknown")
        self.add(f"solver.programs_{status}")
        if status != "converged":
            self.add("solver.wasted_s", seconds)

    def _observe_propagate(self, trajectory, _seconds):
        # the solver accepts a converged program only when its schedule
        # lands within 10x the feasibility tolerance of the origin
        terminal = getattr(trajectory, "terminal_state", ())
        if max((abs(float(v)) for v in terminal), default=0.0) > 10.0 * self._feas_tol:
            self.add("simulate.rejected")

    def targets(self):
        """(module, attribute, span name, observer) of every wrapped name."""
        return [
            ("timefuel.solver", "build_all", "builder.build", self._observe_programs),
            ("timefuel.builder", "enumerate_candidates", "sequences.enumerate", None),
            ("timefuel.solver", "solve_nlp", "solver.solve_nlp", self._observe_nlp),
            ("timefuel.solver", "schedule_from_times", "simulate.schedule", None),
            ("timefuel.solver", "propagate", "simulate.propagate", self._observe_propagate),
            ("timefuel.solver", "evaluate_cost", "simulate.evaluate_cost", None),
        ]

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        saved = []
        self.absent = []
        try:
            for module_name, attr, name, observe in self.targets():
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), observe))
            solver = importlib.import_module("timefuel.solver")
            if hasattr(solver, "minimize"):
                saved.append((solver, "minimize", solver.minimize))
                solver.minimize = self._minimize(solver.minimize)
            else:
                self.absent.append("timefuel.solver.minimize")
            instance_cls = getattr(importlib.import_module("timefuel"), "NlpInstance", None)
            for attr, name in (
                ("constraint_residuals", "builder.residuals"),
                ("constraint_jacobian", "builder.jacobian"),
            ):
                if instance_cls is None or not hasattr(instance_cls, attr):
                    self.absent.append(f"timefuel.NlpInstance.{attr}")
                    continue
                saved.append((instance_cls, attr, instance_cls.__dict__.get(attr)))
                setattr(instance_cls, attr, self.wrap(name, getattr(instance_cls, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)  # it was inherited
                else:
                    setattr(owner, attr, original)
