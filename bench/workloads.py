"""Problem sets of the benchmark workloads, built without the package.

Each workload is a fixed list of problem-file dicts (exact integer
eigenvalue pairs), drawn once from a fixed generator key, so the inputs are
the same on every commit.  Reachable initial states come from this file's
own closed form of the reachability map, and returned schedules are
re-propagated with this file's own closed form, so a defect in
`timefuel.simulate` cannot pass its own check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

#: Published second-order table (acceptance criterion 01):
#: k -> optimal cost, lambda = -1, -2, x0 = [0.6, 0.4].
REFERENCE_COSTS = {0.5: 1.2959, 1.0: 1.8940, 2.0: 3.0025, 3.0: 4.0752}
#: Absolute tolerance the acceptance suite applies to the table.
REFERENCE_TOL = 5e-3

#: Order-4 problem of the solver tests (eigenvalues -1..-4).
HIGHER_ORDER_X0 = [0.1, 0.2, 0.4, 0.5]
#: Feasible order-4 problem the 16-start solver reports as infeasible; a
#: discretized fixed-horizon LP reaches it at cost ~1.9462.
COUNTEREXAMPLE_X0 = [0.2, 0.15, 0.1, 0.05]
COUNTEREXAMPLE_COST = 1.9462

#: Free draws after the two fixed problems of `stable_free`.
STABLE_DRAWS = 2
#: Problems in `mixed_built`, every fourth one unreachable.
MIXED_PROBLEMS = 4

#: Terminal-state tolerance of a verified schedule: the solver accepts
#: 10x its default feasibility tolerance of 1e-8.
TERMINAL_TOL = 1e-7
#: Relative tolerance on the reported cost against k * t_f + on.
COST_REL_TOL = 1e-9
#: Relative slack on a cost bound that comes from a generating schedule.
BOUND_REL_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    """One problem and what a correct answer must satisfy."""

    name: str
    problem: dict
    feasible: bool
    #: Upper bound on the optimal cost, or None when none is known.
    cost_bound: Optional[float] = None
    #: Absolute slack allowed above `cost_bound`.
    cost_slack: float = 0.0


def _spec(eigenvalues, x0, k, **extra) -> dict:
    problem = {
        "eigenvalues": [[int(c), 1] for c in eigenvalues],
        "b": [1] * len(eigenvalues),
        "x0": [float(v) for v in x0],
        "k": k,
    }
    problem.update(extra)
    return problem


def reach_x0(eigenvalues, gains, breakpoints, levels) -> list[float]:
    """Initial state that the schedule transfers to the origin.

    x0_i = -(b_i / lam_i) * sum_j v_j (e^(-lam_i t_j) - e^(-lam_i t_(j+1))).
    """
    out = []
    for lam, b in zip(eigenvalues, gains):
        acc = 0.0
        for j, v in enumerate(levels):
            if v:
                t0, t1 = breakpoints[j], breakpoints[j + 1]
                acc += v * (math.exp(-lam * t0) - math.exp(-lam * t1))
        out.append(-(b / lam) * acc)
    return out


def terminal_state(eigenvalues, gains, x0, breakpoints, levels) -> list[float]:
    """State at the end of the schedule, segment by segment in closed form."""
    out = []
    for lam, b, x in zip(eigenvalues, gains, x0):
        for j, v in enumerate(levels):
            dt = breakpoints[j + 1] - breakpoints[j]
            x = math.exp(lam * dt) * x + v * b * math.expm1(lam * dt) / lam
        out.append(x)
    return out


def _crossings(levels) -> tuple[int, int]:
    p = q = 0
    for a, b in zip(levels, levels[1:]):
        nonzero = a or b
        if nonzero == 1:
            q += 1
        elif nonzero == -1:
            p += 1
    return p, q


def _admissible_schedule(rng: random.Random, n: int):
    """Bangs separated by off periods, at most n crossings on each side."""
    while True:
        levels = [0] if rng.random() < 0.5 else []
        bangs = rng.randint(1, 3)
        for i in range(bangs):
            levels.append(rng.choice((-1, 1)))
            if i + 1 < bangs:
                levels.append(0)
        if max(_crossings(levels)) <= n:
            break
    breakpoints = [0.0]
    for _ in levels:
        breakpoints.append(breakpoints[-1] + rng.uniform(0.05, 0.4))
    return breakpoints, levels


def _rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{index}")


def ref2() -> list[Case]:
    """The README reference system over the published k and switch budgets."""
    cases = [
        Case(f"ref2-k{k:g}", _spec((-1, -2), (0.6, 0.4), k), True, cost, REFERENCE_TOL)
        for k, cost in REFERENCE_COSTS.items()
    ]
    cases += [
        Case(
            f"ref2-k1-ms{ms}",
            _spec((-1, -2), (0.6, 0.4), 1, max_switches=ms),
            True,
            REFERENCE_COSTS[1.0],
            REFERENCE_TOL,
        )
        for ms in (2, 3)
    ]
    return cases


def stable_free() -> list[Case]:
    """Stable spectra with x0 drawn freely: every problem is feasible.

    The two fixed order-4 problems plus free draws of orders 3 and 4.
    """
    cases = [
        Case("stable-higher-order", _spec((-1, -2, -3, -4), HIGHER_ORDER_X0, 1), True),
        Case(
            "stable-counterexample",
            _spec((-1, -2, -3, -4), COUNTEREXAMPLE_X0, 1),
            True,
            COUNTEREXAMPLE_COST,
            REFERENCE_TOL,
        ),
    ]
    for index in range(STABLE_DRAWS):
        rng = _rng("stable_free", index)
        n = 3 + index % 2
        eig = sorted(rng.sample(range(1, 7), n))
        x0 = [round(rng.uniform(-0.5, 0.5), 4) for _ in range(n)]
        cases.append(Case(f"stable-{index}", _spec([-c for c in eig], x0, 1), True))
    return cases


def mixed_built() -> list[Case]:
    """Mixed stable/unstable spectra; every fourth problem is unreachable.

    Reachable problems are of order 3, unreachable ones of order 4.  A
    reachable x0 is the image of a random admissible schedule, whose cost
    bounds the optimum.  An unreachable x0 puts one unstable component past
    |b_i / lam_i|, the supremum of what any input can cancel.
    """
    cases = []
    for index in range(MIXED_PROBLEMS):
        rng = _rng("mixed_built", index)
        n = 4 if index % 4 == 3 else 3
        while True:
            eig = rng.sample([-4, -3, -2, -1, 1, 2, 3], n)
            if min(eig) < 0 < max(eig):
                break
        name = f"mixed-{index}"
        if index % 4 == 3:
            x0 = [round(rng.uniform(-0.3, 0.3), 4) for _ in range(n)]
            i = rng.choice([j for j, c in enumerate(eig) if c > 0])
            x0[i] = rng.choice((-1, 1)) * round(rng.uniform(1.05, 1.5) / eig[i], 4)
            cases.append(Case(name, _spec(eig, x0, 1), False))
        else:
            bp, levels = _admissible_schedule(rng, n)
            x0 = reach_x0(eig, [1.0] * n, bp, levels)
            on = sum(bp[j + 1] - bp[j] for j, v in enumerate(levels) if v)
            cases.append(Case(name, _spec(eig, x0, 1), True, bp[-1] + on))
    return cases


WORKLOADS = {"ref2": ref2, "stable_free": stable_free, "mixed_built": mixed_built}
