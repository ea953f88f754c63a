"""Exact propagation of the diagonal system under piecewise-constant input.

Everything here is closed form: per segment with constant input u and
eigenvalue lam, x(t0 + dt) = e^(lam dt) x(t0) + u b (e^(lam dt) - 1)/lam.
The module doubles as the independent verification oracle for the problem
builder and the solver: `reachability_x0` is the reference the fused kernel
is tested against, and `lp_oracle` gives a global reference cost at any
order from fixed-horizon linear programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog, minimize_scalar

from .builder import EXP_CLIP
from .model import LtiSystem, ProblemSpec, _is_bool

#: Segments shorter than this are treated as zero length when condensing.
COLLAPSE_TOL = 1e-6

#: Equal input cells of one `lp_oracle` linear program, and of its coarse
#: ones (a divisor, so that every coarse input is also a fine one).
LP_CELLS = 400
LP_COARSE_CELLS = 100

#: `lp_oracle` refuses only when the LPs at t_max and at LP_CONFIRM halved
#: horizons are infeasible, brackets the shortest feasible horizon to
#: LP_BRACKET relative width in at most LP_HALVINGS halvings (x0 = 0 takes
#: them all), then scans LP_SCAN coarse horizons from it.
LP_CONFIRM = 6
LP_BRACKET = 0.01
LP_HALVINGS = 40
LP_SCAN = 20


class InvalidScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant input: levels[i] holds on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: tuple[float, ...]
    levels: tuple[int, ...]

    def __post_init__(self):
        bp, lv = self.breakpoints, self.levels
        if not bp or bp[0] != 0.0:
            raise InvalidScheduleError("breakpoints must start at 0")
        if len(lv) != len(bp) - 1:
            raise InvalidScheduleError(
                f"{len(lv)} levels for {len(bp)} breakpoints"
            )
        if not all(math.isfinite(b) for b in bp):
            raise InvalidScheduleError("breakpoints must be finite")
        if any(b >= a for a, b in zip(bp[1:], bp)):
            raise InvalidScheduleError("breakpoints must increase strictly")
        # JSON true is a Python bool, which equals 1
        if any(v not in (-1, 0, 1) or _is_bool(v) for v in lv):
            raise InvalidScheduleError("levels must lie in {-1, 0, +1}")
        if any(a == b for a, b in zip(lv, lv[1:])):
            raise InvalidScheduleError("adjacent intervals must differ in level")
        if lv and lv[-1] == 0:
            raise InvalidScheduleError("final level must be nonzero")

    @classmethod
    def empty(cls) -> "SwitchingSchedule":
        return cls((0.0,), ())

    @property
    def final_time(self) -> float:
        return self.breakpoints[-1]

    @property
    def durations(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    @property
    def switch_count(self) -> int:
        return max(len(self.levels) - 1, 0)


def schedule_from_times(levels: Sequence[int], times: Sequence[float]) -> SwitchingSchedule:
    """Condense template levels and segment end times into a schedule.

    A segment at the level of the last kept one extends it, whatever its
    length, so the condensed schedule keeps a tail that zero-length
    segments split off; any other segment shorter than `COLLAPSE_TOL` is
    dropped.  Trailing zero segments are cut (a trailing off period moves
    the final time but not the transferred state).
    """
    times = [float(t) for t in times]
    if len(times) != len(levels):
        raise InvalidScheduleError("one end time per template level required")
    if any(b < a - 1e-12 for a, b in zip([0.0] + times, times)):
        raise InvalidScheduleError("times must be nondecreasing")
    merged: list[tuple[int, float, float]] = []
    start = 0.0
    for level, end in zip(levels, times):
        end = max(end, start)
        if merged and merged[-1][0] == level:
            merged[-1] = (level, merged[-1][1], end)
        elif end - start >= COLLAPSE_TOL:
            merged.append((int(level), start, end))
        start = end
    while merged and merged[-1][0] == 0:
        merged.pop()
    if not merged:
        return SwitchingSchedule.empty()
    bp = [0.0]
    lv = []
    for level, seg_start, seg_end in merged:
        lv.append(level)
        bp.append(bp[-1] + (seg_end - seg_start))
    return SwitchingSchedule(tuple(bp), tuple(lv))


@dataclass(frozen=True)
class Trajectory:
    """Sampled state history; samples include every schedule breakpoint."""

    sample_times: np.ndarray
    states: np.ndarray
    terminal_state: np.ndarray


def _pulse(lam: np.ndarray, dt: float) -> np.ndarray:
    # (e^(lam dt) - 1) / lam, with the lam -> 0 limit dt
    out = np.empty_like(lam)
    nz = lam != 0.0
    out[nz] = np.expm1(lam[nz] * dt) / lam[nz]
    out[~nz] = dt
    return out


def propagate(
    system: LtiSystem,
    x0: Sequence[float],
    schedule: SwitchingSchedule,
    samples_per_segment: int = 1,
) -> Trajectory:
    """Closed-form state evolution of the schedule from x0 (no ODE stepping)."""
    if _is_bool(samples_per_segment) or samples_per_segment < 1:
        raise ValueError("samples_per_segment must be an integer of at least 1")
    lam = system.eigenvalues
    b = system.gains
    x = np.array(x0, dtype=float)
    if x.shape != (system.order,):
        raise InvalidScheduleError(
            f"x0 has shape {x.shape}, expected ({system.order},)"
        )
    ts = [0.0]
    xs = [x.copy()]
    bp = schedule.breakpoints
    for i, level in enumerate(schedule.levels):
        seg = bp[i + 1] - bp[i]
        for s in range(1, samples_per_segment + 1):
            dt = seg * s / samples_per_segment
            xi = np.exp(lam * dt) * x + level * b * _pulse(lam, dt)
            ts.append(bp[i] + dt)
            xs.append(xi)
        x = xs[-1]
    return Trajectory(np.asarray(ts), np.vstack(xs), xs[-1])


def reachability_x0(system: LtiSystem, schedule: SwitchingSchedule) -> np.ndarray:
    """The unique initial state the schedule transfers to the origin.

    Component-wise closed form of -integral(e^(-lam t) b u(t) dt) over the
    schedule; a zero-level segment contributes nothing.
    """
    lam = system.eigenvalues
    b = system.gains
    acc = np.zeros(system.order)
    bp = schedule.breakpoints
    for i, level in enumerate(schedule.levels):
        if level == 0:
            continue
        t0, t1 = bp[i], bp[i + 1]
        # e^(-lam t0) - e^(-lam t1) = -e^(-lam t0) expm1(-lam (t1 - t0))
        head = np.exp(np.clip(-lam * t0, -EXP_CLIP, EXP_CLIP))
        acc += level * (-head) * np.expm1(np.clip(-lam * (t1 - t0), -EXP_CLIP, EXP_CLIP))
    return -(b / lam) * acc


def evaluate_cost(schedule: SwitchingSchedule, k: float) -> tuple[float, float, float]:
    """(total cost, on-duration, sparsity) of a schedule under time weight k.

    Cost is k*t_f plus the time the input is nonzero; sparsity is the off
    fraction of the horizon, defined as 1 for the empty schedule.
    """
    if not schedule.levels:
        return 0.0, 0.0, 1.0
    t_f = schedule.final_time
    on = float(
        sum(
            schedule.breakpoints[i + 1] - schedule.breakpoints[i]
            for i, v in enumerate(schedule.levels)
            if v != 0
        )
    )
    return k * t_f + on, on, 1.0 - on / t_f


def _lp_transfer(spec: ProblemSpec, horizon: float, n_cells: int = LP_CELLS):
    """(k*T plus the least fuel, cell inputs) of the transfer at T = horizon.

    The input is constant on n_cells equal cells with |u| <= 1, written as
    u = u+ - u- so that the fuel is linear.  Returns (inf, None) when no
    such input reaches the origin at T.
    """
    lam = spec.system.eigenvalues
    b = spec.system.gains
    h = horizon / n_cells
    starts = h * np.arange(n_cells)
    # row i: x0_i + sum_j u_j b_i int_{cell j} e^(-lam_i s) ds = 0, scaled by
    # e^(min(lam_i, 0) T) so that no entry grows with the horizon
    shift = np.minimum(lam, 0.0) * horizon
    cells = -(b / lam * np.expm1(-lam * h))[:, None] * np.exp(
        shift[:, None] - np.outer(lam, starts)
    )
    result = linprog(
        np.full(2 * n_cells, h),
        A_eq=np.hstack([cells, -cells]),
        b_eq=-spec.x0 * np.exp(shift),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.status != 0:
        return math.inf, None
    return spec.k * horizon + result.fun, result.x[:n_cells] - result.x[n_cells:]


def lp_oracle(
    spec: ProblemSpec, t_max: float
) -> Optional[tuple[float, float, np.ndarray]]:
    """Global reference (cost, horizon, cell inputs) at any order.

    At a fixed horizon T the least-fuel transfer over inputs constant on
    equal cells is a linear program (the L1/LP link of maximum hands-off
    control).  For continuous inputs feasibility is monotone in T, since the
    input can idle at the origin; on the cell grid it is only roughly so:
    the cells are coarsest at t_max, at times too coarse for a fast mode
    that the finer cells of a shorter horizon serve.  So the result is None
    only when the LPs at t_max, t_max / 2, ..., t_max / 2^LP_CONFIRM are all
    infeasible.  Otherwise LPs bisect below the first feasible one for the
    shortest feasible horizon T_f, and since J(T) >= k*T, LP_SCAN coarse
    horizons from T_f to min(t_max, J(T_f)/k) plus a bounded 1-D refinement
    around the best one minimize k*T + fuel(T); the inputs are those of the
    horizon that gave it.  The
    cell grid only restricts the input, so up to HiGHS's feasibility
    tolerance the cost lies above the optimum, by the discretization error.
    Shares nothing with the solver.
    """
    if _is_bool(t_max) or not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    hi = t_max
    cost = _lp_transfer(spec, hi)[0]
    for _ in range(LP_CONFIRM):
        if math.isfinite(cost):
            break
        hi *= 0.5
        cost = _lp_transfer(spec, hi)[0]
    if not math.isfinite(cost):
        return None
    lo = 0.0
    for _ in range(LP_HALVINGS):
        if hi - lo <= LP_BRACKET * hi:
            break
        mid = 0.5 * (lo + hi)
        mid_cost = _lp_transfer(spec, mid)[0]
        if math.isfinite(mid_cost):
            hi, cost = mid, mid_cost
        else:
            lo = mid
    grid = np.linspace(hi, min(t_max, cost / spec.k), LP_SCAN)
    costs = [cost] + [_lp_transfer(spec, T, LP_COARSE_CELLS)[0] for T in grid[1:]]
    i = int(np.argmin(costs))
    # the bounded search needs finite values: infeasible horizons read as a
    # penalty above every feasible cost (at most (k + 1) t_max) falling toward
    # longer ones; below the scan it starts at 0, as fine cells reach sooner
    refined = minimize_scalar(
        lambda T: min(_lp_transfer(spec, T)[0], (spec.k + 2.0) * t_max - T),
        bounds=(grid[i - 1] if i else 0.0, grid[min(i + 1, LP_SCAN - 1)]),
        method="bounded",
    )
    horizon = float(refined.x if refined.fun < costs[i] else grid[i])
    cost, inputs = _lp_transfer(spec, horizon)
    return cost, horizon, inputs
