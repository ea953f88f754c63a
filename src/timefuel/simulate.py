"""Exact propagation of the diagonal system under piecewise-constant input.

Everything here is closed form: per segment with constant input u and
eigenvalue lam, x(t0 + dt) = e^(lam dt) x(t0) + u b (e^(lam dt) - 1)/lam.
The module doubles as the independent verification oracle for the problem
builder and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .builder import EXP_CLIP, reach_kernel
from .model import LtiSystem, ProblemSpec
from .sequences import CandidateSequence, OrderTooLargeError

#: Segments shorter than this are treated as zero length when condensing.
COLLAPSE_TOL = 1e-6


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
        if any(b >= a for a, b in zip(bp[1:], bp)):
            raise InvalidScheduleError("breakpoints must increase strictly")
        if any(v not in (-1, 0, 1) for v in lv):
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

    def sequence(self) -> Optional[CandidateSequence]:
        if not self.levels:
            return None
        return CandidateSequence.from_levels(self.levels)


def schedule_from_times(
    levels: Sequence[int],
    times: Sequence[float],
    collapse_tol: float = COLLAPSE_TOL,
) -> SwitchingSchedule:
    """Condense template levels and segment end times into a schedule.

    Segments shorter than collapse_tol are dropped, adjacent equal levels are
    merged, and trailing zero segments are cut (a trailing off period moves
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
        if end - start >= collapse_tol:
            if merged and merged[-1][0] == level:
                merged[-1] = (level, merged[-1][1], end)
            else:
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
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be at least 1")
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


def _project_batch(lam, b, levels, x0, times, t_max, sweeps=3):
    # damped Gauss-Newton sweeps pulling each time vector toward the
    # reachability manifold; keeps points inside the monotone box
    pts = times.copy()
    n = len(lam)
    for _ in range(sweeps):
        reach, A = reach_kernel(lam, b, levels, pts)
        r = reach - x0
        gram = A @ A.transpose(0, 2, 1)
        damp = 1e-10 * (1.0 + np.trace(gram, axis1=1, axis2=2))
        gram = gram + damp[:, None, None] * np.eye(n)[None, :, :]
        try:
            y = np.linalg.solve(gram, r[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return pts
        step = -(A.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]
        pts = np.clip(pts + step, 0.0, t_max)
        pts = np.maximum.accumulate(pts, axis=1)
    return pts


def _tangent_walkers(lam, b, levels, pts, t_max, h):
    # walk snapped points along the manifold's tangent space at several
    # ranges; projection next level pulls the walkers back onto it
    n = len(lam)
    K = pts.shape[1]
    if K <= n:
        return np.empty((0, K))
    A = reach_kernel(lam, b, levels, pts)[1]
    try:
        _, _, vh = np.linalg.svd(A)
    except np.linalg.LinAlgError:
        return np.empty((0, K))
    tangents = vh[:, n:, :]  # (m, K - n, K)
    reaches = np.array([1.0, 3.0, 9.0, 27.0]) * h
    steps = tangents[:, :, None, :] * reaches[None, None, :, None]
    walked = pts[:, None, None, :] + np.concatenate([steps, -steps], axis=2)
    walked = np.clip(walked.reshape(-1, K), 0.0, t_max)
    return np.maximum.accumulate(walked, axis=1)


def _cost_batch(levels, times, k):
    t = np.concatenate([np.zeros((times.shape[0], 1)), times], axis=1)
    gaps = np.diff(t, axis=1)
    w = np.array([k + (1.0 if v else 0.0) for v in levels])
    return gaps @ w


def grid_oracle(
    spec: ProblemSpec,
    sequence: CandidateSequence,
    grid_step: float,
    t_max: Optional[float] = None,
    beam: int = 256,
    coarse: int = 24,
) -> Optional[tuple[float, np.ndarray]]:
    """Brute-force cost oracle for low-order problems.

    Searches switching-time grids on [0, t_max] for the given sequence,
    testing feasibility by proximity of the transferred state to x0 (final
    tolerance 10x grid_step) and refining the grid around the most promising
    points until the step falls below grid_step / 10.  Each refinement level
    also pulls its retained points onto the feasible manifold with a few
    damped Gauss-Newton sweeps of the reachability map, so the feasible
    channel stays populated whatever the local sensitivity; the returned
    point always passes the plain state-space proximity test.  Returns
    (best cost, times) or None when nothing is feasible at the final
    tolerance.  Shares only the closed-form reachability map with the
    solver, none of its optimization machinery.
    """
    if spec.order > 2:
        raise OrderTooLargeError("grid oracle supports orders 1 and 2 only")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    lam = spec.system.eigenvalues
    b = spec.system.gains
    x0 = spec.x0
    if t_max is None:
        l = spec.system.spectrum.common_denominator
        t_max = 50.0 * l / min(abs(c) for c in spec.system.spectrum.scaled_numerators)
    levels = sequence.levels
    K = len(levels)
    pts = np.array(
        list(combinations_with_replacement(np.linspace(0.0, t_max, coarse + 1), K))
    )
    h = t_max / coarse
    h_final = grid_step / 10.0
    feas_tol = 10.0 * grid_step
    # points this close to the manifold carry no membership slack worth
    # correcting for; prefer them when any exist
    tight_tol = min(1e-8, feas_tol)
    incumbent = None
    tight_incumbent = None
    while True:
        reach = reach_kernel(lam, b, levels, pts, jacobian=False)[0]
        res = np.max(np.abs(reach - x0), axis=1)
        cost = _cost_batch(levels, pts, spec.k)
        feasible = res <= feas_tol
        if feasible.any():
            i = int(np.argmin(np.where(feasible, cost, np.inf)))
            if incumbent is None or cost[i] < incumbent[0]:
                incumbent = (float(cost[i]), pts[i].copy())
        tight = res <= tight_tol
        if tight.any():
            i = int(np.argmin(np.where(tight, cost, np.inf)))
            if tight_incumbent is None or cost[i] < tight_incumbent[0]:
                tight_incumbent = (float(cost[i]), pts[i].copy())
        if h <= h_final:
            return tight_incumbent if tight_incumbent is not None else incumbent
        # retention channels: feasible points by cost, near-feasible points
        # by cost, and the closest-to-feasible points
        slice_size = beam // 3

        def cheapest(mask):
            ranked = np.argsort(np.where(mask, cost, np.inf), kind="stable")
            return ranked[: min(slice_size, int(mask.sum()))]

        strict = cheapest(tight | (res <= feas_tol))
        loose = cheapest(res <= 10.0 * h)
        closest = np.argsort(res, kind="stable")[:slice_size]
        keep = np.unique(np.concatenate([strict, loose, closest]))
        h_next = max(h / 2.0, h_final)
        offsets = np.array(
            np.meshgrid(*([np.arange(-1, 2) * h_next] * K), indexing="ij")
        ).reshape(K, -1).T
        cand = (pts[keep][:, None, :] + offsets[None, :, :]).reshape(-1, K)
        cand = np.clip(cand, 0.0, t_max)
        cand = np.maximum.accumulate(cand, axis=1)
        snapped = _project_batch(lam, b, levels, x0, pts[keep], t_max)
        walkers = _tangent_walkers(lam, b, levels, snapped, t_max, h_next)
        pts = np.unique(np.concatenate([cand, snapped, walkers]), axis=0)
        h = h_next
