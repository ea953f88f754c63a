"""Exact propagation of the diagonal system under piecewise-constant input.

Everything here is closed form: per segment with constant input u and
eigenvalue lam, x(t0 + dt) = e^(lam dt) x(t0) + u b (e^(lam dt) - 1)/lam.
The module doubles as the independent verification oracle for the problem
builder and the solver: `reachability_x0` is the reference the fused kernel
is tested against, `lp_oracle` gives a global reference cost at any
order from fixed-horizon linear programs, and `null_certificate` proves,
where it can, that no horizon reaches the origin.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .builder import EXP_CLIP
from .model import LtiSystem, ProblemSpec, _is_bool, _is_int

#: Segments shorter than this are zero length, when condensing and to the solver.
COLLAPSE_TOL = 1e-9

#: Equal input cells of one `lp_oracle` linear program.
LP_CELLS = 400

#: Relative gap between the lesser end cost of `lp_oracle`'s bracket and
#: where the end tangents meet, under which its search stops.
GAP_TOL = 1e-5

#: Input cells of the `null_certificate` gauge LP, equal in e^(-lam s) of the
#: slowest unstable mode, so that they cover [0, inf).
GAUGE_CELLS = 64


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
    segments split off; any other segment shorter than `COLLAPSE_TOL`, the
    zero length the solver's polish snaps to 0, is dropped.  Trailing off
    segments are cut: they move the final time, not the transferred state.
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


def propagate(
    system: LtiSystem,
    x0: Sequence[float],
    schedule: SwitchingSchedule,
    samples_per_segment: int = 1,
) -> Trajectory:
    """Closed-form state evolution of the schedule from x0 (no ODE stepping)."""
    if not _is_int(samples_per_segment) or samples_per_segment < 1:
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
            xi = np.exp(lam * dt) * x + level * b * (np.expm1(lam * dt) / lam)
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


#: `highs`: the HiGHS instance of `_dense_lp` in this thread.
_LOCAL = threading.local()


def _dense_lp(costs, lower, upper, rows: np.ndarray, target: np.ndarray):
    """HiGHS, run on min costs . x subject to rows x = target and lower <= x
    <= upper.  Two calls build the LP, `addCols` with the costs and bounds
    and `addRows` with the dense rows as numpy arrays, and one run solves it
    with presolve off: on a few dense rows presolve costs more than the
    simplex it saves.  The calls of one thread reuse one instance, its
    options set once and its model cleared before each build, and each
    returns it: each caller reads its results before its next call
    replaces them."""
    highs = getattr(_LOCAL, "highs", None)
    if highs is None:
        highs = _LOCAL.highs = _Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
    highs.clearModel()
    highs.addCols(len(costs), costs, lower, upper, 0, [], [], [])
    # the dense rows, row-wise: row i's entries start at index i * columns
    values = rows.ravel()
    index = np.arange(values.size, dtype=np.int32)
    starts = index[:: rows.shape[1]]
    highs.addRows(len(rows), target, target, values.size, starts, index % rows.shape[1], values)
    highs.run()
    return highs


def _farkas(cells: np.ndarray, target: np.ndarray) -> bool:
    """Whether a Farkas certificate shows that no |u| <= 1 has cells @ u =
    target, r outside the zonotope of the columns A_j of A = cells.  With
    z = (A A^T)^-1 r, the least-squares dual, y = z / (r . z) has r . y = 1,
    while no A u with |u| <= 1 has y . A u above sum_j |A_j . y|: so r is
    outside when that sum, plus a bound on its rounding, is below 1 - 1e-6.
    The margin leaves HiGHS the LPs at its feasibility tolerance: where one
    bang reaches the origin in the least time, x0 is a vertex of the
    zonotope and the sum is 1 less a few ulps.  A singular A A^T, as at
    x0 = 0 and T = 0, proves nothing."""
    try:
        z = np.linalg.solve(cells @ cells.T, target)
    except np.linalg.LinAlgError:
        return False
    rounding = 1e-12 * (np.abs(z) @ np.abs(cells).sum(axis=1) + np.abs(z) @ np.abs(target))
    return bool(np.abs(z @ cells).sum() + rounding < (1.0 - 1e-6) * (target @ z))


def _row_shift(spec: ProblemSpec, horizon: float) -> np.ndarray:
    """min(lam, 0) * horizon, the log of the row scale under which no entry
    of a reach row grows with the horizon: `_lp_transfer` scales its rows by
    its exponential, and the solver the residuals of the programs the LP at
    that horizon seeds."""
    return np.minimum(spec.system.eigenvalues, 0.0) * horizon


def _lp_transfer(spec: ProblemSpec, horizon: float):
    """(J = k*T plus the least fuel, cell inputs, dJ/dT) of the transfer at
    T = horizon.

    The input is constant on LP_CELLS equal cells with |u| <= 1, written as
    u = u+ - u- so that the fuel is linear, and `_dense_lp` solves it,
    unless `_farkas` proves first that no such input reaches the target.
    dJ/dT is the LP's envelope derivative: dL/dT at the optimum of the
    Lagrangian L = k*T + (T / LP_CELLS) sum(u+ + u-) - y . (A u - r), with
    y the row duals, A the cell rows and r the target, both differentiated
    in closed form; where J has a kink it is one of the one-sided slopes.
    Returns (inf, None, -inf) when the Farkas screen refuses the LP or
    HiGHS reports no optimum, as when no such input reaches the origin at T.
    """
    lam = spec.system.eigenvalues
    b = spec.system.gains
    h = horizon / LP_CELLS
    # row i: x0_i + sum_j u_j b_i int_{cell j} e^(-lam_i s) ds = 0, scaled by
    # e^(min(lam_i, 0) T) (`_row_shift`); edges[i, j] is that scale times
    # e^(-lam_i s) at the start of cell j
    shift = _row_shift(spec, horizon)
    edges = np.exp(shift[:, None] - np.outer(lam, h * np.arange(LP_CELLS + 1)))
    cells = -(b / lam * np.expm1(-lam * h))[:, None] * edges[:, :-1]
    target = -spec.x0 * np.exp(shift)
    if _farkas(cells, target):
        return math.inf, None, -math.inf
    cols = 2 * LP_CELLS
    highs = _dense_lp(
        np.full(cols, h), np.zeros(cols), np.ones(cols), np.hstack([cells, -cells]), target
    )
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        return math.inf, None, -math.inf
    fuel = highs.getInfo().objective_function_value
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    u = x[:LP_CELLS] - x[LP_CELLS:]
    # cell j spans [j, j + 1] T / LP_CELLS, so dA_ij/dT is b_i times the
    # difference of s/T e^(-lam_i s) between its ends, plus min(lam_i, 0) A_ij,
    # which cancels against dr_i/dT = min(lam_i, 0) r_i where A u = r
    tilt = np.diff(edges * (np.arange(LP_CELLS + 1) / LP_CELLS), axis=1)
    slope = spec.k + x.sum() / LP_CELLS - np.array(solution.row_dual) @ (b * (tilt @ u))
    return spec.k * horizon + fuel, u, float(slope)


def _time_bound(spec: ProblemSpec) -> float:
    """A lower bound on the minimum time: the longest of the modes' own
    minimum times, each mode steered alone by one full bang,
    ln(1 + |lam x0 / b|) / |lam| when stable and -ln(1 - lam |x0 / b|) / lam
    when unstable; inf when an unstable mode alone is out of reach."""
    lam = spec.system.eigenvalues
    reach = lam * np.abs(spec.x0 / spec.system.gains)
    if np.any(reach >= 1.0):
        return math.inf
    return float(np.max(-np.log1p(-reach) / lam, initial=0.0))


def lp_oracle(
    spec: ProblemSpec, t_max: float
) -> Optional[tuple[float, float, np.ndarray]]:
    """Global reference (cost, horizon, cell inputs) at any order.

    At a fixed horizon T the least-fuel transfer over inputs constant on
    equal cells is a linear program (the L1/LP link of maximum hands-off
    control), and `_lp_transfer` gives its cost J(T) = k*T + fuel(T) and
    slope dJ/dT.  The search starts at `_time_bound`, below which no input
    reaches the origin, at no LP's cost, and doubles the horizon, up to
    t_max, until an LP is feasible and J stops falling (dJ/dT >= 0).  The
    cells coarsen as T grows, so near the reachability boundary the
    feasible horizons need not form an interval, and the doubling can step
    over all of them: when t_max is infeasible too, the 62 horizons strictly
    between the bound and t_max of a 64-point geometric ladder from one to
    the other are solved, with no refinement.  The result is None only when
    no horizon tried is feasible.  Inside
    the bracket of the last two horizons, each step goes to the minimum of
    the cubic through both ends' values and slopes (Nocedal & Wright,
    Numerical Optimization, 2006, eq. 3.59), kept half the stop width from
    either end, or to the midpoint when the left end is infeasible or the
    last two steps did not halve the bracket; a step whose LP is infeasible
    or whose J still falls replaces the left end, any other the right.  The
    search stops at a relative width of 1e-4, or, with the left end
    feasible, once the lesser end cost lies within `GAP_TOL` of the J where
    the end tangents meet: with J convex there, no horizon between the ends
    costs less than that.  The cells move with T, so J is jagged, with
    kinks, and the search local.  The inputs are those
    of the least cost of every horizon solved, kept from its solve.  The cell
    grid only restricts the input, so up to HiGHS's feasibility tolerance
    the cost lies above the optimum, by the discretization error.  An
    infeasible probe costs no HiGHS run when `_farkas` proves it so, which
    changes no horizon the search solves and no result.  Shares nothing
    with the solver but the row scale of `_row_shift`.
    """
    if _is_bool(t_max) or not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    T = _time_bound(spec)
    if not T < t_max:
        return None
    solved = []

    def solve(T):
        solved.append((T, *_lp_transfer(spec, T)))
        return solved[-1]

    # points (T, J, inputs, dJ/dT); the slope of an infeasible LP is -inf
    lo, hi = None, solve(T)
    while hi[3] < 0.0 and hi[0] < t_max:
        lo, hi = hi, solve(min(2.0 * hi[0], t_max))
    if hi[3] == -math.inf and T > 0.0:
        # both ends are solved already
        for scanned in np.geomspace(T, t_max, 64)[1:-1]:
            solve(scanned)
    old = older = math.inf
    while lo and hi[3] >= 0.0 and (width := hi[0] - lo[0]) > 1e-4 * hi[0]:
        (a, j_a, _, s_a), (b, j_b, _, s_b) = lo, hi
        if s_a > -math.inf:
            # J where the end tangents meet, s_a < 0 <= s_b
            floor = j_a + s_a * (j_b - j_a - s_b * width) / (s_a - s_b)
            if min(j_a, j_b) - floor <= GAP_TOL * min(j_a, j_b):
                break
        step = 0.5 * (a + b)
        if s_a > -math.inf and width <= 0.5 * older:
            d1 = s_a + s_b - 3.0 * (j_b - j_a) / width
            d2 = math.sqrt(d1 * d1 - s_a * s_b)
            step = b - width * (s_b + d2 - d1) / (s_b - s_a + 2.0 * d2)
            step = min(max(step, a + 0.5e-4 * b), b - 0.5e-4 * b)
        mid = solve(step)
        lo, hi = (mid, hi) if mid[3] < 0.0 else (lo, mid)
        old, older = width, old
    T, cost, inputs, _slope = min(solved, key=lambda point: point[1])
    return None if inputs is None else (cost, T, inputs)


@dataclass(frozen=True)
class NullCertificate:
    """`null_certificate`'s bounds on the gauge of x0's unstable part x0_u
    in C, the set of unstable parts that an input |u| <= 1 steers to the
    origin, and the weights behind the lower one.

    `mu` weighs the states, 0 on every stable one; `mu_x0` is mu . x0 less a
    bound on its rounding, and `h` is h(mu) = int_0^inf |psi_mu(s)| ds,
    psi_mu(s) = sum_i mu_i b_i e^(-lam_i s), C's support function, plus a
    bound on what its brackets and rounding leave out.  `upper` is the gauge
    LP's bound from above; mu_x0 / h bounds the gauge from below.
    """

    mu: tuple[float, ...]
    mu_x0: float
    h: float
    upper: float

    @property
    def proven(self) -> bool:
        """mu . x0 > h(mu): x0 reaches the origin at no horizon."""
        return self.mu_x0 > self.h

    @property
    def lower(self) -> float:
        return self.mu_x0 / self.h if self.h > 0.0 else 0.0


def _sign_changes(coef: np.ndarray, rates: np.ndarray) -> list[tuple[float, float]]:
    """Brackets (lo, hi), in order and as narrow as doubles allow, of the
    sign changes on [0, inf) of f(s) = sum_i coef_i e^(-rates_i s), the rates
    distinct.  With r the least rate of a nonzero term, g = f e^(r s) has
    f's roots and tends to that term's coefficient, and g' is a sum of one
    term fewer, between whose roots, bracketed the same way, g is monotone
    and changes sign at most once: so f changes sign at most once less than
    it has nonzero terms.  A zero of g met exactly is a bracket of width 0.
    """
    keep = coef != 0.0
    coef, rates = coef[keep], rates[keep]
    if len(coef) < 2:
        return []
    rates = rates - rates.min()
    slope = rates != 0.0
    limit = float(coef[~slope][0])
    turns = [hi for _lo, hi in _sign_changes(-rates[slope] * coef[slope], rates[slope])]

    def g(s):
        return float(coef @ np.exp(-rates * s))

    brackets = []
    for lo, hi in zip([0.0] + turns, turns + [math.inf]):
        g_lo = g(lo)
        if g_lo == 0.0:
            brackets.append((lo, lo))
            continue
        if hi == math.inf:
            if g_lo * limit > 0.0:
                continue
            # g tends to `limit` monotonically: double the end until it has that sign
            hi = max(1.0, 2.0 * lo)
            while g(hi) * g_lo > 0.0:
                hi *= 2.0
        if g(hi) * g_lo > 0.0:
            continue
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if g(mid) * g_lo > 0.0:
                lo = mid
            else:
                hi = mid
        brackets.append((lo, hi))
    return brackets


def _support(coef: np.ndarray, rates: np.ndarray) -> float:
    """An upper bound on int_0^inf |sum_i coef_i e^(-rates_i s)| ds, rates
    positive: the closed-form integral between the bracketed sign changes,
    where the sum keeps one sign, plus the integral of sum_i |coef_i|
    e^(-rates_i s) over each bracket and 1e-12 of its integral over [0, inf)
    for rounding."""
    mass = np.abs(coef) / rates

    def antiderivative(s):
        # 0 at s = inf, where every e^(-rates s) is 0
        return -float((coef / rates) @ np.exp(-rates * s))

    brackets = _sign_changes(coef, rates)
    edges = [0.0, *(s for bracket in brackets for s in bracket), math.inf]
    total = sum(
        abs(antiderivative(b) - antiderivative(a)) for a, b in zip(edges[::2], edges[1::2])
    )
    for lo, hi in brackets:
        total += float(mass @ (np.exp(-rates * lo) - np.exp(-rates * hi)))
    return total + 1e-12 * float(mass.sum())


def null_certificate(spec: ProblemSpec) -> NullCertificate:
    """Bounds on the gauge of x0's unstable part x0_u in C, the set of
    unstable parts that an input |u| <= 1 steers to the origin, and, when
    the lower one exceeds 1, the proof that x0 reaches the origin at no
    horizon.

    The null-controllable region of a diagonal system under |u| <= 1 is C
    times all the stable states (Hu & Lin, Control Systems with Actuator
    Saturation, 2001), with C = {-int_0^inf e^(-lam_u s) b_u u(s) ds}.  So
    any mu with mu . x0_u > h(mu), C's support function, proves x0
    unreachable.  mu is the row duals of the gauge LP, min gamma subject to
    A v = x0_u and |v_j| <= gamma, A's column j the -b_u e^(-lam_u s)
    integral over cell j of GAUGE_CELLS cells equal in e^(-r s), r the
    slowest unstable rate, so that they cover [0, inf); it is solved as
    max t subject to A v = t x0_u and |v_j| <= 1, gamma = 1/t.  The cells
    only restrict the input, so 1/t bounds the gauge from above, while h(mu),
    integrated in closed form (`_support`), makes mu . x0_u / h(mu) a lower
    bound whatever the grid.  With no unstable mode, or x0_u = 0, mu is 0
    and both bounds are 0.
    """
    lam = spec.system.eigenvalues
    unstable = lam > 0.0
    x0_u, rates = spec.x0[unstable], lam[unstable]
    mu = np.zeros(spec.order)
    if not np.any(x0_u):
        return NullCertificate(tuple(mu), 0.0, 0.0, 0.0)
    gains = spec.system.gains[unstable]
    # on cell j, e^(-r s) runs over [j, j + 1] / GAUGE_CELLS and e^(-lam s) is its power lam / r
    powers = np.linspace(0.0, 1.0, GAUGE_CELLS + 1) ** (rates / rates.min())[:, None]
    cells = -(gains / rates)[:, None] * np.diff(powers, axis=1)
    # v_j in [-1, 1] at cost 0, then t >= 0 at cost -1
    highs = _dense_lp(
        np.r_[np.zeros(GAUGE_CELLS), -1.0],
        np.r_[np.full(GAUGE_CELLS, -1.0), 0.0],
        np.r_[np.ones(GAUGE_CELLS), math.inf],
        np.hstack([cells, -x0_u[:, None]]),
        np.zeros(len(x0_u)),
    )
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        return NullCertificate(tuple(mu), 0.0, 0.0, math.inf)
    t = highs.getSolution().col_value[-1]
    duals = np.array(highs.getSolution().row_dual)
    # the duals' sign is HiGHS's convention; mu . x0_u = 1 at the LP's optimum
    duals = duals if duals @ x0_u >= 0.0 else -duals
    mu[unstable] = duals
    mu_x0 = float(duals @ x0_u) - 1e-12 * float(np.abs(duals) @ np.abs(x0_u))
    h = _support(duals * gains, rates)
    return NullCertificate(tuple(map(float, mu)), mu_x0, h, 1.0 / t if t > 0.0 else math.inf)
