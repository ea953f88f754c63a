"""Deterministic multi-start local solver and cross-instance aggregation.

Each program is solved in gap coordinates (nonnegative segment lengths whose
cumulative sums are the switching times, so ordering holds by construction)
in two phases: a projected Levenberg-Marquardt restoration onto the
reachability manifold, which holds the gaps pinned at 0 out of its steps,
then up to `SQP_ROUNDS` rounds of SLSQP followed by an active-set Newton
polish of the KKT system, each round starting from the previous polish.
SLSQP stops at the feasibility tolerance, which is enough to find the active
set; the polish, with the exact Hessian, gives the last digits (the split of
Byrd, Gould, Nocedal & Waltz, Math. Prog. 100, 2004).  Every phase forms
the residual reach - x0 and its gap Jacobian through `_eval` alone, from
the problem's spec and a level word.
`_restore` runs the start rows of all programs with the same slot count as
one stack on the fused reach/Jacobian kernel, each row under its own
program's levels, and every row gives the bits it would give alone;
`solve_nlp` then descends one program's restored starts in order, each to a
`LocalSolution`, and keeps the best; a start whose SLSQP nears a local
minimizer an earlier start found ends there (the clustering stop of
multistart search; Rinnooy Kan & Timmer, Math. Prog. 39, 1987).  Aggregation
re-simulates every converged solution before trusting it: each that lands on
the origin becomes a `BestSolution` costed by the simulator, and the report
names the first after the tie rules.  It is bitwise reproducible for a fixed
seed.  The gaps have no upper bound: the final time is free, as in the
paper's static programs.

When no program verifies, the fixed-horizon LP of `simulate.lp_oracle`,
searched up to `horizon`, decides: with no feasible horizon the problem is
infeasible; otherwise its input, rounded to a level word, is one more start
of every program that contains the word, restored and descended like the
blind starts, and a miss there is a solver failure, not infeasibility.
"""

from __future__ import annotations

import logging
import math
import zlib
from dataclasses import asdict, dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np
from scipy.optimize import lsq_linear, minimize

from .builder import NlpInstance, build_all, reach_kernel
from .model import ProblemSpec
from .simulate import (
    SwitchingSchedule,
    evaluate_cost,
    lp_oracle,
    propagate,
    schedule_from_times,
)

CONVERGED = "converged"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"

#: Cost ratio under which two verified solutions count as the same optimum.
TIE_REL_TOL = 1e-6

#: SLSQP-and-polish rounds one start gets before it counts as stalled.
SQP_ROUNDS = 3

#: Projected KKT residual a converged program must reach.
KKT_TOL = 1e-8

#: Levenberg-Marquardt iterations a restoration row gets.
LM_ITERATIONS = 150

#: Max-norm distance, times 1 + the point's largest gap, within which an
#: SLSQP iterate counts as having reached a known local minimizer.
MERGE_TOL = 1e-3

_ACTIVE_EPS = 1e-9

_log = logging.getLogger("timefuel")


class InfeasibleProblemError(RuntimeError):
    """No verified transfer, and no fixed-horizon LP transfer up to `horizon`."""


class SolverFailedError(RuntimeError):
    """No verified transfer, although the fixed-horizon LP reaches the origin."""


class _Merged(Exception):
    """Raised in SLSQP's callback with the known minimum an iterate reached."""


@dataclass(frozen=True)
class SolverOptions:
    """Multi-start knobs; defaults suit small systems."""

    starts: int = 64
    seed: int = 0
    #: Reach residual a converged program must reach (a constant, not a field).
    feas_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        for name in ("starts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def horizon(spec: ProblemSpec) -> float:
    """50 time constants of the problem's slowest mode: the scale of the
    blind start draws and the longest horizon `lp_oracle` tries."""
    spectrum = spec.system.spectrum
    slowest = min(abs(c) for c in spectrum.scaled_numerators)
    return 50.0 * spectrum.common_denominator / slowest


@dataclass(frozen=True)
class LocalSolution:
    """Best point one program's multi-start produced."""

    instance_id: str
    times: tuple[float, ...]
    cost: float
    kkt_residual: float
    constraint_residual: float
    status: str

    def as_dict(self) -> dict:
        return {**asdict(self), "times": list(self.times)}


@dataclass(frozen=True)
class BestSolution:
    """The verified least-cost schedule across all programs."""

    instance_id: str
    schedule: SwitchingSchedule
    cost: float
    final_time: float
    on_duration: float
    sparsity: float

    def as_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "schedule": {
                "breakpoints": list(self.schedule.breakpoints),
                "levels": list(self.schedule.levels),
            },
            "sequence": list(self.schedule.levels),
            "cost": self.cost,
            "final_time": self.final_time,
            "on_duration": self.on_duration,
            "sparsity": self.sparsity,
        }


@dataclass(frozen=True)
class SolveReport:
    """Per-program outcomes plus the selected optimum and its cost ties."""

    per_instance: tuple[LocalSolution, ...]
    best: Optional[BestSolution]
    ties: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "best": None if self.best is None else self.best.as_dict(),
            "ties": list(self.ties),
            "instances": [s.as_dict() for s in self.per_instance],
        }


def _eval(spec: ProblemSpec, levels, gaps: np.ndarray, jacobian: bool = True):
    """Residuals (m, n) and gap Jacobians (m, n, K) of gap stack (m, K),
    under one (K,) level word or one (m, K) level row per gap row."""
    times = np.cumsum(gaps, axis=-1)
    system = spec.system
    reach, time_jac = reach_kernel(system.eigenvalues, system.gains, levels, times, jacobian)
    # the gap Jacobian, by the chain rule through t_j = sum_{m <= j} gap_m,
    # is the reverse cumulative sum of the time Jacobian
    J = None if time_jac is None else np.cumsum(time_jac[..., ::-1], axis=-1)[..., ::-1]
    return reach - spec.x0, J


def _eval1(instance: NlpInstance, gaps: np.ndarray):
    """`_eval` of a single gap vector under the program's levels."""
    c, J = _eval(instance.spec, instance._v, gaps[None, :])
    return c[0], J[0]


def _half_sq(c: np.ndarray) -> np.ndarray:
    # 0.5 * c_i . c_i per row, each a BLAS dot as for a lone vector
    return 0.5 * (c[:, None, :] @ c[:, :, None])[:, 0, 0]


def _solve_rows(A: np.ndarray, rhs: np.ndarray):
    """Solve every system of the stack; flag the singular ones.

    A stacked solve raises when any one matrix is singular, so that case
    falls back to one solve per row.
    """
    singular = np.zeros(len(A), dtype=bool)
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        step = np.zeros(rhs.shape)
        for i in range(len(A)):
            try:
                step[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _lm(spec, gaps, levels):
    """Projected Levenberg-Marquardt on || reach(t) - x0 ||, per row.

    The rows of gaps (m, K) are independent runs, under one (K,) level
    word or, for rows of several programs with K slots, one (m, K) level
    row each.  Each row keeps its own damping and iteration count.  An
    attempt that is rejected or meets a singular system multiplies the
    damping by 10; an accepted step ends the iteration and multiplies it by
    0.3, to no less than 1e-12.  A row stops at its residual tolerance,
    after `LM_ITERATIONS` iterations, or once its damping passes 1e16.
    That is the one stop of an iteration that finds no step, and since an
    iteration opens at a damping of at least 1e-12 it comes within 29
    attempts, so no attempt cap is needed.  A gap at 0 whose gradient
    J^T c is positive is held: its row and column of the system become the
    identity's and its step is 0 (projected Newton, Bertsekas 1982), so a
    step that would push it below 0 is not clipped to an almost null move.
    """
    m, K = gaps.shape
    gaps = gaps.copy()
    levels = np.broadcast_to(levels, gaps.shape)
    c, J = _eval(spec, levels, gaps)
    f = _half_sq(c)
    nu = np.full(m, 1e-3)
    iters = np.zeros(m, dtype=int)
    live = np.ones(m, dtype=bool)
    eye = np.eye(K)
    while True:
        live &= (iters < LM_ITERATIONS) & (np.max(np.abs(c), axis=1) > 1e-12) & (nu <= 1e16)
        idx = np.flatnonzero(live)
        if idx.size == 0:
            return gaps, c
        Ji = J[idx]
        JT = Ji.transpose(0, 2, 1)
        grad = (JT @ c[idx, :, None])[:, :, 0]
        held = (gaps[idx] <= 0.0) & (grad > 0.0)
        system = JT @ Ji + nu[idx, None, None] * eye
        step, singular = _solve_rows(
            np.where(held[:, :, None] | held[:, None, :], eye, system),
            np.where(held, 0.0, -grad),
        )
        nu[idx[singular]] *= 10.0
        tried = idx[~singular]
        trial = np.maximum(gaps[tried] + step[~singular], 0.0)
        ct, Jt = _eval(spec, levels[tried], trial)
        ft = _half_sq(ct)
        better = ft < f[tried]
        took = tried[better]
        gaps[took], c[took], f[took] = trial[better], ct[better], ft[better]
        J[took] = Jt[better]
        nu[took] = np.maximum(nu[took] * 0.3, 1e-12)
        iters[took] += 1
        nu[tried[~better]] *= 10.0


def _ls_multipliers(J: np.ndarray, w: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Least-squares multipliers on the free gaps; at a degenerate vertex
    that fit can leave a negative reduced gradient on a zero gap, and the
    fit is redone over all gaps with nonnegative bound multipliers."""
    bound = gaps <= _ACTIVE_EPS
    mult = np.zeros(J.shape[0])
    if not bound.all():
        mult, *_ = np.linalg.lstsq(J[:, ~bound].T, -w[~bound], rcond=None)
    if np.all((w + J.T @ mult)[bound] >= -KKT_TOL):
        return mult
    A = np.hstack([J.T, -np.eye(len(gaps))[:, bound]])
    lower = np.r_[np.full(len(mult), -np.inf), np.zeros(int(bound.sum()))]
    fit = lsq_linear(A, -w, bounds=(lower, np.inf), method="bvls")
    return fit.x[: len(mult)]


def _kkt_state(c, J, w, gaps, mult):
    """(feasibility, projected KKT residual) of an evaluated point."""
    grad_l = w + J.T @ mult
    projected = np.where(gaps <= _ACTIVE_EPS, np.minimum(grad_l, 0.0), grad_l)
    return float(np.max(np.abs(c))), float(np.max(np.abs(projected)))


def _hessian(instance, J, mult, free):
    """Hessian of mult . c on the free gaps.  It is diagonal in time
    coordinates, so in gap coordinates entry (i, j) is the suffix sum of that
    diagonal from max(i, j): the gap Jacobian's reverse cumulative sum."""
    suffix = (mult * (-instance.spec.system.eigenvalues)) @ J
    return suffix[np.maximum.outer(free, free)]


def _is_minimizer(instance, gaps) -> bool:
    """Second-order check of a converged point: the Lagrangian's Hessian on
    the free gaps, under least-squares multipliers, reduced to the null
    space of their Jacobian, has no eigenvalue below -1e-8 of its scale."""
    _, J = _eval1(instance, gaps)
    free = np.flatnonzero(gaps > _ACTIVE_EPS)
    H = _hessian(instance, J, _ls_multipliers(J, instance.gap_weights, gaps), free)
    _, sv, vt = np.linalg.svd(J[:, free])
    rank = np.sum(sv > max(len(J), len(free)) * np.finfo(float).eps * np.max(sv, initial=0.0))
    Z = vt[rank:].T
    floor = -1e-8 * (1.0 + np.max(np.abs(H), initial=0.0))
    return bool(np.all(np.linalg.eigvalsh(Z.T @ H @ Z) >= floor))


def _polish(instance, gaps):
    """Newton iterations on the active-set KKT system, merit safeguarded;
    the (gaps, feasibility, KKT residual) of the last accepted point.

    A point that meets the tolerances (`feas_tol` and `KKT_TOL`, each
    times 1e-2) gets one more Newton step, which is kept only if the merit
    falls on its first trial, with no backtracking; then the polish stops.
    That step takes the SLSQP point, good to `feas_tol`, to rounding level.
    The multipliers start as the least-squares fit at the given point.
    Gaps under `_ACTIVE_EPS` start at 0, and a trial's gaps under 1e-12
    are set to 0 before it is evaluated; each accepted trial's residuals
    and Jacobian serve the next Newton step.
    """
    n = instance.order
    w = instance.gap_weights
    c, J = _eval1(instance, gaps)
    mult = _ls_multipliers(J, w, gaps)
    gaps = np.where(gaps < _ACTIVE_EPS, 0.0, gaps)
    c, J = _eval1(instance, gaps)
    feas, kkt = _kkt_state(c, J, w, gaps, mult)
    for _ in range(80):
        finishing = feas <= SolverOptions.feas_tol * 1e-2 and kkt <= KKT_TOL * 1e-2
        grad_l = w + J.T @ mult
        # free set: positive gaps plus bound coords pushed off the bound
        free = np.where((gaps > _ACTIVE_EPS) | (grad_l < -KKT_TOL * 1e-2))[0]
        if len(free) == 0:
            break
        rhs = -np.concatenate([grad_l[free], c])
        system = np.block(
            [[_hessian(instance, J, mult, free), J[:, free].T], [J[:, free], np.zeros((n, n))]]
        )
        try:
            delta = np.linalg.solve(system + 1e-13 * np.eye(len(free) + n), rhs)
        except np.linalg.LinAlgError:
            break
        d_gap, d_mult = delta[: len(free)], delta[len(free):]
        alpha = 1.0
        shrinking = d_gap < 0.0
        if shrinking.any():
            alpha = min(1.0, float(np.min(-gaps[free][shrinking] / d_gap[shrinking])))
        stepped = False
        for _bt in range(1 if finishing else 25):
            trial = gaps.copy()
            trial[free] = np.maximum(gaps[free] + alpha * d_gap, 0.0)
            trial[trial < 1e-12] = 0.0
            trial_mult = mult + alpha * d_mult
            c_t, J_t = _eval1(instance, trial)
            f_t, k_t = _kkt_state(c_t, J_t, w, trial, trial_mult)
            scaled_now = max(feas, kkt * 1e-3)
            scaled_new = max(f_t, k_t * 1e-3)
            if scaled_new < scaled_now or (f_t + k_t) < (feas + kkt) * 0.999:
                gaps, mult, c, J, feas, kkt = trial, trial_mult, c_t, J_t, f_t, k_t
                stepped = True
                break
            alpha *= 0.5
        if finishing or not stepped:
            break
    return gaps, feas, kkt


def _slsqp(instance, gaps, known=()):
    """SLSQP on min w . gaps subject to reach(gaps) = x0 and gaps >= 0,
    stopped at `feas_tol`: it has to find the active set, not the last
    digits, which `_polish` supplies.  SLSQP asks for the Jacobian at the
    point whose residual it just took, so the two share one `_eval1`.
    Gives (gaps, None), or (gaps, solution) once an iterate reaches one of
    the `known` (gaps, solution) minimizers, the first in one vectorised test
    of all: same gaps under `_ACTIVE_EPS`, max-norm distance within
    `MERGE_TOL` (1 + the minimizer's largest gap)."""
    w = instance.gap_weights
    last = {}
    points = np.array([g for g, _ in known]).reshape(len(known), len(gaps))
    radius = MERGE_TOL * (1.0 + np.max(points, axis=1, initial=0.0))

    def merge(x):
        hit = np.all((points <= _ACTIVE_EPS) == (x <= _ACTIVE_EPS), axis=1)
        hit &= np.max(np.abs(points - x), axis=1) <= radius
        if hit.any():
            raise _Merged(known[int(np.argmax(hit))][1])

    def evaluated(g):
        key = g.tobytes()
        if key not in last:
            last.clear()
            last[key] = _eval1(instance, g)
        return last[key]

    try:
        result = minimize(
            lambda g: float(w @ g),
            gaps,
            jac=lambda g: w,
            method="SLSQP",
            bounds=[(0.0, None)] * len(gaps),
            constraints=[
                {
                    "type": "eq",
                    "fun": lambda g: evaluated(g)[0],
                    "jac": lambda g: evaluated(g)[1],
                }
            ],
            options={"maxiter": 400, "ftol": SolverOptions.feas_tol},
            callback=merge if known else None,
        )
    except _Merged as reached:
        return gaps, reached.args[0]
    except (ValueError, np.linalg.LinAlgError):
        return gaps, None
    out = np.maximum(result.x, 0.0)
    return (out if np.all(np.isfinite(out)) else gaps), None


def _start_seed(seed: int, instance_id: str, start: int) -> np.random.Generator:
    digest = zlib.crc32(instance_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, digest, start]))


def _starts(instance: NlpInstance, options: SolverOptions, longest: float) -> np.ndarray:
    """The (starts, K) blind start gaps: exponential draws of mean
    longest / (4 n), one generator per start.  A draw can land dozens of time
    constants out, where Newton steps barely move, so each is shrunk to the
    first of the 61 scales 0.7^k with the least residual."""
    mean_gap = longest / (4.0 * instance.order)
    draws = np.array(
        [
            _start_seed(options.seed, instance.instance_id, start).exponential(
                mean_gap, instance.slot_count
            )
            for start in range(options.starts)
        ]
    )
    scales = np.cumprod(np.r_[1.0, np.full(60, 0.7)])
    shrunk = (scales[None, :, None] * draws[:, None, :]).reshape(-1, instance.slot_count)
    c, _ = _eval(instance.spec, instance._v, shrunk, jacobian=False)
    norms = np.max(np.abs(c), axis=1).reshape(len(draws), len(scales))
    return scales[np.argmin(norms, axis=1)][:, None] * draws


def _descend(instance, gaps, c, known):
    """One restored start through at most `SQP_ROUNDS` rounds of SLSQP,
    stopped at the feasibility tolerance, and a Newton polish that finishes
    to rounding level: (its gaps, its solution).  A round that ends short of
    the tolerances hands the polished point to the next one; a start that
    restoration left off the manifold is reported infeasible as it is, and
    one whose SLSQP reaches a `known` minimizer as (None, its solution)."""
    x0_scale = max(1.0, float(np.max(np.abs(instance.x0))))
    feas = float(np.max(np.abs(c)))
    kkt = math.inf
    status = INFEASIBLE
    if feas <= 1e-6 * x0_scale:
        status = ITERATION_LIMIT
        for _round in range(SQP_ROUNDS):
            gaps, merged = _slsqp(instance, gaps, known)
            if merged is not None:
                return None, merged
            gaps, feas, kkt = _polish(instance, gaps)
            if feas <= SolverOptions.feas_tol and kkt <= KKT_TOL:
                status = CONVERGED
                break
    times = np.cumsum(gaps)
    return gaps, LocalSolution(
        instance_id=instance.instance_id,
        times=tuple(float(t) for t in times),
        cost=float(instance.cost_value(times)),
        kkt_residual=kkt,
        constraint_residual=feas,
        status=status,
    )


def solve_nlp(instance: NlpInstance, restored: tuple) -> LocalSolution:
    """Best solution of one program over its restored starts, the
    (gaps (m, K), residuals (m, n)) pair that `_restore` gives it, each
    descended over gaps >= 0: the least-cost converged one, or else the one
    with the least constraint residual; on a tie the first start wins.
    Starts descend in order, and each converged point that `_is_minimizer`
    passes becomes a known minimizer that later starts merge into (see
    `_slsqp`).  The counts go to the "timefuel" logger at DEBUG level."""
    known, solutions, merged = [], [], 0
    for g, c in zip(*restored):
        gaps, sol = _descend(instance, g, c, known)
        merged += gaps is None
        if gaps is not None and sol.status == CONVERGED and _is_minimizer(instance, gaps):
            known.append((gaps, sol))
        solutions.append(sol)
    converged = [s for s in solutions if s.status == CONVERGED]
    descended = sum(s.status != INFEASIBLE for s in solutions)
    _log.debug("%s: %d starts, %d descended, %d converged, %d merged into a known minimum",
               instance.instance_id, len(solutions), descended, len(converged) - merged, merged)
    if converged:
        return min(converged, key=lambda s: s.cost)
    return min(solutions, key=lambda s: s.constraint_residual)


def _restore(spec, instances, starts: dict) -> dict:
    """Program id -> (gaps, residuals) of the (m, K) start rows that
    `starts` maps its id to, restored with the rows of all the problem's
    programs of one slot count in one `_lm` stack, each row under its own
    program's levels."""
    programs = [inst for inst in instances if inst.instance_id in starts]
    restored = {}
    for K in sorted({inst.slot_count for inst in programs}):
        group = [inst for inst in programs if inst.slot_count == K]
        rows = [starts[inst.instance_id] for inst in group]
        levels = np.concatenate([np.broadcast_to(i._v, r.shape) for i, r in zip(group, rows)])
        gaps, c = _lm(spec, np.concatenate(rows), levels)
        ends = np.cumsum([len(r) for r in rows[:-1]])
        for inst, g, r in zip(group, np.split(gaps, ends), np.split(c, ends)):
            restored[inst.instance_id] = (g, r)
    return restored


def _lp_word(inputs: np.ndarray, horizon: float) -> SwitchingSchedule:
    """The LP's cell inputs rounded to {-1, 0, 1} and condensed."""
    ends = horizon * np.arange(1, len(inputs) + 1) / len(inputs)
    return schedule_from_times([int(v) for v in np.rint(inputs)], ends)


def _slots(levels: Sequence[int], word: Sequence[int]) -> Optional[list[int]]:
    """Template slots that carry the word, each segment in the first
    matching slot after the previous one; None when the word does not fit."""
    free = iter(range(len(levels)))
    slots = [next((j for j in free if levels[j] == level), None) for level in word]
    return None if None in slots else slots


def _lp_seeds(instances, word: SwitchingSchedule) -> dict:
    """Program id -> one start row, with the word's durations in the
    matching slots and gap 0 elsewhere, of each program that contains it.
    The seed skips the shrink of `_starts`, which would scale it off its
    horizon."""
    seeds = {}
    for inst in instances:
        slots = _slots(inst.levels, word.levels)
        if slots is not None:
            seeds[inst.instance_id] = np.zeros((1, inst.slot_count))
            seeds[inst.instance_id][0, slots] = word.durations
    return seeds


def _verified(spec, instances, solutions) -> list[BestSolution]:
    """The answer of every program whose converged solution, decoded to a
    schedule and propagated from x0, lands on the origin; its cost,
    on-duration and sparsity are the simulator's."""
    verified = []
    for inst, sol in zip(instances, solutions):
        if sol.status != CONVERGED:
            continue
        schedule = schedule_from_times(inst.levels, sol.times)
        terminal = propagate(spec.system, spec.x0, schedule).terminal_state
        if float(np.max(np.abs(terminal), initial=0.0)) > 10.0 * SolverOptions.feas_tol:
            continue
        cost, on, sparsity = evaluate_cost(schedule, spec.k)
        verified.append(
            BestSolution(inst.instance_id, schedule, cost, schedule.final_time, on, sparsity)
        )
    return verified


def solve_time_fuel(
    spec: ProblemSpec,
    options: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Solve every program, verify against the simulator, keep the cheapest.

    A converged program only competes after its decoded schedule, propagated
    from x0, lands on the origin within 10x the feasibility tolerance.  Cost
    ties are broken by fewer switchings, then by the least final time among
    the tied programs on each level word, then by the word, then by id: the
    programs that embed one word differ in final time only by rounding.
    When none verifies, the fixed-horizon LP decides between infeasibility
    and one more start seeded from its input (see the module docstring).
    """
    instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
    longest = horizon(spec)
    starts = {inst.instance_id: _starts(inst, options, longest) for inst in instances}
    restored = _restore(spec, instances, starts)
    solutions = [solve_nlp(i, restored[i.instance_id]) for i in instances]
    verified = _verified(spec, instances, solutions)
    if not verified:
        closest = min(solutions, key=lambda s: s.constraint_residual)
        lp = lp_oracle(spec, longest)
        refusal = (
            f"no program verified (best constraint residual "
            f"{closest.constraint_residual:.3e} ({closest.instance_id}))"
        )
        if lp is None:
            raise InfeasibleProblemError(
                f"{refusal}, and the fixed-horizon LP found no input reaching "
                f"the origin at any horizon up to {longest:.6g}"
            )
        lp_cost, lp_t_f, inputs = lp
        word = _lp_word(inputs, lp_t_f)
        if word.levels:
            seeded = _restore(spec, instances, _lp_seeds(instances, word))
            for j, inst in enumerate(instances):
                if inst.instance_id in seeded:
                    sol = solve_nlp(inst, seeded[inst.instance_id])
                    if sol.status == CONVERGED:
                        solutions[j] = sol
        verified = _verified(spec, instances, solutions)
        if not verified:
            raise SolverFailedError(
                f"{refusal}, although the fixed-horizon LP reaches the origin at "
                f"cost {lp_cost:.6f} (t_f {lp_t_f:.6g}, word "
                f"{','.join(map(str, word.levels))}); raising `starts` may help"
            )
    min_cost = min(v.cost for v in verified)
    tied = [v for v in verified if v.cost <= min_cost * (1.0 + TIE_REL_TOL) + 1e-300]
    word_t_f = {}
    for v in tied:
        word = v.schedule.levels
        word_t_f[word] = min(v.final_time, word_t_f.get(word, math.inf))
    ties = sorted(
        tied,
        key=lambda v: (
            v.schedule.switch_count,
            word_t_f[v.schedule.levels],
            v.schedule.levels,
            v.instance_id,
        ),
    )
    return SolveReport(
        per_instance=tuple(solutions),
        best=ties[0],
        ties=tuple(v.instance_id for v in ties),
    )
