"""Deterministic multi-start local solver and cross-instance aggregation.

Each program is solved in gap coordinates (nonnegative segment lengths whose
cumulative sums are the switching times, so ordering holds by construction)
in two phases: a projected Levenberg-Marquardt restoration onto the
reachability manifold, which holds the gaps pinned at a bound out of its
steps, then up to `SQP_ROUNDS` rounds of SLSQP followed by
an active-set Newton polish of the KKT system, each round starting from the
previous polish.  `_restore` runs the start rows of all programs with the
same slot count as one stack on the fused reach/Jacobian kernel, each row
under its own program's levels, and every row gives the bits it would give
alone; `solve_nlp` then descends one program's restored starts.  The rounds
run per start.  Aggregation re-simulates every converged solution before
trusting it and is bitwise reproducible for a fixed seed.

When no program verifies, the fixed-horizon LP of `simulate.lp_oracle`
decides: with no feasible horizon the problem is infeasible; otherwise its
input, rounded to a level word, is one more start of every program that
contains the word, restored and descended like the blind starts, and a
miss there is a solver failure, not infeasibility.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
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

_ACTIVE_EPS = 1e-9


class InfeasibleProblemError(RuntimeError):
    """No verified transfer, and no fixed-horizon LP transfer within the time box."""


class SolverFailedError(RuntimeError):
    """No verified transfer, although the fixed-horizon LP reaches the origin."""


@dataclass(frozen=True)
class SolverOptions:
    """Multi-start knobs; defaults suit small systems."""

    starts: int = 64
    seed: int = 0
    t_max: Optional[float] = None
    #: Reach residual a converged program must reach (a constant, not a field).
    feas_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.t_max is not None and not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")

    def horizon(self, instance: NlpInstance) -> float:
        """Time box: 50 slowest-mode time constants unless overridden."""
        if self.t_max is not None:
            return self.t_max
        slowest = min(abs(c) for c in instance.scaled_numerators)
        return 50.0 * instance.common_denominator / slowest


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
        return {
            "instance_id": self.instance_id,
            "times": list(self.times),
            "cost": self.cost,
            "kkt_residual": self.kkt_residual,
            "constraint_residual": self.constraint_residual,
            "status": self.status,
        }


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


def _gap_jacobian(time_jac: np.ndarray) -> np.ndarray:
    # chain rule through t_j = sum_{m <= j} gap_m: reverse cumulative sum
    return np.cumsum(time_jac[..., ::-1], axis=-1)[..., ::-1]


def _eval(instance: NlpInstance, gaps: np.ndarray, jacobian: bool = True, levels=None):
    """Residuals (m, n) and gap Jacobians (m, n, K) of gap stack (m, K),
    under the program's levels or one (m, K) level row per gap row."""
    times = np.cumsum(gaps, axis=-1)
    v = instance._v if levels is None else levels
    reach, time_jac = reach_kernel(instance._lam, instance._b, v, times, jacobian)
    c = reach - instance._x0
    return c, None if time_jac is None else _gap_jacobian(time_jac)


def _eval1(instance: NlpInstance, gaps: np.ndarray):
    """`_eval` of a single gap vector."""
    c, J = _eval(instance, gaps[None, :])
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


def _lm(instance, gaps, t_max, levels=None):
    """Projected Levenberg-Marquardt on || reach(t) - x0 ||, per row.

    The rows of gaps (m, K) are independent runs, under the instance's
    levels or, for rows of several programs with K slots, one (m, K) level
    row each.  Each row keeps its own damping and counters: an iteration
    opens with the tolerance check, tries at most 40 damped steps, and the
    run ends after `LM_ITERATIONS` iterations, when an iteration finds no
    improvement or when the damping passes 1e16 (a singular system only
    raises the damping).  A gap at 0 whose gradient J^T c is positive, or at
    t_max with a negative one, is held: its row and column of the system
    become the identity's and its step is 0 (projected Newton, Bertsekas
    1982), so a step that would push it out of the box is not clipped to an
    almost null move.
    """
    m, K = gaps.shape
    gaps = gaps.copy()
    levels = np.broadcast_to(instance._v, gaps.shape) if levels is None else levels
    c, J = _eval(instance, gaps, levels=levels)
    f = _half_sq(c)
    nu = np.full(m, 1e-3)
    iters = np.zeros(m, dtype=int)
    attempts = np.zeros(m, dtype=int)
    live = np.ones(m, dtype=bool)
    eye = np.eye(K)
    while True:
        opening = live & (attempts == 0)
        stop = (iters >= LM_ITERATIONS) | (np.max(np.abs(c), axis=1) <= 1e-12)
        live &= ~(opening & stop)
        idx = np.flatnonzero(live)
        if idx.size == 0:
            return gaps, c
        Ji = J[idx]
        JT = Ji.transpose(0, 2, 1)
        grad = (JT @ c[idx, :, None])[:, :, 0]
        held = ((gaps[idx] <= 0.0) & (grad > 0.0)) | ((gaps[idx] >= t_max) & (grad < 0.0))
        system = JT @ Ji + nu[idx, None, None] * eye
        step, singular = _solve_rows(
            np.where(held[:, :, None] | held[:, None, :], eye, system),
            np.where(held, 0.0, -grad),
        )
        attempts[idx] += 1
        nu[idx[singular]] *= 10.0
        tried = idx[~singular]
        trial = np.clip(gaps[tried] + step[~singular], 0.0, t_max)
        ct, Jt = _eval(instance, trial, levels=levels[tried])
        ft = _half_sq(ct)
        better = ft < f[tried]
        took = tried[better]
        gaps[took], c[took], f[took] = trial[better], ct[better], ft[better]
        J[took] = Jt[better]
        nu[took] = np.maximum(nu[took] * 0.3, 1e-12)
        iters[took] += 1
        attempts[took] = 0
        worse = tried[~better]
        nu[worse] *= 10.0
        live[worse[nu[worse] > 1e16]] = False
        live[attempts >= 40] = False


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


def _kkt_state(instance, w, gaps, t_max, mult):
    c, J = _eval1(instance, gaps)
    grad_l = w + J.T @ mult
    projected = np.where(
        gaps <= _ACTIVE_EPS,
        np.minimum(grad_l, 0.0),
        np.where(gaps >= t_max - _ACTIVE_EPS, np.maximum(grad_l, 0.0), grad_l),
    )
    return float(np.max(np.abs(c))), float(np.max(np.abs(projected)))


def _polish(instance, w, gaps, mult, t_max):
    """Newton iterations on the active-set KKT system, merit safeguarded."""
    n = instance.order
    gaps = np.where(gaps < _ACTIVE_EPS, 0.0, gaps.copy())
    feas, kkt = _kkt_state(instance, w, gaps, t_max, mult)
    best = (gaps.copy(), mult.copy(), feas, kkt)
    for _ in range(80):
        if feas <= SolverOptions.feas_tol * 1e-2 and kkt <= KKT_TOL * 1e-2:
            break
        reach, A = instance.reach_stack(np.cumsum(gaps)[None, :])
        c = reach[0] - instance._x0
        A = A[0]
        J = _gap_jacobian(A)
        grad_l = w + J.T @ mult
        # free set: positive gaps plus bound coords pushed off the bound
        free = np.where((gaps > _ACTIVE_EPS) | (grad_l < -KKT_TOL * 1e-2))[0]
        if len(free) == 0:
            break
        rhs = -np.concatenate([grad_l[free], c])
        # Hessian of mult . c is diagonal in time coordinates
        h_t = (mult * (-instance._lam)) @ A
        suffix = np.flip(np.cumsum(np.flip(h_t)))
        H = suffix[np.maximum.outer(free, free)]
        system = np.block(
            [[H, J[:, free].T], [J[:, free], np.zeros((n, n))]]
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
        for _bt in range(25):
            trial = gaps.copy()
            trial[free] = np.maximum(gaps[free] + alpha * d_gap, 0.0)
            trial_mult = mult + alpha * d_mult
            f_t, k_t = _kkt_state(instance, w, trial, t_max, trial_mult)
            scaled_now = max(feas, kkt * 1e-3)
            scaled_new = max(f_t, k_t * 1e-3)
            if scaled_new < scaled_now or (f_t + k_t) < (feas + kkt) * 0.999:
                gaps, mult, feas, kkt = trial, trial_mult, f_t, k_t
                stepped = True
                break
            alpha *= 0.5
        if not stepped:
            break
        gaps = np.where(gaps < 1e-12, 0.0, gaps)
        if feas + kkt < best[2] + best[3]:
            best = (gaps.copy(), mult.copy(), feas, kkt)
    if feas + kkt > best[2] + best[3]:
        gaps, mult, feas, kkt = best
    return gaps, mult, feas, kkt


def _slsqp(instance, gaps, t_max, w):
    """SLSQP on min w . gaps subject to reach(gaps) = x0 within the box."""
    try:
        result = minimize(
            lambda g: float(w @ g),
            gaps,
            jac=lambda g: w,
            method="SLSQP",
            bounds=[(0.0, t_max)] * len(gaps),
            constraints=[
                {
                    "type": "eq",
                    "fun": lambda g: _eval(instance, g[None, :], jacobian=False)[0][0],
                    "jac": lambda g: _eval1(instance, g)[1],
                }
            ],
            options={"maxiter": 400, "ftol": 1e-14},
        )
    except (ValueError, np.linalg.LinAlgError):
        return gaps
    out = np.clip(result.x, 0.0, t_max)
    return out if np.all(np.isfinite(out)) else gaps


def _start_seed(seed: int, instance_id: str, start: int) -> np.random.Generator:
    digest = zlib.crc32(instance_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, digest, start]))


def _starts(instance: NlpInstance, options: SolverOptions, t_max: float) -> np.ndarray:
    """The (starts, K) blind start gaps: exponential draws, one generator
    per start.  A draw can land dozens of time constants out, where Newton
    steps barely move, so each is shrunk to the first of the 61 scales
    0.7^k with the least residual."""
    mean_gap = t_max / (4.0 * instance.order)
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
    c, _ = _eval(instance, shrunk, jacobian=False)
    norms = np.max(np.abs(c), axis=1).reshape(len(draws), len(scales))
    return scales[np.argmin(norms, axis=1)][:, None] * draws


def _descend(instance, t_max, gaps, c) -> tuple:
    """One restored start through at most `SQP_ROUNDS` rounds of SLSQP and
    Newton polish; the record (status, cost, times, feasibility, KKT
    residual).  A round that ends short of the tolerances hands the
    polished point to the next one."""
    w = instance.gap_weights
    x0_scale = max(1.0, float(np.max(np.abs(instance.x0))))
    feas = float(np.max(np.abs(c)))
    if feas > 1e-6 * x0_scale:
        return INFEASIBLE, float(w @ gaps), np.cumsum(gaps), feas, float("inf")
    status = ITERATION_LIMIT
    for _round in range(SQP_ROUNDS):
        gaps = _slsqp(instance, gaps, t_max, w)
        _, J = _eval1(instance, gaps)
        mult = _ls_multipliers(J, w, gaps)
        gaps, mult, feas, kkt = _polish(instance, w, gaps, mult, t_max)
        if feas <= SolverOptions.feas_tol and kkt <= KKT_TOL:
            status = CONVERGED
            break
    return status, float(w @ gaps), np.cumsum(gaps), feas, kkt


def _solution(instance: NlpInstance, record: tuple) -> LocalSolution:
    status, _cost, times, feas, kkt = record
    return LocalSolution(
        instance_id=instance.instance_id,
        times=tuple(float(t) for t in times),
        cost=float(instance.cost_value(times)),
        kkt_residual=kkt,
        constraint_residual=feas,
        status=status,
    )


def solve_nlp(instance: NlpInstance, options: SolverOptions, restored: tuple) -> LocalSolution:
    """Best local solution of one program over its restored starts, the
    (gaps (m, K), residuals (m, n)) pair that `_restore` gives it, each
    descended."""
    t_max = options.horizon(instance)
    records = [_descend(instance, t_max, g, c) for g, c in zip(*restored)]
    return _solution(instance, min(records, key=_record_key))


def _restore(instances, starts: dict, t_max: float) -> dict:
    """Program id -> (gaps, residuals) of the (m, K) start rows that
    `starts` maps its id to, restored with the rows of all programs of one
    slot count in one `_lm` stack, each row under its own program's levels."""
    programs = [inst for inst in instances if inst.instance_id in starts]
    restored = {}
    for K in sorted({inst.slot_count for inst in programs}):
        group = [inst for inst in programs if inst.slot_count == K]
        rows = [starts[inst.instance_id] for inst in group]
        levels = np.concatenate([np.broadcast_to(i._v, r.shape) for i, r in zip(group, rows)])
        gaps, c = _lm(group[0], np.concatenate(rows), t_max, levels=levels)
        ends = np.cumsum([len(r) for r in rows[:-1]])
        for inst, g, r in zip(group, np.split(gaps, ends), np.split(c, ends)):
            restored[inst.instance_id] = (g, r)
    return restored


def _record_key(record):
    status, cost, _times, feas, _kkt = record
    # converged beats everything, then lowest cost; otherwise lowest residual
    # (min keeps the first start of a tie)
    return (status != CONVERGED, cost if status == CONVERGED else feas)


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


def _verified(spec, instances, solutions):
    """(cost, switches, final time, id, schedule) of every converged
    solution whose schedule, propagated from x0, lands on the origin."""
    verified = []
    for inst, sol in zip(instances, solutions):
        if sol.status != CONVERGED:
            continue
        schedule = schedule_from_times(inst.levels, sol.times)
        terminal = propagate(spec.system, spec.x0, schedule).terminal_state
        if float(np.max(np.abs(terminal), initial=0.0)) > 10.0 * SolverOptions.feas_tol:
            continue
        cost, _on, _sp = evaluate_cost(schedule, spec.k)
        verified.append(
            (cost, schedule.switch_count, schedule.final_time, inst.instance_id, schedule)
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
    t_max = options.horizon(instances[0])
    starts = {inst.instance_id: _starts(inst, options, t_max) for inst in instances}
    restored = _restore(instances, starts, t_max)
    solutions = [solve_nlp(i, options, restored[i.instance_id]) for i in instances]
    verified = _verified(spec, instances, solutions)
    if not verified:
        residual = min(s.constraint_residual for s in solutions)
        lp = lp_oracle(spec, t_max)
        refusal = f"no program verified (best constraint residual {residual:.3e})"
        if lp is None:
            raise InfeasibleProblemError(
                f"{refusal}, and the fixed-horizon LP found no input reaching "
                f"the origin within t_max = {t_max:.6g}"
            )
        lp_cost, horizon, inputs = lp
        word = _lp_word(inputs, horizon)
        if word.levels:
            seeded = _restore(instances, _lp_seeds(instances, word), t_max)
            for j, inst in enumerate(instances):
                if inst.instance_id in seeded:
                    sol = solve_nlp(inst, options, seeded[inst.instance_id])
                    if sol.status == CONVERGED:
                        solutions[j] = sol
        verified = _verified(spec, instances, solutions)
        if not verified:
            raise SolverFailedError(
                f"{refusal}, although the fixed-horizon LP reaches the origin at "
                f"cost {lp_cost:.6f} (t_f {horizon:.6g}, word "
                f"{','.join(map(str, word.levels))}); raising `starts` may help"
            )
    min_cost = min(v[0] for v in verified)
    tied = [v for v in verified if v[0] <= min_cost * (1.0 + TIE_REL_TOL) + 1e-300]
    word_t_f = {}
    for v in tied:
        word_t_f[v[4].levels] = min(v[2], word_t_f.get(v[4].levels, math.inf))
    ties = sorted(tied, key=lambda v: (v[1], word_t_f[v[4].levels], v[4].levels, v[3]))
    *_, instance_id, schedule = ties[0]
    cost, on, sparsity = evaluate_cost(schedule, spec.k)
    best = BestSolution(
        instance_id=instance_id,
        schedule=schedule,
        cost=cost,
        final_time=schedule.final_time,
        on_duration=on,
        sparsity=sparsity,
    )
    return SolveReport(
        per_instance=tuple(solutions),
        best=best,
        ties=tuple(v[3] for v in ties),
    )
