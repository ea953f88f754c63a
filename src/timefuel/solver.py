"""Deterministic multi-start local solver and cross-instance aggregation.

Each program is solved in gap coordinates (nonnegative segment lengths whose
cumulative sums are the switching times, so ordering holds by construction)
in three phases: a projected Levenberg-Marquardt restoration onto the
reachability manifold, an augmented-Lagrangian descent with L-BFGS-B inner
iterations and warm-started multipliers, and an active-set Newton polish of
the KKT system.  Restoration handles all starts of a program as one stack on
the fused reach/Jacobian kernel; its continuation walks run speculatively as
one stack, and the rule that only the first three failed starts may use a
walk is then replayed in start order.  Every row gives the bits it would
give alone, so reports match a start-by-start run.  The later phases run per
start.  Aggregation re-simulates every converged solution before trusting
it and is bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .builder import NlpInstance, build_all
from .model import ProblemSpec
from .simulate import (
    SwitchingSchedule,
    evaluate_cost,
    propagate,
    schedule_from_times,
)

CONVERGED = "converged"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"

#: Cost ratio under which two verified solutions count as the same optimum.
TIE_REL_TOL = 1e-6

_ACTIVE_EPS = 1e-9


class InfeasibleProblemError(RuntimeError):
    """No program produced a verified transfer; x0 may be outside the
    reachable set, or the start budget was too small."""


@dataclass(frozen=True)
class SolverOptions:
    """Multi-start and tolerance knobs; defaults suit small systems."""

    starts: int = 64
    seed: int = 0
    max_iterations: int = 500
    kkt_tol: float = 1e-8
    feas_tol: float = 1e-8
    t_max: Optional[float] = None

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.kkt_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

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
    # chain rule through t_j = sum_{m <= j} gap_m: reverse cumulative sum.
    # The result is a reversed view of a C-ordered array.  matmul on it runs
    # numpy's own loop, not BLAS, which rounds J^T J differently from 12
    # slots up; reports depend on those bits, so row selections keep the
    # layout through `_rows`.
    return np.cumsum(time_jac[..., ::-1], axis=-1)[..., ::-1]


def _rows(J: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx of a gap-Jacobian stack, in `_gap_jacobian`'s memory layout."""
    return J[..., ::-1][idx][..., ::-1]


def _eval(instance: NlpInstance, gaps: np.ndarray, jacobian: bool = True):
    """Residuals (m, n) and gap Jacobians (m, n, K) of gap stack (m, K)."""
    reach, time_jac = instance.reach_stack(np.cumsum(gaps, axis=-1), jacobian)
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


def _lm(instance, gaps, t_max, shift, max_iter=150, tol=1e-12):
    """Projected Levenberg-Marquardt on || reach(t) - x0 + shift ||, per row.

    gaps (m, K) and shift (m, n) stack independent runs.  Each row keeps its
    own damping and counters: an iteration opens with the tolerance check,
    tries at most 40 damped steps, and the run ends when an iteration finds
    no improvement or the damping passes 1e16 (a singular system only
    raises the damping).
    """
    m, K = gaps.shape
    gaps = gaps.copy()
    c, J = _eval(instance, gaps)
    c = c + shift
    f = _half_sq(c)
    nu = np.full(m, 1e-3)
    iters = np.zeros(m, dtype=int)
    attempts = np.zeros(m, dtype=int)
    live = np.ones(m, dtype=bool)
    eye = np.eye(K)
    while True:
        opening = live & (attempts == 0)
        stop = (iters >= max_iter) | (np.max(np.abs(c), axis=1) <= tol)
        live &= ~(opening & stop)
        idx = np.flatnonzero(live)
        if idx.size == 0:
            return gaps, c
        Ji = _rows(J, idx)
        JT = Ji.transpose(0, 2, 1)
        step, singular = _solve_rows(
            JT @ Ji + nu[idx, None, None] * eye, (-JT @ c[idx, :, None])[:, :, 0]
        )
        attempts[idx] += 1
        nu[idx[singular]] *= 10.0
        tried = idx[~singular]
        trial = np.clip(gaps[tried] + step[~singular], 0.0, t_max)
        ct, Jt = _eval(instance, trial)
        ct = ct + shift[tried]
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


def _restore(instance, draws, t_max, max_iter=150, tol=1e-12):
    """Pull every start of a program onto the reachability manifold at once.

    Draws can land dozens of time constants out where the residual is
    astronomically large and Newton steps barely move, so each gap vector is
    first shrunk geometrically to its best overall scale (the first of 61
    scales 0.7^k with the least residual), then restored by plain LM.  When
    plain LM stalls in a nearby local residual minimum, a continuation walk
    moves the target from a reachable fraction of x0 up to x0 itself with
    warm starts; far-off stalls usually mean the program cannot reach x0 at
    all and are left as they are.  All rows run as one stack.

    Returns the plain restoration (gaps (m, K), residuals (m, n)) of every
    row and, for each row whose walk reached x0, its (gaps, residuals).
    Whether a walk is used is the caller's decision; a walk depends only on
    its own draw.
    """
    m, K = draws.shape
    scales = [1.0]
    for _ in range(60):
        scales.append(scales[-1] * 0.7)
    scales = np.array(scales)
    shrunk = (scales[None, :, None] * draws[:, None, :]).reshape(-1, K)
    c, _ = _eval(instance, shrunk, jacobian=False)
    norms = np.max(np.abs(c), axis=1).reshape(m, len(scales))
    gaps = scales[np.argmin(norms, axis=1)][:, None] * draws
    x0 = instance._x0
    scale = max(1.0, float(np.max(np.abs(x0))))
    gaps, c = _lm(instance, gaps, t_max, np.zeros((m, len(x0))), max_iter, tol)
    stall = np.max(np.abs(c), axis=1)
    rows = np.flatnonzero((stall > 1e-8 * scale) & (stall <= 0.3 * scale))
    return gaps, c, _walk(instance, draws[rows], rows, t_max, scale, tol)


def _walk(instance, draws, rows, t_max, scale, tol):
    """Continuation walks of the target reach = theta * x0 up to theta = 1.

    Each walk is seeded with its draw's structure rescaled to a fraction of
    the slowest time constant (a degenerate all-equal-times seed has a
    rank-1 Jacobian) and keeps its own theta and step.  Returns
    {rows[i]: (gaps, residuals)} for the walks that reached theta = 1.
    """
    x0 = instance._x0
    slowest = instance.common_denominator / min(
        abs(s) for s in instance.scaled_numerators
    )
    total = np.sum(draws, axis=1)
    factor = np.divide(0.3 * slowest, total, out=np.ones_like(total), where=total > 0)
    g = draws * factor[:, None]
    theta = np.zeros(len(rows))
    step = np.full(len(rows), 0.5)
    live = np.ones(len(rows), dtype=bool)
    reached = {}
    for _ in range(24):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        trial_theta = np.minimum(1.0, theta[idx] + step[idx])
        shift = (1.0 - trial_theta)[:, None] * x0
        g_t, c_t = _lm(instance, g[idx], t_max, shift, max_iter=100, tol=tol)
        res = np.max(np.abs(c_t), axis=1)
        ok = res <= 1e-9 * scale
        # near the path: keep the progress, retry smaller
        keep = ok | (res <= 1e-2 * scale)
        g[idx[keep]] = g_t[keep]
        theta[idx[ok]] = trial_theta[ok]
        done = ok & (trial_theta >= 1.0)
        for j in np.flatnonzero(done):
            reached[int(rows[idx[j]])] = (g_t[j], c_t[j])
        up = idx[ok & ~done]
        step[up] = np.minimum(2.0 * step[up], 1.0 - theta[up])
        down = idx[~ok]
        step[down] *= 0.5
        live[idx[done]] = False
        live[down[step[down] < 2e-3]] = False
    return reached


def _ls_multipliers(J: np.ndarray, w: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    free = gaps > _ACTIVE_EPS
    if free.any():
        mult, *_ = np.linalg.lstsq(J[:, free].T, -w[free], rcond=None)
        return mult
    return np.zeros(J.shape[0])


def _kkt_state(instance, w, gaps, t_max, mult):
    c, J = _eval1(instance, gaps)
    grad_l = w + J.T @ mult
    projected = np.where(
        gaps <= _ACTIVE_EPS,
        np.minimum(grad_l, 0.0),
        np.where(gaps >= t_max - _ACTIVE_EPS, np.maximum(grad_l, 0.0), grad_l),
    )
    return float(np.max(np.abs(c))), float(np.max(np.abs(projected)))


def _polish(instance, w, gaps, mult, t_max, feas_tol, kkt_tol):
    """Newton iterations on the active-set KKT system, merit safeguarded."""
    n = instance.order
    gaps = np.where(gaps < _ACTIVE_EPS, 0.0, gaps.copy())
    feas, kkt = _kkt_state(instance, w, gaps, t_max, mult)
    best = (gaps.copy(), mult.copy(), feas, kkt)
    for _ in range(80):
        if feas <= feas_tol * 1e-2 and kkt <= kkt_tol * 1e-2:
            break
        reach, A = instance.reach_stack(np.cumsum(gaps)[None, :])
        c = reach[0] - instance._x0
        A = A[0]
        J = _gap_jacobian(A)
        grad_l = w + J.T @ mult
        # free set: positive gaps plus bound coords pushed off the bound
        free = np.where((gaps > _ACTIVE_EPS) | (grad_l < -kkt_tol * 1e-2))[0]
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


def _slsqp(instance, gaps, t_max, w, max_iter=400):
    """Sequential quadratic programming fallback for stiff instances."""
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
                    "fun": lambda g: _eval1(instance, g)[0],
                    "jac": lambda g: _eval1(instance, g)[1],
                }
            ],
            options={"maxiter": max_iter, "ftol": 1e-14},
        )
    except (ValueError, np.linalg.LinAlgError):
        return gaps
    out = np.clip(result.x, 0.0, t_max)
    return out if np.all(np.isfinite(out)) else gaps


def _start_seed(seed: int, instance_id: str, start: int) -> np.random.Generator:
    digest = zlib.crc32(instance_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, digest, start]))


def _draws(instance: NlpInstance, options: SolverOptions, t_max: float) -> np.ndarray:
    """The (starts, K) exponential gap draws, one generator per start."""
    mean_gap = t_max / (4.0 * instance.order)
    return np.array(
        [
            _start_seed(options.seed, instance.instance_id, start).exponential(
                mean_gap, instance.slot_count
            )
            for start in range(options.starts)
        ]
    )


def solve_nlp(instance: NlpInstance, options: SolverOptions) -> LocalSolution:
    """Best local solution of one program over the deterministic starts."""
    w = instance.gap_weights
    t_max = options.horizon(instance)
    bounds = [(0.0, t_max)] * instance.slot_count
    best: Optional[tuple] = None

    x0_scale = max(1.0, float(np.max(np.abs(instance.x0))))
    restored, residuals, walks = _restore(
        instance, _draws(instance, options, t_max), t_max
    )
    # replay the starts in order: a start may use its continuation walk only
    # while fewer than three earlier starts have failed restoration
    rescue_failures = 0
    for start in range(options.starts):
        if start in walks and rescue_failures < 3:
            gaps, c = walks[start]
        else:
            gaps, c = restored[start], residuals[start]
        if np.max(np.abs(c)) > 1e-6 * x0_scale:
            rescue_failures += 1
            record = (
                INFEASIBLE,
                float(w @ gaps),
                np.cumsum(gaps),
                float(np.max(np.abs(c))),
                float("inf"),
            )
        else:
            _, J = _eval1(instance, gaps)
            mult = _ls_multipliers(J, w, gaps)
            mu = 1e3 * max(1.0, float(np.max(w)))
            eta = 1e-4
            gtol = 1e-9
            budget = options.max_iterations
            for _outer in range(15):
                def augmented(g):
                    c, J = _eval1(instance, g)
                    shifted = mult + mu * c
                    value = float(w @ g + mult @ c + 0.5 * mu * (c @ c))
                    return value, w + J.T @ shifted

                result = minimize(
                    augmented,
                    gaps,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={
                        "maxiter": min(250, budget),
                        "ftol": 1e-18,
                        "gtol": gtol,
                    },
                )
                gaps = result.x
                budget -= result.nit
                c, J = _eval1(instance, gaps)
                feas = float(np.max(np.abs(c)))
                if feas <= eta:
                    mult = mult + mu * c
                    eta = max(eta * 0.1, 1e-10)
                    gtol = max(gtol * 0.2, 1e-12)
                else:
                    mu = min(mu * 10.0, 1e12)
                if feas <= 1e-8 or budget <= 0:
                    break
            gaps, mult, feas, kkt = _polish(
                instance, w, gaps, mult, t_max, options.feas_tol, options.kkt_tol
            )
            converged = feas <= options.feas_tol and kkt <= options.kkt_tol
            if not converged and feas <= 1e-2 * x0_scale:
                # near the manifold but stalled: the penalty valley of stiff
                # instances can defeat the quasi-Newton inner loop, so hand
                # the start to an SQP step
                alt = _slsqp(instance, gaps, t_max, w)
                _, J_alt = _eval1(instance, alt)
                alt_mult = _ls_multipliers(J_alt, w, alt)
                alt, alt_mult, feas_a, kkt_a = _polish(
                    instance, w, alt, alt_mult, t_max,
                    options.feas_tol, options.kkt_tol,
                )
                if (feas_a <= options.feas_tol and kkt_a <= options.kkt_tol) or (
                    feas_a + kkt_a < feas + kkt
                ):
                    gaps, mult, feas, kkt = alt, alt_mult, feas_a, kkt_a
                    converged = feas <= options.feas_tol and kkt <= options.kkt_tol
            record = (
                CONVERGED if converged else ITERATION_LIMIT,
                float(w @ gaps),
                np.cumsum(gaps),
                feas,
                kkt,
            )
        if best is None or _record_key(record) < _record_key(best):
            best = record

    status, cost, times, feas, kkt = best
    return LocalSolution(
        instance_id=instance.instance_id,
        times=tuple(float(t) for t in times),
        cost=float(instance.cost_value(times)),
        kkt_residual=kkt,
        constraint_residual=feas,
        status=status,
    )


def _record_key(record):
    status, cost, _times, feas, _kkt = record
    # converged beats everything, then lowest cost; otherwise lowest residual
    return (status != CONVERGED, cost if status == CONVERGED else feas)


def decode_schedule(instance: NlpInstance, times: Sequence[float]) -> SwitchingSchedule:
    """Condense solved times into a schedule (collapse, merge, trim)."""
    return schedule_from_times(instance.levels, times)


def solve_time_fuel(
    spec: ProblemSpec,
    options: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Solve every program, verify against the simulator, keep the cheapest.

    A converged program only competes after its decoded schedule, propagated
    from x0, lands on the origin within 10x the feasibility tolerance.  Cost
    ties are broken by fewer switchings, then smaller final time, then id.
    """
    instances = build_all(spec)
    solutions = [solve_nlp(i, options) for i in instances]
    order = sorted(range(len(instances)), key=lambda i: instances[i].instance_id)
    instances = [instances[i] for i in order]
    solutions = [solutions[i] for i in order]

    verified: list[tuple[float, int, float, str, SwitchingSchedule]] = []
    best_residual = float("inf")
    for inst, sol in zip(instances, solutions):
        best_residual = min(best_residual, sol.constraint_residual)
        if sol.status != CONVERGED:
            continue
        schedule = decode_schedule(inst, sol.times)
        terminal = propagate(spec.system, spec.x0, schedule).terminal_state
        if float(np.max(np.abs(terminal), initial=0.0)) > 10.0 * options.feas_tol:
            continue
        cost, _on, _sp = evaluate_cost(schedule, spec.k)
        verified.append(
            (cost, schedule.switch_count, schedule.final_time, inst.instance_id, schedule)
        )
    if not verified:
        raise InfeasibleProblemError(
            "no program converged and verified: x0 may be outside the "
            f"reachable set (best constraint residual {best_residual:.3e}); "
            "raising `starts` may help if the problem is feasible"
        )
    min_cost = min(v[0] for v in verified)
    ties = sorted(
        (v for v in verified if v[0] <= min_cost * (1.0 + TIE_REL_TOL) + 1e-300),
        key=lambda v: (v[1], v[2], v[3]),
    )
    cost, _switches, final_time, instance_id, schedule = ties[0]
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
