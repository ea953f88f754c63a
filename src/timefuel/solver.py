"""Deterministic local solver and cross-instance aggregation.

Each program is solved in gap coordinates (nonnegative segment lengths whose
cumulative sums are the switching times, so ordering holds by construction)
in two phases: a projected Levenberg-Marquardt restoration onto the
reachability manifold, which holds the gaps pinned at 0 out of its steps,
then up to `SQP_ROUNDS` rounds of SLSQP followed by an active-set Newton
polish of the KKT system, each round starting from the previous polish.
SLSQP stops at the feasibility tolerance, which is enough to find the active
set; the polish, with the exact Hessian, gives the last digits (the split of
Byrd, Gould, Nocedal & Waltz, Math. Prog. 100, 2004).  Every phase forms
the residual scale * (reach - x0) and its gap Jacobian through `_eval`
alone, from the problem's spec, a level word and the row scale of the LP
whose word seeds the solve, which each phase takes as an argument.
`_restore` runs the start rows of all programs as one stack on the fused
reach/Jacobian kernel, padded to the longest word, each row under its own
program's levels, and every row gives the bits it would give alone;
`solve_nlp` then descends each of one program's restored starts to a
`LocalSolution` and keeps the best by `_rank`.  Aggregation re-simulates
every converged solution before trusting it: each that lands on the origin
becomes a `BestSolution` costed by the simulator, and the report names the
first after the tie rules.  Nothing draws random numbers, so a solve is
bitwise reproducible.  The gaps have no upper bound: the final time is
free, as in the paper's static programs.

The fixed-horizon LP of `simulate.lp_oracle`, searched from a minimum-time
bound up to `horizon`, gives a cost that bounds the optimum from above, up
to the cell discretization (Nagahara, Quevedo & Nešić, IEEE TAC 61, 2016),
and an input that, rounded to a level word, seeds the programs.  A solve
opens with `simulate.null_certificate`, which alone decides the refusal: a
proof that x0 lies outside the null-controllable region ends it before
anything else runs, and without one no refusal claims that x0 is
unreachable.  Then it is one pass, at every order, from the LP's seeds
alone: `_embed` places the word's segments in each program's slots, and
the programs that embed the whole word are seeded with it, or, when none
does, as under a switch budget, every program with the heaviest part of
it that it embeds.  A solve whose LP finds no transfer fails at once.
`_rank` picks each program's solution among its starts: converged
solutions first, by cost, then the rest, by constraint residual, the first
winning a tie.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np
# `minimize` is no longer called here; it stays a name of this module for
# the span tracer of bench/spans.py, which wraps it.
from scipy.optimize import lsq_linear, minimize  # noqa: F401
from scipy.optimize._slsqplib import slsqp

from .builder import NlpInstance, build_all, reach_kernel
from .model import ProblemSpec
from .simulate import (
    COLLAPSE_TOL,
    SwitchingSchedule,
    evaluate_cost,
    _row_shift,
    _time_bound,
    lp_oracle,
    null_certificate,
    propagate,
    schedule_from_times,
)

CONVERGED = "converged"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
SKIPPED = "skipped"

#: Cost ratio under which two verified solutions count as the same optimum.
TIE_REL_TOL = 1e-6

#: SLSQP-and-polish rounds one start gets before it counts as stalled.
SQP_ROUNDS = 3

#: Projected KKT residual a converged program must reach.
KKT_TOL = 1e-8

#: Levenberg-Marquardt iterations a restoration row gets.
LM_ITERATIONS = 150

_log = logging.getLogger("timefuel")


class InfeasibleProblemError(RuntimeError):
    """x0 is proven unreachable: `simulate.null_certificate`, asked first at
    every order, gives mu with mu . x0 > h(mu), which the message quotes."""


class SolverFailedError(RuntimeError):
    """No verified transfer, although nothing proves x0 unreachable."""


@dataclass(frozen=True)
class SolverOptions:
    """The solve's options.  `starts` and `seed` are unused: the LP seeds
    every solve and nothing is drawn at random; they stay fields so that
    callers that pass them still run."""

    starts: int = 64
    seed: int = 0
    #: Reach residual a converged program must reach (a constant, not a field).
    feas_tol: ClassVar[float] = 1e-8


def horizon(spec: ProblemSpec) -> float:
    """50 time constants of the problem's slowest mode: the cap of
    `lp_oracle`'s horizon search."""
    spectrum = spec.system.spectrum
    slowest = min(abs(c) for c in spectrum.scaled_numerators)
    return 50.0 * spectrum.common_denominator / slowest


@dataclass(frozen=True)
class LocalSolution:
    """Best point of one program's starts."""

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


def _eval(spec: ProblemSpec, levels, gaps: np.ndarray, scale: np.ndarray):
    """Residuals scale * (reach - x0), (m, n), and their gap Jacobians
    (m, n, K) of gap stack (m, K), under one (K,) level word or one (m, K)
    level row per gap row; scale (n,) is the LP's row scale at its horizon
    (`simulate._row_shift`), so that no row grows with e^(|lam| t_f) on a
    stable mode."""
    times = np.cumsum(gaps, axis=-1)
    system = spec.system
    reach, time_jac = reach_kernel(system.eigenvalues, system.gains, levels, times)
    # the gap Jacobian, by the chain rule through t_j = sum_{m <= j} gap_m,
    # is the reverse cumulative sum of the time Jacobian
    J = np.cumsum(time_jac[..., ::-1], axis=-1)[..., ::-1]
    return scale * (reach - spec.x0), scale[:, None] * J


def _eval1(instance: NlpInstance, gaps: np.ndarray, scale: np.ndarray):
    """`_eval` of a single gap vector under the program's levels."""
    c, J = _eval(instance.spec, instance._v, gaps[None, :], scale)
    return c[0], J[0]


def _half_sq(c: np.ndarray) -> np.ndarray:
    # 0.5 * c_i . c_i per row, each a BLAS dot as for a lone vector
    return 0.5 * (c[:, None, :] @ c[:, :, None])[:, 0, 0]


def _solve_rows(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every system of the stack; a singular one gets the zero step.

    A stacked solve raises when any one matrix is singular, so that case
    falls back to one solve per row.
    """
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.zeros(rhs.shape)
        for i in range(len(A)):
            try:
                step[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return step


def _lm_step(J, c, held, nu):
    """Each row's step -J_f^T y, (J_f J_f^T + nu I) y = c, with J_f its J
    with the held gaps' columns zeroed: in exact arithmetic the K x K step
    -(J_f^T J_f + nu I)^-1 J_f^T c, from an n x n system (Nocedal & Wright,
    Numerical Optimization, 2nd ed., 10.3); 0 on a row whose system is
    singular."""
    J_f = np.where(held[:, None, :], 0.0, J)
    A = J_f @ J_f.transpose(0, 2, 1) + nu[:, None, None] * np.eye(c.shape[1])
    return -(_solve_rows(A, c)[:, None, :] @ J_f)[:, 0, :]


def _lm(spec, gaps, levels, scale):
    """Projected Levenberg-Marquardt on || scale * (reach(t) - x0) ||, per row.

    The rows of gaps (m, K) are independent runs, under one (K,) level
    word or one (m, K) level row each.  Each row keeps its own damping and
    iteration count.  An attempt that does not lower the row's residual,
    as a singular system's zero step does not, multiplies the damping by
    10; an accepted step ends the iteration and multiplies it by 0.3, to no
    less than 1e-12.  A row stops at its residual tolerance, after
    `LM_ITERATIONS` iterations, or once its damping passes 1e16.  That is
    the one stop of an iteration that finds no step, and since an iteration
    opens at a damping of at least 1e-12 it comes within 29 attempts, so no
    attempt cap is needed.  A row that stops writes back its gaps and
    residual and leaves the stack, so every pass works on live rows only.
    A gap at 0 whose gradient J^T c is positive is held out of the step
    (`_lm_step`; projected Newton, Bertsekas 1982), so a step that would
    push it below 0 is not clipped to an almost null move.
    """
    m, K = gaps.shape
    out_gaps, out_c = np.empty((m, K)), np.empty((m, spec.order))
    rows = np.arange(m)
    gaps = gaps.copy()
    levels = np.broadcast_to(levels, gaps.shape)
    c, J = _eval(spec, levels, gaps, scale)
    f = _half_sq(c)
    nu = np.full(m, 1e-3)
    iters = np.zeros(m, dtype=int)
    while True:
        live = (iters < LM_ITERATIONS) & (np.max(np.abs(c), axis=1) > 1e-12) & (nu <= 1e16)
        if not live.all():
            out_gaps[rows[~live]], out_c[rows[~live]] = gaps[~live], c[~live]
            rows, gaps, levels, c, J, f, nu, iters = (
                a[live] for a in (rows, gaps, levels, c, J, f, nu, iters)
            )
        if rows.size == 0:
            return out_gaps, out_c
        held = (gaps <= 0.0) & ((c[:, None, :] @ J)[:, 0, :] > 0.0)
        trial = np.maximum(gaps + _lm_step(J, c, held, nu), 0.0)
        ct, Jt = _eval(spec, levels, trial, scale)
        ft = _half_sq(ct)
        better = ft < f
        np.copyto(gaps, trial, where=better[:, None])
        np.copyto(c, ct, where=better[:, None])
        np.copyto(J, Jt, where=better[:, None, None])
        np.copyto(f, ft, where=better)
        nu = np.where(better, np.maximum(nu * 0.3, 1e-12), nu * 10.0)
        iters += better


def _ls_multipliers(J: np.ndarray, w: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Least-squares multipliers on the free gaps; at a degenerate vertex
    that fit can leave a negative reduced gradient on a zero gap, and the
    fit is redone over all gaps with nonnegative bound multipliers."""
    bound = gaps <= COLLAPSE_TOL
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
    projected = np.where(gaps <= COLLAPSE_TOL, np.minimum(grad_l, 0.0), grad_l)
    return float(np.max(np.abs(c))), float(np.max(np.abs(projected)))


def _hessian(instance, J, mult, free):
    """Hessian of mult . c on the free gaps.  It is diagonal in time
    coordinates, so in gap coordinates entry (i, j) is the suffix sum of that
    diagonal from max(i, j): the gap Jacobian's reverse cumulative sum."""
    suffix = (mult * (-instance.spec.system.eigenvalues)) @ J
    return suffix[np.maximum.outer(free, free)]


def _polish(instance, gaps, scale):
    """Newton iterations on the active-set KKT system, merit safeguarded;
    the (gaps, feasibility, KKT residual) of the last accepted point.

    A point that meets the tolerances (`feas_tol` and `KKT_TOL`, each
    times 1e-2) gets one more Newton step, which is kept only if the merit
    falls on its first trial, with no backtracking; then the polish stops.
    That step takes the SLSQP point, good to `feas_tol`, to rounding level.
    Gaps under `COLLAPSE_TOL`, the simulator's zero length, are set to 0,
    and the multipliers start as the least-squares fit there, from its one
    evaluation.  A trial's gaps under 1e-12 are set to 0 before it is
    evaluated; each accepted trial's residuals and Jacobian serve the next step.
    A gap that the last accepted point leaves under `COLLAPSE_TOL` is set to
    0 there too, and the point evaluated once more, so every gap returned is
    0 or at least the simulator's zero length.
    """
    n = instance.order
    w = instance.gap_weights
    gaps = np.where(gaps < COLLAPSE_TOL, 0.0, gaps)
    c, J = _eval1(instance, gaps, scale)
    mult = _ls_multipliers(J, w, gaps)
    feas, kkt = _kkt_state(c, J, w, gaps, mult)
    for _ in range(80):
        finishing = feas <= SolverOptions.feas_tol * 1e-2 and kkt <= KKT_TOL * 1e-2
        grad_l = w + J.T @ mult
        # free set: positive gaps plus bound coords pushed off the bound
        free = np.where((gaps > COLLAPSE_TOL) | (grad_l < -KKT_TOL * 1e-2))[0]
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
        if not np.isfinite(delta).all():
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
            # a round-off floor on trials: snapping at COLLAPSE_TOL costs more steps
            trial[trial < 1e-12] = 0.0
            trial_mult = mult + alpha * d_mult
            c_t, J_t = _eval1(instance, trial, scale)
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
    if np.any((gaps > 0.0) & (gaps < COLLAPSE_TOL)):
        gaps = np.where(gaps < COLLAPSE_TOL, 0.0, gaps)
        c, J = _eval1(instance, gaps, scale)
        feas, kkt = _kkt_state(c, J, w, gaps, mult)
    return gaps, feas, kkt


def _slsqp(instance, gaps, scale):
    """SLSQP (Kraft, DFVLR-FB 88-28, 1988) on min w . gaps subject to
    scale * (reach(gaps) - x0) = 0 and gaps >= 0, stopped at `feas_tol`: it
    has to find the active set, not the last digits, which `_polish` supplies.  It runs
    scipy's reverse-communication routine, its state and workspace set up
    as `scipy.optimize.minimize` sets them up, and evaluates each point the
    routine asks for by `_eval1`, whose Jacobian also serves its next
    request, which is always for the same point."""
    m, n, w = instance.order, len(gaps), instance.gap_weights
    acc = SolverOptions.feas_tol
    names = "alpha f0 gs h1 h2 h3 h4 t t0 exact inconsistent reset iter line mode"
    state = dict.fromkeys(names.split(), 0)
    state.update(acc=acc, tol=10.0 * acc, itermax=400, m=m, meq=m, n=n)
    x, C, mult = np.clip(gaps, 0.0, np.inf), np.zeros((m, n), order="F"), np.zeros(m + 2 * n + 2)
    # scipy's buffer size, for m equality constraints and no inequalities
    size = n * (21 * n + 75) // 2 + 2 * m * (1 - n) + 28
    work = np.zeros(n), np.full(n, np.nan), np.zeros(size), np.zeros(len(mult), dtype=np.int32)
    d, J = _eval1(instance, x, scale)
    C[:] = J
    while True:
        slsqp(state, float(w @ x), w, C, d, x, mult, *work)
        if state["mode"] == 1:
            d, J = _eval1(instance, x, scale)
        elif state["mode"] == -1:
            C[:] = J
        else:
            break
    out = np.maximum(x, 0.0)
    return out if np.all(np.isfinite(out)) else gaps


def _descend(instance, gaps, c, scale) -> LocalSolution:
    """One restored start through at most `SQP_ROUNDS` rounds of SLSQP,
    stopped at the feasibility tolerance, and a Newton polish that finishes
    to rounding level.  A round that ends short of the tolerances hands the
    polished point to the next one; a start that restoration left off the
    manifold is reported infeasible as it is."""
    x0_scale = max(1.0, float(np.max(np.abs(instance.x0))))
    feas = float(np.max(np.abs(c)))
    kkt = math.inf
    status = INFEASIBLE
    if feas <= 1e-6 * x0_scale:
        status = ITERATION_LIMIT
        for _round in range(SQP_ROUNDS):
            gaps, feas, kkt = _polish(instance, _slsqp(instance, gaps, scale), scale)
            if feas <= SolverOptions.feas_tol and kkt <= KKT_TOL:
                status = CONVERGED
                break
    times = np.cumsum(gaps)
    cost = float(instance.cost_value(times))
    return LocalSolution(instance.instance_id, tuple(map(float, times)), cost, kkt, feas, status)


def _rank(solution: LocalSolution) -> tuple:
    """The key by which `min` picks a program's solution among its starts:
    converged solutions first, by cost, then the rest by constraint
    residual; `min` keeps the first of a tie."""
    converged = solution.status == CONVERGED
    return not converged, solution.cost if converged else solution.constraint_residual


def solve_nlp(instance: NlpInstance, restored: tuple, scale: np.ndarray) -> LocalSolution:
    """Best solution by `_rank` of one program over its restored starts,
    the (gaps (m, K), residuals (m, n)) pair that `_restore` gives it under
    the row scale `scale`, each descended over gaps >= 0 by `_descend`.
    The counts go to the "timefuel" logger at DEBUG level."""
    solutions = [_descend(instance, g, c, scale) for g, c in zip(*restored)]
    descended = sum(s.status != INFEASIBLE for s in solutions)
    converged = sum(s.status == CONVERGED for s in solutions)
    _log.debug("%s: %d starts, %d descended, %d converged",
               instance.instance_id, len(solutions), descended, converged)
    return min(solutions, key=_rank)


def _restore(spec, instances, starts: dict, scale: np.ndarray) -> dict:
    """Program id -> (gaps, residuals) of the (m, K) start rows that
    `starts` maps its id to, restored under the row scale `scale` in one
    `_lm` stack of all programs' rows, each under its own levels and padded
    to the longest word with level-0 slots of gap 0: zero Jacobian columns,
    so those gaps stay 0."""
    programs = [inst for inst in instances if inst.instance_id in starts]
    if not programs:
        return {}
    width = max(inst.slot_count for inst in programs)
    rows = [np.pad(starts[i.instance_id], [(0, 0), (0, width - i.slot_count)]) for i in programs]
    levels = [np.pad(i._v, (0, width - i.slot_count)) for i in programs]
    levels = np.repeat(levels, [len(r) for r in rows], axis=0)
    gaps, c = _lm(spec, np.concatenate(rows), levels, scale)
    ends = np.cumsum([len(r) for r in rows[:-1]])
    return {
        inst.instance_id: (g[:, : inst.slot_count], r)
        for inst, g, r in zip(programs, np.split(gaps, ends), np.split(c, ends))
    }


def _lp_word(inputs: np.ndarray, horizon: float) -> SwitchingSchedule:
    """The LP's cell inputs rounded to {-1, 0, 1} and condensed."""
    ends = horizon * np.arange(1, len(inputs) + 1) / len(inputs)
    return schedule_from_times([int(v) for v in np.rint(inputs)], ends)


def _embed(levels: Sequence[int], word: SwitchingSchedule) -> tuple[list[int], list[int]]:
    """(segments, slots): the heaviest order-preserving embedding of the
    word's segments in template slots of their own level, weighed by the
    segments' durations.  best[s][j] is the heaviest of segments s.. in
    slots j..; read forward, each segment takes the earliest slot that
    keeps the embedding heaviest, so when the whole word fits, each segment
    lands in the first matching slot after the previous one."""
    S, K, durations = len(word.levels), len(levels), word.durations.tolist()
    best = [[0.0] * (K + 1) for _ in range(S + 1)]
    for s in range(S - 1, -1, -1):
        for j in range(K - 1, -1, -1):
            here = durations[s] + best[s + 1][j + 1] if levels[j] == word.levels[s] else 0.0
            best[s][j] = max(here, best[s][j + 1], best[s + 1][j])
    segments, slots, s, j = [], [], 0, 0
    while s < S and j < K:
        if levels[j] == word.levels[s] and durations[s] + best[s + 1][j + 1] == best[s][j]:
            segments.append(s)
            slots.append(j)
            s, j = s + 1, j + 1
        elif best[s][j + 1] == best[s][j]:
            j += 1
        else:
            s += 1
    return segments, slots


def _lp_seeds(instances, word: SwitchingSchedule) -> dict:
    """Program id -> one start row, the durations of the word's segments in
    the slots `_embed` gives them and gap 0 elsewhere, for each program that
    embeds the whole word; when none does, as under a switch budget the word
    exceeds, for every program, with the heaviest part of the word it
    embeds, which `_restore` pulls onto the manifold.  A word of no segment
    embeds in every word, so it seeds every program with gaps all 0."""
    embedded = {inst.instance_id: _embed(inst.levels, word) for inst in instances}
    whole = [i for i in instances if len(embedded[i.instance_id][0]) == len(word.levels)]
    _log.debug(
        "the LP-seeded starts run: the LP's word %s fits %d of %d programs%s",
        ",".join(map(str, word.levels)), len(whole), len(instances),
        "" if whole else ", so each gets the heaviest part of it that it embeds",
    )
    seeds = {}
    for inst in whole or instances:
        segments, slots = embedded[inst.instance_id]
        seeds[inst.instance_id] = np.zeros((1, inst.slot_count))
        seeds[inst.instance_id][0, slots] = word.durations[segments]
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
    """Solve the programs, verify against the simulator, keep the cheapest.

    A proof from `simulate.null_certificate` that x0 is unreachable makes
    the problem infeasible before anything else runs.  Then the
    fixed-horizon LP runs, and a solve whose LP finds no transfer fails at
    once.  Otherwise one pass of the seeds of `_lp_seeds`, restored in one
    `_restore` stack and each program descended by `solve_nlp`, all on the
    rows scaled as the LP's at its horizon; a program with no seed stays
    `SKIPPED`.  A converged program only competes after its decoded
    schedule, propagated from x0, lands on the origin within 10x the
    feasibility tolerance.  Cost ties are broken by fewer switchings,
    then by the least final time among the tied programs on each level word,
    then by the word, then by id: the programs that embed one word differ in
    final time only by rounding.  With no verified answer the solver has
    failed, its message quoting the least residual (in the scaled units)
    after the descents and after restoration, the LP's cost and word or the
    horizons it tried, and the certificate's two gauge bounds.  The seeds used, and why, go to the
    "timefuel" logger at DEBUG level.  `options` is unused.
    """
    proof = null_certificate(spec)
    if proof.proven:
        raise InfeasibleProblemError(
            f"x0 is outside the null-controllable region, so no input reaches "
            f"the origin at any horizon: mu = ({', '.join(f'{m:.6g}' for m in proof.mu)}) "
            f"gives mu.x0 = {proof.mu_x0:.6g} > h(mu) = {proof.h:.6g}, the support "
            f"of the unstable part of that region"
        )
    gauge = (
        f"the gauge of x0's unstable part in the null-controllable region "
        f"lies in [{proof.lower:.6g}, {proof.upper:.6g}]"
    )
    longest = horizon(spec)
    lp = lp_oracle(spec, longest)
    if lp is None:
        raise SolverFailedError(
            f"the fixed-horizon LP found no input reaching the origin at the "
            f"horizons it tried, doubling from the minimum-time bound "
            f"{_time_bound(spec):.6g} to {longest:.6g} and at 62 horizons "
            f"geometric between the two; {gauge}"
        )
    lp_cost, lp_t_f, inputs = lp
    word = _lp_word(inputs, lp_t_f)
    instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
    scale = np.exp(_row_shift(spec, lp_t_f))
    restored = _restore(spec, instances, _lp_seeds(instances, word), scale)
    solutions = [
        solve_nlp(inst, restored[inst.instance_id], scale)
        if inst.instance_id in restored
        else LocalSolution(inst.instance_id, (), math.inf, math.inf, math.inf, SKIPPED)
        for inst in instances
    ]
    verified = _verified(spec, instances, solutions)
    if not verified:
        closest = min(solutions, key=lambda s: s.constraint_residual)
        # the least residual of any restored start row, and its program
        least, least_id = min((np.abs(c).max(axis=1).min(), i) for i, (_, c) in restored.items())
        refusal = (
            f"no program verified (best constraint residual "
            f"{closest.constraint_residual:.3e} ({closest.instance_id}), best restored "
            f"residual {least:.3e} ({least_id})), although the fixed-horizon LP "
            f"reaches the origin at cost {lp_cost:.6f} (t_f {lp_t_f:.6g}, word "
            f"{','.join(map(str, word.levels))}); {gauge}"
        )
        budget = spec.max_switches
        if budget is not None and word.switch_count > budget:
            refusal += (
                f"; the LP's word has {word.switch_count} switches, over the budget "
                f"of {budget}, so it says nothing of the budgeted problem"
            )
        raise SolverFailedError(refusal)
    cost = min(v.cost for v in verified)
    tied = [v for v in verified if v.cost <= cost * (1.0 + TIE_REL_TOL) + 1e-300]
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
