import importlib.util
import json
import logging
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from timefuel import LtiSystem, build_spectrum, parse_problem, simulate, solver, validate_problem
from timefuel.builder import build_all, sequence_instance
from timefuel.sequences import CandidateSequence
from timefuel.simulate import (
    SwitchingSchedule,
    _lp_transfer,
    lp_oracle,
    null_certificate,
    propagate,
    schedule_from_times,
)
from timefuel.solver import (
    CONVERGED,
    INFEASIBLE,
    KKT_TOL,
    InfeasibleProblemError,
    SolverFailedError,
    SolverOptions,
    _lm,
    _lp_seeds,
    _lp_word,
    _ls_multipliers,
    _embed,
    _restore,
    _solve_rows,
    _verified,
    horizon,
    solve_nlp,
    solve_time_fuel,
)

from test_builder import make_spec
from test_simulate import comparison_set, near_boundary_draw_0

def scalar_spec(lam=-1.0, b=1.0, x0=0.5, k=1.0):
    system = LtiSystem(build_spectrum([(int(lam), 1)]), (b,))
    return validate_problem(system, [x0], k)


def row_scale(spec, horizon=0.0):
    """The solver's row scale e^(min(lam, 0) T) at the LP horizon T: all
    ones at T = 0, where the rows are the raw reach - x0."""
    return np.exp(simulate._row_shift(spec, horizon))


def random_rows(instances, count=16, seed=0):
    """Program id -> (count, K) start rows of gaps drawn uniform in
    [0, 1 / n) by default_rng(seed), program by program."""
    rng = np.random.default_rng(seed)
    return {
        inst.instance_id: rng.uniform(0.0, 1.0 / inst.order, (count, inst.slot_count))
        for inst in instances
    }


def restored_alone(inst, count=12):
    """One program's random rows restored on their own, for `solve_nlp`."""
    rows = random_rows([inst], count)
    return _restore(inst.spec, [inst], rows, row_scale(inst.spec))[inst.instance_id]


def cheaper_lp_oracle(spec, t_max):
    """`lp_oracle` with its cost scaled by 0.99, below the optimum."""
    cost, t_f, inputs = lp_oracle(spec, t_max)
    return 0.99 * cost, t_f, inputs


def test_no_time_box_option():
    # the final time is free: the solver takes no horizon bound
    with pytest.raises(TypeError, match="t_max"):
        SolverOptions(t_max=1.0)


class TestSolveNlp:
    def test_scalar_closed_form(self):
        # single negative bang: t_f = ln(1 + x0), J = (k + 1) t_f
        spec = scalar_spec()
        inst = sequence_instance(spec, CandidateSequence.from_levels((-1,)))
        sol = solve_nlp(inst, restored_alone(inst), row_scale(inst.spec))
        assert sol.status == CONVERGED
        expected = 2.0 * math.log(1.5)
        assert sol.cost == pytest.approx(expected, abs=1e-9)
        assert sol.times[-1] == pytest.approx(math.log(1.5), abs=1e-9)

    def test_example_winner_instance(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((-1, 0, 1))
        )
        sol = solve_nlp(inst, restored_alone(inst), row_scale(inst.spec))
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(1.8940, abs=5e-4)
        assert sol.times[-1] == pytest.approx(1.1480, abs=5e-4)

    def test_origin_start(self, example_spec):
        spec = validate_problem(example_spec.system, [0.0, 0.0], 1.0)
        inst = sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        sol = solve_nlp(inst, restored_alone(inst), row_scale(inst.spec))
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_solution_invariants(self, example_spec):
        for inst in build_all(example_spec):
            sol = solve_nlp(inst, restored_alone(inst), row_scale(inst.spec))
            if sol.status != CONVERGED:
                continue
            assert sol.constraint_residual <= SolverOptions.feas_tol
            assert sol.kkt_residual <= KKT_TOL
            assert sol.cost == pytest.approx(
                inst.cost_value(np.asarray(sol.times)), rel=1e-12
            )
            assert np.all(np.diff(np.r_[0.0, sol.times]) >= -1e-12)


class TestDecodeSchedule:
    LEVELS = (0, 1, 0, -1)

    def test_all_equal_times_empty(self):
        sched = schedule_from_times(self.LEVELS, [0.4, 0.4, 0.4, 0.4])
        assert sched == SwitchingSchedule.empty()

    def test_collapse_example(self):
        sched = schedule_from_times(self.LEVELS, [0.0, 0.3, 0.3, 0.9])
        assert sched.levels == (1, -1)
        assert sched.breakpoints == pytest.approx((0.0, 0.3, 0.9))

    def test_decode_idempotent(self):
        sched = schedule_from_times(self.LEVELS, [0.1, 0.4, 0.9, 1.5])
        again = schedule_from_times(sched.levels, sched.breakpoints[1:])
        assert again == sched

    def test_subsequence_of_template(self):
        sched = schedule_from_times(self.LEVELS, [0.0, 0.5, 0.5, 1.0])
        assert sched.levels == (1, -1)


class TestSolveTimeFuel:
    def test_example_k1(self, example_spec):
        report = solve_time_fuel(example_spec)
        best = report.best
        assert best.schedule.levels == (-1, 0, 1)
        assert best.cost == pytest.approx(1.8940, abs=5e-4)
        assert best.final_time == pytest.approx(1.1480, abs=5e-4)
        assert best.sparsity == pytest.approx(0.3502, abs=5e-4)
        assert best.instance_id == "OP2-minus"

    def test_best_reverifies(self, example_spec):
        report = solve_time_fuel(example_spec)
        terminal = propagate(
            example_spec.system, example_spec.x0, report.best.schedule
        ).terminal_state
        assert np.max(np.abs(terminal)) <= 1e-6
        from timefuel.simulate import evaluate_cost

        J, _, _ = evaluate_cost(report.best.schedule, example_spec.k)
        assert report.best.cost == pytest.approx(J, rel=1e-9)

    def test_origin_needs_no_control(self, example_spec):
        spec = validate_problem(example_spec.system, [0.0, 0.0], 1.0)
        report = solve_time_fuel(spec)
        assert report.best.cost == 0.0
        assert report.best.schedule == SwitchingSchedule.empty()
        assert report.best.sparsity == 1.0

    def test_unreachable_state_infeasible(self):
        # unstable scalar mode: reachable set is (-b/lam, b/lam) = (-1, 1)
        system = LtiSystem(build_spectrum([(1, 1)]), (1.0,))
        spec = validate_problem(system, [2.0], 1.0)
        with pytest.raises(InfeasibleProblemError):
            solve_time_fuel(spec)

    def test_monotone_in_k(self, example_spec):
        costs = []
        times = []
        for k in (0.5, 1.0, 2.0, 3.0):
            spec = validate_problem(example_spec.system, [0.6, 0.4], k)
            report = solve_time_fuel(spec)
            costs.append(report.best.cost)
            times.append(report.best.final_time)
        assert all(a < b for a, b in zip(costs, costs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))

    def test_deterministic_same_seed_twice(self, example_spec):
        a = solve_time_fuel(example_spec)
        b = solve_time_fuel(example_spec)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_report_shape(self, example_spec):
        report = solve_time_fuel(example_spec)
        assert len(report.per_instance) == 4
        ids = [s.instance_id for s in report.per_instance]
        assert ids == sorted(ids)
        assert report.best.instance_id in report.ties


class TestHigherOrder:
    def _check(self, n, x0):
        from timefuel import LtiSystem, build_spectrum
        from timefuel.sequences import enumerate_candidates
        from timefuel.simulate import evaluate_cost

        system = LtiSystem(
            build_spectrum([(-i, 1) for i in range(1, n + 1)]), (1.0,) * n
        )
        spec = validate_problem(system, x0, 1.0)
        report = solve_time_fuel(spec)
        best = report.best
        terminal = propagate(spec.system, spec.x0, best.schedule).terminal_state
        assert np.max(np.abs(terminal)) <= 1e-8
        J, on, _ = evaluate_cost(best.schedule, 1.0)
        assert best.cost == pytest.approx(J, rel=1e-9)
        levels = best.schedule.levels
        assert CandidateSequence.from_levels(levels) in enumerate_candidates(n)
        return report

    def test_fourth_order_transfer(self):
        self._check(4, [0.1, 0.2, 0.4, 0.5])

    def test_sixth_order_transfer(self):
        # the answer comes from the LP's seeds: the only feasible shape is
        # an eleven-slot alternating word at t_f ~ 2.2
        report = self._check(6, [0.1, 0.2, 0.4, 0.5, 0.8, 1.0])
        assert report.best.schedule.levels == (-1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1)


def lm_reference(instance, gaps, iterations, tol=1e-12):
    """Start-by-start projected Levenberg-Marquardt with held gaps, the
    stacked `_lm`'s model: the step is -J_f^T y with
    (J_f J_f^T + nu I) y = c, J_f being J with the held gaps' columns 0."""

    def evaluate(g):
        times = np.cumsum(g)
        A = instance.constraint_jacobian(times)
        J = np.ascontiguousarray(np.flip(np.cumsum(np.flip(A, axis=1), axis=1), axis=1))
        return instance.constraint_residuals(times), J

    c, J = evaluate(gaps)
    f = 0.5 * float(c @ c)
    nu = 1e-3
    eye = np.eye(len(c))
    for _ in range(iterations):
        if np.max(np.abs(c)) <= tol:
            break
        improved = False
        held = (gaps <= 0.0) & (c @ J > 0.0)
        J_f = np.where(held, 0.0, J)
        while True:
            try:
                y = np.linalg.solve(J_f @ J_f.T + nu * eye, c)
            except np.linalg.LinAlgError:
                y = None
            if y is not None:
                trial = np.maximum(gaps - y @ J_f, 0.0)
                ct, Jt = evaluate(trial)
                ft = 0.5 * float(ct @ ct)
                if ft < f:
                    gaps, c, J, f = trial, ct, Jt, ft
                    nu = max(nu * 0.3, 1e-12)
                    improved = True
                    break
            # a singular system, like a rejected step, only raises the damping
            nu *= 10.0
            if nu > 1e16:
                break
        if not improved:
            break
    return gaps, c


def check_one_stack(spec, instances, starts, monkeypatch):
    """`_restore` of these start rows makes one `_lm` call, whose rows are,
    program by program, bitwise the rows restored alone at the stack's
    width (trailing level-0 slots of gap 0), with the padded gaps exactly
    0; the restored gaps are the unpadded ones.  The rows are scaled as
    under an LP horizon of 1."""
    stacks = []
    scale = row_scale(spec, 1.0)

    def recording_lm(spec, gaps, levels, scale):
        stacks.append(_lm(spec, gaps, levels, scale))
        return stacks[-1]

    monkeypatch.setattr(solver, "_lm", recording_lm)
    restored = _restore(spec, instances, starts, scale)
    programs = [inst for inst in instances if inst.instance_id in starts]
    width = max(inst.slot_count for inst in programs)
    assert len(stacks) == 1 and sorted(restored) == sorted(starts)
    alone = []
    for inst in programs:
        pad = width - inst.slot_count
        rows = np.pad(starts[inst.instance_id], [(0, 0), (0, pad)])
        gaps, c = _lm(spec, rows, np.pad(inst.levels, (0, pad)), scale)
        assert np.array_equal(gaps[:, inst.slot_count:], np.zeros((len(gaps), pad)))
        assert np.array_equal(restored[inst.instance_id][0], gaps[:, : inst.slot_count])
        assert np.array_equal(restored[inst.instance_id][1], c)
        alone.append((gaps, c))
    assert np.array_equal(stacks[0][0], np.concatenate([g for g, _ in alone]))
    assert np.array_equal(stacks[0][1], np.concatenate([c for _, c in alone]))


class TestStackedRestoration:
    def test_lm_rows_match_reference(self, example_spec, monkeypatch):
        # each row of one stacked run is bitwise the start-by-start run
        monkeypatch.setattr(solver, "LM_ITERATIONS", 60)
        # n = 6 has 12- and 13-slot programs, where BLAS would round the
        # stacked J^T J differently from the plain loop
        specs = (
            example_spec,
            make_spec(4, x0=[0.1, 0.2, 0.4, 0.5]),
            make_spec(6, x0=[0.1, 0.2, 0.4, 0.5, 0.8, 1.0]),
        )
        for inst in (inst for spec in specs for inst in build_all(spec)[:3]):
            gaps = random_rows([inst])[inst.instance_id]
            stacked, c = _lm(inst.spec, gaps, inst.levels, row_scale(inst.spec))
            for i in range(len(gaps)):
                ref_gaps, ref_c = lm_reference(inst, gaps[i], 60)
                assert np.array_equal(stacked[i], ref_gaps)
                assert np.array_equal(c[i], ref_c)

    @pytest.mark.parametrize(
        "x0",
        [
            # the reference problem: 4 programs
            [0.6, 0.4],
            # the n=4 counterexample: 8 programs
            [0.2, 0.15, 0.1, 0.05],
            # the n=4 problem of TestHigherOrder: 8 programs
            [0.1, 0.2, 0.4, 0.5],
        ],
    )
    def test_stack_matches_single_rows(self, x0):
        # restoring all starts of a program as one stack gives, row by row,
        # the bits of restoring each start alone, here under the row scale
        # of an LP horizon of 1
        for inst in build_all(make_spec(len(x0), x0=x0)):
            starts = random_rows([inst])[inst.instance_id]
            scale = row_scale(inst.spec, 1.0)
            gaps, c = _lm(inst.spec, starts, inst.levels, scale)
            for i in range(len(starts)):
                gaps_1, c_1 = _lm(inst.spec, starts[i:i + 1], inst.levels, scale)
                assert np.array_equal(gaps[i], gaps_1[0])
                assert np.array_equal(c[i], c_1[0])

    @pytest.mark.parametrize(
        "x0, max_switches, count",
        [
            ([0.6, 0.4], None, 16),
            # the n=4 counterexample
            ([0.2, 0.15, 0.1, 0.05], None, 16),
            # the n=4 problem of TestHigherOrder
            ([0.1, 0.2, 0.4, 0.5], None, 16),
            # n = 6: 12- and 13-slot programs
            ([0.1, 0.2, 0.4, 0.5, 0.8, 1.0], None, 6),
            # the reference problem with a switch budget: SEQ programs of
            # one to four slots
            ([0.6, 0.4], 3, 16),
        ],
        ids=["ref2", "counterexample", "n4", "n6", "ref2-ms3"],
    )
    def test_programs_share_a_stack(self, x0, max_switches, count, monkeypatch):
        # every program's starts are restored in one stack, padded to the
        # longest word; row by row it has the bits of restoring each
        # program's starts alone at the stack's width, and padded gaps end
        # at exactly 0
        spec = make_spec(len(x0), x0=x0)
        if max_switches is not None:
            spec = validate_problem(spec.system, spec.x0, spec.k, max_switches)
        instances = build_all(spec)
        assert len({inst.slot_count for inst in instances}) > 1
        check_one_stack(spec, instances, random_rows(instances, count), monkeypatch)

    def test_held_gaps_cut_restoration_passes(self, example_spec, monkeypatch):
        # a gap at 0 whose gradient points below 0 is held out of the
        # step, not clipped to a near-null move, so the runs no longer
        # crawl along the bound to `LM_ITERATIONS`: the one stack of 16
        # random rows per program of the reference problem takes 42 passes,
        # and 234 with clipped steps
        passes = []

        def counting_solve_rows(A, rhs):
            passes.append(len(A))
            return _solve_rows(A, rhs)

        monkeypatch.setattr(solver, "_solve_rows", counting_solve_rows)
        instances = build_all(example_spec)
        _restore(example_spec, instances, random_rows(instances), row_scale(example_spec))
        assert len(passes) <= 60

    def test_no_rows_restore_to_nothing(self, example_spec):
        assert _restore(example_spec, build_all(example_spec), {}, row_scale(example_spec)) == {}

    def test_dual_step_is_the_projected_step(self):
        # the n x n step -J_f^T (J_f J_f^T + nu I)^-1 c equals the K x K
        # projected step on the free gaps, here in the SVD form
        # -V diag(s / (s^2 + nu)) U^T c of J_F = U diag(s) V^T, and 0 on the
        # held gaps.  At least n gaps stay free, as J_f J_f^T is otherwise
        # singular but for nu
        rng = np.random.default_rng(22)
        m = 24
        for n in range(2, 7):
            for K in (2 * n, 2 * n + 1):
                J = rng.standard_normal((m, n, K))
                c = rng.standard_normal((m, n))
                nu = 10.0 ** rng.uniform(-12.0, 3.0, m)
                held = np.zeros((m, K), dtype=bool)
                for i in range(m):
                    held[i, rng.choice(K, int(rng.integers(0, K - n + 1)), replace=False)] = True
                step = solver._lm_step(J, c, held, nu)
                assert held.any()
                for i in range(m):
                    free = ~held[i]
                    U, sv, Vt = np.linalg.svd(J[i][:, free], full_matrices=False)
                    expected = np.zeros(K)
                    expected[free] = -Vt.T @ (sv / (sv**2 + nu[i]) * (U.T @ c[i]))
                    assert np.all(step[i][held[i]] == 0.0)
                    assert np.max(np.abs(step[i] - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_singular_systems_stop_at_the_damping_bound(self, example_spec, monkeypatch):
        # a row whose every system is singular gets the zero step, which
        # leaves its residual as it is and so is rejected: that only raises
        # its damping, from 1e-3 by 10 a pass, and the one damping stop ends
        # it after 20 passes with its gaps unchanged
        passes = []

        def singular_rows(A, rhs):
            passes.append(len(A))
            return np.zeros(rhs.shape)

        monkeypatch.setattr(solver, "_solve_rows", singular_rows)
        inst = build_all(example_spec)[0]
        start = np.zeros((1, inst.slot_count))
        gaps, _ = _lm(example_spec, start, inst.levels, row_scale(example_spec))
        assert passes == [1] * 20
        assert np.array_equal(gaps, start)

    def test_singular_system_falls_back_to_rows(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 3, 3))
        A[2] = 0.0
        rhs = rng.standard_normal((4, 3))
        # the singular row gets the zero step, the others their own solve
        step = _solve_rows(A, rhs)
        assert np.array_equal(step[2], np.zeros(3))
        for i in (0, 1, 3):
            assert np.array_equal(step[i], np.linalg.solve(A[i], rhs[i]))

    def test_reference_answer_pinned(self, example_spec):
        report = solve_time_fuel(example_spec)
        assert report.best.instance_id == "OP2-minus"
        assert report.best.cost == pytest.approx(1.893979044212426, rel=1e-12)
        # the LP's word -1,0,1 seeds OP2-minus alone
        statuses = {s.instance_id: s.status for s in report.per_instance}
        assert statuses == {
            "OP1-minus": solver.SKIPPED,
            "OP1-plus": solver.SKIPPED,
            "OP2-minus": CONVERGED,
            "OP2-plus": solver.SKIPPED,
        }

    def test_fourth_order_answer_pinned(self):
        spec = make_spec(4, x0=[0.1, 0.2, 0.4, 0.5])
        report = solve_time_fuel(spec)
        assert report.best.instance_id == "OP2-minus-+-"
        assert report.best.cost == pytest.approx(1.5052358615884727, rel=1e-12)


def stable_spec(rates, x0):
    system = LtiSystem(build_spectrum([(-r, 1) for r in rates]), (1.0,) * len(rates))
    return validate_problem(system, x0, 1.0)


def check_against_lp(spec, report):
    """The answer lands on the origin and costs within 5e-3 of the LP."""
    best = report.best
    terminal = propagate(spec.system, spec.x0, best.schedule).terminal_state
    assert np.max(np.abs(terminal)) <= 10.0 * SolverOptions.feas_tol
    oracle, _horizon, _inputs = lp_oracle(spec, 3.0 * best.final_time + 1.0)
    assert abs(best.cost - oracle) / oracle < 5e-3, (best.cost, oracle)


class TestLpRetry:
    """Stable problems solved from the LP's seeds."""

    COUNTEREXAMPLE = ((1, 2, 3, 4), [0.2, 0.15, 0.1, 0.05])

    def test_counterexample_solves(self):
        spec = stable_spec(*self.COUNTEREXAMPLE)
        report = solve_time_fuel(spec)
        check_against_lp(spec, report)
        assert report.best.cost == pytest.approx(1.9461, abs=1e-3)
        assert report.best.schedule.levels == (-1, 0, 1, 0, -1, 0, 1)

    @pytest.mark.parametrize(
        "rates, x0",
        [
            # n=5 draws that only the LP-seeded start solves (LP 2.72957,
            # 2.63353)
            ((2, 3, 4, 5, 6), [0.1222, 0.489, -0.2847, -0.3398, 0.1125]),
            ((2, 3, 4, 5, 6), [-0.184, -0.4323, 0.3869, -0.4779, 0.0373]),
        ],
        ids=["n5-lp2.72957", "n5-lp2.63353"],
    )
    def test_stable_draw_solves(self, rates, x0):
        spec = stable_spec(rates, x0)
        check_against_lp(spec, solve_time_fuel(spec))

    @pytest.mark.parametrize("horizon", [1.40, 1.45, 1.5, 1.6, 1.7, 2.0])
    def test_counterexample_seed_converges(self, horizon):
        # the LP word of each horizon seeds a feasible, near-optimal start
        # of OP2-minus-+-, which the descent must carry to the optimum, not
        # off the manifold into the residual-6.4e-3 valley around it
        spec = stable_spec(*self.COUNTEREXAMPLE)
        instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
        _cost, inputs, _slope = _lp_transfer(spec, horizon)
        word = _lp_word(inputs, horizon)
        scale = row_scale(spec, horizon)
        restored = _restore(spec, instances, _lp_seeds(instances, word), scale)
        seeded = [inst for inst in instances if inst.instance_id in restored]
        solutions = [solve_nlp(i, restored[i.instance_id], scale) for i in seeded]
        verified = {v.instance_id: v.cost for v in _verified(spec, seeded, solutions)}
        assert verified["OP2-minus-+-"] == pytest.approx(1.9461, abs=1e-3)

    def test_seeds_share_a_stack(self, monkeypatch):
        # the seeds of all programs that contain the LP word are restored
        # in one stack, each row with the bits it gets alone at the stack's
        # width
        spec = stable_spec(*self.COUNTEREXAMPLE)
        instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
        word = schedule_from_times((1, 0, -1), [0.3, 0.5, 0.9])
        seeds = _lp_seeds(instances, word)
        slot_counts = {inst.slot_count for inst in instances if inst.instance_id in seeds}
        assert len(seeds) > len(slot_counts) > 1
        check_one_stack(spec, instances, seeds, monkeypatch)

    def test_lp_word_fitting_no_program_is_a_solver_failure(self, monkeypatch):
        # an LP word that no program contains seeds every program with the
        # heaviest part of it that the program embeds, here five of its ten
        # bangs in an OP1 program and four in an OP2 one; from those seeds
        # the solve refuses with the LP's word, as for seeds that fail
        inputs = np.array([1.0, -1.0] * 5)
        monkeypatch.setattr(solver, "lp_oracle", lambda spec, t_max: (3.0, 2.0, inputs))
        spec = stable_spec(*self.COUNTEREXAMPLE)
        word = _lp_word(inputs, 2.0)
        seeds = _lp_seeds(build_all(spec), word)
        assert len(seeds) == 8
        for program, row in seeds.items():
            bangs = 5 if program.startswith("OP1") else 4
            assert row[row > 0.0] == pytest.approx([0.2] * bangs, rel=1e-12)
        with pytest.raises(SolverFailedError, match="word 1,-1,1,-1,1,-1,1,-1,1,-1"):
            solve_time_fuel(spec)

    def test_seeded_starts_run_through_solve_nlp(self, monkeypatch):
        # each program that contains the LP word gets one seeded solve of a
        # single restored start, and no other program runs, whatever the
        # LP's cost: halved, it is below every answer
        calls, words = [], []

        def counting_solve_nlp(instance, restored, scale):
            calls.append((instance.instance_id, restored[0]))
            return solve_nlp(instance, restored, scale)

        def recording_lp_word(inputs, horizon):
            words.append(_lp_word(inputs, horizon))
            return words[-1]

        monkeypatch.setattr(solver, "solve_nlp", counting_solve_nlp)
        monkeypatch.setattr(solver, "_lp_word", recording_lp_word)
        spec = stable_spec(*self.COUNTEREXAMPLE)
        instances = build_all(spec)
        for lp_scale in (1.0, 0.5):

            def scaled_lp_oracle(spec, t_max, scale=lp_scale):
                cost, t_f, inputs = lp_oracle(spec, t_max)
                return scale * cost, t_f, inputs

            calls.clear()
            words.clear()
            monkeypatch.setattr(solver, "lp_oracle", scaled_lp_oracle)
            solve_time_fuel(spec)
            containing = {
                inst.instance_id
                for inst in instances
                if len(_embed(inst.levels, words[0])[0]) == len(words[0].levels)
            }
            assert all(len(gaps) == 1 for _, gaps in calls)
            assert len(words) == 1 and containing
            assert sorted(i for i, _ in calls) == sorted(containing)
            assert len(containing) < len(instances) == 8

    def test_counterexample_deterministic(self):
        spec = stable_spec(*self.COUNTEREXAMPLE)
        a = solve_time_fuel(spec)
        b = solve_time_fuel(spec)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_random_stable_sweep(self):
        # stable systems are null-controllable, so every draw must solve, at
        # the LP's cost.  Draw rule: 9 problems from default_rng(7), order
        # n = 3 + i % 3, eigenvalues -r for n distinct r in 1..6, b = 1, x0
        # uniform in [-0.5, 0.5] rounded to 4 digits, k = 1.
        rng = np.random.default_rng(7)
        for i in range(9):
            n = 3 + i % 3
            rates = sorted(int(r) for r in rng.choice(np.arange(1, 7), n, replace=False))
            x0 = [round(float(v), 4) for v in rng.uniform(-0.5, 0.5, n)]
            spec = stable_spec(rates, x0)
            check_against_lp(spec, solve_time_fuel(spec))


def test_stable_1_solves_from_the_lp_seed(monkeypatch):
    # the free n=4 draw `stable-1` of the benchmark's stable_free set: the
    # LP's word seeds the programs that contain it, and the answer comes
    # from those seeds
    spec = stable_spec((3, 4, 5, 6), [0.0883, -0.3688, -0.2573, -0.0863])
    check_against_lp(spec, solve_time_fuel(spec))


def test_order_two_solves_from_the_lp_seed(monkeypatch, example_spec):
    # the LP runs at every order: at n = 2 it is asked once, and its word
    # seeds the answer
    calls = []

    def counted_lp_oracle(spec, t_max):
        calls.append(spec)
        return lp_oracle(spec, t_max)

    monkeypatch.setattr(solver, "lp_oracle", counted_lp_oracle)
    report = solve_time_fuel(example_spec)
    assert report.best.instance_id == "OP2-minus"
    assert calls == [example_spec]


#: `suboptimal` of tools/reports.py: b = 1, lambda = -1, 2, -3.
SUBOPTIMAL = {
    "eigenvalues": [[-1, 1], [2, 1], [-3, 1]],
    "b": [1, 1, 1],
    "x0": [0.3, 0.1, 0.1],
    "k": 2,
}


#: `unstable` of tools/reports.py: b = 1, lambda = -1/2, 1, 4.
UNSTABLE = {
    "eigenvalues": [[-1, 2], [1, 1], [4, 1]],
    "b": [1, 1, 1],
    "x0": [0.2, 0.2109, -0.1805],
    "k": 1,
}


def test_sixteen_starts_find_the_optimum():
    # the LP word (LP cost 2.315906) seeds OP2-plus--, which reaches the
    # optimum, word 1,0,-1,0,1 at 2.315893, not the local minimum on the
    # embedded word 0,-1,0,1 at 2.324992 that random starts find
    report = solve_time_fuel(parse_problem(SUBOPTIMAL))
    assert report.best.cost == pytest.approx(2.315893, rel=1e-6)
    assert report.best.schedule.levels == (1, 0, -1, 0, 1)


def test_seeded_answer_stands_below_the_lp_cost(monkeypatch, caplog):
    # an LP cost below every seeded answer changes nothing: OP2-plus--
    # answers from its seed at the optimum, word 1,0,-1,0,1 at 2.315893
    monkeypatch.setattr(solver, "lp_oracle", cheaper_lp_oracle)
    with caplog.at_level(logging.DEBUG, logger="timefuel"):
        report = solve_time_fuel(parse_problem(SUBOPTIMAL))
    assert report.best.cost == pytest.approx(2.315893, rel=1e-6)
    assert report.best.schedule.levels == (1, 0, -1, 0, 1)
    assert report.ties == ("OP2-plus--",)
    assert caplog.messages[0] == (
        "the LP-seeded starts run: the LP's word 1,0,-1,0,1 fits 1 of 4 programs"
    )


def test_rank_picks_a_programs_solution():
    # converged beats unconverged and skipped, the cheaper converged beats
    # the dearer, the closer unconverged beats the farther, and on a tie
    # the first stays
    def sol(name, cost, residual, status):
        return solver.LocalSolution(name, (), cost, 0.0, residual, status)

    skipped = sol("a", math.inf, math.inf, solver.SKIPPED)
    stalled = sol("b", 1.0, 1e-3, solver.ITERATION_LIMIT)
    closer = sol("b", 9.0, 1e-4, INFEASIBLE)
    dear, cheap = sol("c", 3.0, 1e-9, CONVERGED), sol("c", 2.0, 1e-9, CONVERGED)
    tie = sol("c", 2.0, 0.0, CONVERGED)
    pairs = [
        (skipped, stalled, stalled),
        (skipped, dear, dear),
        (stalled, dear, dear),
        (dear, stalled, dear),
        (stalled, closer, closer),
        (dear, cheap, cheap),
        (cheap, dear, cheap),
        (cheap, tie, cheap),
        (tie, cheap, tie),
    ]
    assert all(min(old, new, key=solver._rank) is want for old, new, want in pairs)


def never(*args, **kwargs):
    """A stand-in for a step that the solve must not reach."""
    raise AssertionError("called")


def test_certified_refusal_runs_no_lp_and_no_start(monkeypatch):
    # `mixed-3` of the benchmark is unreachable: the gauge certificate,
    # asked first, proves x0 outside the null-controllable region, so the
    # refusal comes at once, with no program built and no LP, and quotes
    # mu, mu.x0 and h(mu)
    for name in ("build_all", "lp_oracle"):
        monkeypatch.setattr(solver, name, never)
    case = next(c for c in benchmark_problems(monkeypatch) if c.name == "mixed-3")
    spec = parse_problem(case.problem)
    with pytest.raises(InfeasibleProblemError) as refusal:
        solve_time_fuel(spec)
    proof = null_certificate(spec)
    assert proof.proven
    mu = ", ".join(f"{m:.6g}" for m in proof.mu)
    assert f"mu = ({mu}) gives mu.x0 = {proof.mu_x0:.6g} > h(mu) = {proof.h:.6g}" in str(
        refusal.value
    )


def test_certificate_is_asked_once_before_the_lp(monkeypatch):
    # `mixed-0` of the benchmark is reachable at n = 4 with one unstable
    # mode: the certificate is asked once, first, proves nothing, and the
    # LP then runs and seeds the answer
    calls = []

    def recorded(name, inner):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapper

    for name in ("null_certificate", "lp_oracle"):
        monkeypatch.setattr(solver, name, recorded(name, getattr(solver, name)))
    case = next(c for c in benchmark_problems(monkeypatch) if c.name == "mixed-0")
    spec = parse_problem(case.problem)
    assert spec.order >= 3 and np.any(spec.system.eigenvalues > 0.0)
    report = solve_time_fuel(spec)
    assert report.best is not None
    assert calls == ["null_certificate", "lp_oracle"]


def test_refusal_quotes_the_least_restored_residual(monkeypatch):
    # `unstable` refuses: the LP's word seeds OP2-plus-- alone, whose
    # descent converges below its restored residual, and the simulator
    # rejects the answer; the refusal quotes both residuals
    restorations, results = [], []

    def recording_restore(*args):
        restorations.append(_restore(*args))
        return restorations[-1]

    def recording_solve_nlp(instance, restored, scale):
        results.append(solve_nlp(instance, restored, scale))
        return results[-1]

    monkeypatch.setattr(solver, "_restore", recording_restore)
    monkeypatch.setattr(solver, "solve_nlp", recording_solve_nlp)
    with pytest.raises(SolverFailedError) as refusal:
        solve_time_fuel(parse_problem(UNSTABLE))
    [restored] = restorations
    [result] = results
    least = float(np.abs(restored["OP2-plus--"][1]).max(axis=1).min())
    assert list(restored) == [result.instance_id] == ["OP2-plus--"]
    assert result.status == CONVERGED and result.constraint_residual < least
    assert str(refusal.value).startswith(
        f"no program verified (best constraint residual {result.constraint_residual:.3e} "
        f"(OP2-plus--), best restored residual {least:.3e} (OP2-plus--)), "
    )


def test_uncertified_refusal_is_a_solver_failure(monkeypatch):
    # `unstable` of tools/reports.py is reachable, its gauge 0.99 just
    # below 1: the certificate proves nothing, and with the LP made to find
    # no transfer the solve refuses at once, with no program built, as
    # exit 3 naming the horizons the LP tried and both gauge bounds
    spec = parse_problem(UNSTABLE)
    proof = null_certificate(spec)
    assert not proof.proven and proof.lower <= proof.upper < 1.0
    monkeypatch.setattr(solver, "lp_oracle", lambda spec, t_max: None)
    monkeypatch.setattr(solver, "build_all", never)
    with pytest.raises(SolverFailedError) as refusal:
        solve_time_fuel(spec)
    assert str(refusal.value) == (
        f"the fixed-horizon LP found no input reaching the origin at the horizons "
        f"it tried, doubling from the minimum-time bound {simulate._time_bound(spec):.6g} "
        f"to {horizon(spec):.6g} and at 62 horizons geometric between the two; the gauge "
        f"of x0's unstable part in the null-controllable region lies in "
        f"[{proof.lower:.6g}, {proof.upper:.6g}]"
    )


def test_seeded_refusal_draws_no_blind_start():
    # `unstable`'s LP word seeds programs whose answers the simulator
    # rejects: the solve refuses at once, as exit 3 quoting the LP
    with pytest.raises(SolverFailedError) as refusal:
        solve_time_fuel(parse_problem(UNSTABLE))
    message = str(refusal.value)
    assert "although the fixed-horizon LP reaches the origin at cost" in message
    assert "starts" not in message


def test_certified_refusal_below_order_three_runs_nothing(monkeypatch):
    # x' = x + u from x0 = 2: the null-controllable region is (-1, 1), and
    # the certificate is asked before anything else, so the refusal is
    # exit 2 with no LP run
    def no_lp(*args, **kwargs):
        raise AssertionError("lp_oracle consulted")

    monkeypatch.setattr(solver, "lp_oracle", no_lp)
    with pytest.raises(InfeasibleProblemError, match="outside the null-controllable region"):
        solve_time_fuel(scalar_spec(lam=1.0, b=1.0, x0=2.0))


def test_budgeted_solve_seeds_only_when_the_word_fits(monkeypatch):
    # n = 3 under a switch budget: the LP's word -1,0,1,0,-1 has 4
    # switches, so under a budget of 4 it seeds the program that contains
    # it, whose answer stands, even with the LP's cost (0.637067) scaled
    # below it; under a budget of 2 the word fits no program, so every
    # program is seeded with the heaviest part of it that it embeds, and
    # the solve still refuses, at residual 1.607e-04 in the LP's row scale
    # (3.725e-04 on the raw rows, where blind starts also ended)
    seeded = []

    def recording_lp_seeds(instances, word):
        seeded.append(_lp_seeds(instances, word))
        return seeded[-1]

    spec = stable_spec((1, 2, 3), [0.1, 0.1, 0.1])
    budgeted = {m: validate_problem(spec.system, spec.x0, spec.k, max_switches=m) for m in (2, 4)}
    report = solve_time_fuel(budgeted[4])
    assert report.best.cost == 0.6370635537714395
    monkeypatch.setattr(solver, "lp_oracle", cheaper_lp_oracle)
    assert solve_time_fuel(budgeted[4]) == report
    monkeypatch.setattr(solver, "_lp_seeds", recording_lp_seeds)
    with pytest.raises(SolverFailedError) as refusal:
        solve_time_fuel(budgeted[2])
    assert sorted(seeded[0]) == sorted(inst.instance_id for inst in build_all(budgeted[2]))
    message = str(refusal.value)
    assert message.startswith("no program verified (best constraint residual 1.607e-04 ")
    assert message.endswith("the LP's word has 4 switches, over the budget of 2, so it says "
                            "nothing of the budgeted problem")


def first_fit(levels, word):
    """Template slots that carry the word, each segment in the first
    matching slot after the previous one; None when the word does not fit."""
    free = iter(range(len(levels)))
    slots = [next((j for j in free if levels[j] == level), None) for level in word]
    return None if None in slots else slots


def test_embed_keeps_the_heaviest_part():
    # 1, -1, 1 of lengths 0.1, 0.5, 0.2 in the slots 0, -1, 0, 1: the
    # heaviest part that fits is -1, 1, not the first bang alone; of two
    # slots of one level, the earlier wins
    word = SwitchingSchedule((0.0, 0.1, 0.6, 0.8), (1, -1, 1))
    assert _embed((0, -1, 0, 1), word) == ([1, 2], [1, 3])
    assert _embed((1, 0, 1), schedule_from_times((1,), [0.3])) == ([0], [0])
    assert _embed((0, 1), SwitchingSchedule.empty()) == ([], [])


def test_embed_is_first_fit_when_the_whole_word_fits():
    # every comparison problem's LP word in every one of its programs: a
    # word that fits whole embeds whole, in the first-fit slots, and any
    # other in part, each segment in a later slot of its own level: 112
    # pairs whole and 650 in part
    whole = part = 0
    for _name, spec in comparison_set():
        lp = lp_oracle(spec, horizon(spec))
        if lp is None:
            continue
        word = _lp_word(lp[2], lp[1])
        for inst in build_all(spec):
            segments, slots = _embed(inst.levels, word)
            fitting = first_fit(inst.levels, word.levels)
            if fitting is None:
                assert len(segments) < len(word.levels)
                part += 1
            else:
                assert (segments, slots) == (list(range(len(word.levels))), fitting)
                whole += 1
            assert all(inst.levels[j] == word.levels[s] for s, j in zip(segments, slots))
            assert all(np.diff(segments) > 0) and all(np.diff(slots) > 0)
    assert (whole, part) == (112, 650)


#: (name, budget) -> (word, cost) of the budgeted problems below that 64
#: random starts per program answered, before the LP seeded them, and of
#: `n6` at budgets 9 and 8, which its sub-word seeds answer since the
#: seeded rows are scaled as the LP's (the unbudgeted answer costs
#: 2.4119494787).
BUDGETED_ANSWERS = {
    ("stable-higher-order", 5): ((-1, 0, -1, 0, 1), 1.512807547453698),
    ("stable-higher-order", 4): ((-1, 0, -1, 0, 1), 1.512807547453698),
    ("stable-1", 6): ((-1, 0, 1, 0, -1, 0, 1), 2.223149867252297),
    ("mixed-0", 2): ((1, 0, -1), 2.994567517510456),
    ("suboptimal", 3): ((0, -1, 0, 1), 2.3249919975274698),
    ("stiff-n2", 2): ((-1, 0, 1), 0.41823433105119456),
    ("n5-lp2.63353", 8): ((-1, 0, 1, 0, -1, 0, 1, 0, -1), 2.668259891873112),
    ("n6", 9): ((-1, 0, -1, 0, 1, 0, -1, 0, 1), 2.4280772928128016),
    ("n6", 8): ((-1, 0, -1, 0, 1, 0, -1, 0, 1), 2.4280772928128016),
}


def budgeted(spec, budget):
    return validate_problem(spec.system, spec.x0, spec.k, max_switches=budget)


def test_sub_word_seeds_keep_the_budgeted_answers():
    # the first 20 problems of tools/reports.py's set, each under the
    # budgets one and two switches below its LP word's that the problem
    # admits: 29 budgeted problems, whose LP words fit no program.  The
    # sub-word seeds answer the same 7 as the random starts did, on the
    # same words, at the same costs, and `n6` at both budgets
    answers, tried = {}, 0
    for name, spec in comparison_set()[:20]:
        lp = lp_oracle(spec, horizon(spec))
        if lp is None:
            continue
        switches = _lp_word(lp[2], lp[1]).switch_count
        for budget in (switches - 1, switches - 2):
            try:
                problem = budgeted(spec, budget)
            except ValueError:
                continue
            tried += 1
            try:
                best = solve_time_fuel(problem).best
            except SolverFailedError:
                continue
            answers[name, budget] = best.schedule.levels, best.cost
    assert tried == 29
    assert answers.keys() == BUDGETED_ANSWERS.keys()
    for key, (word, cost) in BUDGETED_ANSWERS.items():
        assert answers[key][0] == word
        assert answers[key][1] == pytest.approx(cost, rel=1e-9)


def test_sweep_13_solves_under_a_budget_of_2():
    # `sweep-13`'s LP word 0,1,0,-1 has 3 switches; under a budget of 2
    # it fits no program, and the heaviest part of it that SEQ-1_0_-1
    # embeds seeds the answer (1.3526532525 on the raw rows, 1.8e-9
    # relative dearer, at the same terminal error of a few 1e-16)
    spec = budgeted(dict(comparison_set())["sweep-13"], 2)
    report = solve_time_fuel(spec)
    assert report.best.instance_id == "SEQ-1_0_-1"
    assert report.best.schedule.levels == (1, 0, -1)
    assert report.best.cost == pytest.approx(1.35265325008, rel=1e-11)
    terminal = propagate(spec.system, spec.x0, report.best.schedule).terminal_state
    assert np.max(np.abs(terminal)) <= 1e-15


def test_near_boundary_solve_from_the_scanned_horizon():
    # boundary draw 0 at gauge 0.9999: the LP's transfer comes from its
    # scan, and its word -1,0,1 seeds the answer that 64 random starts
    # per program found
    report = solve_time_fuel(near_boundary_draw_0())
    assert report.best.schedule.levels == (-1, 0, 1)
    assert report.best.cost == pytest.approx(17.79751804504663, rel=1e-12)


def test_near_origin_x0_solves_from_the_empty_word():
    # x0 within the feasibility tolerance of the origin: the LP word is
    # empty, which embeds in every word, so it seeds every program with
    # gaps all 0, and the empty schedule verifies at cost 0
    report = solve_time_fuel(stable_spec((1, 2, 3), [1e-9, 0.0, 0.0]))
    assert report.best.cost == 0.0
    assert report.best.schedule == SwitchingSchedule.empty()


def test_refusal_names_the_closest_program_over_all_starts(monkeypatch):
    # the counterexample with `lp_oracle` patched to a ten-bang word that
    # no program contains: every program is seeded with part of it, none
    # reaches the manifold, and the closest over all of them is
    # OP1-minus--++, at residual 2.437e-05 (the next at 1.3e-4)
    results = []

    def recording_solve_nlp(instance, restored, scale):
        results.append(solve_nlp(instance, restored, scale))
        return results[-1]

    inputs = np.array([1.0, -1.0] * 5)
    monkeypatch.setattr(solver, "lp_oracle", lambda spec, t_max: (3.0, 2.0, inputs))
    monkeypatch.setattr(solver, "solve_nlp", recording_solve_nlp)
    with pytest.raises(SolverFailedError) as refusal:
        solve_time_fuel(stable_spec(*TestLpRetry.COUNTEREXAMPLE))
    assert len(results) == 8
    closest = min(results, key=lambda s: s.constraint_residual)
    assert closest.instance_id == "OP1-minus--++"
    assert str(refusal.value).startswith(
        f"no program verified (best constraint residual "
        f"{closest.constraint_residual:.3e} (OP1-minus--++), best restored residual "
    )
    assert f"{closest.constraint_residual:.3e}" == "2.437e-05"


def test_refusal_over_the_switch_budget_names_it(monkeypatch):
    # the LP's word -1,0,1,0,-1 has 4 switches, so no program under a
    # budget of 2 contains it, and the refusal says so; the note follows the gauge bounds, [0, 0] on a stable system.  Every
    # HiGHS run of the solve serves that unused word: the search from the
    # minimum-time bound keeps them to at most 16 (a bounded search over
    # (0, t_max] took 30)
    runs = []
    dense_lp = simulate._dense_lp

    def counted(*args):
        runs.append(args)
        return dense_lp(*args)

    monkeypatch.setattr(simulate, "_dense_lp", counted)
    spec = stable_spec((1, 2, 3), [0.1, 0.1, 0.1])
    spec = validate_problem(spec.system, spec.x0, spec.k, max_switches=2)
    with pytest.raises(SolverFailedError) as refusal:
        solve_time_fuel(spec)
    assert 0 < len(runs) <= 16
    message = str(refusal.value)
    assert message.endswith(
        "word -1,0,1,0,-1); the gauge of x0's unstable part in the null-controllable "
        "region lies in [0, 0]; the LP's word has 4 switches, over the budget of 2, "
        "so it says nothing of the budgeted problem"
    )
    assert "starts" not in message


def test_polish_stops_on_a_non_finite_step(monkeypatch):
    # x0 within the feasibility tolerance of the origin: SLSQP, from a
    # random start, left OP2-minus-+ at these gaps, at residual 1.9e130,
    # where the Newton step is not finite; the polish stops there and
    # returns the point, with no NaN trial and no warning
    real_eval1 = solver._eval1

    def finite_eval1(instance, gaps, scale):
        assert np.isfinite(gaps).all()
        return real_eval1(instance, gaps, scale)

    monkeypatch.setattr(solver, "_eval1", finite_eval1)
    spec = stable_spec((1, 2, 3), [1e-9, 0.0, 0.0])
    inst = next(i for i in build_all(spec) if i.instance_id == "OP2-minus-+")
    gaps = np.array(
        [
            149.99999999995467,
            461.5219688093891,
            4.5384167859585646e-08,
            1.389094884213707e-07,
            5.1209175828730185e-08,
            5.1853846638777755e-06,
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polished, feas, _kkt = solver._polish(inst, gaps, row_scale(spec))
    assert np.array_equal(polished, gaps)
    assert feas == pytest.approx(1.9424263952412558e130, rel=1e-12)


def test_skipped_programs_are_deterministic():
    # the programs that do not contain the LP word run nothing and are
    # reported alike on every solve: no times, infinite cost and residuals
    spec = stable_spec(*TestLpRetry.COUNTEREXAMPLE)
    report = solve_time_fuel(spec)
    _cost, t_f, inputs = lp_oracle(spec, horizon(spec))
    word = _lp_word(inputs, t_f)
    levels = {inst.instance_id: inst.levels for inst in build_all(spec)}
    skipped = [s for s in report.per_instance if s.status == solver.SKIPPED]
    assert {s.instance_id for s in skipped} == {
        i for i, lv in levels.items() if len(_embed(lv, word)[0]) < len(word.levels)
    }
    assert len(skipped) == 7
    for s in skipped:
        assert s == solver.LocalSolution(s.instance_id, (), math.inf, math.inf, math.inf, "skipped")
    again = solve_time_fuel(spec)
    assert json.dumps(again.as_dict()) == json.dumps(report.as_dict())


@pytest.mark.xfail(
    strict=True,
    raises=SolverFailedError,
    reason="converged but rejected: OP2-plus-- meets the scaled reach residual "
    "at 2.2e-16, while the simulator's |x(t_f)| is 8.9e-6, rounding amplified "
    "by e^(4 t_f) ~ 4e11 (ROADMAP item 1: a per-mode check in `_verified`)",
)
def test_unstable_optimum_passes_the_simulator():
    # b = 1, lambda = -1/2, 1, 4: from the LP's seed, OP2-plus-- converges
    # on word 1,0,-1,0,1 at 12.169956 (t_f 6.6954), below the LP's 12.182977
    # on the same word, and the simulator rejects it
    report = solve_time_fuel(parse_problem(UNSTABLE))
    assert report.best.cost == pytest.approx(12.169956, rel=1e-6)


class TestDegenerateVertex:
    """Multipliers where fewer gaps are free than there are constraints."""

    def test_bound_multipliers_refit(self):
        # one free gap, two constraints: the min-norm fit (-1, -1) leaves a
        # reduced gradient of -0.5 on both zero gaps; mult (-2, 0) with
        # bound multipliers 0.5 satisfies the KKT conditions exactly
        J = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        w = np.array([0.5, 2.0, 0.5])
        gaps = np.array([0.0, 0.5, 0.0])
        grad_l = w + J.T @ _ls_multipliers(J, w, gaps)
        assert grad_l[1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(grad_l[[0, 2]] >= -KKT_TOL)

    @pytest.mark.parametrize(
        "problem, programs",
        [
            # every program that reaches x0 must converge; OP2-minus
            # stalled at its degenerate optimum with KKT residual 0.59
            (
                {
                    "eigenvalues": [[2, 1], [-3, 1]],
                    "b": [-0.531220479216307, 1.942779820804103],
                    "x0": [0.16786431775971433, -2.253232058707641],
                    "k": 0.8174449620545059,
                },
                ("OP1-plus", "OP2-minus", "OP2-plus"),
            ),
            (
                {
                    "eigenvalues": [[-4, 1], [-3, 1]],
                    "b": [-1.4941490313274313, 1.4048602055045576],
                    "x0": [-1.525768026819704, 1.1173638558982293],
                    "k": 0.8127108654952282,
                },
                # both stalled at their degenerate optima
                ("OP2-minus", "OP2-plus"),
            ),
        ],
        ids=["unstable-mode", "stable"],
    )
    def test_degenerate_optimum_converges(self, problem, programs, monkeypatch):
        # every program runs: an LP made to give the empty word seeds each
        # one with gaps all 0, where every gap is at its bound
        empty = np.zeros(simulate.LP_CELLS)
        monkeypatch.setattr(solver, "lp_oracle", lambda spec, t_max: (0.0, 1.0, empty))
        report = solve_time_fuel(parse_problem(problem))
        assert solver.SKIPPED not in [s.status for s in report.per_instance]
        statuses = {s.instance_id: s.status for s in report.per_instance}
        for program in programs:
            assert statuses[program] == CONVERGED
        assert all(status in (CONVERGED, INFEASIBLE) for status in statuses.values())


def test_same_word_ties_pick_the_lowest_id():
    # `mixed-0` of the benchmark: three programs verify on the word
    # 0,1,0,-1 with final times that differ only in the last bits, so the
    # lowest id of the three wins, not the one whose rounding came out
    # shortest (OP2-plus-- before)
    spec = parse_problem(
        {
            "eigenvalues": [[-1, 1], [-2, 1], [2, 1]],
            "b": [1, 1, 1],
            "x0": [-0.060350566522978655, 0.16247352942414017, -0.06585192172897571],
            "k": 1,
        }
    )
    report = solve_time_fuel(spec)
    levels = {inst.instance_id: inst.levels for inst in build_all(spec)}
    times = {s.instance_id: s.times for s in report.per_instance}
    best_word = report.best.schedule.levels
    on_word = [
        i for i in report.ties if schedule_from_times(levels[i], times[i]).levels == best_word
    ]
    assert len(on_word) == 3
    assert report.best.instance_id == min(on_word) == "OP1-plus-+-"


#: `mixed-2` of the benchmark: b = 1, lambda = -3, -4, 2; the optimum is a
#: single bang of u = -1.
MIXED_2 = {
    "eigenvalues": [[-3, 1], [-4, 1], [2, 1]],
    "b": [1, 1, 1],
    "x0": [0.4032081458358405, 0.46950082211106703, 0.20526998824584447],
    "k": 1,
}


def test_sliver_tail_keeps_its_program_verified():
    # OP1-minus--+ converges from random starts at reach residual 1.7e-16
    # with its single bang split in two by a zero-length off slot, and must
    # verify as that one bang (a 1.1e-7 tail after such a split was once
    # dropped, which ended the schedule early, and the simulator rejected
    # the program)
    spec = parse_problem(MIXED_2)
    instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
    scale = row_scale(spec)
    restored = _restore(spec, instances, random_rows(instances), scale)
    solutions = [solve_nlp(i, restored[i.instance_id], scale) for i in instances]
    verified = {v.instance_id: v for v in _verified(spec, instances, solutions)}
    least = min(v.cost for v in verified.values())
    assert verified["OP1-minus--+"].cost <= least * (1.0 + solver.TIE_REL_TOL)
    assert verified["OP1-minus--+"].schedule.levels == (-1,)
    report = solve_time_fuel(spec)
    assert report.best.schedule.levels == (-1,)


def degenerate_seed(scale_horizon):
    """`mixed-2`'s OP1-minus--+, its LP seed at the horizon where a bounded
    search over (0, t_max] ended, and the seed restored under the row scale
    of the LP at `scale_horizon`: (instance, restored, scale).  The LP word
    is one bang of -1, seeded in the program's first slot; restoration may
    split the growth between that slot and the next -1 slot, whose columns
    differ only by a zero-length off slot."""
    spec = parse_problem(MIXED_2)
    instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
    t_f = 0.2648827986826366
    _cost, inputs, _slope = _lp_transfer(spec, t_f)
    word = _lp_word(inputs, t_f)
    assert word.levels == (-1,)
    scale = row_scale(spec, scale_horizon)
    inst = instances[0]
    assert inst.instance_id == "OP1-minus--+"
    restored = _restore(spec, instances, _lp_seeds(instances, word), scale)
    return inst, restored[inst.instance_id], scale


@pytest.mark.xfail(
    strict=True,
    reason="degenerate start: on the raw rows reach - x0, OP1-minus--+ stalls "
    "at reach residual 8.2e-14 and KKT residual 0.98; SLSQP's first step leaves "
    "gaps of 1.5e-6, 5.8e-9 and 1.5e-9 whose ~1e-8 columns give the polish "
    "multipliers of ~1e10, and it finds no step",
)
def test_seeded_degenerate_start_converges():
    # the seed restored and descended on the raw rows (the row scale of
    # horizon 0); the solver scales them by the LP's horizon, under which
    # the same seed converges (below), so this pins the polish's defect on a
    # degenerate start, not a path the solver takes
    inst, restored, scale = degenerate_seed(0.0)
    assert solve_nlp(inst, restored, scale).status == CONVERGED


def test_seeded_degenerate_start_converges_under_the_lp_scale():
    # the same seed under the row scale of its own LP horizon, as the
    # solver runs it: restoration leaves the later slots at 0, and the
    # descent converges on the one bang
    inst, restored, scale = degenerate_seed(0.2648827986826366)
    solution = solve_nlp(inst, restored, scale)
    assert solution.status == CONVERGED
    assert solution.cost == pytest.approx(0.5285483755394647, rel=1e-12)


#: `hi-n6-0` of tools/reports.py: b = 1, lambda = -1, -3, -5, -7, -8, -9.
HI_N6_0 = {
    "eigenvalues": [[-1, 1], [-3, 1], [-5, 1], [-7, 1], [-8, 1], [-9, 1]],
    "b": [1] * 6,
    "x0": [0.3013, -0.4092, -0.1264, 0.2913, 0.2587, 0.104],
    "k": 1,
}


#: (problem, the horizon `lp_oracle` stops at) of the horizon-perturbation
#: property.
SEARCHED_HORIZONS = {
    "hi-n6-0": (HI_N6_0, 2.1838605875761776),
    "stable-counterexample": (
        {
            "eigenvalues": [[-r, 1] for r in TestLpRetry.COUNTEREXAMPLE[0]],
            "b": [1] * 4,
            "x0": TestLpRetry.COUNTEREXAMPLE[1],
            "k": 1,
        },
        1.4136141427334847,
    ),
}


@pytest.mark.parametrize("delta", [-1e-4, -1e-7, 1e-7, 1e-4])
@pytest.mark.parametrize("name", sorted(SEARCHED_HORIZONS))
def test_seed_off_the_lp_horizon_converges(name, delta, monkeypatch):
    # the seed does not hang on the LP horizon's last digits: with the LP
    # at T (1 + delta), T the horizon the search stops at, the word is
    # T's, and its seed, restored and descended under the row scale of
    # T (1 + delta), verifies on that word at T's answer (on the raw rows,
    # hi-n6-0's seed at 1 + 1e-4 once stalled at KKT residual 2.7e-8)
    problem, searched = SEARCHED_HORIZONS[name]
    spec = parse_problem(problem)
    _cost, T, at_T = lp_oracle(spec, horizon(spec))
    assert T == searched
    answer = solve_time_fuel(spec).best
    t_f = T * (1.0 + delta)
    cost, inputs, _slope = _lp_transfer(spec, t_f)
    assert _lp_word(inputs, t_f).levels == _lp_word(at_T, T).levels
    monkeypatch.setattr(solver, "lp_oracle", lambda spec, t_max: (cost, t_f, inputs))
    best = solve_time_fuel(spec).best
    assert best.schedule.levels == answer.schedule.levels == _lp_word(inputs, t_f).levels
    assert best.cost == pytest.approx(answer.cost, rel=1e-10)


@pytest.mark.parametrize("name", ["hi-n6-1", "hi-n7-0", "hi-n7-1", "hi-n8-0", "hi-n8-1"])
def test_high_order_draw_solves_below_its_lp(name):
    # five `default_rng(77)` draws of tools/reports.py that exited 3 while
    # the seeded descent ran on the raw rows reach - x0: each verifies on
    # the simulator and costs no more than its LP
    spec = dict(comparison_set())[name]
    best = solve_time_fuel(spec).best
    terminal = propagate(spec.system, spec.x0, best.schedule).terminal_state
    assert np.max(np.abs(terminal)) <= 10.0 * SolverOptions.feas_tol
    assert best.cost <= lp_oracle(spec, horizon(spec))[0]


class TestDescentLayer:
    """SLSQP stops at the feasibility tolerance; the polish gives the digits."""

    def test_slsqp_work_is_bounded(self, monkeypatch):
        # SLSQP chasing ftol 1e-14 took 794 iterations on mixed-2; each run's
        # state dict holds its count of major iterations
        states = {}
        real_slsqp = solver.slsqp

        def counted(state, *args):
            real_slsqp(state, *args)
            states[id(state)] = state  # held, so that no id is reused

        monkeypatch.setattr(solver, "slsqp", counted)
        solve_time_fuel(parse_problem(MIXED_2))
        assert 0 < sum(state["iter"] for state in states.values()) <= 400

    def test_reference_cost_to_rounding(self, example_spec):
        # the optimum of word -1, 0, 1 from its KKT conditions at 50 digits:
        # reach(t) = x0, and the Lagrangian of k t_f + t_1 + (t_f - t_2) is
        # stationary in t_1, t_2, t_f, where psi(s) = mu . e^(-lam s) must be
        # 1 at t_1, -1 at t_2 and -(k + 1) at t_f; x0 is taken as the
        # doubles the solver reads, not the decimals 0.6 and 0.4
        import mpmath as mp

        report = solve_time_fuel(example_spec)
        assert report.best.schedule.levels == (-1, 0, 1)
        lam, x0, k = (-1, -2), (mp.mpf(0.6), mp.mpf(0.4)), 1

        def psi(mu, s):
            return sum(m * mp.exp(-l * s) for m, l in zip(mu, lam))

        def kkt(t1, t2, tf, mu1, mu2):
            ends = (0, t1, t2, tf)
            reach = [
                x0[i]
                + sum(
                    u * (mp.exp(-l * a) - mp.exp(-l * b)) / l
                    for u, a, b in zip((-1, 0, 1), ends, ends[1:])
                )
                for i, l in enumerate(lam)
            ]
            mu = (mu1, mu2)
            return reach + [1 - psi(mu, t1), -1 - psi(mu, t2), k + 1 + psi(mu, tf)]

        t1, t2, tf = report.best.schedule.breakpoints[1:]
        mu = np.linalg.solve(np.exp(-np.outer((t1, t2), lam)), [1.0, -1.0])
        with mp.workdps(50):
            root = mp.findroot(kkt, (t1, t2, tf, *mu))
            optimum = k * root[2] + root[0] + (root[2] - root[1])
            assert mp.nstr(optimum, 18) == "1.89397904421243217"
        assert abs(report.best.cost - float(optimum)) <= 2e-15 * float(optimum)

    def test_slsqp_evaluates_each_point_once(self, example_spec, monkeypatch):
        # each point SLSQP is handed is evaluated once, by one `_eval1` call
        # that gives its residual and Jacobian both: a gradient request
        # reuses the Jacobian of the function request before it
        inst = next(i for i in build_all(example_spec) if i.instance_id == "OP2-minus")
        restored = restored_alone(inst, 16)
        real_slsqp, real_eval1, real_polish = solver.slsqp, solver._eval1, solver._polish
        received, evaluated, polishing = [], [], []

        def step(state, fx, g, C, d, x, *args):
            received.append(x.tobytes())
            real_slsqp(state, fx, g, C, d, x, *args)

        def counted(instance, gaps, scale):
            if not polishing:
                evaluated.append(gaps.tobytes())
            return real_eval1(instance, gaps, scale)

        def polish(*args):
            # the polish evaluates on its own
            polishing.append(True)
            try:
                return real_polish(*args)
            finally:
                polishing.pop()

        monkeypatch.setattr(solver, "slsqp", step)
        monkeypatch.setattr(solver, "_eval1", counted)
        monkeypatch.setattr(solver, "_polish", polish)
        solve_nlp(inst, restored, row_scale(example_spec))
        assert len(received) > len(evaluated) > 16
        assert sorted(evaluated) == sorted(set(received))

    @staticmethod
    def scipy_slsqp(inst, gaps, scale):
        """The SLSQP round as `scipy.optimize.minimize` runs it, with the
        arguments the per-start descent passed it."""
        w = inst.gap_weights
        result = minimize(
            lambda g: float(w @ g),
            gaps,
            jac=lambda g: w,
            method="SLSQP",
            bounds=[(0.0, None)] * len(gaps),
            constraints=[
                {
                    "type": "eq",
                    "fun": lambda g: solver._eval1(inst, g, scale)[0],
                    "jac": lambda g: solver._eval1(inst, g, scale)[1],
                }
            ],
            options={"maxiter": 400, "ftol": SolverOptions.feas_tol},
        )
        out = np.maximum(result.x, 0.0)
        return out if np.all(np.isfinite(out)) else gaps

    @pytest.mark.parametrize(
        "problem",
        [
            {"eigenvalues": [[-1, 1], [-2, 1]], "b": [1, 1], "x0": [0.6, 0.4], "k": 1},
            {
                "eigenvalues": [[-1, 1], [-2, 1], [-3, 1], [-4, 1]],
                "b": [1, 1, 1, 1],
                "x0": [0.1, 0.2, 0.4, 0.5],
                "k": 1,
            },
            MIXED_2,
        ],
        ids=["ref2-k1", "stable-higher-order", "mixed-2"],
    )
    def test_slsqp_runs_are_scipy_slsqp(self, problem, monkeypatch):
        # each descended start's first run ends bit for bit where scipy's
        # own SLSQP loop ends it, under the row scale of an LP horizon of 1
        spec = parse_problem(problem)
        instances = build_all(spec)
        scale = row_scale(spec, 1.0)
        restored = _restore(spec, instances, random_rows(instances), scale)
        polished, expected = Counter(), Counter()
        real_polish = solver._polish

        def recorded(instance, gaps, scale):
            polished[instance.instance_id, gaps.tobytes()] += 1
            return real_polish(instance, gaps, scale)

        monkeypatch.setattr(solver, "_polish", recorded)
        for inst in instances:
            gaps, c = restored[inst.instance_id]
            solve_nlp(inst, (gaps, c), scale)
            x0_scale = max(1.0, float(np.max(np.abs(inst.x0))))
            for g in gaps[np.max(np.abs(c), axis=1) <= 1e-6 * x0_scale]:
                expected[inst.instance_id, self.scipy_slsqp(inst, g, scale).tobytes()] += 1
        assert sum(expected.values()) > 0
        assert expected <= polished


class TestMergeIntoKnownMinimum:
    """What one program's starts cost: one polish per descended start, and
    one DEBUG line of counts per program that runs."""

    SUBOPTIMAL = {
        "eigenvalues": [[-1, 1], [2, 1], [-3, 1]],
        "b": [1, 1, 1],
        "x0": [0.3, 0.1, 0.1],
        "k": 2,
    }

    @staticmethod
    def counted_polish(monkeypatch):
        calls = []
        real_polish = solver._polish

        def counted(instance, gaps, scale):
            calls.append(instance.instance_id)
            return real_polish(instance, gaps, scale)

        monkeypatch.setattr(solver, "_polish", counted)
        return calls

    def test_sixty_four_starts_keep_the_optimum(self):
        # the LP's seed reaches this optimum, which 16 blind starts miss;
        # the start count does not matter, since no blind start runs
        report = solve_time_fuel(parse_problem(self.SUBOPTIMAL))
        assert report.best.schedule.levels == (1, 0, -1, 0, 1)
        assert report.best.cost == pytest.approx(2.315893, rel=1e-6)

    def test_one_polish_per_converged_program(self, example_spec, monkeypatch):
        # the LP's word -1,0,1 seeds OP2-minus alone, with one start
        calls = self.counted_polish(monkeypatch)
        report = solve_time_fuel(example_spec)
        converged = [s.instance_id for s in report.per_instance if s.status == CONVERGED]
        assert sorted(calls) == sorted(converged) == ["OP2-minus"]
        assert report.best.cost == pytest.approx(1.89397904421243217, rel=2e-15)

    def test_counts_logged_per_program(self, example_spec, caplog):
        with caplog.at_level(logging.DEBUG, logger="timefuel"):
            report = solve_time_fuel(example_spec)
        assert [r.name for r in caplog.records] == ["timefuel"] * 2
        assert caplog.messages == [
            "the LP-seeded starts run: the LP's word -1,0,1 fits 1 of 4 programs",
            "OP2-minus: 1 starts, 1 descended, 1 converged",
        ]
        # the log leaves the report as it is
        quiet = solve_time_fuel(example_spec)
        assert json.dumps(quiet.as_dict()) == json.dumps(report.as_dict())


class TestPolishState:
    """The polish evaluates its start once, after the snap, and returns the
    feasibility of the point it returns."""

    PROBLEMS = pytest.mark.parametrize(
        "problem",
        [{"eigenvalues": [[-1, 1], [-2, 1]], "b": [1, 1], "x0": [0.6, 0.4], "k": 1}, MIXED_2],
        ids=["ref2-k1", "mixed-2"],
    )

    @PROBLEMS
    def test_polish_returns_the_state_of_its_point(self, problem, monkeypatch):
        real_polish, starts = solver._polish, []

        def recorded(instance, gaps, scale):
            starts.append((instance, gaps, scale))
            return real_polish(instance, gaps, scale)

        monkeypatch.setattr(solver, "_polish", recorded)
        solve_time_fuel(parse_problem(problem))
        monkeypatch.undo()
        real_eval1, evaluated = solver._eval1, []

        def eval1(instance, gaps, scale):
            evaluated.append(gaps.copy())
            return real_eval1(instance, gaps, scale)

        monkeypatch.setattr(solver, "_eval1", eval1)
        assert starts
        for inst, start, scale in starts:
            evaluated.clear()
            gaps, feas, _kkt = real_polish(inst, start, scale)
            # the first evaluation is of the snapped start, not of the start
            snapped = np.where(start < solver.COLLAPSE_TOL, 0.0, start)
            assert np.array_equal(evaluated[0], snapped)
            assert feas == float(np.max(np.abs(real_eval1(inst, gaps, scale)[0])))


def test_converged_point_with_a_dropped_sliver_verifies():
    # `sweep-1` of tools/reports.py: OP1-plus-+- converges here at reach
    # residual 4.4e-16 with a 2.09e-7 bang segment; a condensation whose zero
    # length is above the solver's (1e-6, say) drops it, and the word 0,1,0,-1
    # then misses the origin by 2.47e-7, above 10 feas_tol
    spec = parse_problem(
        {
            "eigenvalues": [[-2, 1], [-4, 1], [2, 1]],
            "b": [1, 1, 1],
            "x0": [-0.3097, 0.1467, -0.1614],
            "k": 2,
        }
    )
    inst = next(i for i in build_all(spec) if i.instance_id == "OP1-plus-+-")
    times = (
        0.0,
        0.15362917449334382,
        0.49309783176765054,
        0.6766547082789228,
        0.6766549171111258,
        0.6766549171111258,
        0.7599902315801419,
    )
    c, _ = solver._eval1(inst, np.diff(times, prepend=0.0), row_scale(spec))
    residual = float(np.max(np.abs(c)))
    assert residual <= 1e-15
    cost = float(inst.cost_value(np.array(times)))
    solution = solver.LocalSolution(inst.instance_id, times, cost, 0.0, residual, CONVERGED)
    assert [v.instance_id for v in _verified(spec, [inst], [solution])] == ["OP1-plus-+-"]


def benchmark_problems(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [case for make in workloads.WORKLOADS.values() for case in make()]


def test_converged_gaps_are_zero_or_at_least_the_zero_length(monkeypatch):
    # the solver and the condensation share COLLAPSE_TOL: every converged
    # program the simulator checks has each gap 0 or at least COLLAPSE_TOL,
    # so its schedule keeps exactly the slots of nonzero gap, equal
    # neighbours merged and trailing off slots cut
    real_verified, checked = solver._verified, []

    def verified(spec, instances, solutions):
        checked.extend(zip(instances, solutions))
        return real_verified(spec, instances, solutions)

    monkeypatch.setattr(solver, "_verified", verified)
    problems = benchmark_problems(monkeypatch)
    assert len(problems) == 14
    converged = []
    for case in problems:
        checked.clear()
        try:
            solve_time_fuel(parse_problem(case.problem))
        except InfeasibleProblemError:
            assert not case.feasible
        found = [(inst, sol) for inst, sol in checked if sol.status == CONVERGED]
        assert found or not case.feasible, case.name
        converged += found
    for inst, sol in converged:
        gaps = np.diff(sol.times, prepend=0.0)
        assert np.all((gaps == 0.0) | (gaps >= solver.COLLAPSE_TOL)), (inst.instance_id, gaps)
        segments = []
        for level, gap in zip(inst.levels, gaps):
            if segments and segments[-1][0] == level:
                segments[-1][1] += gap
            elif gap > 0.0:
                segments.append([level, gap])
        while segments and segments[-1][0] == 0:
            segments.pop()
        schedule = schedule_from_times(inst.levels, sol.times)
        assert schedule.levels == tuple(level for level, _ in segments)
        np.testing.assert_allclose(
            schedule.durations, [gap for _, gap in segments], rtol=0.0, atol=1e-12
        )
