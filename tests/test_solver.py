import json
import math

import numpy as np
import pytest

from timefuel import LtiSystem, build_spectrum, validate_problem
from timefuel.builder import build_all, sequence_instance
from timefuel.sequences import CandidateSequence
from timefuel.simulate import SwitchingSchedule, propagate
from timefuel.solver import (
    CONVERGED,
    INFEASIBLE,
    InfeasibleProblemError,
    SolverOptions,
    _draws,
    _lm,
    _restore,
    _solve_rows,
    decode_schedule,
    solve_nlp,
    solve_time_fuel,
)

from test_builder import make_spec

OPTS = SolverOptions(starts=12, seed=0)


def scalar_spec(lam=-1.0, b=1.0, x0=0.5, k=1.0):
    system = LtiSystem(build_spectrum([(int(lam), 1)]), (b,))
    return validate_problem(system, [x0], k)


class TestSolveNlp:
    def test_scalar_closed_form(self):
        # single negative bang: t_f = ln(1 + x0), J = (k + 1) t_f
        spec = scalar_spec()
        inst = sequence_instance(spec, CandidateSequence.from_levels((-1,)))
        sol = solve_nlp(inst, OPTS)
        assert sol.status == CONVERGED
        expected = 2.0 * math.log(1.5)
        assert sol.cost == pytest.approx(expected, abs=1e-9)
        assert sol.times[-1] == pytest.approx(math.log(1.5), abs=1e-9)

    def test_example_winner_instance(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((-1, 0, 1))
        )
        sol = solve_nlp(inst, OPTS)
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(1.8940, abs=5e-4)
        assert sol.times[-1] == pytest.approx(1.1480, abs=5e-4)

    def test_origin_start(self, example_spec):
        spec = validate_problem(example_spec.system, [0.0, 0.0], 1.0)
        inst = sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        sol = solve_nlp(inst, OPTS)
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_solution_invariants(self, example_spec):
        for inst in build_all(example_spec):
            sol = solve_nlp(inst, OPTS)
            if sol.status != CONVERGED:
                continue
            assert sol.constraint_residual <= OPTS.feas_tol
            assert sol.kkt_residual <= OPTS.kkt_tol
            assert sol.cost == pytest.approx(
                inst.cost_value(np.asarray(sol.times)), rel=1e-12
            )
            assert np.all(np.diff(np.r_[0.0, sol.times]) >= -1e-12)


class TestDecodeSchedule:
    def test_all_equal_times_empty(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((0, 1, 0, -1))
        )
        sched = decode_schedule(inst, [0.4, 0.4, 0.4, 0.4])
        assert sched == SwitchingSchedule.empty()

    def test_collapse_example(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((0, 1, 0, -1))
        )
        sched = decode_schedule(inst, [0.0, 0.3, 0.3, 0.9])
        assert sched.levels == (1, -1)
        assert sched.breakpoints == pytest.approx((0.0, 0.3, 0.9))

    def test_decode_idempotent(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((0, 1, 0, -1))
        )
        sched = decode_schedule(inst, [0.1, 0.4, 0.9, 1.5])
        again = decode_schedule(
            sequence_instance(example_spec, sched.sequence()),
            sched.breakpoints[1:],
        )
        assert again == sched

    def test_subsequence_of_template(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((0, 1, 0, -1))
        )
        sched = decode_schedule(inst, [0.0, 0.5, 0.5, 1.0])
        assert sched.levels == (1, -1)


class TestSolveTimeFuel:
    def test_example_k1(self, example_spec):
        report = solve_time_fuel(example_spec, OPTS)
        best = report.best
        assert best.schedule.levels == (-1, 0, 1)
        assert best.cost == pytest.approx(1.8940, abs=5e-4)
        assert best.final_time == pytest.approx(1.1480, abs=5e-4)
        assert best.sparsity == pytest.approx(0.3502, abs=5e-4)
        assert best.instance_id == "OP2-minus"

    def test_best_reverifies(self, example_spec):
        report = solve_time_fuel(example_spec, OPTS)
        terminal = propagate(
            example_spec.system, example_spec.x0, report.best.schedule
        ).terminal_state
        assert np.max(np.abs(terminal)) <= 1e-6
        from timefuel.simulate import evaluate_cost

        J, _, _ = evaluate_cost(report.best.schedule, example_spec.k)
        assert report.best.cost == pytest.approx(J, rel=1e-9)

    def test_origin_needs_no_control(self, example_spec):
        spec = validate_problem(example_spec.system, [0.0, 0.0], 1.0)
        report = solve_time_fuel(spec, OPTS)
        assert report.best.cost == 0.0
        assert report.best.schedule == SwitchingSchedule.empty()
        assert report.best.sparsity == 1.0

    def test_unreachable_state_infeasible(self):
        # unstable scalar mode: reachable set is (-b/lam, b/lam) = (-1, 1)
        system = LtiSystem(build_spectrum([(1, 1)]), (1.0,))
        spec = validate_problem(system, [2.0], 1.0)
        with pytest.raises(InfeasibleProblemError):
            solve_time_fuel(spec, SolverOptions(starts=6, seed=0))

    def test_monotone_in_k(self, example_spec):
        costs = []
        times = []
        for k in (0.5, 1.0, 2.0, 3.0):
            spec = validate_problem(example_spec.system, [0.6, 0.4], k)
            report = solve_time_fuel(spec, OPTS)
            costs.append(report.best.cost)
            times.append(report.best.final_time)
        assert all(a < b for a, b in zip(costs, costs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))

    def test_deterministic_same_seed_twice(self, example_spec):
        a = solve_time_fuel(example_spec, OPTS)
        b = solve_time_fuel(example_spec, OPTS)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_report_shape(self, example_spec):
        report = solve_time_fuel(example_spec, OPTS)
        assert len(report.per_instance) == 4
        ids = [s.instance_id for s in report.per_instance]
        assert ids == sorted(ids)
        assert report.best.instance_id in report.ties


class TestHigherOrder:
    def _check(self, n, x0, starts):
        from timefuel import LtiSystem, build_spectrum
        from timefuel.sequences import enumerate_candidates
        from timefuel.simulate import evaluate_cost

        system = LtiSystem(
            build_spectrum([(-i, 1) for i in range(1, n + 1)]), (1.0,) * n
        )
        spec = validate_problem(system, x0, 1.0)
        report = solve_time_fuel(spec, SolverOptions(starts=starts, seed=0))
        best = report.best
        terminal = propagate(spec.system, spec.x0, best.schedule).terminal_state
        assert np.max(np.abs(terminal)) <= 1e-8
        J, on, _ = evaluate_cost(best.schedule, 1.0)
        assert best.cost == pytest.approx(J, rel=1e-9)
        assert best.schedule.sequence() in enumerate_candidates(n)
        return report

    def test_fourth_order_transfer(self):
        self._check(4, [0.1, 0.2, 0.4, 0.5], starts=8)

    def test_sixth_order_transfer(self):
        # needs the continuation restoration and the SQP rescue: the only
        # feasible shape is an eleven-slot alternating word at t_f ~ 2.2
        report = self._check(6, [0.1, 0.2, 0.4, 0.5, 0.8, 1.0], starts=6)
        assert report.best.schedule.levels == (-1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1)


def lm_reference(instance, gaps, t_max, shift, max_iter, tol=1e-12):
    """Start-by-start projected Levenberg-Marquardt, the stacked `_lm`'s model."""

    def evaluate(g):
        times = np.cumsum(g)
        A = instance.constraint_jacobian(times)
        J = np.flip(np.cumsum(np.flip(A, axis=1), axis=1), axis=1)
        return instance.constraint_residuals(times) + shift, J

    c, J = evaluate(gaps)
    f = 0.5 * float(c @ c)
    nu = 1e-3
    eye = np.eye(len(gaps))
    for _ in range(max_iter):
        if np.max(np.abs(c)) <= tol:
            break
        improved = False
        for _attempt in range(40):
            try:
                step = np.linalg.solve(J.T @ J + nu * eye, -J.T @ c)
            except np.linalg.LinAlgError:
                nu *= 10.0
                continue
            trial = np.clip(gaps + step, 0.0, t_max)
            ct, Jt = evaluate(trial)
            ft = 0.5 * float(ct @ ct)
            if ft < f:
                gaps, c, J, f = trial, ct, Jt, ft
                nu = max(nu * 0.3, 1e-12)
                improved = True
                break
            nu *= 10.0
            if nu > 1e16:
                break
        if not improved:
            break
    return gaps, c


class TestStackedRestoration:
    def test_lm_rows_match_reference(self, example_spec):
        # each row of one stacked run, with its own target shift, is bitwise
        # the start-by-start run
        options = SolverOptions(starts=16, seed=0)
        rng = np.random.default_rng(5)
        # n = 6 has 12- and 13-slot programs, where BLAS would round the
        # stacked J^T J differently from the plain loop
        specs = (
            example_spec,
            make_spec(4, x0=[0.1, 0.2, 0.4, 0.5]),
            make_spec(6, x0=[0.1, 0.2, 0.4, 0.5, 0.8, 1.0]),
        )
        for inst in (inst for spec in specs for inst in build_all(spec)[:3]):
            t_max = options.horizon(inst)
            gaps = 0.1 * _draws(inst, options, t_max)
            shift = rng.choice([0.0, 0.25, 0.5], size=(len(gaps), 1)) * inst._x0
            stacked, c = _lm(inst, gaps, t_max, shift, max_iter=60)
            for i in range(len(gaps)):
                ref_gaps, ref_c = lm_reference(inst, gaps[i], t_max, shift[i], 60)
                assert np.array_equal(stacked[i], ref_gaps)
                assert np.array_equal(c[i], ref_c)

    @pytest.mark.parametrize(
        "x0, only",
        [
            # the reference problem: 4 programs, every walk falls short
            ([0.6, 0.4], None),
            # the feasible n=4 case the solver refuses: 8 programs
            ([0.2, 0.15, 0.1, 0.05], None),
            # the n=4 program whose walks reach x0
            ([0.1, 0.2, 0.4, 0.5], "OP2-minus-+-"),
        ],
    )
    def test_stack_matches_single_rows(self, x0, only):
        # restoring all draws of a program as one stack gives, row by row,
        # the bits of restoring each draw alone, continuation walks included
        options = SolverOptions(starts=16, seed=0)
        walked = 0
        for inst in build_all(make_spec(len(x0), x0=x0)):
            if only is not None and inst.instance_id != only:
                continue
            t_max = options.horizon(inst)
            draws = _draws(inst, options, t_max)
            gaps, c, walks = _restore(inst, draws, t_max)
            walked += len(walks)
            for i in range(len(draws)):
                gaps_1, c_1, walks_1 = _restore(inst, draws[i:i + 1], t_max)
                assert np.array_equal(gaps[i], gaps_1[0])
                assert np.array_equal(c[i], c_1[0])
                assert (i in walks) == (0 in walks_1)
                if i in walks:
                    assert np.array_equal(walks[i][0], walks_1[0][0])
                    assert np.array_equal(walks[i][1], walks_1[0][1])
        assert (walked > 0) == (only is not None)

    def test_singular_system_falls_back_to_rows(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 3, 3))
        A[2] = 0.0
        rhs = rng.standard_normal((4, 3))
        step, singular = _solve_rows(A, rhs)
        assert singular.tolist() == [False, False, True, False]
        for i in (0, 1, 3):
            assert np.array_equal(step[i], np.linalg.solve(A[i], rhs[i]))

    def test_reference_answer_pinned(self, example_spec):
        report = solve_time_fuel(example_spec, SolverOptions(starts=16, seed=0))
        assert report.best.instance_id == "OP2-minus"
        assert report.best.cost == pytest.approx(1.893979044212426, rel=1e-12)
        statuses = {s.instance_id: s.status for s in report.per_instance}
        assert statuses == {
            "OP1-minus": INFEASIBLE,
            "OP1-plus": INFEASIBLE,
            "OP2-minus": CONVERGED,
            "OP2-plus": INFEASIBLE,
        }

    def test_fourth_order_answer_pinned(self):
        spec = make_spec(4, x0=[0.1, 0.2, 0.4, 0.5])
        report = solve_time_fuel(spec, SolverOptions(starts=16, seed=0))
        assert report.best.instance_id == "OP2-minus-+-"
        assert report.best.cost == pytest.approx(1.5052358615884727, rel=1e-12)
