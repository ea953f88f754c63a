import json
import logging
import math

import numpy as np
import pytest

from timefuel import LtiSystem, build_spectrum, parse_problem, solver, validate_problem
from timefuel.builder import build_all, sequence_instance
from timefuel.sequences import CandidateSequence
from timefuel.simulate import (
    SwitchingSchedule,
    _lp_transfer,
    lp_oracle,
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
    _restore,
    _slots,
    _solve_rows,
    _starts,
    _verified,
    horizon,
    solve_nlp,
    solve_time_fuel,
)

from test_builder import make_spec

OPTS = SolverOptions(starts=12, seed=0)


def scalar_spec(lam=-1.0, b=1.0, x0=0.5, k=1.0):
    system = LtiSystem(build_spectrum([(int(lam), 1)]), (b,))
    return validate_problem(system, [x0], k)


def blind_starts(instances, options):
    """The `_starts` rows of every program, by id."""
    scale = horizon(instances[0].spec)
    return {inst.instance_id: _starts(inst, options, scale) for inst in instances}


def restored_alone(inst, options=OPTS):
    """One program's blind starts restored on their own, for `solve_nlp`."""
    return _restore(inst.spec, [inst], blind_starts([inst], options))[inst.instance_id]


@pytest.mark.parametrize(
    "field, value",
    [
        ("starts", True),
        ("starts", 2.5),
        ("starts", 0),
        ("seed", False),
        ("seed", 1.0),
        ("seed", -1),
        ("seed", np.int64(-1)),
    ],
)
def test_malformed_options_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_numpy_integer_options_accepted():
    options = SolverOptions(starts=np.int64(3), seed=np.uint32(5))
    assert (options.starts, options.seed) == (3, 5)


def test_no_time_box_option():
    # the final time is free: the solver takes no horizon bound
    with pytest.raises(TypeError, match="t_max"):
        SolverOptions(t_max=1.0)


class TestSolveNlp:
    def test_scalar_closed_form(self):
        # single negative bang: t_f = ln(1 + x0), J = (k + 1) t_f
        spec = scalar_spec()
        inst = sequence_instance(spec, CandidateSequence.from_levels((-1,)))
        sol = solve_nlp(inst, restored_alone(inst))
        assert sol.status == CONVERGED
        expected = 2.0 * math.log(1.5)
        assert sol.cost == pytest.approx(expected, abs=1e-9)
        assert sol.times[-1] == pytest.approx(math.log(1.5), abs=1e-9)

    def test_example_winner_instance(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((-1, 0, 1))
        )
        sol = solve_nlp(inst, restored_alone(inst))
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(1.8940, abs=5e-4)
        assert sol.times[-1] == pytest.approx(1.1480, abs=5e-4)

    def test_origin_start(self, example_spec):
        spec = validate_problem(example_spec.system, [0.0, 0.0], 1.0)
        inst = sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        sol = solve_nlp(inst, restored_alone(inst))
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_solution_invariants(self, example_spec):
        for inst in build_all(example_spec):
            sol = solve_nlp(inst, restored_alone(inst))
            if sol.status != CONVERGED:
                continue
            assert sol.constraint_residual <= OPTS.feas_tol
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
        levels = best.schedule.levels
        assert CandidateSequence.from_levels(levels) in enumerate_candidates(n)
        return report

    def test_fourth_order_transfer(self):
        self._check(4, [0.1, 0.2, 0.4, 0.5], starts=8)

    def test_sixth_order_transfer(self):
        # the six starts all stall, so the answer comes from the LP-seeded
        # retry: the only feasible shape is an eleven-slot alternating word
        # at t_f ~ 2.2
        report = self._check(6, [0.1, 0.2, 0.4, 0.5, 0.8, 1.0], starts=6)
        assert report.best.schedule.levels == (-1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1)


def lm_reference(instance, gaps, iterations, tol=1e-12):
    """Start-by-start projected Levenberg-Marquardt with held gaps, the
    stacked `_lm`'s model."""

    def evaluate(g):
        times = np.cumsum(g)
        A = instance.constraint_jacobian(times)
        J = np.ascontiguousarray(np.flip(np.cumsum(np.flip(A, axis=1), axis=1), axis=1))
        return instance.constraint_residuals(times), J

    c, J = evaluate(gaps)
    f = 0.5 * float(c @ c)
    nu = 1e-3
    eye = np.eye(len(gaps))
    for _ in range(iterations):
        if np.max(np.abs(c)) <= tol:
            break
        improved = False
        grad = J.T @ c
        held = (gaps <= 0.0) & (grad > 0.0)
        while True:
            system = np.where(held[:, None] | held[None, :], eye, J.T @ J + nu * eye)
            try:
                step = np.linalg.solve(system, np.where(held, 0.0, -grad))
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                trial = np.maximum(gaps + step, 0.0)
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


class TestStackedRestoration:
    def test_lm_rows_match_reference(self, example_spec, monkeypatch):
        # each row of one stacked run is bitwise the start-by-start run
        monkeypatch.setattr(solver, "LM_ITERATIONS", 60)
        options = SolverOptions(starts=16, seed=0)
        # n = 6 has 12- and 13-slot programs, where BLAS would round the
        # stacked J^T J differently from the plain loop
        specs = (
            example_spec,
            make_spec(4, x0=[0.1, 0.2, 0.4, 0.5]),
            make_spec(6, x0=[0.1, 0.2, 0.4, 0.5, 0.8, 1.0]),
        )
        for inst in (inst for spec in specs for inst in build_all(spec)[:3]):
            gaps = _starts(inst, options, horizon(inst.spec))
            stacked, c = _lm(inst.spec, gaps, inst.levels)
            for i in range(len(gaps)):
                ref_gaps, ref_c = lm_reference(inst, gaps[i], 60)
                assert np.array_equal(stacked[i], ref_gaps)
                assert np.array_equal(c[i], ref_c)

    @pytest.mark.parametrize(
        "x0",
        [
            # the reference problem: 4 programs
            [0.6, 0.4],
            # the n=4 counterexample the multi-start alone refuses: 8 programs
            [0.2, 0.15, 0.1, 0.05],
            # the n=4 problem of TestHigherOrder: 8 programs
            [0.1, 0.2, 0.4, 0.5],
        ],
    )
    def test_stack_matches_single_rows(self, x0):
        # restoring all starts of a program as one stack gives, row by row,
        # the bits of restoring each start alone
        options = SolverOptions(starts=16, seed=0)
        for inst in build_all(make_spec(len(x0), x0=x0)):
            starts = _starts(inst, options, horizon(inst.spec))
            gaps, c = _lm(inst.spec, starts, inst.levels)
            for i in range(len(starts)):
                gaps_1, c_1 = _lm(inst.spec, starts[i:i + 1], inst.levels)
                assert np.array_equal(gaps[i], gaps_1[0])
                assert np.array_equal(c[i], c_1[0])

    @pytest.mark.parametrize(
        "x0, max_switches, starts",
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
    def test_programs_share_a_stack(self, x0, max_switches, starts, monkeypatch):
        # restoring every program of a slot count in one stack gives, row
        # by row, the bits of restoring each program's starts alone
        spec = make_spec(len(x0), x0=x0)
        if max_switches is not None:
            spec = validate_problem(spec.system, spec.x0, spec.k, max_switches)
        options = SolverOptions(starts=starts, seed=0)
        instances = build_all(spec)
        blind = blind_starts(instances, options)
        stacks = []

        def counting_lm(spec, gaps, *args, **kwargs):
            stacks.append(len(gaps))
            return _lm(spec, gaps, *args, **kwargs)

        monkeypatch.setattr(solver, "_lm", counting_lm)
        restored = _restore(spec, instances, blind)
        slot_counts = [inst.slot_count for inst in instances]
        per_count = [starts * slot_counts.count(K) for K in set(slot_counts)]
        assert len(per_count) > 1 and sorted(stacks) == sorted(per_count)
        for inst in instances:
            gaps, c = restored[inst.instance_id]
            alone, c_alone = _lm(spec, blind[inst.instance_id], inst.levels)
            assert np.array_equal(gaps, alone)
            assert np.array_equal(c, c_alone)

    def test_held_gaps_cut_restoration_passes(self, example_spec, monkeypatch):
        # a gap at 0 whose gradient points below 0 is held out of the
        # step, not clipped to a near-null move, so the runs no longer
        # crawl along the bound to `LM_ITERATIONS`: the two stacks
        # of the reference problem take 74 passes, and 469 with clipped steps
        passes = []

        def counting_solve_rows(A, rhs):
            passes.append(len(A))
            return _solve_rows(A, rhs)

        monkeypatch.setattr(solver, "_solve_rows", counting_solve_rows)
        instances = build_all(example_spec)
        _restore(example_spec, instances, blind_starts(instances, SolverOptions(starts=16, seed=0)))
        assert len(passes) <= 120

    def test_singular_systems_stop_at_the_damping_bound(self, example_spec, monkeypatch):
        # a row whose every system is singular only raises its damping, from
        # 1e-3 by 10 a pass, so the one damping stop ends it after 20 passes
        # with its gaps unchanged
        passes = []

        def singular_rows(A, rhs):
            passes.append(len(A))
            return np.zeros(rhs.shape), np.ones(len(A), dtype=bool)

        monkeypatch.setattr(solver, "_solve_rows", singular_rows)
        inst = build_all(example_spec)[0]
        start = np.zeros((1, inst.slot_count))
        gaps, _ = _lm(example_spec, start, inst.levels)
        assert passes == [1] * 20
        assert np.array_equal(gaps, start)

    def test_starts_are_prefixes(self):
        # start i does not depend on how many starts follow it
        spec = make_spec(4, x0=[0.2, 0.15, 0.1, 0.05])
        for inst in build_all(spec):
            scale = horizon(spec)
            starts = _starts(inst, SolverOptions(starts=16, seed=0), scale)
            for i in range(len(starts)):
                fewer = _starts(inst, SolverOptions(starts=i + 1, seed=0), scale)
                assert np.array_equal(fewer[i], starts[i])

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


def stable_spec(rates, x0):
    system = LtiSystem(build_spectrum([(-r, 1) for r in rates]), (1.0,) * len(rates))
    return validate_problem(system, x0, 1.0)


def check_against_lp(spec, report, options):
    """The answer lands on the origin and costs within 5e-3 of the LP."""
    best = report.best
    terminal = propagate(spec.system, spec.x0, best.schedule).terminal_state
    assert np.max(np.abs(terminal)) <= 10.0 * options.feas_tol
    oracle, _horizon, _inputs = lp_oracle(spec, 3.0 * best.final_time + 1.0)
    assert abs(best.cost - oracle) / oracle < 5e-3, (best.cost, oracle)


class TestLpRetry:
    """Feasible problems on which every multi-start start stalls."""

    OPTIONS = SolverOptions(starts=16, seed=0)
    COUNTEREXAMPLE = ((1, 2, 3, 4), [0.2, 0.15, 0.1, 0.05])

    def test_counterexample_solves(self):
        spec = stable_spec(*self.COUNTEREXAMPLE)
        report = solve_time_fuel(spec, self.OPTIONS)
        check_against_lp(spec, report, self.OPTIONS)
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
        check_against_lp(spec, solve_time_fuel(spec, self.OPTIONS), self.OPTIONS)

    @pytest.mark.parametrize("horizon", [1.40, 1.45, 1.5, 1.6, 1.7, 2.0])
    def test_counterexample_seed_converges(self, horizon):
        # the LP word of each horizon seeds a feasible, near-optimal start
        # of OP2-minus-+-, which the descent must carry to the optimum, not
        # off the manifold into the residual-6.4e-3 valley around it
        spec = stable_spec(*self.COUNTEREXAMPLE)
        instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
        _cost, inputs = _lp_transfer(spec, horizon)
        word = _lp_word(inputs, horizon)
        restored = _restore(spec, instances, _lp_seeds(instances, word))
        seeded = [inst for inst in instances if inst.instance_id in restored]
        solutions = [solve_nlp(i, restored[i.instance_id]) for i in seeded]
        verified = {v.instance_id: v.cost for v in _verified(spec, seeded, solutions)}
        assert verified["OP2-minus-+-"] == pytest.approx(1.9461, abs=1e-3)

    def test_seeds_share_a_stack(self, monkeypatch):
        # the seeds of all programs that contain the LP word are restored
        # in one stack per slot count, each row with the bits it gets alone
        spec = stable_spec(*self.COUNTEREXAMPLE)
        instances = sorted(build_all(spec), key=lambda inst: inst.instance_id)
        word = schedule_from_times((1, 0, -1), [0.3, 0.5, 0.9])
        seeds = _lp_seeds(instances, word)
        slot_counts = {inst.slot_count for inst in instances if inst.instance_id in seeds}
        assert len(seeds) > len(slot_counts)
        calls = []

        def counting_lm(spec, gaps, *args, **kwargs):
            calls.append(len(gaps))
            return _lm(spec, gaps, *args, **kwargs)

        monkeypatch.setattr(solver, "_lm", counting_lm)
        restored = _restore(spec, instances, seeds)
        assert len(calls) == len(slot_counts) and sum(calls) == len(seeds)
        for inst in instances:
            if inst.instance_id in seeds:
                gaps, c = restored[inst.instance_id]
                alone, c_alone = _lm(spec, seeds[inst.instance_id], inst.levels)
                assert np.array_equal(gaps, alone)
                assert np.array_equal(c, c_alone)

    def test_seeded_starts_run_through_solve_nlp(self, monkeypatch):
        # each of the 8 programs gets one blind solve of its restored
        # starts, then each program that contains the LP word one seeded
        # solve of a single restored start
        calls, words = [], []

        def counting_solve_nlp(instance, restored):
            calls.append((instance.instance_id, restored[0]))
            return solve_nlp(instance, restored)

        def recording_lp_word(inputs, horizon):
            words.append(_lp_word(inputs, horizon))
            return words[-1]

        monkeypatch.setattr(solver, "solve_nlp", counting_solve_nlp)
        monkeypatch.setattr(solver, "_lp_word", recording_lp_word)
        spec = stable_spec(*self.COUNTEREXAMPLE)
        solve_time_fuel(spec, self.OPTIONS)
        instances = build_all(spec)
        containing = {
            inst.instance_id
            for inst in instances
            if _slots(inst.levels, words[0].levels) is not None
        }
        blind = [i for i, gaps in calls if len(gaps) == self.OPTIONS.starts]
        seeded = [i for i, gaps in calls if len(gaps) == 1]
        assert self.OPTIONS.starts > 1 and len(blind) + len(seeded) == len(calls)
        assert len(blind) == len(instances) == 8
        assert sorted(blind) == sorted(inst.instance_id for inst in instances)
        assert containing and sorted(seeded) == sorted(containing)

    def test_counterexample_deterministic(self):
        spec = stable_spec(*self.COUNTEREXAMPLE)
        a = solve_time_fuel(spec, self.OPTIONS)
        b = solve_time_fuel(spec, self.OPTIONS)
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
            check_against_lp(spec, solve_time_fuel(spec, self.OPTIONS), self.OPTIONS)


def test_stable_1_solves_blind(monkeypatch):
    # the free n=4 draw `stable-1` of the benchmark's stable_free set: a
    # blind start reaches the manifold, so the LP is never consulted
    def no_lp(*args, **kwargs):
        raise AssertionError("lp_oracle consulted")

    monkeypatch.setattr(solver, "lp_oracle", no_lp)
    spec = stable_spec((3, 4, 5, 6), [0.0883, -0.3688, -0.2573, -0.0863])
    options = SolverOptions(starts=16, seed=0)
    check_against_lp(spec, solve_time_fuel(spec, options), options)


@pytest.mark.xfail(
    strict=True,
    reason="silently suboptimal: at 16 starts every converged program, "
    "OP2-plus-- included, ends on the embedded word 0,-1,0,1 at 2.324992, "
    "and the LP checks only refusals (ROADMAP: check every answer with the LP)",
)
def test_sixteen_starts_find_the_optimum():
    # b = 1, lambda = -1, 2, -3: 16 starts verify OP2-plus--, OP2-minus-+ and
    # OP1-minus--+, all on word 0,-1,0,1 at 2.324992, while 64 starts and
    # the LP give OP2-plus-- on word 1,0,-1,0,1 at 2.315893
    spec = parse_problem(
        {
            "eigenvalues": [[-1, 1], [2, 1], [-3, 1]],
            "b": [1, 1, 1],
            "x0": [0.3, 0.1, 0.1],
            "k": 2,
        }
    )
    report = solve_time_fuel(spec, SolverOptions(starts=16, seed=0))
    assert report.best.cost == pytest.approx(2.315893, rel=1e-6)


@pytest.mark.xfail(
    strict=True,
    raises=SolverFailedError,
    reason="converged but rejected: OP2-plus-- meets the reach residual at "
    "1.3e-14, while the simulator's |x(t_f)| is 2.1e-5, rounding amplified "
    "by e^(4 t_f) ~ 4e11 (ROADMAP item 1: terminal-state residuals)",
)
def test_unstable_optimum_passes_the_simulator():
    # b = 1, lambda = -1/2, 1, 4: OP2-plus-- converges on word 1,0,-1,0,1
    # at 12.169956 (t_f 6.6954), below the LP's 12.185535 on word 1,-1,0,1;
    # the LP-seeded retry reaches the same point and is rejected alike
    spec = parse_problem(
        {
            "eigenvalues": [[-1, 2], [1, 1], [4, 1]],
            "b": [1, 1, 1],
            "x0": [0.2, 0.2109, -0.1805],
            "k": 1,
        }
    )
    report = solve_time_fuel(spec, SolverOptions(starts=16, seed=0))
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
    def test_degenerate_optimum_converges(self, problem, programs):
        report = solve_time_fuel(parse_problem(problem), SolverOptions(starts=24, seed=3))
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
    report = solve_time_fuel(spec, SolverOptions(starts=16, seed=0))
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
    # OP1-minus--+ converges at reach residual 1.4e-14 with its single bang
    # split by zero-length segments; dropping the 1.1e-7 tail after them
    # ended the schedule early and the simulator rejected the program
    report = solve_time_fuel(parse_problem(MIXED_2), SolverOptions(starts=16, seed=0))
    assert "OP1-minus--+" in report.ties
    assert report.best.schedule.levels == (-1,)


class TestDescentLayer:
    """SLSQP stops at the feasibility tolerance; the polish gives the digits."""

    def test_slsqp_work_is_bounded(self, monkeypatch):
        # SLSQP chasing ftol 1e-14 took 794 iterations on mixed-2
        iterations = []
        real_minimize = solver.minimize

        def counted(*args, **kwargs):
            result = real_minimize(*args, **kwargs)
            iterations.append(result.nit)
            return result

        monkeypatch.setattr(solver, "minimize", counted)
        solve_time_fuel(parse_problem(MIXED_2), SolverOptions(starts=16, seed=0))
        assert 0 < sum(iterations) <= 400

    def test_reference_cost_to_rounding(self, example_spec):
        # the optimum of word -1, 0, 1 from its KKT conditions at 50 digits:
        # reach(t) = x0, and the Lagrangian of k t_f + t_1 + (t_f - t_2) is
        # stationary in t_1, t_2, t_f, where psi(s) = mu . e^(-lam s) must be
        # 1 at t_1, -1 at t_2 and -(k + 1) at t_f; x0 is taken as the
        # doubles the solver reads, not the decimals 0.6 and 0.4
        import mpmath as mp

        report = solve_time_fuel(example_spec, SolverOptions(starts=16, seed=0))
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
        # the constraint's value and Jacobian share one kernel call a point
        inst = next(i for i in build_all(example_spec) if i.instance_id == "OP2-minus")
        gaps, c = restored_alone(inst)
        start = gaps[int(np.argmin(np.max(np.abs(c), axis=1)))]
        received, evaluated = set(), []
        real_minimize, real_eval = solver.minimize, solver._eval

        def recorded(f):
            def g(x):
                received.add(x.tobytes())
                return f(x)

            return g

        def watched(fun, x0, constraints, **kwargs):
            (con,) = constraints
            con = {**con, "fun": recorded(con["fun"]), "jac": recorded(con["jac"])}
            return real_minimize(fun, x0, constraints=[con], **kwargs)

        def counted(spec, levels, gaps, *args, **kwargs):
            evaluated.extend(row.tobytes() for row in gaps)
            return real_eval(spec, levels, gaps, *args, **kwargs)

        monkeypatch.setattr(solver, "minimize", watched)
        monkeypatch.setattr(solver, "_eval", counted)
        solver._slsqp(inst, start)
        assert len(received) > 1
        assert sorted(evaluated) == sorted(received)


class TestMergeIntoKnownMinimum:
    """A start whose SLSQP reaches a local minimizer its program already
    found ends there, without its own polish."""

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

        def counted(instance, gaps):
            calls.append(instance.instance_id)
            return real_polish(instance, gaps)

        monkeypatch.setattr(solver, "_polish", counted)
        return calls

    def test_sixty_four_starts_keep_the_optimum(self):
        # stopping a program's starts at a repeated point lost this optimum;
        # merging keeps every start's exploration
        report = solve_time_fuel(parse_problem(self.SUBOPTIMAL), SolverOptions(starts=64, seed=0))
        assert report.best.schedule.levels == (1, 0, -1, 0, 1)
        assert report.best.cost == pytest.approx(2.315893, rel=1e-6)

    def test_one_polish_per_converged_program(self, example_spec, monkeypatch):
        # every later start of OP2-minus reaches the first one's minimizer
        calls = self.counted_polish(monkeypatch)
        report = solve_time_fuel(example_spec, SolverOptions(starts=16, seed=0))
        converged = [s.instance_id for s in report.per_instance if s.status == CONVERGED]
        assert sorted(calls) == sorted(converged) == ["OP2-minus"]
        assert report.best.cost == pytest.approx(1.89397904421243217, rel=2e-15)

    def test_second_order_check(self, example_spec):
        # the optimum of OP2-minus passes; under the negated cost the same
        # point is a maximizer along the manifold and fails
        inst = next(i for i in build_all(example_spec) if i.instance_id == "OP2-minus")
        sol = solve_nlp(inst, restored_alone(inst))
        gaps = np.diff(sol.times, prepend=0.0)
        assert solver._is_minimizer(inst, gaps)
        flipped = next(i for i in build_all(example_spec) if i.instance_id == "OP2-minus")
        flipped.__dict__["gap_weights"] = -inst.gap_weights
        assert not solver._is_minimizer(flipped, gaps)

    def test_point_failing_the_check_is_no_target(self, example_spec, monkeypatch, caplog):
        # with every converged point refused, each start descends on its own
        monkeypatch.setattr(solver, "_is_minimizer", lambda instance, gaps: False)
        calls = self.counted_polish(monkeypatch)
        inst = next(i for i in build_all(example_spec) if i.instance_id == "OP2-minus")
        with caplog.at_level(logging.DEBUG, logger="timefuel"):
            sol = solve_nlp(inst, restored_alone(inst, SolverOptions(starts=16, seed=0)))
        assert sol.status == CONVERGED
        assert len(calls) >= 16
        assert caplog.messages == [
            "OP2-minus: 16 starts, 16 descended, 16 converged, 0 merged into a known minimum"
        ]

    def test_counts_logged_per_program(self, example_spec, caplog):
        with caplog.at_level(logging.DEBUG, logger="timefuel"):
            report = solve_time_fuel(example_spec, SolverOptions(starts=16, seed=0))
        assert [r.name for r in caplog.records] == ["timefuel"] * 4
        assert caplog.messages == [
            "OP1-minus: 16 starts, 0 descended, 0 converged, 0 merged into a known minimum",
            "OP1-plus: 16 starts, 0 descended, 0 converged, 0 merged into a known minimum",
            "OP2-minus: 16 starts, 16 descended, 1 converged, 15 merged into a known minimum",
            "OP2-plus: 16 starts, 0 descended, 0 converged, 0 merged into a known minimum",
        ]
        # the log leaves the report as it is
        quiet = solve_time_fuel(example_spec, SolverOptions(starts=16, seed=0))
        assert json.dumps(quiet.as_dict()) == json.dumps(report.as_dict())
