import json
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
    solve_nlp,
    solve_time_fuel,
)

from test_builder import make_spec

OPTS = SolverOptions(starts=12, seed=0)


def scalar_spec(lam=-1.0, b=1.0, x0=0.5, k=1.0):
    system = LtiSystem(build_spectrum([(int(lam), 1)]), (b,))
    return validate_problem(system, [x0], k)


def blind_starts(instances, options):
    """The `_starts` rows of every program, by id, and their time box."""
    t_max = options.horizon(instances[0])
    return {inst.instance_id: _starts(inst, options, t_max) for inst in instances}, t_max


def restored_alone(inst, options=OPTS):
    """One program's blind starts restored on their own, for `solve_nlp`."""
    starts, t_max = blind_starts([inst], options)
    return _restore([inst], starts, t_max)[inst.instance_id]


class TestSolveNlp:
    def test_scalar_closed_form(self):
        # single negative bang: t_f = ln(1 + x0), J = (k + 1) t_f
        spec = scalar_spec()
        inst = sequence_instance(spec, CandidateSequence.from_levels((-1,)))
        sol = solve_nlp(inst, OPTS, restored_alone(inst))
        assert sol.status == CONVERGED
        expected = 2.0 * math.log(1.5)
        assert sol.cost == pytest.approx(expected, abs=1e-9)
        assert sol.times[-1] == pytest.approx(math.log(1.5), abs=1e-9)

    def test_example_winner_instance(self, example_spec):
        inst = sequence_instance(
            example_spec, CandidateSequence.from_levels((-1, 0, 1))
        )
        sol = solve_nlp(inst, OPTS, restored_alone(inst))
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(1.8940, abs=5e-4)
        assert sol.times[-1] == pytest.approx(1.1480, abs=5e-4)

    def test_origin_start(self, example_spec):
        spec = validate_problem(example_spec.system, [0.0, 0.0], 1.0)
        inst = sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        sol = solve_nlp(inst, OPTS, restored_alone(inst))
        assert sol.status == CONVERGED
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_solution_invariants(self, example_spec):
        for inst in build_all(example_spec):
            sol = solve_nlp(inst, OPTS, restored_alone(inst))
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


def lm_reference(instance, gaps, t_max, iterations, tol=1e-12):
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
        held = ((gaps <= 0.0) & (grad > 0.0)) | ((gaps >= t_max) & (grad < 0.0))
        for _attempt in range(40):
            try:
                system = np.where(held[:, None] | held[None, :], eye, J.T @ J + nu * eye)
                step = np.linalg.solve(system, np.where(held, 0.0, -grad))
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
            t_max = options.horizon(inst)
            gaps = _starts(inst, options, t_max)
            stacked, c = _lm(inst, gaps, t_max)
            for i in range(len(gaps)):
                ref_gaps, ref_c = lm_reference(inst, gaps[i], t_max, 60)
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
            t_max = options.horizon(inst)
            starts = _starts(inst, options, t_max)
            gaps, c = _lm(inst, starts, t_max)
            for i in range(len(starts)):
                gaps_1, c_1 = _lm(inst, starts[i:i + 1], t_max)
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
        blind, t_max = blind_starts(instances, options)
        stacks = []

        def counting_lm(inst, gaps, *args, **kwargs):
            stacks.append(len(gaps))
            return _lm(inst, gaps, *args, **kwargs)

        monkeypatch.setattr(solver, "_lm", counting_lm)
        restored = _restore(instances, blind, t_max)
        slot_counts = [inst.slot_count for inst in instances]
        per_count = [starts * slot_counts.count(K) for K in set(slot_counts)]
        assert len(per_count) > 1 and sorted(stacks) == sorted(per_count)
        for inst in instances:
            gaps, c = restored[inst.instance_id]
            alone, c_alone = _lm(inst, blind[inst.instance_id], t_max)
            assert np.array_equal(gaps, alone)
            assert np.array_equal(c, c_alone)

    def test_held_gaps_cut_restoration_passes(self, example_spec, monkeypatch):
        # a gap at a bound whose gradient points out of the box is held out
        # of the step, not clipped to a near-null move, so the runs no
        # longer crawl along the bounds to `LM_ITERATIONS`: the two stacks
        # of the reference problem take 74 passes, and 469 with clipped steps
        passes = []

        def counting_solve_rows(A, rhs):
            passes.append(len(A))
            return _solve_rows(A, rhs)

        monkeypatch.setattr(solver, "_solve_rows", counting_solve_rows)
        instances = build_all(example_spec)
        _restore(instances, *blind_starts(instances, SolverOptions(starts=16, seed=0)))
        assert len(passes) <= 120

    def test_starts_are_prefixes(self):
        # start i does not depend on how many starts follow it
        spec = make_spec(4, x0=[0.2, 0.15, 0.1, 0.05])
        for inst in build_all(spec):
            t_max = SolverOptions().horizon(inst)
            starts = _starts(inst, SolverOptions(starts=16, seed=0), t_max)
            for i in range(len(starts)):
                fewer = _starts(inst, SolverOptions(starts=i + 1, seed=0), t_max)
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
        t_max = self.OPTIONS.horizon(instances[0])
        restored = _restore(instances, _lp_seeds(instances, word), t_max)
        seeded = [inst for inst in instances if inst.instance_id in restored]
        solutions = [solve_nlp(i, self.OPTIONS, restored[i.instance_id]) for i in seeded]
        verified = {v[3]: v[0] for v in _verified(spec, seeded, solutions)}
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
        t_max = self.OPTIONS.horizon(instances[0])
        calls = []

        def counting_lm(inst, gaps, *args, **kwargs):
            calls.append(len(gaps))
            return _lm(inst, gaps, *args, **kwargs)

        monkeypatch.setattr(solver, "_lm", counting_lm)
        restored = _restore(instances, seeds, t_max)
        assert len(calls) == len(slot_counts) and sum(calls) == len(seeds)
        for inst in instances:
            if inst.instance_id in seeds:
                gaps, c = restored[inst.instance_id]
                alone, c_alone = _lm(inst, seeds[inst.instance_id], t_max)
                assert np.array_equal(gaps, alone)
                assert np.array_equal(c, c_alone)

    def test_seeded_starts_run_through_solve_nlp(self, monkeypatch):
        # each of the 8 programs gets one blind solve of its restored
        # starts, then each program that contains the LP word one seeded
        # solve of a single restored start
        calls, words = [], []

        def counting_solve_nlp(instance, options, restored):
            calls.append((instance.instance_id, restored[0]))
            return solve_nlp(instance, options, restored)

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
