import math

import numpy as np
import pytest
from scipy.optimize import linprog

from timefuel import LtiSystem, build_spectrum, parse_problem, simulate, validate_problem
from timefuel.simulate import (
    LP_CELLS,
    LP_CONFIRM,
    InvalidScheduleError,
    SwitchingSchedule,
    _lp_transfer,
    evaluate_cost,
    lp_oracle,
    propagate,
    reachability_x0,
    schedule_from_times,
)
from timefuel.solver import _lp_word

from conftest import random_schedule, random_system


def rk4_propagate(system, x0, schedule, step=1e-5):
    """Reference integrator: classic fourth-order Runge-Kutta per segment."""
    lam = system.eigenvalues
    b = system.gains
    x = np.array(x0, dtype=float)
    bp = schedule.breakpoints
    for i, u in enumerate(schedule.levels):
        length = bp[i + 1] - bp[i]
        steps = max(1, int(math.ceil(length / step)))
        h = length / steps
        f = lambda y: lam * y + b * u
        for _ in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@pytest.fixture
def stable_system():
    return LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))


class TestSchedule:
    def test_empty(self):
        s = SwitchingSchedule.empty()
        assert s.final_time == 0.0
        assert s.levels == ()

    def test_validation(self):
        with pytest.raises(InvalidScheduleError):
            SwitchingSchedule((0.0, 1.0), (0,))  # trailing off period
        with pytest.raises(InvalidScheduleError):
            SwitchingSchedule((0.0, 1.0, 1.0), (1, 0))
        with pytest.raises(InvalidScheduleError):
            SwitchingSchedule((0.5, 1.0), (1,))
        with pytest.raises(InvalidScheduleError):
            SwitchingSchedule((0.0, 0.5, 1.0), (1, 1))

    @pytest.mark.parametrize(
        "levels", [(np.True_,), (1, np.False_, -1), (np.True_, 0, -1)]
    )
    def test_boolean_levels_rejected(self, levels):
        # numpy.bool_ is not a bool subclass, and it equals 1 or 0
        breakpoints = tuple(float(i) for i in range(len(levels) + 1))
        with pytest.raises(InvalidScheduleError, match="levels"):
            SwitchingSchedule(breakpoints, levels)

    def test_from_times_collapses(self):
        s = schedule_from_times((0, 1, 0, -1), (0.0, 0.3, 0.3, 0.9))
        assert s.levels == (1, -1)
        assert s.breakpoints == pytest.approx((0.0, 0.3, 0.9))

    def test_from_times_trims_trailing_zero(self):
        s = schedule_from_times((1, 0), (0.4, 0.9))
        assert s.levels == (1,)
        assert s.breakpoints == (0.0, 0.4)

    def test_from_times_all_collapsed(self):
        s = schedule_from_times((0, 1, 0, -1), (0.2, 0.2, 0.2, 0.2))
        assert s == SwitchingSchedule.empty()

    def test_from_times_merges_equal_levels(self):
        s = schedule_from_times((1, 0, 1), (0.4, 0.4, 0.7))
        assert s.levels == (1,)
        assert s.breakpoints == (0.0, 0.7)

    def test_from_times_keeps_a_sliver_that_continues_its_level(self):
        # a tail shorter than COLLAPSE_TOL, split off by a zero-length segment
        s = schedule_from_times((1, 0, 1), [0.26, 0.26, 0.26 + 5.7e-8])
        assert s.levels == (1,)
        assert s.breakpoints == (0.0, 0.26 + 5.7e-8)


class TestPropagate:
    def test_equilibrium(self, stable_system):
        traj = propagate(stable_system, [0.0, 0.0], SwitchingSchedule.empty())
        np.testing.assert_array_equal(traj.terminal_state, [0.0, 0.0])

    def test_scalar_hand_value(self):
        system = LtiSystem(build_spectrum([(-1, 1)]), (1.0,))
        sched = SwitchingSchedule((0.0, math.log(2.0)), (-1,))
        traj = propagate(system, [1.0], sched)
        np.testing.assert_allclose(traj.terminal_state, [0.0], atol=1e-15)

    def test_matches_rk4(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            system = random_system(rng, n)
            sched = random_schedule(rng)
            x0 = rng.uniform(-1, 1, size=n)
            exact = propagate(system, x0, sched).terminal_state
            reference = rk4_propagate(system, x0, sched)
            np.testing.assert_allclose(exact, reference, atol=1e-8)

    def test_semigroup(self, stable_system):
        sched = SwitchingSchedule((0.0, 0.5, 1.0, 1.5), (1, 0, -1))
        x0 = [0.3, -0.2]
        full = propagate(stable_system, x0, sched).terminal_state
        head = propagate(
            stable_system, x0, SwitchingSchedule((0.0, 0.5), (1,))
        ).terminal_state
        tail = propagate(
            stable_system, head, SwitchingSchedule((0.0, 0.5, 1.0), (0, -1))
        ).terminal_state
        np.testing.assert_allclose(tail, full, atol=1e-12)

    def test_breakpoints_sampled(self, stable_system):
        traj = propagate(
            stable_system,
            [0.7, -0.4],
            SwitchingSchedule((0.0, 1.0, 2.0, 2.5), (1, 0, -1)),
            samples_per_segment=5,
        )
        assert traj.sample_times[0] == 0.0
        assert set(np.round((0.0, 1.0, 2.0, 2.5), 12)) <= set(
            np.round(traj.sample_times, 12)
        )

    def test_stable_free_decay_monotone(self, stable_system):
        # norm can only shrink while the input is off and every mode is stable
        sched = SwitchingSchedule((0.0, 2.0, 2.5), (0, 1))
        traj = propagate(stable_system, [0.7, -0.4], sched, samples_per_segment=8)
        off_samples = traj.states[traj.sample_times <= 2.0]
        norms = np.linalg.norm(off_samples, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)

    @pytest.mark.parametrize("samples", [True, np.True_])
    def test_boolean_samples_rejected(self, stable_system, samples):
        sched = SwitchingSchedule((0.0, 1.0), (1,))
        with pytest.raises(ValueError, match="samples_per_segment"):
            propagate(stable_system, [0.1, 0.1], sched, samples_per_segment=samples)

    def test_samples_per_segment(self, stable_system):
        sched = SwitchingSchedule((0.0, 1.0, 2.0), (0, 1))
        traj = propagate(stable_system, [0.1, 0.1], sched, samples_per_segment=4)
        assert len(traj.sample_times) == 1 + 2 * 4


class TestReachability:
    def test_empty_schedule(self, stable_system):
        np.testing.assert_array_equal(
            reachability_x0(stable_system, SwitchingSchedule.empty()), [0.0, 0.0]
        )

    def test_duality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            system = random_system(rng, n)
            sched = random_schedule(rng)
            x0 = reachability_x0(system, sched)
            terminal = propagate(system, x0, sched).terminal_state
            assert np.max(np.abs(terminal)) <= 1e-10

    def test_scalar_hand_value(self):
        system = LtiSystem(build_spectrum([(-1, 1)]), (1.0,))
        sched = SwitchingSchedule((0.0, math.log(2.0)), (-1,))
        np.testing.assert_allclose(reachability_x0(system, sched), [1.0], rtol=1e-14)

    def test_reference_example_schedule(self):
        # optimal k = 1 switching times of the reference example transfer
        # its initial state (frozen from an independent SLSQP solve)
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        sched = SwitchingSchedule((0.0, 0.6443, 1.0463, 1.1480), (-1, 0, 1))
        np.testing.assert_allclose(
            reachability_x0(system, sched), [0.6, 0.4], atol=5e-3
        )


class TestCost:
    def test_empty(self):
        assert evaluate_cost(SwitchingSchedule.empty(), 1.0) == (0.0, 0.0, 1.0)

    def test_single_bang(self):
        J, on, sp = evaluate_cost(SwitchingSchedule((0.0, 1.0), (1,)), 1.0)
        assert J == 2.0 and on == 1.0 and sp == 0.0

    def test_off_periods_counted_in_time_only(self):
        sched = SwitchingSchedule((0.0, 0.5, 1.0, 2.0), (-1, 0, 1))
        J, on, sp = evaluate_cost(sched, 2.0)
        assert on == pytest.approx(1.5)
        assert J == pytest.approx(2.0 * 2.0 + 1.5)
        assert sp == pytest.approx(1.0 - 1.5 / 2.0)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_schedule(rng)
            k = float(rng.uniform(0.2, 3.0))
            J, on, _ = evaluate_cost(s, k)
            parts_on = sum(
                (s.breakpoints[i + 1] - s.breakpoints[i])
                for i, v in enumerate(s.levels)
                if v != 0
            )
            assert on == pytest.approx(parts_on)
            assert J == pytest.approx(k * s.final_time + parts_on)


class TestLpOracle:
    def test_scalar_closed_form(self):
        system = LtiSystem(build_spectrum([(-1, 1)]), (1.0,))
        spec = validate_problem(system, [0.5], 1.0)
        cost, _horizon, _inputs = lp_oracle(spec, 4.0)
        expected = 2.0 * math.log(1.5)
        assert abs(cost - expected) / expected < 5e-3

    def test_reference_example_winner(self):
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.6, 0.4], 1.0)
        assert abs(lp_oracle(spec, 6.0)[0] - 1.8940) < 5e-3

    def test_fourth_order_counterexample(self):
        # feasible (every mode is stable) although every start of the
        # multi-start stalls on it; the optimum word is -1,0,1,0,-1,0,1 at
        # t_f ~ 1.42
        system = LtiSystem(build_spectrum([(-i, 1) for i in range(1, 5)]), (1.0,) * 4)
        spec = validate_problem(system, [0.2, 0.15, 0.1, 0.05], 1.0)
        cost, horizon, inputs = lp_oracle(spec, 6.0)
        assert cost == pytest.approx(1.9461, abs=1e-3)
        # the inputs of the best horizon give the cost, and rounded cell by
        # cell they condense to the optimum word
        assert inputs.shape == (LP_CELLS,) and np.all(np.abs(inputs) <= 1.0 + 1e-9)
        fuel = horizon / LP_CELLS * np.sum(np.abs(inputs))
        assert spec.k * horizon + fuel == pytest.approx(cost, rel=1e-7)
        word = _lp_word(inputs, horizon)
        assert word.levels == (-1, 0, 1, 0, -1, 0, 1)
        assert word.final_time == pytest.approx(horizon)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_horizon_rejected(self, t_max):
        # None would read as "unreachable"; nan and inf would reach linprog
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.6, 0.4], 1.0)
        with pytest.raises(ValueError, match="t_max"):
            lp_oracle(spec, t_max)

    @pytest.mark.parametrize("t_max", [True, np.True_])
    def test_boolean_horizon_rejected(self, t_max):
        # True would run as the horizon 1
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.6, 0.4], 1.0)
        with pytest.raises(ValueError, match="t_max"):
            lp_oracle(spec, t_max)

    def test_infeasible_returns_none(self):
        # unstable scalar mode: the reachable set is (-1, 1) at any horizon
        system = LtiSystem(build_spectrum([(1, 1)]), (1.0,))
        spec = validate_problem(system, [2.0], 1.0)
        assert lp_oracle(spec, 5.0) is None

    @pytest.mark.parametrize(
        "eigenvalues, x0, k",
        [
            # the benchmark's unreachable mixed-3
            ([1, 3, -2, 2], [0.1407, 0.466, 0.0978, -0.2646], 1),
            # the two refusals of the random sweep
            ([-5, 2, 3], [0.3739, -0.2274, 0.0801], 2),
            ([1, 3, -5, -2], [-0.5061, 0.1377, 0.0521, -0.0594], 1),
        ],
        ids=["mixed-3", "sweep-a", "sweep-b"],
    )
    def test_refusal_confirmed_on_halved_horizons(self, eigenvalues, x0, k, monkeypatch):
        # a refusal takes the LP at t_max (the solver's `horizon`, 50 slowest
        # time constants) and one at each of LP_CONFIRM halved horizons
        spec = parse_problem(
            {
                "eigenvalues": [[c, 1] for c in eigenvalues],
                "b": [1] * len(x0),
                "x0": x0,
                "k": k,
            }
        )
        calls = []

        def counting_linprog(*args, **kwargs):
            calls.append(kwargs["A_eq"].shape[1])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(simulate, "linprog", counting_linprog)
        assert lp_oracle(spec, 50.0 / min(abs(c) for c in eigenvalues)) is None
        assert calls == [2 * LP_CELLS] * (1 + LP_CONFIRM)

    def test_near_boundary_state_reached_at_a_shorter_horizon(self):
        # x0 just inside the null-controllable set of the modes at 2 and 3:
        # the 0.625-wide cells at t_max = 250 cannot reach it, the finer
        # cells of shorter horizons can (a scan of 60 horizons over
        # (0, t_max] gives 10.39235)
        spec = parse_problem(
            {
                "eigenvalues": [[-1, 5], [2, 1], [3, 1]],
                "b": [1, 1, 1],
                "x0": [0.5, 0.048568, -0.061975],
                "k": 1,
            }
        )
        assert _lp_transfer(spec, 250.0)[0] == math.inf
        cost, horizon, inputs = lp_oracle(spec, 250.0)
        assert cost == pytest.approx(10.39235, rel=1e-4)
        fuel = horizon / LP_CELLS * np.sum(np.abs(inputs))
        assert spec.k * horizon + fuel == pytest.approx(cost, rel=1e-7)
