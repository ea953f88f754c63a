import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, linprog
from scipy.optimize._highspy._core import _Highs

from timefuel import LtiSystem, build_spectrum, parse_problem, simulate, validate_problem
from timefuel.simulate import (
    LP_CELLS,
    InvalidScheduleError,
    SwitchingSchedule,
    _farkas,
    _lp_transfer,
    _sign_changes,
    _time_bound,
    evaluate_cost,
    lp_oracle,
    null_certificate,
    propagate,
    reachability_x0,
    schedule_from_times,
)
from timefuel.solver import _lp_word, horizon

from conftest import random_schedule, random_system


def rk4_propagate(system, x0, schedule, step=2e-4):
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
        # a tail split off by a zero-length segment extends its level,
        # whatever its length: above COLLAPSE_TOL and below it
        for tail in (5.7e-8, 5.7e-11):
            s = schedule_from_times((1, 0, 1), [0.26, 0.26, 0.26 + tail])
            assert s.levels == (1,)
            assert s.breakpoints == (0.0, 0.26 + tail)

    def test_from_times_keeps_a_segment_above_the_zero_length(self):
        # 2e-7 is above COLLAPSE_TOL, the zero length the solver's polish
        # snaps to: a converged point keeps such a segment, so must its schedule
        s = schedule_from_times((1, 0, -1), (0.3, 0.3 + 2e-7, 0.5))
        assert s.levels == (1, 0, -1)


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


def counterexample():
    # the fourth-order benchmark problem stable-counterexample
    system = LtiSystem(build_spectrum([(-i, 1) for i in range(1, 5)]), (1.0,) * 4)
    return validate_problem(system, [0.2, 0.15, 0.1, 0.05], 1.0)


REFUSALS = pytest.mark.parametrize(
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


def refusal(eigenvalues, x0, k):
    """The spec and the t_max that the solver gives `lp_oracle` (its
    `horizon`, 50 slowest time constants)."""
    spec = parse_problem(
        {"eigenvalues": [[c, 1] for c in eigenvalues], "b": [1] * len(x0), "x0": x0, "k": k}
    )
    return spec, 50.0 / min(abs(c) for c in eigenvalues)


def refusal_horizons(spec, t_max):
    """The horizons `lp_oracle` solves on its way to a refusal: the
    minimum-time bound, doubled until it reaches t_max, then t_max, then the
    62 horizons strictly between the two of the 64 geometric from the bound
    to t_max; none when the bound is infinite, as when an unstable mode
    alone is out of reach."""
    horizons = []
    T = _time_bound(spec)
    while T < t_max:
        horizons.append(T)
        T *= 2.0
    if not horizons:
        return []
    return [*horizons, t_max, *np.geomspace(horizons[0], t_max, 64)[1:-1]]


def record_lp_transfers(monkeypatch):
    """A list that gets (horizon, cell inputs) of each LP `lp_oracle` solves."""
    calls = []
    inner = simulate._lp_transfer

    def recording(spec, horizon):
        result = inner(spec, horizon)
        calls.append((horizon, result[1]))
        return result

    monkeypatch.setattr(simulate, "_lp_transfer", recording)
    return calls


def count_highs_runs(monkeypatch):
    """A list that gets one entry per HiGHS run, a call of `_dense_lp`."""
    runs = []
    inner = simulate._dense_lp

    def counting(*args):
        runs.append(args)
        return inner(*args)

    monkeypatch.setattr(simulate, "_dense_lp", counting)
    return runs


def highs_lp_transfer(spec, horizon):
    """`_lp_transfer`'s LP filled into a row-wise `HighsLp`, field by field,
    and passed to HiGHS whole, presolve off."""
    from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, MatrixFormat, _Highs

    lam = spec.system.eigenvalues
    b = spec.system.gains
    h = horizon / LP_CELLS
    shift = np.minimum(lam, 0.0) * horizon
    cells = -(b / lam * np.expm1(-lam * h))[:, None] * np.exp(
        shift[:, None] - np.outer(lam, h * np.arange(LP_CELLS))
    )
    rows, cols = cells.shape[0], 2 * LP_CELLS
    lp = HighsLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.a_matrix_.format_ = MatrixFormat.kRowwise
    lp.a_matrix_.start_ = np.arange(0, rows * cols + 1, cols, dtype=np.int32)
    lp.a_matrix_.index_ = np.tile(np.arange(cols, dtype=np.int32), rows)
    lp.a_matrix_.value_ = np.hstack([cells, -cells]).ravel()
    lp.col_cost_ = np.full(cols, h)
    lp.col_lower_ = np.zeros(cols)
    lp.col_upper_ = np.ones(cols)
    lp.row_lower_ = lp.row_upper_ = -spec.x0 * np.exp(shift)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.passModel(lp)
    highs.run()
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        return math.inf, None
    x = np.array(highs.getSolution().col_value)
    fuel = highs.getInfo().objective_function_value
    return spec.k * horizon + fuel, x[:LP_CELLS] - x[LP_CELLS:]


def linprog_transfer(spec, horizon):
    """`_lp_transfer`'s LP as written for `linprog`, presolve on."""
    lam = spec.system.eigenvalues
    b = spec.system.gains
    h = horizon / LP_CELLS
    shift = np.minimum(lam, 0.0) * horizon
    cells = -(b / lam * np.expm1(-lam * h))[:, None] * np.exp(
        shift[:, None] - np.outer(lam, h * np.arange(LP_CELLS))
    )
    result = linprog(
        np.full(2 * LP_CELLS, h),
        A_eq=np.hstack([cells, -cells]),
        b_eq=-spec.x0 * np.exp(shift),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.status != 0:
        return math.inf, None
    return spec.k * horizon + result.fun, result.x[:LP_CELLS] - result.x[LP_CELLS:]


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

    def test_fourth_order_counterexample(self, monkeypatch):
        # feasible (every mode is stable) although every start of the
        # multi-start stalls on it; the optimum word is -1,0,1,0,-1,0,1 at
        # t_f ~ 1.42
        spec = counterexample()
        calls = record_lp_transfers(monkeypatch)
        cost, horizon, inputs = lp_oracle(spec, 6.0)
        # one search, on LP_CELLS-cell LPs only
        assert len(calls) <= 11
        assert all(x is None or x.shape == (LP_CELLS,) for _T, x in calls)
        assert cost == pytest.approx(1.9461, abs=1e-3)
        # the inputs of the best horizon give the cost, and rounded cell by
        # cell they condense to the optimum word
        assert inputs.shape == (LP_CELLS,) and np.all(np.abs(inputs) <= 1.0 + 1e-9)
        fuel = horizon / LP_CELLS * np.sum(np.abs(inputs))
        assert spec.k * horizon + fuel == pytest.approx(cost, rel=1e-7)
        word = _lp_word(inputs, horizon)
        assert word.levels == (-1, 0, 1, 0, -1, 0, 1)
        assert word.final_time == pytest.approx(horizon)

    def test_unstable_lands_in_the_optimum_basin(self):
        # near-boundary state of the fast unstable mode at 4: the LP must
        # find the optimum's word, which the solver converges on at
        # 12.169956, not the neighbouring basin 1,-1,0,1 at 12.185535
        spec = parse_problem(
            {
                "eigenvalues": [[-1, 2], [1, 1], [4, 1]],
                "b": [1, 1, 1],
                "x0": [0.2, 0.2109, -0.1805],
                "k": 1,
            }
        )
        cost, t_f, inputs = lp_oracle(spec, horizon(spec))
        assert _lp_word(inputs, t_f).levels == (1, 0, -1, 0, 1)
        assert 12.1699 < cost < 12.1840

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

    def test_no_horizon_solved_twice(self, monkeypatch):
        # the final inputs are those kept from the search, not a re-solve;
        # t_max is the solver's, as in the benchmark's solve
        spec = counterexample()
        calls = record_lp_transfers(monkeypatch)
        lp_oracle(spec, horizon(spec))
        horizons = [T for T, _x in calls]
        assert len(set(horizons)) == len(horizons) == 8

    @REFUSALS
    def test_refusal_confirmed_on_halved_horizons(self, eigenvalues, x0, k, monkeypatch):
        # a refusal takes the LPs of the doubling from the minimum-time
        # bound up to t_max and of the 62-horizon scan between the two, and
        # no other: none on mixed-3, whose mode at 3 alone is out of reach
        spec, t_max = refusal(eigenvalues, x0, k)
        calls = record_lp_transfers(monkeypatch)
        assert lp_oracle(spec, t_max) is None
        assert [T for T, _x in calls] == refusal_horizons(spec, t_max)

    def test_scan_finds_a_transfer_the_doubling_steps_over(self, monkeypatch):
        # near the reachability boundary the feasible horizons of the
        # 400-cell LP are scattered: on boundary draw 0 at gauge 0.9999
        # every doubling horizon and t_max is infeasible, so the 62-horizon
        # scan runs, and it finds a transfer on the optimum's word -1,0,1
        spec = near_boundary_draw_0()
        assert spec.x0 == pytest.approx([0.1354473, -0.2074274], abs=1e-7)
        t_max = horizon(spec)
        calls = record_lp_transfers(monkeypatch)
        _cost, T, inputs = lp_oracle(spec, t_max)
        assert [T for T, _x in calls] == refusal_horizons(spec, t_max)
        assert _lp_word(inputs, T).levels == (-1, 0, 1)
        assert T == pytest.approx(10.78, abs=5e-3)
        assert T in np.geomspace(_time_bound(spec), t_max, 64)

    @staticmethod
    def assert_transfer_matches_linprog(spec, horizon):
        cost, inputs, _slope = _lp_transfer(spec, horizon)
        expected, expected_inputs = linprog_transfer(spec, horizon)
        assert (inputs is None) == (expected_inputs is None)
        if inputs is None:
            assert cost == expected == math.inf
        else:
            assert cost == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert _lp_word(inputs, horizon) == _lp_word(expected_inputs, horizon)

    def test_reused_highs_matches_a_fresh_one(self, monkeypatch):
        # every LP reuses one HiGHS instance, cleared before each build: an
        # infeasible transfer LP, then a feasible one, with gauge LPs in
        # between, give the bits of a fresh instance each.  The infeasible
        # LP is mixed-1's bisection probe, which the Farkas screen leaves to
        # HiGHS (its least-squares ratio is 1.041)
        sweep_a, _ = refusal([-5, 2, 3], [0.3739, -0.2274, 0.0801], 2)
        mixed_3, _ = refusal([1, 3, -2, 2], [0.1407, 0.466, 0.0978, -0.2646], 1)
        mixed_1 = dict(comparison_set())["mixed-1"]
        spec = counterexample()
        calls = [
            lambda: _lp_transfer(mixed_1, 0.44833633737247275),
            lambda: null_certificate(sweep_a),
            lambda: _lp_transfer(spec, 1.5),
            lambda: null_certificate(mixed_3),
            lambda: _lp_transfer(spec, 1.45),
        ]

        def bits(result):
            if isinstance(result, tuple):
                return tuple(map(bits, result))
            return result.tobytes() if isinstance(result, np.ndarray) else repr(result)

        def fresh_highs():
            highs = _Highs()
            highs.setOptionValue("output_flag", False)
            highs.setOptionValue("presolve", "off")
            return highs

        runs = count_highs_runs(monkeypatch)
        reused = [bits(call()) for call in calls]
        assert len(runs) == len(calls)
        expected = []
        for call in calls:
            monkeypatch.setattr(simulate._LOCAL, "highs", fresh_highs(), raising=False)
            expected.append(bits(call()))
        assert reused == expected
        assert reused[0][0] == "inf" and reused[2][0] != "inf"
        assert null_certificate(mixed_3).proven
        monkeypatch.undo()

        # each thread has its own instance: threads switching every
        # microsecond, each building and solving LPs, read their own results
        results = []

        def worker():
            results.append([bits(call()) for call in calls * 3])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected * 3] * 4

    @pytest.mark.parametrize("horizon", [1.40, 1.45, 1.5, 2.0, 6.0])
    def test_transfer_matches_linprog(self, horizon):
        # HiGHS without presolve answers linprog's presolved LP
        self.assert_transfer_matches_linprog(counterexample(), horizon)

    @REFUSALS
    def test_transfer_matches_linprog_on_halved_horizons(self, eigenvalues, x0, k):
        # the refusal's horizons, or t_max where the search solves none
        spec, t_max = refusal(eigenvalues, x0, k)
        for T in refusal_horizons(spec, t_max) or [t_max]:
            self.assert_transfer_matches_linprog(spec, T)

    @staticmethod
    def assert_transfer_matches_highs_lp(spec, horizon):
        cost, inputs, _slope = _lp_transfer(spec, horizon)
        expected, expected_inputs = highs_lp_transfer(spec, horizon)
        assert cost == expected
        assert (inputs is None) == (expected_inputs is None)
        assert inputs is None or np.array_equal(inputs, expected_inputs)

    @pytest.mark.parametrize("horizon", [1.40, 1.45, 1.5, 2.0, 6.0])
    def test_two_call_build_is_the_highs_lp_build(self, horizon):
        # `addCols` and `addRows` pass HiGHS the LP of a row-wise `HighsLp`
        # filled field by field, and HiGHS answers it bit for bit
        self.assert_transfer_matches_highs_lp(counterexample(), horizon)

    @REFUSALS
    def test_two_call_build_is_the_highs_lp_build_on_halved_horizons(self, eigenvalues, x0, k):
        # the refusal's horizons, or t_max where the search solves none
        spec, t_max = refusal(eigenvalues, x0, k)
        for T in refusal_horizons(spec, t_max) or [t_max]:
            self.assert_transfer_matches_highs_lp(spec, T)

    def test_near_boundary_state_reached_at_a_shorter_horizon(self):
        # x0 just inside the null-controllable set of the modes at 2 and 3:
        # the 0.625-wide cells at t_max = 250 cannot reach it, the finer
        # cells of shorter horizons can (the search ends at 10.39274 near
        # T = 5.447; a 400-cell LP at T = 5.7066 gives 10.39236)
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

    @pytest.mark.parametrize(
        "eigenvalue, x0, bound",
        [(-1, 0.5, math.log(1.5)), (1, 0.5, math.log(2.0)), (1, 2.0, math.inf)],
        ids=["stable", "unstable", "out-of-reach"],
    )
    def test_time_bound_scalar_closed_form(self, eigenvalue, x0, bound):
        # one full bang from x0 = 0.5: ln(1 + |lam x0 / b|) / |lam| when
        # stable, -ln(1 - lam |x0 / b|) / lam when unstable; an unstable x0
        # past b / lam is reached by no horizon
        system = LtiSystem(build_spectrum([(eigenvalue, 1)]), (1.0,))
        assert _time_bound(validate_problem(system, [x0], 1.0)) == pytest.approx(bound, rel=1e-15)

    def test_no_lp_feasible_below_the_time_bound(self):
        # the search starts at `_time_bound`: at 0.99 of it no LP reaches
        # the origin, on every comparison problem but mixed-3, whose bound
        # is infinite (its mode at 3 alone is out of reach)
        for name, spec in comparison_set():
            bound = _time_bound(spec)
            if bound < math.inf:
                assert _lp_transfer(spec, 0.99 * bound)[1] is None, name

    @pytest.mark.parametrize(
        "name, horizons",
        [
            ("hi-n8-1", (3.5, 4.0, 4.5, 5.0, 6.5)),
            ("hi-n6-0", (2.5, 3.0, 3.5, 5.0)),
            ("mixed-1", (0.6, 1.0, 1.5, 3.0)),
        ],
    )
    def test_envelope_slope_matches_central_differences(self, name, horizons):
        # dJ/dT from the row duals, the slope the search steps on, is the
        # LP's own: on hi-n8-1 it is negative at 3.5 and positive at 6.5,
        # where its J falls and rises
        spec = dict(comparison_set())[name]
        step = 1e-5
        for T in horizons:
            central = (_lp_transfer(spec, T + step)[0] - _lp_transfer(spec, T - step)[0]) / (2 * step)
            assert _lp_transfer(spec, T)[2] == pytest.approx(central, abs=2e-3), T

    def test_envelope_slope_is_one_sided_at_a_kink(self):
        # mixed-1's J turns at T = 0.45968482676362, from slope -11.2 to
        # +0.8: on each side the envelope slope is that side's difference
        # quotient, not a mean of the two
        spec = dict(comparison_set())["mixed-1"]
        kink, step = 0.45968482676362, 1e-7
        slopes = []
        for side in (-1.0, 1.0):
            T = kink + side * 1e-6
            cost, _inputs, slope = _lp_transfer(spec, T)
            quotient = (_lp_transfer(spec, T + side * step)[0] - cost) / (side * step)
            assert slope == pytest.approx(quotient, abs=1e-4)
            slopes.append(slope)
        assert slopes[0] < -11.0 and 0.5 < slopes[1] < 1.0


class TestFarkasScreen:
    """`_lp_transfer` refuses an LP that a least-squares Farkas certificate
    proves infeasible, before HiGHS runs."""

    def test_screens_only_lps_highs_finds_infeasible(self, monkeypatch):
        # over the search horizons of the whole comparison set, every LP the
        # screen refuses is one that HiGHS, run on the same LP with the
        # screen off, reports not optimal: 295 of the 304 infeasible LPs,
        # among them the 124 of the scans of sweep-22 and sweep-26, and
        # none of the 420 feasible ones
        screened, solved = [], []
        farkas, transfer = simulate._farkas, simulate._lp_transfer

        def screening(cells, target):
            screened.append(farkas(cells, target))
            return screened[-1]

        def solving(spec, T):
            result = transfer(spec, T)
            solved.append((spec, T, result[1] is None))
            return result

        monkeypatch.setattr(simulate, "_farkas", screening)
        monkeypatch.setattr(simulate, "_lp_transfer", solving)
        for _name, spec in comparison_set():
            lp_oracle(spec, horizon(spec))
        monkeypatch.undo()
        assert len(screened) == len(solved)
        refused = [(spec, T) for (spec, T, _), screen in zip(solved, screened) if screen]
        monkeypatch.setattr(simulate, "_farkas", lambda cells, target: False)
        runs = count_highs_runs(monkeypatch)
        for spec, T in refused:
            assert _lp_transfer(spec, T)[1] is None, T
        assert len(runs) == len(refused)
        infeasible = sum(no_input for _spec, _T, no_input in solved)
        assert (len(solved), infeasible, len(refused)) == (724, 304, 295)

    def test_vertex_at_the_minimum_time_runs_highs(self, monkeypatch):
        # at mixed-2's time bound one bang reaches the origin, so x0 sits on
        # a vertex of the cell zonotope and the least-squares ratio is
        # 1 - 3.3e-16: the margin leaves that feasible LP to HiGHS
        spec = dict(comparison_set())["mixed-2"]
        runs = count_highs_runs(monkeypatch)
        cost, inputs, _slope = _lp_transfer(spec, _time_bound(spec))
        assert len(runs) == 1 and inputs is not None
        assert cost == pytest.approx(0.5285483755394647, rel=1e-12)

    def test_counterexample_runs_highs_on_four_of_eight_lps(self, monkeypatch):
        # the search of stable-counterexample solves 8 LPs; the screen
        # refuses its 4 infeasible probes before HiGHS runs
        spec = counterexample()
        calls = record_lp_transfers(monkeypatch)
        runs = count_highs_runs(monkeypatch)
        lp_oracle(spec, horizon(spec))
        assert (len(calls), len(runs)) == (8, 4)

    def test_singular_rows_fall_through_to_highs(self, monkeypatch):
        # x0 = 0 has the time bound T = 0, where every cell row is 0 and
        # A A^T is singular: the screen proves nothing, and HiGHS finds the
        # zero input
        assert not _farkas(np.zeros((2, LP_CELLS)), np.zeros(2))
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.0, 0.0], 1.0)
        runs = count_highs_runs(monkeypatch)
        cost, inputs, _slope = _lp_transfer(spec, _time_bound(spec))
        assert len(runs) == 1 and cost == 0.0 and not np.any(inputs)


def comparison_set():
    """(name, spec) of every problem of tools/reports.py's set."""
    path = Path(__file__).resolve().parent.parent / "tools" / "reports.py"
    spec = importlib.util.spec_from_file_location("reports_tool", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return list(tool.problems())


def boundary_draws():
    """(system, x0) of 24 draws, 8 each at n = 2, 3, 4: one unstable
    lambda from 1..3, the rest distinct from -6..-1, 1..3, b = 1, x0
    uniform in [-1, 1], all from default_rng(4242) with every draw kept."""
    rng = np.random.default_rng(4242)
    for i in range(24):
        n = 2 + i % 3
        first = int(rng.choice([1, 2, 3]))
        rest = [v for v in (-6, -5, -4, -3, -2, -1, 1, 2, 3) if v != first]
        lam = [first, *(int(v) for v in rng.choice(rest, n - 1, replace=False))]
        system = LtiSystem(build_spectrum([(v, 1) for v in lam]), (1.0,) * n)
        yield system, rng.uniform(-1.0, 1.0, n)


def near_boundary_draw_0():
    """The first of `boundary_draws` (lambda = 2, 1), x0 scaled to gauge
    0.9999 by the certificate's upper bound."""
    system, x0 = next(boundary_draws())
    proof = null_certificate(validate_problem(system, x0, 1.0))
    scaled = np.where(system.eigenvalues > 0.0, x0 * 0.9999 / proof.upper, x0)
    return validate_problem(system, scaled, 1.0)


def scanned_roots(coef, rates):
    """Sign changes of sum_i coef_i e^(-rates_i s), each bracketed on a
    dense log grid out to 200 slowest time constants and found by brentq."""
    def f(s):
        return float(coef @ np.exp(-rates * s))

    grid = np.geomspace(1e-6, 200.0 / rates.min(), 20001)
    values = [f(s) for s in grid]
    pairs = zip(grid, grid[1:], values, values[1:])
    return [brentq(f, a, b, xtol=1e-15) for a, b, fa, fb in pairs if fa * fb < 0.0]


class TestNullCertificate:
    """Proofs that x0 lies outside the null-controllable region."""

    def test_scalar_gauge(self):
        # one unstable mode: C = (-b/lam, b/lam), so x0 = 2 has gauge 2
        system = LtiSystem(build_spectrum([(1, 1)]), (1.0,))
        proof = null_certificate(validate_problem(system, [2.0], 1.0))
        assert proof.proven
        assert proof.lower == pytest.approx(2.0, rel=1e-9)
        assert proof.upper == pytest.approx(2.0, rel=1e-9)

    def test_stable_system_proves_nothing(self):
        proof = null_certificate(counterexample())
        assert not proof.proven and proof.mu == (0.0,) * 4 and proof.upper == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_sign_changes_match_a_dense_scan(self, seed):
        # at most one sign change fewer than terms, each bracketed to
        # rounding around the root a scan finds
        rng = np.random.default_rng(seed)
        rates = np.sort(rng.choice(np.arange(1, 9), 5, replace=False)).astype(float)
        coef = rng.uniform(-1.0, 1.0, 5) * np.array([1.0, 6.0, 20.0, 40.0, 60.0])
        brackets = _sign_changes(coef, rates)
        roots = scanned_roots(coef, rates)
        assert len(brackets) == len(roots) <= len(coef) - 1
        for (lo, hi), root in zip(brackets, roots):
            assert lo <= hi and hi - lo <= 1e-14 * max(1.0, hi)
            assert lo - 1e-9 <= root <= hi + 1e-9

    def test_most_sign_changes(self):
        # z (z - 0.2)(z - 0.4)(z - 0.6)(z - 0.8) in z = e^(-s): five terms,
        # four sign changes, at s = -ln(0.8), ..., -ln(0.2)
        coef = np.polynomial.polynomial.polyfromroots([0.0, 0.2, 0.4, 0.6, 0.8])[1:]
        brackets = _sign_changes(coef, np.arange(1.0, 6.0))
        roots = -np.log([0.8, 0.6, 0.4, 0.2])
        assert len(brackets) == 4
        for (lo, hi), root in zip(brackets, roots):
            assert lo - 1e-12 <= root <= hi + 1e-12

    def test_sound_on_both_sides_of_the_boundary(self):
        # the 24 draws of `boundary_draws`: x0's unstable part scaled to
        # gauge 0.5, 0.9, 0.99 by the upper bound is inside the region, so
        # no proof may come; scaled to 1.01, 1.1 by the lower bound it is
        # outside, and the proof must come
        wrong = []
        for system, x0 in boundary_draws():
            lam = system.eigenvalues.tolist()
            unstable = system.eigenvalues > 0.0
            proof = null_certificate(validate_problem(system, x0, 1.0))
            for gauge, bound, want in [
                (0.5, proof.upper, False),
                (0.9, proof.upper, False),
                (0.99, proof.upper, False),
                (1.01, proof.lower, True),
                (1.1, proof.lower, True),
            ]:
                scaled = np.where(unstable, x0 * gauge / bound, x0)
                if null_certificate(validate_problem(system, scaled, 1.0)).proven != want:
                    wrong.append((lam, gauge))
        assert not wrong

    def test_certifies_exactly_the_unreachable_comparison_problems(self):
        # the three refusals of the set are proven unreachable, with h(mu)
        # re-integrated by quadrature between the roots; the 36 reachable
        # problems with an unstable mode get no proof, and the gauge LP
        # bounds each of their gauges below 1
        proven, unproven = {}, []
        for name, spec in comparison_set():
            if np.any(spec.system.eigenvalues > 0.0):
                proof = null_certificate(spec)
                if proof.proven:
                    proven[name] = (spec, proof)
                else:
                    unproven.append(name)
                    assert proof.upper < 1.0, name
                assert proof.lower <= proof.upper * (1.0 + 1e-9), name
        assert sorted(proven) == ["mixed-3", "sweep-22", "sweep-26"]
        assert len(unproven) == 36 and "unstable" in unproven
        for name, (spec, proof) in proven.items():
            unstable = spec.system.eigenvalues > 0.0
            rates = spec.system.eigenvalues[unstable]
            coef = np.array(proof.mu)[unstable] * spec.system.gains[unstable]
            edges = [0.0, *scanned_roots(coef, rates), math.inf]
            h = sum(
                quad(lambda s: abs(coef @ np.exp(-rates * s)), a, b, epsabs=0.0, epsrel=1e-12)[0]
                for a, b in zip(edges, edges[1:])
            )
            assert h <= proof.h <= h * (1.0 + 1e-9), name
            assert proof.mu_x0 <= float(np.dot(proof.mu, spec.x0)), name
            assert proof.mu_x0 > h, name
