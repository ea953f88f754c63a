"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion; every tolerance is pinned in the assertions below.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from timefuel import (
    LtiSystem,
    SolverOptions,
    build_spectrum,
    solve_time_fuel,
    validate_problem,
)
from timefuel.builder import build_all, sign_vectors
from timefuel.cli import main
from timefuel.sequences import (
    brute_force_candidates,
    count_all_candidates,
    enumerate_candidates,
    plus_part,
)
from timefuel.simulate import (
    evaluate_cost,
    lp_oracle,
    propagate,
    reachability_x0,
    schedule_from_times,
)

from conftest import random_schedule, random_system
from test_builder import (
    SUPPLEMENT_OP1_N4,
    SUPPLEMENT_OP1_N6,
    SUPPLEMENT_OP2_N4,
    SUPPLEMENT_OP2_N6,
)

# performance table of the reference second-order example:
# k -> (cost, final time, on-duration, sparsity)
REFERENCE_TABLE = {
    0.5: (1.2959, 1.2689, 0.6615, 0.4787),
    1.0: (1.8940, 1.1480, 0.746, 0.3502),
    2.0: (3.0025, 1.0839, 0.8347, 0.2299),
    3.0: (4.0752, 1.0645, 0.8817, 0.1717),
}
MIN_TIME_TF = 1.0413

OPTS = SolverOptions(starts=16, seed=0)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


@pytest.fixture(scope="module")
def example_reports(example_spec_module):
    spec = example_spec_module
    reports = {}
    for k in REFERENCE_TABLE:
        kspec = validate_problem(spec.system, [0.6, 0.4], k)
        reports[k] = solve_time_fuel(kspec, OPTS)
    return reports


@pytest.fixture(scope="module")
def example_spec_module():
    system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
    return validate_problem(system, [0.6, 0.4], 1.0)


def test_criterion_01_example_table(example_reports):
    with criterion("01 example-table"):
        start = time.monotonic()
        for k, (cost, t_f, on, sparsity) in REFERENCE_TABLE.items():
            best = example_reports[k].best
            assert best.cost == pytest.approx(cost, abs=5e-3), k
            assert best.final_time == pytest.approx(t_f, abs=5e-3), k
            assert best.on_duration == pytest.approx(on, abs=5e-3), k
            assert best.sparsity == pytest.approx(sparsity, abs=5e-3), k
        assert time.monotonic() - start < 60.0


def test_criterion_02_winning_sequence(example_reports):
    with criterion("02 winning-sequence"):
        for k, report in example_reports.items():
            assert report.best.schedule.levels == (-1, 0, 1), k


def test_criterion_03_min_time_limit(example_spec_module):
    with criterion("03 min-time-limit"):
        spec = validate_problem(example_spec_module.system, [0.6, 0.4], 100.0)
        best = solve_time_fuel(spec, OPTS).best
        assert abs(best.final_time - MIN_TIME_TF) < 2e-2
        assert best.on_duration / best.final_time > 0.98


def test_criterion_04_counting():
    with criterion("04 sequence-count"):
        start = time.monotonic()
        for n in range(2, 9):
            brute = len(plus_part(brute_force_candidates(n)))
            assert count_all_candidates(n) == brute, n
        assert count_all_candidates(2) == 5
        assert time.monotonic() - start < 30.0


def test_criterion_05_nlp_counts():
    with criterion("05 nlp-counts"):
        spec4 = validate_problem(
            LtiSystem(build_spectrum([(-1, 1), (-2, 1), (-3, 1), (-4, 1)]), (1,) * 4),
            [0.1, 0.2, 0.4, 0.5],
            1.0,
        )
        spec6 = validate_problem(
            LtiSystem(
                build_spectrum([(-i, 1) for i in range(1, 7)]), (1,) * 6
            ),
            [0.1, 0.2, 0.4, 0.5, 0.8, 1.0],
            1.0,
        )
        assert len(build_all(spec4)) == 8
        assert len(build_all(spec6)) == 30
        assert set(sign_vectors(4, "OP1", "plus")) == SUPPLEMENT_OP1_N4
        assert set(sign_vectors(4, "OP2", "plus")) == SUPPLEMENT_OP2_N4
        assert set(sign_vectors(6, "OP1", "plus")) == SUPPLEMENT_OP1_N6
        assert set(sign_vectors(6, "OP2", "plus")) == SUPPLEMENT_OP2_N6
        for n, plus_sets in ((4, (SUPPLEMENT_OP1_N4, SUPPLEMENT_OP2_N4)),
                             (6, (SUPPLEMENT_OP1_N6, SUPPLEMENT_OP2_N6))):
            for variant, plus_set in zip(("OP1", "OP2"), plus_sets):
                minus = set(sign_vectors(n, variant, "minus"))
                assert minus == {tuple(-s for s in v) for v in plus_set}


def test_criterion_06_restricted_switching():
    with criterion("06 restricted-switching"):
        got = {s.levels for s in enumerate_candidates(3, 4)}
        listed = {
            (1, 0, 1, 0, -1),
            (0, 1, 0, -1),
            (1, 0, -1, 0, 1),
            (1, 0, -1, 0, -1),
            (0, -1, 0, 1),
            (-1, 0, -1, 0, 1),
            (0, -1, 0, 1),
            (-1, 0, 1, 0, -1),
            (-1, 0, 1, 0, 1),
            (0, 1, 0, -1),
        }
        assert listed <= got
        # ten templates in total: the listed ones plus the two one-sided
        # double-pulse shapes whose faces they do not cover
        assert got == listed | {(0, 1, 0, 1), (0, -1, 0, -1)}
        assert len(got) == 10


def test_criterion_07_duality_property():
    with criterion("07 duality"):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            system = random_system(rng, n)
            schedule = random_schedule(rng)
            x0 = reachability_x0(system, schedule)
            terminal = propagate(system, x0, schedule).terminal_state
            assert np.max(np.abs(terminal)) <= 1e-10
            checked += 1
        assert checked >= 1000


def _scalar_closed_form(lam, b, x0, k, t_cap=40.0):
    """Analytic optimum over a single (possibly delayed) bang."""
    best = math.inf
    for v in (-1.0, 1.0):
        def bang_time(y):
            arg = 1.0 + y * lam / (v * b)
            if arg <= 0.0:
                return None
            return -math.log(arg) / lam

        def total(t0):
            y = x0 * math.exp(lam * t0)
            T = bang_time(y)
            if T is None or T < 0:
                return 1e18
            return k * (t0 + T) + T

        res = minimize_scalar(
            total, bounds=(0.0, t_cap), method="bounded",
            options={"xatol": 1e-12},
        )
        best = min(best, total(0.0), float(res.fun))
    return best


def test_criterion_08_oracle_equivalence():
    with criterion("08 oracle-equivalence"):
        rng = np.random.default_rng(77)
        solved = 0
        while solved < 20:
            n = 1 if solved < 8 else 2
            system = random_system(rng, n)
            gen = random_schedule(rng, max_bangs=2, max_segment=0.5)
            x0 = reachability_x0(system, gen)
            if np.max(np.abs(x0)) < 0.05 or np.max(np.abs(x0)) > 50.0:
                continue
            k = float(rng.uniform(0.5, 3.0))
            spec = validate_problem(system, x0, k)
            report = solve_time_fuel(spec, SolverOptions(starts=24, seed=3))
            oracle = lp_oracle(spec, 3.0 * gen.final_time + 1.0)
            assert oracle is not None
            oracle_best = oracle[0]
            rel = abs(report.best.cost - oracle_best) / max(oracle_best, 1e-12)
            assert rel < 5e-3, (n, solved, report.best.cost, oracle_best)
            if n == 1:
                lam = float(system.eigenvalues[0])
                closed = _scalar_closed_form(
                    lam, float(system.gains[0]), float(x0[0]), k
                )
                assert report.best.cost == pytest.approx(closed, abs=1e-6, rel=1e-6)
            solved += 1


def test_criterion_09_gradient_checks():
    with criterion("09 gradient-checks"):
        rng = np.random.default_rng(99)
        shapes = []
        for n, x0 in ((2, [0.6, 0.4]), (3, [0.1, 0.2, 0.3]), (4, [0.1, 0.2, 0.3, 0.4])):
            system = LtiSystem(
                build_spectrum([(-i, 1) for i in range(1, n + 1)]), (1.0,) * n
            )
            shapes.extend(build_all(validate_problem(system, x0, 1.0)))
        step = 1e-6
        for inst in shapes:
            for _ in range(100):
                times = np.cumsum(rng.uniform(0.05, 0.5, size=inst.slot_count))
                analytic = inst.constraint_jacobian(times)
                fd = np.zeros_like(analytic)
                for j in range(inst.slot_count):
                    up, dn = times.copy(), times.copy()
                    up[j] += step
                    dn[j] -= step
                    fd[:, j] = (
                        inst.constraint_residuals(up) - inst.constraint_residuals(dn)
                    ) / (2 * step)
                scale = np.maximum(np.abs(analytic), 1.0)
                assert np.max(np.abs(analytic - fd) / scale) < 1e-5
                # finite differences of the decoded schedule's cost, which
                # does not read the exponents under test
                grad = inst.cost_exponents
                for j in range(inst.slot_count):
                    up, dn = times.copy(), times.copy()
                    up[j] += step
                    dn[j] -= step
                    fd_j = (
                        evaluate_cost(schedule_from_times(inst.levels, up), inst.k)[0]
                        - evaluate_cost(schedule_from_times(inst.levels, dn), inst.k)[0]
                    ) / (2 * step)
                    assert abs(grad[j] - fd_j) / max(abs(grad[j]), 1.0) < 1e-5


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion("10 determinism"):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "eigenvalues": [[-1, 1], [-2, 1]],
                    "b": [1, 1],
                    "x0": [0.6, 0.4],
                    "k": 1,
                }
            )
        )
        payloads = []
        for label in ("first", "second"):
            out = tmp_path / f"report_{label}.json"
            code = main(
                [
                    "solve",
                    "--problem",
                    str(problem),
                    "--starts",
                    "8",
                    "--seed",
                    "0",
                    "--out",
                    str(out),
                ]
            )
            capsys.readouterr()
            assert code == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
