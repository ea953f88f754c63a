import hashlib
import json

import numpy as np
import pytest

from timefuel import LtiSystem, build_spectrum, validate_problem
from timefuel.builder import (
    EXP_CLIP,
    OrderTooSmallError,
    build_all,
    count_nlps,
    reach_kernel,
    sequence_instance,
    sign_vectors,
    template_levels,
)
from timefuel.sequences import CandidateSequence
from timefuel.simulate import evaluate_cost, reachability_x0, schedule_from_times
from timefuel.solver import _eval1

from conftest import random_system

# interior sign assignments listed for the 4th and 6th order formulations
SUPPLEMENT_OP1_N4 = {(1, -1, -1), (-1, -1, 1)}
SUPPLEMENT_OP2_N4 = {(1, -1), (-1, 1)}
SUPPLEMENT_OP1_N6 = {
    (1, 1, -1, -1, -1),
    (1, -1, 1, -1, -1),
    (1, -1, -1, 1, -1),
    (1, -1, -1, -1, 1),
    (-1, 1, 1, -1, -1),
    (-1, 1, -1, -1, 1),
    (-1, -1, 1, 1, -1),
    (-1, -1, 1, -1, 1),
    (-1, -1, -1, 1, 1),
}
SUPPLEMENT_OP2_N6 = {
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (-1, 1, 1, -1),
    (-1, 1, -1, 1),
    (-1, -1, 1, 1),
}


def make_spec(n, k=1.0, x0=None):
    scaled = [-(i + 1) for i in range(n)]
    system = LtiSystem(build_spectrum([(c, 1) for c in scaled]), tuple([1.0] * n))
    if x0 is None:
        x0 = [0.1] * n
    return validate_problem(system, x0, k)


class TestSignVectors:
    def test_n4_op1_matches_listing(self):
        got = set(sign_vectors(4, "OP1", "plus"))
        assert got == SUPPLEMENT_OP1_N4
        minus = set(sign_vectors(4, "OP1", "minus"))
        assert minus == {tuple(-s for s in v) for v in SUPPLEMENT_OP1_N4}

    def test_n4_op2_matches_listing(self):
        got = set(sign_vectors(4, "OP2", "plus"))
        assert got == SUPPLEMENT_OP2_N4

    def test_n6_op1_matches_listing(self):
        got = set(sign_vectors(6, "OP1", "plus"))
        assert got == SUPPLEMENT_OP1_N6

    def test_n6_op2_matches_listing(self):
        got = set(sign_vectors(6, "OP2", "plus"))
        assert got == SUPPLEMENT_OP2_N6

    def test_deterministic_order(self):
        assert sign_vectors(4, "OP1", "plus") == sign_vectors(4, "OP1", "plus")
        entries = sign_vectors(6, "OP1", "plus")
        assert entries == sorted(entries)

    def test_order_guard(self):
        with pytest.raises(OrderTooSmallError):
            sign_vectors(2, "OP1", "plus")


class TestCounts:
    @pytest.mark.parametrize("n,expected", [(4, 8), (5, 16), (6, 30)])
    def test_count_values(self, n, expected):
        assert count_nlps(n) == expected

    def test_count_guard(self):
        with pytest.raises(OrderTooSmallError):
            count_nlps(2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_build_all_matches_count(self, n):
        assert len(build_all(make_spec(n))) == count_nlps(n)

    def test_build_all_n2(self):
        instances = build_all(make_spec(2, x0=[0.6, 0.4]))
        assert len(instances) == 4
        assert sorted(i.instance_id for i in instances) == [
            "OP1-minus",
            "OP1-plus",
            "OP2-minus",
            "OP2-plus",
        ]
        by_id = {i.instance_id: i.levels for i in instances}
        assert by_id["OP1-plus"] == (1, 0, 1)
        assert by_id["OP2-plus"] == (0, 1, 0, -1)
        assert by_id["OP2-minus"] == (0, -1, 0, 1)

    def test_build_all_restricted(self):
        spec = validate_problem(
            LtiSystem(build_spectrum([(-1, 1), (-2, 1), (-3, 1)]), (1, 1, 1)),
            [0.1, 0.2, 0.3],
            1.0,
            max_switches=4,
        )
        instances = build_all(spec)
        assert len(instances) == 10
        assert all(i.instance_id.startswith("SEQ-") for i in instances)


class TestTemplates:
    def test_op1_shape(self):
        levels = template_levels(4, "OP1", "plus", (1, -1, -1))
        assert levels == (1, 0, 1, 0, -1, 0, -1, 0, 1)

    def test_op2_shape(self):
        levels = template_levels(4, "OP2", "plus", (1, -1))
        assert levels == (0, 1, 0, 1, 0, -1, 0, -1)

    def test_op2_n2_has_no_placeholders(self):
        assert template_levels(2, "OP2", "plus") == (0, 1, 0, -1)

    def test_minus_templates_negated(self):
        plus = template_levels(3, "OP1", "plus", (1, -1))
        minus = template_levels(3, "OP1", "minus", (-1, 1))
        assert minus == tuple(-v for v in plus)


class TestInstanceCallbacks:
    def test_zero_times_imply_zero_state(self):
        for n in (2, 3, 4):
            spec = make_spec(n)
            for inst in build_all(spec):
                reach = inst.reach(np.zeros(inst.slot_count))
                np.testing.assert_allclose(reach, np.zeros(n), atol=1e-15)

    def test_builder_simulator_duality(self):
        # keystone: the x0 implied by the instance equals the simulator's
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            system = random_system(rng, n)
            spec = validate_problem(system, [0.1] * n, 1.0)
            for inst in build_all(spec):
                for _ in range(5):
                    gaps = rng.uniform(0.05, 0.5, size=inst.slot_count)
                    times = np.cumsum(gaps)
                    sched = schedule_from_times(inst.levels, times)
                    lhs = inst.reach(times)
                    rhs = reachability_x0(system, sched)
                    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_stacked_kernel_rows_match_single_rows(self, n):
        # every row of one stacked kernel call is bitwise the one-row
        # result, including zero gaps and exponents past the clip
        rng = np.random.default_rng(40 + n)
        system = LtiSystem(
            build_spectrum([((-1) ** i * (i + 1), 2) for i in range(n)]),
            tuple(rng.uniform(0.5, 2.0, size=n)),
        )
        spec = validate_problem(system, [0.01] * n, 1.0)
        m = 61 * 16
        for inst in build_all(spec)[:3]:
            K = inst.slot_count
            spread = rng.choice([0.01, 1.0, 200.0], size=(m, 1))
            gaps = rng.exponential(1.0, size=(m, K)) * spread
            gaps[rng.random((m, K)) < 0.3] = 0.0
            gaps[0] = 0.0
            times = np.cumsum(gaps, axis=1)
            exponents = np.abs(np.multiply.outer(times, system.eigenvalues))
            assert np.any(exponents > EXP_CLIP)
            reach, jac = reach_kernel(system.eigenvalues, system.gains, inst.levels, times)
            assert reach.shape == (m, n) and jac.shape == (m, n, K)
            stacked = reach_kernel(system.eigenvalues, system.gains, inst.levels, times, False)
            assert np.array_equal(stacked[0], reach)
            for i in range(m):
                assert np.array_equal(reach[i], inst.reach(times[i]))
                assert np.array_equal(jac[i], inst.constraint_jacobian(times[i]))

    @staticmethod
    def _json_instances():
        system = LtiSystem(
            build_spectrum([(1, 2), (-3, 4), (-2, 1)]), (1.0, -0.5, 2.0)
        )
        spec = validate_problem(system, [0.2, -0.1, 0.05], 1.5)
        return build_all(spec) + [
            sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        ]

    def test_constraint_expression_matches_vector_form(self):
        # the README's time form of each state's equality, evaluated from the
        # documented `build` fields alone:
        # x0 + (gain * l / c) * sum_j coefficients[j] * exp(-(c / l) * t_j),
        # t_0 = 0, is the negated residual; cost_exponents . t is the cost
        rng = np.random.default_rng(23)
        for inst in self._json_instances():
            data = inst.as_dict()["constraint_spec"]
            l = data["common_denominator"]
            for _ in range(5):
                times = np.cumsum(rng.uniform(0.05, 0.4, size=inst.slot_count))
                padded = np.concatenate([[0.0], times])
                rows = [
                    state["x0"]
                    + (state["gain"] * l / state["scaled_numerator"])
                    * np.dot(
                        state["coefficients"],
                        np.exp(-(state["scaled_numerator"] / l) * padded),
                    )
                    for state in data["states"]
                ]
                np.testing.assert_allclose(
                    rows, -inst.constraint_residuals(times), rtol=1e-12, atol=1e-15
                )
                cost = np.dot(data["cost_exponents"], times)
                assert cost == inst.cost_value(times)
                # k * t_f plus the on-duration, from the simulator's side
                schedule = schedule_from_times(data["levels"], times)
                assert cost == pytest.approx(
                    evaluate_cost(schedule, data["time_weight"])[0], rel=1e-12
                )

    def test_polynomial_form_consistent(self):
        # the README's polynomial form in a_j = exp(t_j / l), a_0 = 1, built
        # from the `build` fields alone: x0 * D(a) - N(a) = -D * residual
        # with D = prod_{j>=1} a_j^c > 0 for c > 0 and D = 1 otherwise; the
        # cost monomial prod_j a_j^(e_j) is exp(cost / l)
        rng = np.random.default_rng(29)
        for inst in self._json_instances():
            data = inst.as_dict()["constraint_spec"]
            l = data["common_denominator"]
            for _ in range(5):
                times = np.cumsum(rng.uniform(0.05, 0.4, size=inst.slot_count))
                a = np.concatenate([[1.0], np.exp(times / l)])
                residuals = inst.constraint_residuals(times)
                for state, residual in zip(data["states"], residuals):
                    c = state["scaled_numerator"]
                    w = np.asarray(state["coefficients"], dtype=float)
                    scale = -state["gain"] * l / c
                    if c < 0:
                        den = 1.0
                        num = scale * np.dot(w, a ** (-c))
                    else:
                        den = np.prod(a[1:] ** c)
                        num = scale * np.dot(w, den / a**c)
                    poly = state["x0"] * den - num
                    np.testing.assert_allclose(
                        poly, -den * residual, rtol=1e-9, atol=1e-12 * den
                    )
                monomial = np.prod(a[1:] ** np.asarray(data["cost_exponents"]))
                assert monomial == pytest.approx(
                    np.exp(inst.cost_value(times) / l), rel=1e-12
                )

    def test_gradient_checks(self):
        rng = np.random.default_rng(31)
        spec = make_spec(2, x0=[0.6, 0.4])
        step = 1e-6
        for inst in build_all(spec):
            for _ in range(25):
                gaps = rng.uniform(0.1, 0.5, size=inst.slot_count)
                times = np.cumsum(gaps)
                time_jac = inst.constraint_jacobian(times)
                # time coordinates, and the solver's gap coordinates
                for point, residuals, analytic in (
                    (times, inst.constraint_residuals, time_jac),
                    (
                        gaps,
                        lambda g: inst.constraint_residuals(np.cumsum(g)),
                        _eval1(inst, gaps, np.ones(inst.order))[1],
                    ),
                ):
                    fd = np.zeros_like(analytic)
                    for j in range(inst.slot_count):
                        up = point.copy()
                        up[j] += step
                        dn = point.copy()
                        dn[j] -= step
                        fd[:, j] = (residuals(up) - residuals(dn)) / (2 * step)
                    scale = np.maximum(np.abs(analytic), 1.0)
                    assert np.max(np.abs(analytic - fd) / scale) < 1e-5
                # the cost of the decoded schedule, independent of the
                # exponents under test
                def cost(t):
                    return evaluate_cost(schedule_from_times(inst.levels, t), inst.k)[0]

                cg = np.asarray(inst.cost_exponents)
                fdc = np.array(
                    [
                        (
                            cost(np.r_[times[:j], times[j] + step, times[j + 1:]])
                            - cost(np.r_[times[:j], times[j] - step, times[j + 1:]])
                        )
                        / (2 * step)
                        for j in range(inst.slot_count)
                    ]
                )
                assert np.max(np.abs(cg - fdc) / np.maximum(np.abs(cg), 1.0)) < 1e-5

    def test_cost_kinds(self):
        spec = make_spec(2, x0=[0.6, 0.4])
        by_id = {i.instance_id: i for i in build_all(spec)}
        assert by_id["OP1-plus"].as_dict()["constraint_spec"]["cost_kind"] == "J1"
        assert by_id["OP2-plus"].as_dict()["constraint_spec"]["cost_kind"] == "J2"

    def test_as_dict_schema(self):
        spec = make_spec(4)
        inst = build_all(spec)[0]
        d = inst.as_dict()
        assert set(d) == {"id", "variant", "start_sign", "signs", "n_vars", "constraint_spec"}
        assert d["n_vars"] == inst.slot_count
        assert len(d["constraint_spec"]["states"]) == 4

    def test_as_dict_headers(self):
        # (id, variant, start_sign, signs, levels) of every program at n = 2,
        # 3 and 4 and of one SEQ program, as the `build` JSON writes them
        expected = [
            ("OP1-minus", "OP1", "minus", [], [-1, 0, -1]),
            ("OP1-plus", "OP1", "plus", [], [1, 0, 1]),
            ("OP2-minus", "OP2", "minus", [], [0, -1, 0, 1]),
            ("OP2-plus", "OP2", "plus", [], [0, 1, 0, -1]),
            ("OP1-minus--+", "OP1", "minus", [-1, 1], [-1, 0, -1, 0, 1, 0, 1]),
            ("OP1-plus-+-", "OP1", "plus", [1, -1], [1, 0, 1, 0, -1, 0, -1]),
            ("OP2-minus-+", "OP2", "minus", [1], [0, -1, 0, 1, 0, -1]),
            ("OP2-plus--", "OP2", "plus", [-1], [0, 1, 0, -1, 0, 1]),
            ("OP1-minus-++-", "OP1", "minus", [1, 1, -1], [-1, 0, 1, 0, 1, 0, -1, 0, -1]),
            ("OP1-minus--++", "OP1", "minus", [-1, 1, 1], [-1, 0, -1, 0, 1, 0, 1, 0, -1]),
            ("OP1-plus-+--", "OP1", "plus", [1, -1, -1], [1, 0, 1, 0, -1, 0, -1, 0, 1]),
            ("OP1-plus---+", "OP1", "plus", [-1, -1, 1], [1, 0, -1, 0, -1, 0, 1, 0, 1]),
            ("OP2-minus-+-", "OP2", "minus", [1, -1], [0, -1, 0, 1, 0, -1, 0, 1]),
            ("OP2-minus--+", "OP2", "minus", [-1, 1], [0, -1, 0, -1, 0, 1, 0, 1]),
            ("OP2-plus-+-", "OP2", "plus", [1, -1], [0, 1, 0, 1, 0, -1, 0, -1]),
            ("OP2-plus--+", "OP2", "plus", [-1, 1], [0, 1, 0, -1, 0, 1, 0, -1]),
            ("SEQ-0_-1_0_1", "OP2", "minus", [], [0, -1, 0, 1]),
        ]
        seq = CandidateSequence.from_levels((0, -1, 0, 1))
        instances = [i for n in (2, 3, 4) for i in build_all(make_spec(n))]
        instances.append(sequence_instance(make_spec(3), seq))
        got = [
            (d["id"], d["variant"], d["start_sign"], d["signs"], d["constraint_spec"]["levels"])
            for d in (inst.as_dict() for inst in instances)
        ]
        assert got == expected

    @staticmethod
    def _golden_problems():
        gains = (1.0, -0.5, 2.0, 0.75, -1.25, 1.5)
        x0 = (0.3, -0.2, 0.15, 0.1, -0.05, 0.25)
        for n in range(1, 7):
            system = LtiSystem(build_spectrum([(-(i + 1), 1) for i in range(n)]), gains[:n])
            yield f"stable-{n}", validate_problem(system, x0[:n], 1.5)
        # common denominator 4
        system = LtiSystem(build_spectrum([(1, 2), (-3, 4), (-2, 1)]), (1.0, -0.5, 2.0))
        yield "rational", validate_problem(system, [0.2, -0.1, 0.05], 0.75)
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1), (-3, 1)]), gains[:3])
        yield "max-switches", validate_problem(system, x0[:3], 1.5, max_switches=4)

    def test_build_bytes_pinned(self):
        # sha256 over the `build` files of each problem, in `build_all`
        # order, written as `timefuel build` writes them
        expected = {
            "stable-1": (4, "cad202859922d35e4a41268be0f6f9ec8bd15255653f0eb75d9ea644c341fd2d"),
            "stable-2": (4, "46b790efeb789a6e6dbd7d40224db8459b0e08fdbdc976f63d36d38bf3a51947"),
            "stable-3": (4, "470690fc2a330e8fbde9ae586c8713aed86bb9b20be9e271c1be98e11e462210"),
            "stable-4": (8, "a4b14f6eacd6b49cd451c417078a6b3724f3e5bdfbe7712960e0cbdbe19c0a3c"),
            "stable-5": (16, "25da42f1b41d7a8fcc361283a9d6ab8fd53cd6090c27715b195d479366d5dad4"),
            "stable-6": (30, "6ac1ff1bf05b78b1ca262cb41ca24c1e8581bb3f13d65264b258f918be07d2dd"),
            "rational": (4, "97d3a1a3e214bd70a0a18937b8fdf2ede445a2766637344f676c3a6a78dd06d6"),
            "max-switches": (10, "e1404b573dd1a2afcb65c4b8a6277d7a551c655cfc14f18ad716de09efe18025"),
        }
        got = {}
        for label, spec in self._golden_problems():
            instances = build_all(spec)
            digest = hashlib.sha256()
            for inst in instances:
                text = json.dumps(inst.as_dict(), sort_keys=True, indent=2) + "\n"
                digest.update(text.encode("utf-8"))
            got[label] = (len(instances), digest.hexdigest())
        assert got == expected

    def test_programs_share_the_read_only_spec(self):
        spec = make_spec(4, x0=[0.1, 0.2, 0.4, 0.5])
        instances = build_all(spec) + [
            sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        ]
        assert all(inst.spec is spec for inst in instances)
        for array in (spec.x0, spec.system.eigenvalues, spec.system.gains):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array *= 2.0
        # made once: every read is the same array
        assert spec.x0 is spec.x0 and spec.system.gains is spec.system.gains
        assert spec.system.eigenvalues is spec.system.eigenvalues
