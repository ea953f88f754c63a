import numpy as np
import pytest

from timefuel import LtiSystem, build_spectrum, validate_problem
from timefuel.builder import (
    EXP_CLIP,
    DomainError,
    InconsistentSignsError,
    OrderTooSmallError,
    SignVector,
    SubstitutedVariables,
    build_all,
    build_nlp,
    count_nlps,
    op1_template,
    op2_template,
    sequence_instance,
    sign_vectors,
    to_a,
    to_times,
)
from timefuel.sequences import CandidateSequence
from timefuel.simulate import reachability_x0, schedule_from_times
from timefuel.solver import _gap_jacobian

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
        got = {v.entries for v in sign_vectors(4, "OP1", "plus")}
        assert got == SUPPLEMENT_OP1_N4
        minus = {v.entries for v in sign_vectors(4, "OP1", "minus")}
        assert minus == {tuple(-s for s in v) for v in SUPPLEMENT_OP1_N4}

    def test_n4_op2_matches_listing(self):
        got = {v.entries for v in sign_vectors(4, "OP2", "plus")}
        assert got == SUPPLEMENT_OP2_N4

    def test_n6_op1_matches_listing(self):
        got = {v.entries for v in sign_vectors(6, "OP1", "plus")}
        assert got == SUPPLEMENT_OP1_N6

    def test_n6_op2_matches_listing(self):
        got = {v.entries for v in sign_vectors(6, "OP2", "plus")}
        assert got == SUPPLEMENT_OP2_N6

    def test_deterministic_order(self):
        assert sign_vectors(4, "OP1", "plus") == sign_vectors(4, "OP1", "plus")
        entries = [v.entries for v in sign_vectors(6, "OP1", "plus")]
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
        t = op1_template(4, "plus")
        assert t.slot_count == 9
        assert t.placeholder_count == 3
        levels = t.resolve((1, -1, -1))
        assert levels == (1, 0, 1, 0, -1, 0, -1, 0, 1)

    def test_op2_shape(self):
        t = op2_template(4, "plus")
        assert t.slot_count == 8
        levels = t.resolve((1, -1))
        assert levels == (0, 1, 0, 1, 0, -1, 0, -1)

    def test_op2_n2_has_no_placeholders(self):
        t = op2_template(2, "plus")
        assert t.resolve(()) == (0, 1, 0, -1)

    def test_minus_templates_negated(self):
        plus = op1_template(3, "plus").resolve((1, -1))
        minus = op1_template(3, "minus").resolve((-1, 1))
        assert minus == tuple(-v for v in plus)

    def test_inconsistent_signs_rejected(self):
        spec = make_spec(4)
        t = op1_template(4, "plus")
        with pytest.raises(InconsistentSignsError):
            build_nlp(spec, t, SignVector((1, -1), "OP1"))
        with pytest.raises(InconsistentSignsError):
            build_nlp(spec, t, SignVector((1, -1, -1), "OP2"))
        with pytest.raises(InconsistentSignsError):
            # sum violates the parity target
            build_nlp(spec, t, SignVector((1, 1, 1), "OP1"))


class TestSubstitution:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(to_a([0.0, 0.0, 0.0], 1), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(to_times([1.0, 1.0, 1.0], 1), [0.0, 0.0, 0.0])

    def test_log_two(self):
        np.testing.assert_allclose(to_a([np.log(2.0)], 1), [2.0], rtol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            l = int(rng.integers(1, 5))
            a = rng.uniform(1.0, 10.0, size=6)
            back = to_a(to_times(a, l), l)
            np.testing.assert_allclose(back, a, rtol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            to_times([0.5], 1)
        with pytest.raises(DomainError):
            to_a([-0.1], 1)

    def test_substituted_variables(self):
        sub = SubstitutedVariables.from_times([0.0, np.log(2.0)], 1)
        assert sub.a == pytest.approx((1.0, 2.0))
        back = SubstitutedVariables.from_a(sub.a, 1)
        assert back.times == pytest.approx(sub.times)


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
            exponents = np.abs(np.multiply.outer(times, inst._lam))
            assert np.any(exponents > EXP_CLIP)
            reach, jac = inst.reach_stack(times)
            assert reach.shape == (m, n) and jac.shape == (m, n, K)
            assert np.array_equal(inst.reach_stack(times, jacobian=False)[0], reach)
            for i in range(m):
                assert np.array_equal(reach[i], inst.reach(times[i]))
                assert np.array_equal(jac[i], inst.constraint_jacobian(times[i]))

    def test_constraint_expression_matches_vector_form(self):
        rng = np.random.default_rng(23)
        spec = make_spec(3, x0=[0.2, -0.1, 0.05])
        for inst in build_all(spec):
            times = np.cumsum(rng.uniform(0.05, 0.4, size=inst.slot_count))
            residuals = inst.constraint_residuals(times)
            per_state = [c.residual_time(times) for c in inst.equality_constraints]
            np.testing.assert_allclose(per_state, residuals, rtol=1e-12)

    def test_polynomial_form_consistent(self):
        # x0*D - N = -D * (reach - x0) with D > 0 on the feasible box
        rng = np.random.default_rng(29)
        system = LtiSystem(build_spectrum([(1, 2), (-3, 4)]), (1.0, -0.5))
        spec = validate_problem(system, [0.2, 0.4], 1.0)
        inst = sequence_instance(spec, CandidateSequence.from_levels((0, -1, 0, 1)))
        l = inst.common_denominator
        for _ in range(20):
            times = np.cumsum(rng.uniform(0.05, 0.4, size=inst.slot_count))
            a = to_a(times, l)
            for c_expr in inst.equality_constraints:
                poly = c_expr.residual_poly(a)
                time_form = c_expr.residual_time(times)
                c = c_expr.scaled_numerator
                denom = np.prod(a ** c) if c > 0 else 1.0
                np.testing.assert_allclose(poly, -denom * time_form, rtol=1e-9)

    def test_gradient_checks(self):
        rng = np.random.default_rng(31)
        spec = make_spec(2, x0=[0.6, 0.4])
        step = 1e-6
        for inst in build_all(spec):
            for _ in range(25):
                gaps = rng.uniform(0.1, 0.5, size=inst.slot_count)
                times = np.cumsum(gaps)
                time_jac = inst.constraint_jacobian(times)
                # time coordinates, and gap coordinates through the solver's
                # reverse cumulative sum
                for point, residuals, analytic in (
                    (times, inst.constraint_residuals, time_jac),
                    (
                        gaps,
                        lambda g: inst.constraint_residuals(np.cumsum(g)),
                        _gap_jacobian(time_jac),
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
                cg = inst.cost_gradient(times)
                fdc = np.array(
                    [
                        (
                            inst.cost_value(np.r_[times[:j], times[j] + step, times[j + 1:]])
                            - inst.cost_value(np.r_[times[:j], times[j] - step, times[j + 1:]])
                        )
                        / (2 * step)
                        for j in range(inst.slot_count)
                    ]
                )
                assert np.max(np.abs(cg - fdc) / np.maximum(np.abs(cg), 1.0)) < 1e-5

    def test_cost_positive_and_log_zero_at_ones(self):
        rng = np.random.default_rng(37)
        for n in (2, 3):
            spec = make_spec(n, k=rng.uniform(0.5, 3.0))
            for inst in build_all(spec):
                ones = np.ones(inst.slot_count)
                assert inst.cost.log_value_a(ones) == 0.0
                assert inst.cost.value_a(ones) == 1.0
                a = rng.uniform(1.0, 3.0, size=inst.slot_count)
                a = np.maximum.accumulate(a)
                assert inst.cost.value_a(a) > 0.0
                # log of the monomial ratio equals the time-domain cost / l
                times = to_times(a, inst.common_denominator)
                np.testing.assert_allclose(
                    inst.common_denominator * inst.cost.log_value_a(a),
                    inst.cost_value(times),
                    rtol=1e-12,
                )

    def test_cost_kinds(self):
        spec = make_spec(2, x0=[0.6, 0.4])
        by_id = {i.instance_id: i for i in build_all(spec)}
        assert by_id["OP1-plus"].cost.kind == "J1"
        assert by_id["OP2-plus"].cost.kind == "J2"

    def test_ordering_residuals(self):
        spec = make_spec(2)
        inst = build_all(spec)[0]
        times = np.array([0.1, 0.3, 0.7])
        np.testing.assert_allclose(
            inst.ordering_residuals(times), [0.1, 0.2, 0.4], rtol=1e-12
        )

    def test_as_dict_schema(self):
        spec = make_spec(4)
        inst = build_all(spec)[0]
        d = inst.as_dict()
        assert set(d) == {"id", "variant", "start_sign", "signs", "n_vars", "constraint_spec"}
        assert d["n_vars"] == inst.slot_count
        assert len(d["constraint_spec"]["states"]) == 4
