from fractions import Fraction

import numpy as np
import pytest

from timefuel.model import (
    DimensionMismatchError,
    EmptySpectrumError,
    LtiSystem,
    NonpositiveTimeWeightError,
    ProblemError,
    RepeatedEigenvalueError,
    ZeroEigenvalueError,
    ZeroInputGainError,
    build_spectrum,
    parse_problem,
    validate_problem,
)


class TestBuildSpectrum:
    def test_integer_eigenvalues(self):
        s = build_spectrum([(-1, 1), (-2, 1)])
        assert s.common_denominator == 1
        assert s.scaled_numerators == (-1, -2)

    def test_mixed_denominators(self):
        # lcm(2, 4) = 4, c = (1*4/2, -3*4/4)
        s = build_spectrum([(1, 2), (-3, 4)])
        assert s.common_denominator == 4
        assert s.scaled_numerators == (2, -3)

    def test_single_integer(self):
        s = build_spectrum([(1, 1)])
        assert s.common_denominator == 1
        assert s.scaled_numerators == (1,)

    def test_negative_denominator_normalized(self):
        s = build_spectrum([(1, -2), (1, 1)])
        assert s.denominators == (2, 1)
        assert s.numerators == (-1, 1)
        assert s.scaled_numerators == (-1, 2)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ZeroEigenvalueError):
            build_spectrum([(0, 1), (1, 1)])

    def test_repeated_eigenvalue_rejected(self):
        with pytest.raises(RepeatedEigenvalueError):
            build_spectrum([(1, 2), (2, 4)])

    def test_empty_rejected(self):
        with pytest.raises(EmptySpectrumError):
            build_spectrum([])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ProblemError):
            build_spectrum([(1, 0)])

    def test_float_pairs_rejected(self):
        with pytest.raises(ProblemError):
            build_spectrum([(1.0, 2)])

    def test_scale_consistency(self):
        rng = np.random.default_rng(7)
        base = [(3, 2), (-1, 3), (5, 6)]
        lam = build_spectrum(base).eigenvalues
        for _ in range(20):
            m = int(rng.integers(1, 20))
            scaled = build_spectrum([(n * m, d * m) for n, d in base]).eigenvalues
            np.testing.assert_allclose(scaled, lam, rtol=1e-15)

    def test_exact_rational_reconstruction(self):
        pairs = [(3, 2), (-7, 5), (11, 4)]
        s = build_spectrum(pairs)
        for (n, d), c in zip(pairs, s.scaled_numerators):
            assert Fraction(c, s.common_denominator) == Fraction(n, d)


class TestValidateProblem:
    def test_example_system_valid(self):
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.6, 0.4], 1.0)
        assert spec.order == 2
        assert spec.k == 1.0
        np.testing.assert_array_equal(spec.x0, [0.6, 0.4])

    def test_zero_time_weight_rejected(self):
        system = LtiSystem(build_spectrum([(-1, 1)]), (1.0,))
        with pytest.raises(NonpositiveTimeWeightError):
            validate_problem(system, [0.5], 0.0)

    def test_zero_gain_rejected(self):
        with pytest.raises(ZeroInputGainError):
            LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 0.0))

    def test_dimension_mismatch(self):
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            validate_problem(system, [0.6], 1.0)

    def test_max_switches_bounds(self):
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.6, 0.4], 1.0, max_switches=4)
        assert spec.max_switches == 4
        with pytest.raises(ProblemError):
            validate_problem(system, [0.6, 0.4], 1.0, max_switches=5)
        with pytest.raises(ProblemError):
            validate_problem(system, [0.6, 0.4], 1.0, max_switches=0)

    @pytest.mark.parametrize("budget", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_max_switches_accepted(self, budget):
        # as SolverOptions takes numpy integers; stored as a plain int, so
        # the spec stays JSON-serializable
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        spec = validate_problem(system, [0.6, 0.4], 1.0, max_switches=budget)
        assert type(spec.max_switches) is int and spec.max_switches == 3

    @pytest.mark.parametrize("budget", [True, np.True_, 3.0])
    def test_non_integer_max_switches_rejected(self, budget):
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        with pytest.raises(ProblemError, match="integer"):
            validate_problem(system, [0.6, 0.4], 1.0, max_switches=budget)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_gain_rejected(self, flag):
        # True would otherwise pass as the gain 1 and be written as "gain": true
        with pytest.raises(ProblemError, match="boolean"):
            LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, flag))

    @pytest.mark.parametrize("flag", [True, False, np.False_])
    def test_boolean_x0_rejected(self, flag):
        system = LtiSystem(build_spectrum([(-1, 1), (-2, 1)]), (1.0, 1.0))
        with pytest.raises(ProblemError, match="boolean"):
            validate_problem(system, [0.6, flag], 1.0)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_time_weight_rejected(self, flag):
        system = LtiSystem(build_spectrum([(-1, 1)]), (1.0,))
        with pytest.raises(ProblemError, match="number"):
            validate_problem(system, [0.5], flag)


class TestProblemFile:
    def test_roundtrip(self):
        spec = parse_problem(
            {
                "eigenvalues": [[-1, 1], [-2, 1]],
                "b": [1, 1],
                "x0": [0.6, 0.4],
                "k": 1,
            }
        )
        assert spec.order == 2
        assert spec.max_switches is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ProblemError, match="unknown"):
            parse_problem(
                {
                    "eigenvalues": [[-1, 1]],
                    "b": [1],
                    "x0": [0.5],
                    "k": 1,
                    "extra": 3,
                }
            )

    def test_missing_field_rejected(self):
        with pytest.raises(ProblemError, match="missing"):
            parse_problem({"eigenvalues": [[-1, 1]], "b": [1], "k": 1})

    def test_max_switches_passes_through(self):
        spec = parse_problem(
            {
                "eigenvalues": [[-1, 1], [-2, 1]],
                "b": [1, 1],
                "x0": [0.6, 0.4],
                "k": 1,
                "max_switches": 3,
            }
        )
        assert spec.max_switches == 3
