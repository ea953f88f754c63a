import math
from itertools import product

import numpy as np
import pytest

from timefuel.sequences import (
    CandidateSequence,
    FamilyId,
    OrderTooLargeError,
    SegmentCounts,
    brute_force_candidates,
    conjugate,
    conjugate_levels,
    count_all_candidates,
    count_family,
    crossing_counts,
    enumerate_candidates,
    enumerate_family,
    plus_part,
    segment_solutions,
    tilde_sequence,
)


def seq(*levels):
    return CandidateSequence.from_levels(levels)


def exhaustive_segment_solutions(p, q, sign):
    """Independent oracle: brute-force the segment-count equation system."""
    out = []
    for beta_p, beta_m in ((1, 0), (2, 0), (0, 1), (0, 2)):
        if sign == "plus" and beta_p == 0:
            continue
        if sign == "minus" and beta_m == 0:
            continue
        for eps_p, eps_m in ((1, 0), (0, 1)):
            for gamma_p in range(q + 1):
                for gamma_m in range(p + 1):
                    if beta_p + 2 * gamma_p + eps_p != q:
                        continue
                    if beta_m + 2 * gamma_m + eps_m != p:
                        continue
                    out.append(
                        SegmentCounts(beta_p, eps_p, gamma_p, beta_m, eps_m, gamma_m)
                    )
    return out


class TestSegmentSolutions:
    def test_against_exhaustive_oracle(self):
        for p, q in product(range(9), repeat=2):
            if p + q <= 1:
                continue
            for sign in ("plus", "minus"):
                oracle = exhaustive_segment_solutions(p, q, sign)
                assert len(oracle) <= 1, (p, q, sign)
                got = segment_solutions(p, q, sign)
                if oracle:
                    assert got == oracle[0], (p, q, sign)
                else:
                    assert got is None, (p, q, sign)

    def test_even_odd_row(self):
        got = segment_solutions(0, 3, "plus")
        assert got == SegmentCounts(2, 1, 0, 0, 0, 0)

    def test_odd_odd_row(self):
        got = segment_solutions(1, 1, "plus")
        assert got == SegmentCounts(1, 0, 0, 0, 1, 0)

    def test_empty_class(self):
        assert segment_solutions(2, 1, "plus") is None

    def test_precondition(self):
        with pytest.raises(ValueError):
            segment_solutions(1, 0, "plus")


class TestCrossingCounts:
    @pytest.mark.parametrize(
        "levels,expected",
        [
            ((1,), (0, 0)),
            ((0, 1), (0, 1)),
            ((1, 0, 1), (0, 2)),
            ((0, 1, 0, -1), (1, 2)),
            ((1, 0, -1, 0, 1), (2, 2)),
        ],
    )
    def test_examples(self, levels, expected):
        assert crossing_counts(levels) == expected

    def test_transitions_equal_p_plus_q(self):
        for s in enumerate_candidates(4):
            assert s.transitions == len(s.levels) - 1 - sum(
                1 for a, b in zip(s.levels, s.levels[1:]) if a == b
            )
            assert s.transitions == s.p + s.q


class TestCandidateSequence:
    def test_rejects_adjacent_bangs(self):
        with pytest.raises(ValueError):
            seq(1, -1)

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            seq(1, 0)

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            CandidateSequence((1, 1), 0, 0)


class TestConjugate:
    def test_example(self):
        assert conjugate(seq(-1, 0, 1)).levels == (1, 0, -1)

    def test_all_zero_word_fixed_point(self):
        assert conjugate_levels((0,)) == (0,)

    def test_involution(self):
        s = seq(0, 1, 0, -1)
        assert conjugate(conjugate(s)) == s

    def test_swaps_counts(self):
        s = seq(0, 1, 0, -1)
        c = conjugate(s)
        assert (c.p, c.q) == (s.q, s.p)

    def test_family_bijection(self):
        for p, q in product(range(5), repeat=2):
            plus = enumerate_family(FamilyId(p, q, "plus"))
            minus = enumerate_family(FamilyId(q, p, "minus"))
            assert frozenset(conjugate(s) for s in plus) == minus


class TestEnumerateFamily:
    def test_base_cases(self):
        assert enumerate_family(FamilyId(0, 0, "plus")) == {seq(1)}
        assert enumerate_family(FamilyId(0, 0, "minus")) == {seq(-1)}
        assert enumerate_family(FamilyId(0, 1, "plus")) == {seq(0, 1)}
        assert enumerate_family(FamilyId(0, 1, "minus")) == frozenset()
        assert enumerate_family(FamilyId(1, 0, "plus")) == frozenset()
        assert enumerate_family(FamilyId(1, 0, "minus")) == {seq(0, -1)}

    def test_known_families(self):
        assert enumerate_family(FamilyId(0, 2, "plus")) == {seq(1, 0, 1)}
        assert enumerate_family(FamilyId(1, 2, "plus")) == {seq(0, 1, 0, -1)}
        assert enumerate_family(FamilyId(2, 1, "plus")) == frozenset()

    def test_members_carry_family_counts(self):
        for p, q in product(range(6), repeat=2):
            for sign in ("plus", "minus"):
                for s in enumerate_family(FamilyId(p, q, sign)):
                    assert (s.p, s.q) == (p, q)

    def test_interleavings(self):
        # two middle pulses of opposite sign: both orders appear
        fam = enumerate_family(FamilyId(3, 3, "plus"))
        assert fam == {
            seq(1, 0, 1, 0, -1, 0, -1),
            seq(1, 0, -1, 0, 1, 0, -1),
        }

    def test_count_matches_enumeration(self):
        for p, q in product(range(7), repeat=2):
            if p + q <= 1:
                continue
            total = len(enumerate_family(FamilyId(p, q, "plus"))) + len(
                enumerate_family(FamilyId(p, q, "minus"))
            )
            assert count_family(p, q) == total, (p, q)

    def test_count_binomial(self):
        counts = segment_solutions(3, 3, "plus")
        assert counts.gamma_plus == counts.gamma_minus == 1
        assert len(enumerate_family(FamilyId(3, 3, "plus"))) == math.comb(2, 1)


class TestTilde:
    def test_n2(self):
        assert tilde_sequence(2, "plus").levels == (1, 0, -1, 0, 1)

    def test_n3(self):
        assert tilde_sequence(3, "plus").levels == (1, 0, -1, 0, 1, 0, -1)

    def test_minus_is_conjugate(self):
        assert tilde_sequence(2, "minus") == conjugate(tilde_sequence(2, "plus"))

    def test_counts(self):
        s = tilde_sequence(4, "plus")
        assert (s.p, s.q) == (4, 4)


class TestEnumerateCandidates:
    def test_never_contains_alternating_words(self):
        for n in range(1, 6):
            cands = enumerate_candidates(n)
            assert tilde_sequence(n, "plus") not in cands
            assert tilde_sequence(n, "minus") not in cands

    def test_n2_count(self):
        cands = enumerate_candidates(2)
        assert len(cands) == 10
        assert len(plus_part(cands)) == 5

    def test_admissibility(self):
        for n in (2, 3, 4):
            for s in enumerate_candidates(n):
                assert s.p <= n and s.q <= n
                assert s.levels[-1] != 0
                assert all(
                    a != b and (a == 0 or b == 0)
                    for a, b in zip(s.levels, s.levels[1:])
                )

    def test_restricted_n3_r4(self):
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
        assert len(got) == 10

    def test_restricted_bounds(self):
        with pytest.raises(ValueError):
            enumerate_candidates(3, 7)
        with pytest.raises(ValueError):
            enumerate_candidates(3, 0)

    @pytest.mark.parametrize(
        "function",
        [enumerate_candidates, count_all_candidates, tilde_sequence, brute_force_candidates],
    )
    @pytest.mark.parametrize("order", [True, np.True_])
    def test_boolean_order_rejected(self, function, order):
        # True would run as order 1
        with pytest.raises(ValueError, match="order"):
            function(order)

    @pytest.mark.parametrize("max_switches", [True, np.True_])
    def test_boolean_budget_rejected(self, max_switches):
        # True would run as the switch budget 1
        with pytest.raises(ValueError, match="max_switches"):
            enumerate_candidates(2, max_switches)

    def test_restricted_full_budget_n2(self):
        # at the full switch budget the templates must still cover the
        # one-sided double-pulse shapes (the alternating word is excluded)
        got = {s.levels for s in enumerate_candidates(2, 4)}
        assert got == {
            (0, 1, 0, -1),
            (0, -1, 0, 1),
            (1, 0, 1),
            (-1, 0, -1),
        }


class TestCounts:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 12), (4, 23)])
    def test_formula_values(self, n, expected):
        assert count_all_candidates(n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_formula_matches_brute_force(self, n):
        assert count_all_candidates(n) == len(plus_part(brute_force_candidates(n)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumeration_matches_brute_force(self, n):
        assert enumerate_candidates(n) == brute_force_candidates(n)


class TestBruteForce:
    def test_n2_plus_part(self):
        expected = {
            (1,),
            (0, 1),
            (1, 0, 1),
            (1, 0, -1),
            (0, 1, 0, -1),
        }
        got = {s.levels for s in plus_part(brute_force_candidates(2))}
        assert got == expected

    def test_order_guard(self):
        with pytest.raises(OrderTooLargeError):
            brute_force_candidates(9)
