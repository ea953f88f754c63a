"""Candidate bang-off-bang switching sequences.

A candidate sequence is a finite word over {-1, 0, +1} describing the order of
input levels of an admissible control: levels change one step at a time
(never +1 <-> -1 directly), the final level is nonzero, and the number of
transitions touching +1 segments (q) and -1 segments (p) is bounded by the
system order n on each side.  Sequences are grouped into families S(p, q)
split by the sign of the first nonzero level; each nonempty family is
generated from a fixed beginning segment, an interleaving of middle pulses,
and a fixed end segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .model import _is_int

Sign = Literal["plus", "minus"]

#: Number of switches contributed to (p, q) by each grammar unit.  A unit
#: touching a +1 segment crosses the switching function's -1 level (counted
#: by q); a unit touching a -1 segment crosses +1 (counted by p).
GRAMMAR_UNITS: tuple[tuple[tuple[int, ...], int, int], ...] = (
    ((1, 0), 0, 1),
    ((-1, 0), 1, 0),
    ((0, 1, 0), 0, 2),
    ((0, -1, 0), 2, 0),
    ((0, 1), 0, 1),
    ((0, -1), 1, 0),
    ((1,), 0, 0),
    ((-1,), 0, 0),
)

BRUTE_FORCE_MAX_ORDER = 8


class OrderTooLargeError(ValueError):
    pass


def crossing_counts(levels: Iterable[int]) -> tuple[int, int]:
    """Count transitions adjacent to -1 segments (p) and +1 segments (q)."""
    levels = tuple(levels)
    p = q = 0
    for a, b in zip(levels, levels[1:]):
        nonzero = a if a != 0 else b
        if nonzero == 1:
            q += 1
        elif nonzero == -1:
            p += 1
    return p, q


@dataclass(frozen=True, order=True)
class CandidateSequence:
    """An admissible level word together with its crossing counts (p, q)."""

    levels: tuple[int, ...]
    p: int
    q: int

    def __post_init__(self):
        lv = self.levels
        if not lv:
            raise ValueError("sequence must be nonempty")
        if any(v not in (-1, 0, 1) for v in lv):
            raise ValueError(f"levels must lie in {{-1, 0, +1}}: {lv}")
        for a, b in zip(lv, lv[1:]):
            if a == b:
                raise ValueError(f"repeated level in {lv}")
            if a == -b and a != 0:
                raise ValueError(f"direct +1/-1 transition in {lv}")
        if lv[-1] == 0:
            raise ValueError(f"terminal level must be nonzero: {lv}")
        if (self.p, self.q) != crossing_counts(lv):
            raise ValueError(
                f"crossing counts {(self.p, self.q)} inconsistent with {lv}"
            )

    @classmethod
    def from_levels(cls, levels: Iterable[int]) -> "CandidateSequence":
        levels = tuple(int(v) for v in levels)
        p, q = crossing_counts(levels)
        return cls(levels, p, q)

    @property
    def transitions(self) -> int:
        return self.p + self.q

    @property
    def start_sign(self) -> Sign:
        first = next(v for v in self.levels if v != 0)
        return "plus" if first > 0 else "minus"

    def __str__(self) -> str:
        return ",".join(f"{v:+d}" if v else "0" for v in self.levels)


@dataclass(frozen=True)
class SegmentCounts:
    """How many beginning/middle/end units of each sign compose a family.

    beta is the switch count of the beginning segment, gamma the number of
    middle pulses, eps the switch count of the end segment; the +/- suffix
    tells which input sign the unit carries.
    """

    beta_plus: int
    eps_plus: int
    gamma_plus: int
    beta_minus: int
    eps_minus: int
    gamma_minus: int

    def __post_init__(self):
        if self.beta_plus not in (0, 1, 2) or self.beta_minus not in (0, 1, 2):
            raise ValueError("beta counts must lie in {0, 1, 2}")
        if self.eps_plus not in (0, 1) or self.eps_minus not in (0, 1):
            raise ValueError("eps counts must lie in {0, 1}")
        if self.gamma_plus < 0 or self.gamma_minus < 0:
            raise ValueError("gamma counts must be nonnegative")
        if self.beta_plus * self.beta_minus != 0 or self.beta_plus + self.beta_minus == 0:
            raise ValueError("exactly one sign owns the beginning segment")
        if self.eps_plus * self.eps_minus != 0 or self.eps_plus + self.eps_minus != 1:
            raise ValueError("exactly one sign owns the end segment")

    def mirrored(self) -> "SegmentCounts":
        return SegmentCounts(
            beta_plus=self.beta_minus,
            eps_plus=self.eps_minus,
            gamma_plus=self.gamma_minus,
            beta_minus=self.beta_plus,
            eps_minus=self.eps_plus,
            gamma_minus=self.gamma_plus,
        )


@dataclass(frozen=True)
class FamilyId:
    """Selects the plus or minus half of the family S(p, q)."""

    p: int
    q: int
    sign: Sign

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("crossing counts must be nonnegative")
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")


def conjugate_levels(levels: Iterable[int]) -> tuple[int, ...]:
    """Negate every nonzero level (works on raw words, e.g. the all-zero one)."""
    return tuple(-v for v in levels)


def conjugate(seq: CandidateSequence) -> CandidateSequence:
    """Sign-flip a sequence; swaps the crossing counts (p, q) -> (q, p)."""
    return CandidateSequence(conjugate_levels(seq.levels), seq.q, seq.p)


def segment_solutions(p: int, q: int, sign: Sign = "plus") -> Optional[SegmentCounts]:
    """Solve the segment-count equations for the family with p + q > 1.

    For each parity class of (p, q) at most one solution exists; None means
    the family is empty.  Minus families are the mirror image of the plus
    family at the swapped indices.
    """
    if p + q <= 1:
        raise ValueError("segment counts are defined for p + q > 1")
    if p < 0 or q < 0:
        raise ValueError("crossing counts must be nonnegative")
    if sign == "minus":
        plus = segment_solutions(q, p, "plus")
        return None if plus is None else plus.mirrored()
    p_even = p % 2 == 0
    q_even = q % 2 == 0
    if p_even and not q_even:
        if q < 3:
            return None
        return SegmentCounts(2, 1, (q - 3) // 2, 0, 0, p // 2)
    if not p_even and q_even:
        if q < 2:
            return None
        return SegmentCounts(2, 0, (q - 2) // 2, 0, 1, (p - 1) // 2)
    if not p_even and not q_even:
        return SegmentCounts(1, 0, (q - 1) // 2, 0, 1, (p - 1) // 2)
    if q < 2:
        return None
    return SegmentCounts(1, 1, (q - 2) // 2, 0, 0, p // 2)


def _merge(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    # junction of two units always ends/starts with 0; keep a single 0
    if left and right and left[-1] == 0 and right[0] == 0:
        return left + right[1:]
    return left + right


_BASE_PLUS: dict[tuple[int, int], frozenset[tuple[int, ...]]] = {
    (0, 0): frozenset({(1,)}),
    (0, 1): frozenset({(0, 1)}),
    (1, 0): frozenset(),
}


def _plus_family_levels(counts: SegmentCounts) -> set[tuple[int, ...]]:
    """All accepting runs of the generating automaton for one plus family.

    The automaton starts in the beginning-segment state chosen by beta, may
    visit the two middle-pulse states while their gamma budgets last, and
    accepts in the end-segment state chosen by eps; a depth-first walk over
    the enabled transitions emits one sequence per run.
    """
    begin = (1, 0) if counts.beta_plus == 1 else (0, 1, 0)
    end = (0, 1) if counts.eps_plus == 1 else (0, -1)
    runs: set[tuple[int, ...]] = set()

    def walk(prefix: tuple[int, ...], budget_plus: int, budget_minus: int):
        if budget_plus == 0 and budget_minus == 0:
            runs.add(_merge(prefix, end))
            return
        if budget_plus:
            walk(_merge(prefix, (0, 1, 0)), budget_plus - 1, budget_minus)
        if budget_minus:
            walk(_merge(prefix, (0, -1, 0)), budget_plus, budget_minus - 1)

    walk(begin, counts.gamma_plus, counts.gamma_minus)
    return runs


def enumerate_family(family: FamilyId) -> frozenset[CandidateSequence]:
    """All sequences of one (p, q, sign) family.

    Minus families are produced by conjugating the mirrored plus family, the
    single source of truth for the grammar.
    """
    p, q, sign = family.p, family.q, family.sign
    if sign == "minus":
        mirrored = enumerate_family(FamilyId(q, p, "plus"))
        return frozenset(conjugate(s) for s in mirrored)
    if p + q <= 1:
        base = _BASE_PLUS.get((p, q), frozenset())
        return frozenset(CandidateSequence.from_levels(lv) for lv in base)
    counts = segment_solutions(p, q, "plus")
    if counts is None:
        return frozenset()
    out = frozenset(
        CandidateSequence(lv, p, q) for lv in _plus_family_levels(counts)
    )
    return out


def count_family(p: int, q: int) -> int:
    """Closed-form size of S(p, q) for p + q > 1 (plus and minus halves)."""
    total = 0
    for sign in ("plus", "minus"):
        counts = segment_solutions(p, q, sign)  # type: ignore[arg-type]
        if counts is not None:
            total += math.comb(
                counts.gamma_plus + counts.gamma_minus, counts.gamma_plus
            )
    return total


def _check_order(n) -> None:
    # True would run as order 1, and 2.5 or "3" fail inside range or math.comb
    if not _is_int(n) or n < 1:
        raise ValueError(f"order must be an integer of at least 1, got {n!r}")


def tilde_sequence(n: int, sign: Sign = "plus") -> CandidateSequence:
    """The fully alternating word with n zeros, excluded from the candidates.

    Its zero count exceeds the admissible bound on zero crossings of the
    switching function, so it can never be optimal.
    """
    _check_order(n)
    levels: list[int] = []
    for i in range(n + 1):
        levels.append((-1) ** i)
        levels.append(0)
    levels = levels[:-1]
    seq = CandidateSequence(tuple(levels), n, n)
    return seq if sign == "plus" else conjugate(seq)


def enumerate_candidates(
    n: int, max_switches: Optional[int] = None
) -> frozenset[CandidateSequence]:
    """All admissible sequences for an order-n system.

    Without a switch budget this is the union of every family with
    0 <= p, q <= n minus the two alternating words.  With a budget r, the
    families with p + q in {r-1, r} are returned: every admissible sequence
    with fewer switches arises from one of these by shrinking segments to
    zero length, so they are the templates needed to cover the restricted
    problem.
    """
    _check_order(n)
    if max_switches is not None and (not _is_int(max_switches) or not 1 <= max_switches <= 2 * n):
        raise ValueError(
            f"max_switches must be an integer in [1, {2 * n}], got {max_switches!r}"
        )
    if max_switches is None:
        pairs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    else:
        pairs = [
            (p, q)
            for p in range(n + 1)
            for q in range(n + 1)
            if p + q in (max_switches - 1, max_switches)
        ]
        if n == 2 and max_switches == 4:
            # the alternating-word exclusion empties the (2, 2) families and
            # the one-sided double-pulse shapes are not faces of the rest
            pairs += [(0, 2), (2, 0)]
    excluded = {tilde_sequence(n, "plus"), tilde_sequence(n, "minus")}
    out: set[CandidateSequence] = set()
    for p, q in pairs:
        for sign in ("plus", "minus"):
            out |= enumerate_family(FamilyId(p, q, sign))
    return frozenset(out - excluded)


def count_all_candidates(n: int) -> int:
    """Closed-form count of the plus-start candidates for an order-n system."""
    _check_order(n)
    if n % 2 == 0:
        return (
            math.comb(n, (n - 2) // 2)
            + 2 * math.comb(n, n // 2)
            + math.comb(n + 1, n // 2)
            - 3
        )
    return 3 * math.comb(n, (n - 1) // 2) + math.comb(n + 1, (n + 1) // 2) - 3


def plus_part(sequences: Iterable[CandidateSequence]) -> frozenset[CandidateSequence]:
    """Sequences whose first nonzero level is +1."""
    return frozenset(s for s in sequences if s.start_sign == "plus")


def brute_force_candidates(n: int) -> frozenset[CandidateSequence]:
    """Independent oracle: exhaust all unit concatenations up to 2n switches.

    Chains a beginning unit, middle pulses and a terminal unit (or a single
    standalone unit), merging doubled zeros, accumulating (p, q) per unit and
    filtering by the admissibility bounds and the alternating-word exclusion.
    Only for small orders; the candidate count grows combinatorially.
    """
    _check_order(n)
    if n > BRUTE_FORCE_MAX_ORDER:
        raise OrderTooLargeError(
            f"brute force supports n <= {BRUTE_FORCE_MAX_ORDER}, got {n}"
        )
    units = {lv: (dp, dq) for lv, dp, dq in GRAMMAR_UNITS}
    starts = [(1, 0), (-1, 0), (0, 1, 0), (0, -1, 0)]
    middles = [(0, 1, 0), (0, -1, 0)]
    ends = [(0, 1), (0, -1)]
    singletons = [(1,), (-1,), (0, 1), (0, -1)]

    found: set[tuple[int, ...]] = set()
    for lv in singletons:
        dp, dq = units[lv]
        if dp <= n and dq <= n:
            found.add(lv)

    def extend(word: tuple[int, ...], p: int, q: int):
        for end in ends:
            dp, dq = units[end]
            if p + dp <= n and q + dq <= n:
                found.add(_merge(word, end))
        for mid in middles:
            dp, dq = units[mid]
            if p + dp <= n and q + dq <= n:
                extend(_merge(word, mid), p + dp, q + dq)

    for start in starts:
        dp, dq = units[start]
        if dp <= n and dq <= n:
            extend(start, dp, dq)

    excluded = {
        tilde_sequence(n, "plus").levels,
        tilde_sequence(n, "minus").levels,
    }
    return frozenset(
        CandidateSequence.from_levels(lv) for lv in found - excluded
    )
