"""Diagonal LTI system with rational spectrum and the transfer-problem data.

Systems are accepted only in diagonal form with nonzero, distinct, rational
eigenvalues given as exact integer pairs.  Each eigenvalue n_i/d_i is rewritten
over the common denominator l = lcm(d_1, ..., d_n) as c_i/l with integer c_i;
every static program reports the integers (c_i, l), which give the
polynomial form of its reachability constraints.  The eigenvalue, gain and
x0 arrays are made once, on first read, and are read-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np


class ProblemError(ValueError):
    """Invalid system or problem data."""


class EmptySpectrumError(ProblemError):
    pass


class ZeroEigenvalueError(ProblemError):
    pass


class RepeatedEigenvalueError(ProblemError):
    pass


class ZeroInputGainError(ProblemError):
    pass


class NonpositiveTimeWeightError(ProblemError):
    pass


class DimensionMismatchError(ProblemError):
    pass


PROBLEM_FIELDS = ("eigenvalues", "b", "x0", "k", "max_switches")


@dataclass(frozen=True)
class RationalSpectrum:
    """Eigenvalues n_i/d_i rewritten as c_i/l over the common denominator l."""

    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    common_denominator: int
    scaled_numerators: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.scaled_numerators)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _read_only(np.array(self.scaled_numerators, dtype=float) / self.common_denominator)


@dataclass(frozen=True)
class LtiSystem:
    """Single-input diagonal system xdot_i = (c_i/l) x_i + b_i u."""

    spectrum: RationalSpectrum
    input_gains: tuple[float, ...]

    def __post_init__(self):
        if len(self.input_gains) != len(self.spectrum):
            raise DimensionMismatchError(
                f"{len(self.input_gains)} input gains for "
                f"{len(self.spectrum)} eigenvalues"
            )
        if any(_is_bool(g) for g in self.input_gains):
            raise ProblemError("every input gain b_i must be a number, not a boolean")
        if not all(math.isfinite(g) for g in self.input_gains):
            raise ProblemError("every input gain b_i must be finite")
        if any(g == 0.0 for g in self.input_gains):
            raise ZeroInputGainError("every input gain b_i must be nonzero")

    @property
    def order(self) -> int:
        return len(self.spectrum)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @cached_property
    def gains(self) -> np.ndarray:
        return _read_only(np.array(self.input_gains, dtype=float))


@dataclass(frozen=True)
class ProblemSpec:
    """A validated transfer problem: steer x0 to the origin at minimum cost.

    The cost is k*t_f plus the total time the input is nonzero; `max_switches`
    optionally restricts the number of input discontinuities.
    """

    system: LtiSystem
    initial_state: tuple[float, ...]
    time_weight: float
    max_switches: Optional[int] = None

    @property
    def order(self) -> int:
        return self.system.order

    @cached_property
    def x0(self) -> np.ndarray:
        return _read_only(np.array(self.initial_state, dtype=float))

    @property
    def k(self) -> float:
        return self.time_weight


def build_spectrum(rationals: Sequence[tuple[int, int]]) -> RationalSpectrum:
    """Build the exact common-denominator form of a rational spectrum.

    Input is a list of (numerator, denominator) integer pairs; signs are
    normalized so every stored denominator is positive.  All arithmetic is
    integer-exact: c_i = n_i * l / d_i with l = lcm of the denominators.
    """
    rationals = list(rationals)
    if not rationals:
        raise EmptySpectrumError("spectrum needs at least one eigenvalue")
    nums: list[int] = []
    dens: list[int] = []
    for pair in rationals:
        num, den = pair
        if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
            raise ProblemError(f"eigenvalue entries must be integers, got {pair!r}")
        if den == 0:
            raise ProblemError(f"zero denominator in eigenvalue {pair!r}")
        if num == 0:
            raise ZeroEigenvalueError("eigenvalues must be nonzero")
        if den < 0:
            num, den = -num, -den
        nums.append(num)
        dens.append(den)
    common = math.lcm(*dens)
    scaled = tuple(n * (common // d) for n, d in zip(nums, dens))
    if len(set(scaled)) != len(scaled):
        raise RepeatedEigenvalueError("eigenvalues must be pairwise distinct")
    return RationalSpectrum(tuple(nums), tuple(dens), common, scaled)


def validate_problem(
    system: LtiSystem,
    x0: Sequence[float],
    k: float,
    max_switches: Optional[int] = None,
) -> ProblemSpec:
    """Check problem data against the type invariants and freeze it."""
    if _is_bool(k):
        raise ProblemError(f"time weight k must be a number, got {k!r}")
    if not math.isfinite(k):
        raise ProblemError(f"time weight k must be finite, got {k}")
    if k <= 0:
        raise NonpositiveTimeWeightError(
            "time weight k must be positive: with k = 0 the off-duration is "
            "free, the transfer time is unbounded and the infimum cost is "
            "not attained (t_f -> infinity)"
        )
    if any(_is_bool(v) for v in x0):
        raise ProblemError("every x0 component must be a number, not a boolean")
    x0 = tuple(float(v) for v in x0)
    if not all(math.isfinite(v) for v in x0):
        raise ProblemError("every x0 component must be finite")
    if len(x0) != system.order:
        raise DimensionMismatchError(
            f"x0 has {len(x0)} components for an order-{system.order} system"
        )
    if max_switches is not None:
        if _is_bool(max_switches) or not isinstance(max_switches, (int, np.integer)):
            raise ProblemError("max_switches must be an integer")
        max_switches = int(max_switches)
        if not 1 <= max_switches <= 2 * system.order:
            raise ProblemError(
                f"max_switches must lie in [1, {2 * system.order}], "
                f"got {max_switches}"
            )
    return ProblemSpec(system, x0, float(k), max_switches)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _is_bool(value) -> bool:
    # bool is a subclass of int: True and False would pass as 1 and 0
    return isinstance(value, (bool, np.bool_))


def _is_number(value) -> bool:
    # JSON true/false parse as bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_problem(data: dict) -> ProblemSpec:
    """Build a ProblemSpec from the JSON problem-file object.

    Exact field names: eigenvalues ([[n, d], ...]), b, x0, k and the optional
    max_switches.  Unknown fields are rejected.
    """
    if not isinstance(data, dict):
        raise ProblemError("problem file must hold a JSON object")
    unknown = sorted(set(data) - set(PROBLEM_FIELDS))
    if unknown:
        raise ProblemError(f"unknown problem fields: {', '.join(unknown)}")
    missing = [f for f in ("eigenvalues", "b", "x0", "k") if f not in data]
    if missing:
        raise ProblemError(f"missing problem fields: {', '.join(missing)}")
    eig = data["eigenvalues"]
    if not isinstance(eig, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in eig
    ):
        raise ProblemError('"eigenvalues" must be a list of [numerator, denominator] pairs')
    spectrum = build_spectrum([tuple(p) for p in eig])
    b = data["b"]
    if not isinstance(b, list) or not all(_is_number(v) for v in b):
        raise ProblemError('"b" must be a list of numbers')
    system = LtiSystem(spectrum, tuple(float(v) for v in b))
    x0 = data["x0"]
    if not isinstance(x0, list) or not all(_is_number(v) for v in x0):
        raise ProblemError('"x0" must be a list of numbers')
    k = data["k"]
    if not _is_number(k):
        raise ProblemError('"k" must be a number')
    return validate_problem(system, x0, float(k), data.get("max_switches"))


def load_problem(path) -> ProblemSpec:
    """Read and validate a JSON problem file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemError(f"problem file is not valid JSON: {exc}") from exc
    return parse_problem(data)
