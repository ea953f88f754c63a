"""Static optimization problems for each candidate control shape.

Every instance fixes a level template (one input level per time slot) and
asks for nondecreasing segment end times t_1 <= ... <= t_K minimizing
k*t_K + on-duration subject to the reachability equalities that make the
template transfer x0 to the origin.  The cost is linear in the times and each
equality is a sum of exponentials, evaluated for stacks of time vectors by
the one fused kernel `reach_kernel`.  The `build` JSON carries the integer
data (common denominator l, scaled numerators c_i, cost exponents) from
which the polynomial form under a_j = exp(t_j / l) follows; the package
itself works in time only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Literal, Sequence

import numpy as np

from .model import ProblemSpec
from .sequences import CandidateSequence, Sign, enumerate_candidates

Variant = Literal["OP1", "OP2"]

#: Exponent clip keeping e^x and its squares finite in float64.
EXP_CLIP = 300.0


def reach_kernel(lam, b, levels, times, jacobian=True):
    """Transferred initial states and their time Jacobians for a stack.

    lam and b are the (n,) eigenvalue and gain arrays; times has shape
    (m, K), one nondecreasing segment end-time vector per row, and levels
    is one (K,) template for every row or one (m, K) template per row.
    Returns the (m, n) states reach(t) = -(b/lam) sum_j w_j e^(-lam t_j)
    (t_0 = 0, w_j = v_{j+1} - v_j) and, when asked, the (m, n, K) derivatives
    d reach / d t_j = b e^(-lam t_j) (v_{j+1} - v_j), both from one set of
    exponentials.  Every row is computed exactly as a stack of one would be,
    whatever the other rows' levels.
    """
    m, K = times.shape
    v = np.asarray(levels, dtype=float)
    E = np.exp(np.clip(-lam[None, :, None] * times[:, None, :], -EXP_CLIP, EXP_CLIP))
    padded = np.empty((m, len(lam), K + 1))
    padded[:, :, 0] = 1.0
    padded[:, :, 1:] = E
    reach = -(b / lam) * ((padded[:, :, :-1] - padded[:, :, 1:]) @ v[..., None])[..., 0]
    if not jacobian:
        return reach, None
    vstep = np.concatenate([v[..., 1:], np.zeros(v.shape[:-1] + (1,))], axis=-1) - v
    return reach, b[None, :, None] * E * vstep[..., None, :]


class OrderTooSmallError(ValueError):
    pass


class InconsistentSignsError(ValueError):
    pass


@dataclass(frozen=True)
class ControlTemplate:
    """A level pattern with optional interior sign placeholders.

    The generic bang-first template has 2n+1 slots (+1, 0, s_1, 0, ...,
    s_{n-1}, 0, (-1)^n for the plus start); the zero-lead template has 2n
    slots (0, +1, 0, s_1, ..., s_{n-2}, 0, -(-1)^n).  Fixed templates carry
    no placeholders.
    """

    variant: Variant
    start_sign: Sign
    order: int
    level_pattern: tuple[object, ...]

    @property
    def slot_count(self) -> int:
        return len(self.level_pattern)

    @property
    def placeholder_count(self) -> int:
        return sum(1 for v in self.level_pattern if isinstance(v, str))

    def resolve(self, signs: Sequence[int]) -> tuple[int, ...]:
        signs = list(signs)
        if len(signs) != self.placeholder_count:
            raise InconsistentSignsError(
                f"template needs {self.placeholder_count} signs, got {len(signs)}"
            )
        it = iter(signs)
        return tuple(
            int(next(it)) if isinstance(v, str) else int(v)
            for v in self.level_pattern
        )


def op1_template(n: int, start_sign: Sign) -> ControlTemplate:
    """Bang-first template: 2n+1 slots, n-1 interior sign placeholders."""
    if n < 3:
        raise OrderTooSmallError("generic templates need order >= 3")
    flip = 1 if start_sign == "plus" else -1
    pattern: list[object] = [flip, 0]
    for m in range(1, n):
        pattern += [f"s{m}", 0]
    pattern.append(flip * (-1) ** n)
    return ControlTemplate("OP1", start_sign, n, tuple(pattern))


def op2_template(n: int, start_sign: Sign) -> ControlTemplate:
    """Zero-lead template: 2n slots, n-2 interior sign placeholders."""
    if n < 2:
        raise OrderTooSmallError("zero-lead templates need order >= 2")
    flip = 1 if start_sign == "plus" else -1
    pattern: list[object] = [0, flip, 0]
    for m in range(1, n - 1):
        pattern += [f"s{m}", 0]
    pattern.append(-flip * (-1) ** n)
    return ControlTemplate("OP2", start_sign, n, tuple(pattern))


def fixed_template(levels: Sequence[int], order: int) -> ControlTemplate:
    """Template with no free signs, one slot per level of the sequence."""
    levels = tuple(int(v) for v in levels)
    variant: Variant = "OP1" if levels[0] != 0 else "OP2"
    first = next(v for v in levels if v != 0)
    return ControlTemplate(variant, "plus" if first > 0 else "minus", order, levels)


@dataclass(frozen=True)
class SignVector:
    """One admissible assignment of the interior sign placeholders."""

    entries: tuple[int, ...]
    variant: Variant

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.entries):
            raise InconsistentSignsError("sign entries must be +1 or -1")


def _sign_sum_target(n: int, variant: Variant, start_sign: Sign) -> int:
    if variant == "OP1":
        target = -1 if n % 2 == 0 else 0
    else:
        target = 0 if n % 2 == 0 else -1
    return -target if start_sign == "minus" else target


def _alternating(m: int, start_sign: Sign) -> tuple[int, ...]:
    # interior signs of the fully alternating word: s_m = (-1)^m for a plus start
    vec = tuple((-1) ** m for m in range(1, m + 1))
    return vec if start_sign == "plus" else tuple(-s for s in vec)


def sign_vectors(n: int, variant: Variant, start_sign: Sign) -> list[SignVector]:
    """All admissible interior sign assignments, lexicographically ordered.

    The parity constraint fixes the sum of the signs; for the bang-first
    variant the fully alternating assignment is removed because it produces
    the excluded alternating word.
    """
    if n < 3:
        raise OrderTooSmallError("generic sign vectors need order >= 3")
    m = n - 1 if variant == "OP1" else n - 2
    target = _sign_sum_target(n, variant, start_sign)
    vectors = [v for v in product((-1, 1), repeat=m) if sum(v) == target]
    if variant == "OP1":
        banned = _alternating(m, start_sign)
        vectors = [v for v in vectors if v != banned]
    return [SignVector(v, variant) for v in vectors]


def count_nlps(n: int) -> int:
    """Number of static programs for an order-n problem (n >= 3)."""
    if n < 3:
        raise OrderTooSmallError(
            "the closed-form program count needs order >= 3 "
            "(order 2 is handled as a special case with 4 programs)"
        )
    if n % 2 == 0:
        return 2 * (math.comb(n - 1, n // 2) - 1 + math.comb(n - 2, (n - 2) // 2))
    return 2 * (math.comb(n - 1, (n - 1) // 2) - 1 + math.comb(n - 2, (n - 1) // 2))


@dataclass(frozen=True)
class NlpInstance:
    """One static program: template, resolved levels and evaluation callbacks.

    Carries one reachability equality per state, slot_count - 1 ordering
    inequalities t_j <= t_{j+1} and the t_1 >= 0 bound.  All callbacks are
    pure functions of the frozen fields.
    """

    instance_id: str
    template: ControlTemplate
    signs: SignVector
    levels: tuple[int, ...]
    scaled_numerators: tuple[int, ...]
    input_gains: tuple[float, ...]
    common_denominator: int
    x0: tuple[float, ...]
    k: float

    def __post_init__(self):
        if len(self.levels) != self.template.slot_count:
            raise InconsistentSignsError("levels must fill every template slot")

    @property
    def slot_count(self) -> int:
        return len(self.levels)

    @property
    def order(self) -> int:
        return len(self.scaled_numerators)

    @property
    def variant(self) -> Variant:
        return self.template.variant

    @property
    def start_sign(self) -> Sign:
        return self.template.start_sign

    @cached_property
    def eigenvalues(self) -> tuple[float, ...]:
        l = self.common_denominator
        return tuple(c / l for c in self.scaled_numerators)

    @cached_property
    def _lam(self) -> np.ndarray:
        return np.array(self.eigenvalues)

    @cached_property
    def _b(self) -> np.ndarray:
        return np.array(self.input_gains)

    @cached_property
    def _x0(self) -> np.ndarray:
        return np.array(self.x0)

    @cached_property
    def _v(self) -> np.ndarray:
        return np.array(self.levels, dtype=float)

    @cached_property
    def gap_weights(self) -> np.ndarray:
        """Cost per unit segment length: k everywhere plus 1 on bang slots."""
        return np.array([self.k + (1.0 if v else 0.0) for v in self.levels])

    @cached_property
    def cost_exponents(self) -> tuple[float, ...]:
        """Cost weight of each end time: the cost is sum_j e_j t_j.

        e_j collects k at the final slot plus the telescoped on-duration
        pattern (the exponents of the cost monomial prod_j a_j^(e_j) under
        the substitution a_j = exp(t_j / l)).
        """
        K = self.slot_count
        e = []
        for j in range(K):
            val = self.k if j == K - 1 else 0.0
            val += 1.0 if self.levels[j] != 0 else 0.0
            if j + 1 < K:
                val -= 1.0 if self.levels[j + 1] != 0 else 0.0
            e.append(val)
        return tuple(e)

    def cost_value(self, times: Sequence[float]) -> float:
        return float(np.dot(self.cost_exponents, np.asarray(times, dtype=float)))

    def reach_stack(self, times: np.ndarray, jacobian: bool = True):
        """Fused kernel on a stack of time vectors; see `reach_kernel`."""
        return reach_kernel(self._lam, self._b, self._v, times, jacobian)

    def reach(self, times: Sequence[float]) -> np.ndarray:
        """Initial state transferred to the origin by these segment times."""
        t = np.asarray(times, dtype=float)[None, :]
        return self.reach_stack(t, jacobian=False)[0][0]

    def constraint_residuals(self, times: Sequence[float]) -> np.ndarray:
        return self.reach(times) - self._x0

    def constraint_jacobian(self, times: Sequence[float]) -> np.ndarray:
        """d residual_i / d t_j, shape (order, slot_count)."""
        return self.reach_stack(np.asarray(times, dtype=float)[None, :])[1][0]

    def as_dict(self) -> dict:
        # w_j = v_{j+1} - v_j over the zero-padded level word, j = 0..K
        coefficients = [b - a for a, b in zip((0,) + self.levels, self.levels + (0,))]
        return {
            "id": self.instance_id,
            "variant": self.variant,
            "start_sign": self.start_sign,
            "signs": list(self.signs.entries),
            "n_vars": self.slot_count,
            "constraint_spec": {
                "levels": list(self.levels),
                "time_weight": self.k,
                "common_denominator": self.common_denominator,
                "cost_kind": "J1" if self.levels[0] != 0 else "J2",
                "cost_exponents": list(self.cost_exponents),
                "states": [
                    {
                        "x0": self.x0[i],
                        "gain": self.input_gains[i],
                        "scaled_numerator": self.scaled_numerators[i],
                        "coefficients": coefficients,
                    }
                    for i in range(self.order)
                ],
            },
        }


def _sign_bits(entries: Iterable[int]) -> str:
    return "".join("+" if s > 0 else "-" for s in entries)


def _instance_id(template: ControlTemplate, signs: SignVector) -> str:
    base = f"{template.variant}-{template.start_sign}"
    bits = _sign_bits(signs.entries)
    return f"{base}-{bits}" if bits else base


def build_nlp(
    spec: ProblemSpec, template: ControlTemplate, signs: SignVector
) -> NlpInstance:
    """Instantiate one program from a template and a sign assignment."""
    if signs.variant != template.variant:
        raise InconsistentSignsError(
            f"sign vector for {signs.variant} used with a {template.variant} template"
        )
    if len(signs.entries) != template.placeholder_count:
        raise InconsistentSignsError(
            f"template needs {template.placeholder_count} signs, "
            f"got {len(signs.entries)}"
        )
    if template.placeholder_count:
        target = _sign_sum_target(template.order, template.variant, template.start_sign)
        if sum(signs.entries) != target:
            raise InconsistentSignsError(
                f"sign sum {sum(signs.entries)} violates the parity target {target}"
            )
    levels = template.resolve(signs.entries)
    system = spec.system
    return NlpInstance(
        instance_id=_instance_id(template, signs),
        template=template,
        signs=signs,
        levels=levels,
        scaled_numerators=system.spectrum.scaled_numerators,
        input_gains=system.input_gains,
        common_denominator=system.spectrum.common_denominator,
        x0=spec.initial_state,
        k=spec.k,
    )


def sequence_instance(spec: ProblemSpec, sequence: CandidateSequence) -> NlpInstance:
    """Program whose template is a single fixed level sequence."""
    template = fixed_template(sequence.levels, spec.order)
    inst = build_nlp(spec, template, SignVector((), template.variant))
    seq_id = "SEQ-" + "_".join(str(v) for v in sequence.levels)
    return dataclasses.replace(inst, instance_id=seq_id)


def build_all(spec: ProblemSpec) -> list[NlpInstance]:
    """Every program the problem requires, in stable id order.

    With a switch budget the programs come from the restricted sequence
    enumeration; order 1 uses the full sequence enumeration, order 2 the two
    zero-lead programs plus the two fixed bang-off-bang substitutes, and
    higher orders the generic templates over all admissible sign vectors.
    """
    n = spec.order
    if spec.max_switches is not None or n == 1:
        seqs = sorted(
            enumerate_candidates(n, spec.max_switches),
            key=lambda s: (len(s.levels), s.levels),
        )
        return [sequence_instance(spec, s) for s in seqs]
    instances: list[NlpInstance] = []
    if n == 2:
        for start in ("plus", "minus"):
            flip = 1 if start == "plus" else -1
            bang = fixed_template((flip, 0, flip), 2)
            instances.append(build_nlp(spec, bang, SignVector((), "OP1")))
            instances.append(
                build_nlp(spec, op2_template(2, start), SignVector((), "OP2"))
            )
    else:
        for variant, make in (("OP1", op1_template), ("OP2", op2_template)):
            for start in ("plus", "minus"):
                template = make(n, start)
                for signs in sign_vectors(n, variant, start):  # type: ignore[arg-type]
                    instances.append(build_nlp(spec, template, signs))
    instances.sort(key=lambda inst: inst.instance_id)
    return instances
