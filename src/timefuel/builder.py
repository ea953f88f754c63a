"""Static optimization problems for each candidate control shape.

Every instance fixes a level word (one input level of +1, 0 or -1 per time
slot) and asks for nondecreasing segment end times t_1 <= ... <= t_K
minimizing k*t_K + on-duration subject to the reachability equalities that
make the word transfer x0 to the origin.  The cost is linear in the times
and each equality is a sum of exponentials, evaluated for stacks of time
vectors by the one fused kernel `reach_kernel`.  The `build` JSON carries
the integer data (common denominator l, scaled numerators c_i, cost
exponents) from which the polynomial form under a_j = exp(t_j / l) follows;
the package itself works in time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Literal, Sequence

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
    is one (K,) level word for every row or one (m, K) word per row.
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


def template_levels(
    n: int, variant: Variant, start_sign: Sign, signs: Sequence[int] = ()
) -> tuple[int, ...]:
    """Level word of a generic program with its interior signs filled in.

    The bang-first (OP1) word has 2n+1 slots (+1, 0, s_1, 0, ..., s_{n-1},
    0, (-1)^n for the plus start); the zero-lead (OP2) word has 2n slots
    (0, +1, 0, s_1, 0, ..., s_{n-2}, 0, -(-1)^n).  The minus start negates
    the fixed levels; the signs fill the interior slots as given.
    """
    count = n - 1 if variant == "OP1" else n - 2
    if len(signs) != count:
        raise ValueError(f"{variant} at order {n} needs {count} signs, got {len(signs)}")
    flip = 1 if start_sign == "plus" else -1
    head = (flip, 0) if variant == "OP1" else (0, flip, 0)
    last = flip * (-1) ** n if variant == "OP1" else -flip * (-1) ** n
    return head + tuple(v for s in signs for v in (int(s), 0)) + (last,)


def sign_vectors(n: int, variant: Variant, start_sign: Sign) -> list[tuple[int, ...]]:
    """All admissible interior sign assignments, lexicographically ordered.

    The parity constraint fixes the sum of the signs; for the bang-first
    variant the fully alternating assignment is removed because it produces
    the excluded alternating word.
    """
    if n < 3:
        raise OrderTooSmallError("generic sign vectors need order >= 3")
    m = n - 1 if variant == "OP1" else n - 2
    flip = 1 if start_sign == "plus" else -1
    # -1 for a plus-start OP1 word at even n or OP2 word at odd n, else 0
    target = -flip if (n % 2 == 0) == (variant == "OP1") else 0
    vectors = [v for v in product((-1, 1), repeat=m) if sum(v) == target]
    if variant == "OP1":
        # s_i = (-1)^i for a plus start
        alternating = tuple(flip * (-1) ** i for i in range(1, m + 1))
        vectors = [v for v in vectors if v != alternating]
    return vectors


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
    """One static program: its level word over the problem's data.

    `signs` holds the interior signs of a generic word and is empty for the
    SEQ programs and at order <= 2.  Every program of a problem holds the
    same `spec`, which alone owns the system and x0.  Carries one
    reachability equality per state, slot_count - 1 ordering inequalities
    t_j <= t_{j+1} and the t_1 >= 0 bound.  All callbacks are pure
    functions of the frozen fields.
    """

    instance_id: str
    levels: tuple[int, ...]
    signs: tuple[int, ...]
    spec: ProblemSpec

    @property
    def slot_count(self) -> int:
        return len(self.levels)

    @property
    def order(self) -> int:
        return self.spec.order

    @property
    def x0(self) -> np.ndarray:
        return self.spec.x0

    @property
    def k(self) -> float:
        return self.spec.k

    @property
    def variant(self) -> Variant:
        return "OP1" if self.levels[0] != 0 else "OP2"

    @property
    def start_sign(self) -> Sign:
        return "plus" if next(v for v in self.levels if v != 0) > 0 else "minus"

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

    def reach(self, times: Sequence[float]) -> np.ndarray:
        """Initial state transferred to the origin by these segment times."""
        system = self.spec.system
        t = np.asarray(times, dtype=float)[None, :]
        return reach_kernel(system.eigenvalues, system.gains, self._v, t, jacobian=False)[0][0]

    def constraint_residuals(self, times: Sequence[float]) -> np.ndarray:
        return self.reach(times) - self.spec.x0

    def constraint_jacobian(self, times: Sequence[float]) -> np.ndarray:
        """d residual_i / d t_j, shape (order, slot_count)."""
        system = self.spec.system
        t = np.asarray(times, dtype=float)[None, :]
        return reach_kernel(system.eigenvalues, system.gains, self._v, t)[1][0]

    def as_dict(self) -> dict:
        # w_j = v_{j+1} - v_j over the zero-padded level word, j = 0..K
        coefficients = [b - a for a, b in zip((0,) + self.levels, self.levels + (0,))]
        system = self.spec.system
        return {
            "id": self.instance_id,
            "variant": self.variant,
            "start_sign": self.start_sign,
            "signs": list(self.signs),
            "n_vars": self.slot_count,
            "constraint_spec": {
                "levels": list(self.levels),
                "time_weight": self.k,
                "common_denominator": system.spectrum.common_denominator,
                "cost_kind": "J1" if self.levels[0] != 0 else "J2",
                "cost_exponents": list(self.cost_exponents),
                "states": [
                    {"x0": x, "gain": b, "scaled_numerator": c, "coefficients": coefficients}
                    for x, b, c in zip(
                        self.spec.initial_state,
                        system.input_gains,
                        system.spectrum.scaled_numerators,
                    )
                ],
            },
        }


def sequence_instance(spec: ProblemSpec, sequence: CandidateSequence) -> NlpInstance:
    """Program over a single fixed level sequence."""
    instance_id = "SEQ-" + "_".join(str(v) for v in sequence.levels)
    return NlpInstance(instance_id, sequence.levels, (), spec)


def build_all(spec: ProblemSpec) -> list[NlpInstance]:
    """Every program the problem requires, in stable id order.

    With a switch budget the programs come from the restricted sequence
    enumeration; order 1 uses the full sequence enumeration, order 2 the two
    zero-lead programs plus the two fixed bang-off-bang substitutes, and
    higher orders the generic words over all admissible sign vectors.
    """
    n = spec.order
    if spec.max_switches is not None or n == 1:
        seqs = sorted(
            enumerate_candidates(n, spec.max_switches),
            key=lambda s: (len(s.levels), s.levels),
        )
        return [sequence_instance(spec, s) for s in seqs]
    instances: list[NlpInstance] = []
    for start in ("plus", "minus"):
        if n == 2:
            flip = 1 if start == "plus" else -1
            instances.append(NlpInstance(f"OP1-{start}", (flip, 0, flip), (), spec))
            levels = template_levels(2, "OP2", start)
            instances.append(NlpInstance(f"OP2-{start}", levels, (), spec))
            continue
        for variant in ("OP1", "OP2"):
            for signs in sign_vectors(n, variant, start):
                bits = "".join("+" if v > 0 else "-" for v in signs)
                levels = template_levels(n, variant, start, signs)
                instances.append(NlpInstance(f"{variant}-{start}-{bits}", levels, signs, spec))
    instances.sort(key=lambda inst: inst.instance_id)
    return instances
