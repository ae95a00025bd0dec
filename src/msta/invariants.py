"""Local-unitary invariants of two- and three-qubit pure states.

For a three-qubit pure state the expansion over the eight product states
built from the reduced spin directions is parametrised by five invariants:
the three reduced Bloch lengths and the two correlation scalars

    vbar2 = < v_a v_b V_ab >      (equal across the three qubit pairs)
    vbar3 = < v_a v_b v_c V_abc >

read from the correlation tensor T of `DensityOperator.correlation_tensor`:
v_a = T[1:, 0, 0], V_ab = T[1:, 1:, 0] and V_abc = T[1:, 1:, 1:], so
vbar2 = v_a . V_ab . v_b and vbar3 = V_abc(v_a, v_b, v_c).

The eight expansion probabilities, the Sudbery-style polynomial invariants
(including the squared 3-tangle), and the feasibility polynomials F and B
are all closed-form functions of these five numbers.  The squared 3-tangle
has an independent ground truth in the Cayley hyperdeterminant of the
amplitude tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import DensityOperator, _checked_amplitudes, pure_state_from_amplitudes
from .tolerances import (
    DEGENERATE_V, EXISTENCE_SLACK, FEASIBILITY_SLACK, INVARIANT_PURE_TOL, PAIR_TOL, PROB_FLOOR,
    RANGE_SLACK, VANISHING_V,
)

# the sign of qubit a, b and c (rows) in each of the eight p[ijk] (columns)
_SIGNS = 1.0 - 2.0 * ((np.arange(8) >> np.array([[2], [1], [0]])) & 1)
_SIGN_TRIPLES = _SIGNS.T.tolist()


class InfeasibleInvariantsError(ValueError):
    """Raised when no pure state exists with the requested invariants."""


@dataclass(frozen=True)
class InvariantSet3Q:
    """The five local-unitary invariants (v_a, v_b, v_c, vbar2, vbar3).

    vbar2 and vbar3 may be arrays of any two broadcastable shapes (a
    column of vbar2 against a row of vbar3 spans a grid):
    `expansion_probabilities`, `sudbery`, `B_function` and `feasibility`
    then evaluate every (vbar2, vbar3) point at once, each with the bits
    it has alone as two floats.  The Bloch lengths are floats.
    """

    v_a: float
    v_b: float
    v_c: float
    vbar2: float | np.ndarray
    vbar3: float | np.ndarray

    @property
    def vs(self) -> tuple[float, float, float]:
        return (self.v_a, self.v_b, self.v_c)

    @property
    def alpha(self) -> float:
        return self.v_a**2 + self.v_b**2 + self.v_c**2

    @property
    def beta(self) -> float:
        a2, b2, c2 = self.v_a**2, self.v_b**2, self.v_c**2
        return a2 * b2 + a2 * c2 + b2 * c2

    @property
    def gamma(self) -> float:
        return (self.v_a * self.v_b * self.v_c) ** 2


class SudberyInvariants(NamedTuple):
    i2: float
    i3: float
    i4: float
    i5: float
    i6: float


def _pure_or_raise(rho: DensityOperator) -> None:
    if not rho.is_pure(INVARIANT_PURE_TOL):
        raise ValueError("invariant extraction requires a pure state")


def invariants_2q(rho: DensityOperator) -> float:
    """Reduced Bloch length v of a two-qubit pure state.

    Checks the pure-state consistency conditions: the two reduced lengths
    agree and < v_a v_b V_ab > equals v^2.
    """
    if rho.n_qubits != 2:
        raise ValueError("expected a two-qubit state")
    _pure_or_raise(rho)
    t = rho.correlation_tensor()
    va, vb = t[1:, 0], t[0, 1:]
    la, lb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if abs(la - lb) > PAIR_TOL:
        raise ValueError(f"reduced Bloch lengths differ: {la} vs {lb}")
    v = 0.5 * (la + lb)
    if v > DEGENERATE_V:
        corr = float(va @ t[1:, 1:] @ vb)
        if abs(corr - v * v) > PAIR_TOL:
            raise ValueError(f"pair correlation {corr} inconsistent with v^2 = {v * v}")
    return v


def _length(v: list[float]) -> float:
    """A 3-vector's length, np.linalg.norm's bit for bit: its BLAS dot adds
    each later square by a fused multiply-add, here Dekker's exact square
    and one rounding by `math.fsum` (solution counts turn on the last bit)."""
    s = v[0] * v[0]
    for y in v[1:]:
        hi = 134217729.0 * y  # 2^27 + 1 splits y into hi + lo
        hi -= hi - y
        lo, p = y - hi, y * y
        s = math.fsum((p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo, s))
    return math.sqrt(s)


def invariants_3q(rho: DensityOperator) -> InvariantSet3Q:
    """Extract (v_a, v_b, v_c, vbar2, vbar3) from a three-qubit pure state.

    All three reduced Bloch lengths must exceed the degenerate threshold;
    states with vanishing vectors carry no invariant expansion and are
    handled by `degenerate_limit`.

    The correlation tensor is read once as 64 Python floats, T[i, j, k] at
    i + 4 j + 16 k: the lengths are numpy's norms bit for bit (`_length`),
    the rest float sums within a few ulp of numpy's matmul and einsum.  On
    `reconstruct`'s states about 30 us against 47 us on arrays (timeit).
    """
    if rho.n_qubits != 3:
        raise ValueError("expected a three-qubit state")
    _pure_or_raise(rho)
    t = rho.correlation_tensor().T.ravel().tolist()
    va, vb, vc = t[1:4], t[4:16:4], t[16::16]
    lens = [_length(v) for v in (va, vb, vc)]
    if min(lens) <= DEGENERATE_V:
        raise ValueError("vanishing reduced Bloch vector: use degenerate_limit for this state")
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = va, vb, vc
    # w[j + 4 k] = sum_i v_a[i] T[i + 1, j, k], u[k] = sum_j v_b[j] T[0, j + 1, k + 1]
    w = [a0 * t[o + 1] + a1 * t[o + 2] + a2 * t[o + 3] for o in range(0, 64, 4)]
    u = [b0 * t[o + 4] + b1 * t[o + 8] + b2 * t[o + 12] for o in (16, 32, 48)]
    pair_scalars = [w[1] * b0 + w[2] * b1 + w[3] * b2, w[4] * c0 + w[8] * c1 + w[12] * c2, u[0] * c0 + u[1] * c1 + u[2] * c2]
    spread = max(pair_scalars) - min(pair_scalars)
    if spread > PAIR_TOL:
        raise ValueError(f"pairwise invariants disagree by {spread}")
    vbar2 = sum(pair_scalars) / 3.0
    vbar3 = sum(c * (w[o + 1] * b0 + w[o + 2] * b1 + w[o + 3] * b2) for c, o in zip(vc, (4, 8, 12)))
    return InvariantSet3Q(lens[0], lens[1], lens[2], vbar2, vbar3)


def _point(inv: InvariantSet3Q) -> tuple[float, float] | None:
    """vbar2 and vbar3 as floats where neither has an axis, else None."""
    v2, v3 = inv.vbar2, inv.vbar3
    point = isinstance(v2, float) and isinstance(v3, float) or not (np.ndim(v2) or np.ndim(v3))
    return (float(v2), float(v3)) if point else None


def expansion_probabilities(inv: InvariantSet3Q) -> np.ndarray:
    """The eight probabilities p[ijk], indexed by sign bits (0 = +, qubit a
    most significant); sums to one identically.

    Shape (8,) + the broadcast shape of vbar2 and vbar3, (8,) for floats,
    which take Python arithmetic in the array form's order, bit for bit.
    """
    va, vb, vc = inv.vs
    if min(va, vb, vc) < VANISHING_V:
        raise ValueError("expansion probabilities require nonvanishing Bloch lengths")
    point = _point(inv)
    v2, v3 = (inv.vbar2, inv.vbar3) if point is None else point
    ab, ac, bc, abc = v2 / (va * vb), v2 / (va * vc), v2 / (vb * vc), v3 / (va * vb * vc)
    if point is not None:
        return np.array([
            (1.0 + i * va + j * vb + k * vc + i * j * ab + i * k * ac + j * k * bc + i * j * k * abc) / 8.0
            for i, j, k in _SIGN_TRIPLES
        ])
    i, j, k = _SIGNS.reshape((3, 8) + (1,) * max(np.ndim(v2), np.ndim(v3)))
    return (
        1.0
        + i * va
        + j * vb
        + k * vc
        + i * j * ab
        + i * k * ac
        + j * k * bc
        + i * j * k * abc
    ) / 8.0


def sudbery(inv: InvariantSet3Q) -> SudberyInvariants:
    """Polynomial invariants I2..I6; I6 is the squared 3-tangle."""
    va, vb, vc = inv.vs
    i2 = (1.0 + va * va) / 2.0
    i3 = (1.0 + vb * vb) / 2.0
    i4 = (1.0 + vc * vc) / 2.0
    i5 = (1.0 + 3.0 * inv.vbar2) / 4.0
    quartic = va**4 + vb**4 + vc**4
    i6 = (
        1.0
        - 2.0 * inv.alpha
        - 2.0 * inv.beta
        + quartic
        + 4.0 * (inv.vbar2 + inv.vbar3)
    )
    return SudberyInvariants(i2, i3, i4, i5, i6)


def three_tangle_oracle(amps) -> float:
    """Squared 3-tangle from the Cayley hyperdeterminant of the amplitudes.

    tau = 4 |d1 - 2 d2 + 4 d3| over the 2x2x2 amplitude tensor; returns
    tau^2.  Ground truth for the polynomial route: 1 on GHZ, 0 on W.
    """
    a, n, _ = _checked_amplitudes(amps, None)
    if n != 3:
        raise ValueError("expected eight amplitudes")
    d1 = (
        a[0] ** 2 * a[7] ** 2
        + a[1] ** 2 * a[6] ** 2
        + a[2] ** 2 * a[5] ** 2
        + a[4] ** 2 * a[3] ** 2
    )
    d2 = (
        a[0] * a[7] * a[3] * a[4]
        + a[0] * a[7] * a[5] * a[2]
        + a[0] * a[7] * a[6] * a[1]
        + a[3] * a[4] * a[5] * a[2]
        + a[3] * a[4] * a[6] * a[1]
        + a[5] * a[2] * a[6] * a[1]
    )
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    tau = 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)
    return float(tau * tau)


def B_function(inv: InvariantSet3Q) -> float:
    """Boundary cubic in vbar3; pure states exist only where B <= 0.  Float
    vbars, or arrays of broadcastable shapes with each point's float bits."""
    a, b, g = inv.alpha, inv.beta, inv.gamma
    # np.float_power and Python's float ** k both call libm's pow, where
    # numpy's array ** k can differ in the last ulp; on a float, ** is
    # more than ten times faster
    point = _point(inv)
    if point is None:
        v2, v3, pw = inv.vbar2, inv.vbar3, np.float_power
    else:
        (v2, v3), pw = point, pow
    return (
        -pw(v3, 3)
        + (b + v2) * pw(v3, 2)
        + (a * pw(v2, 2) - 2.0 * b * v2 + g * (1.0 - a)) * v3
        + pw(v2, 4)
        - a * pw(v2, 3)
        + (b - 2.0 * g) * pw(v2, 2)
        - g * (1.0 - a) * v2
        + g * g
    )


def F_function(inv: InvariantSet3Q) -> float:
    """Product of the eight signed length combinations of one qubit's
    consistency vectors, expressed through the invariants."""
    va, vb, vc = inv.vs
    if min(va, vb, vc) < VANISHING_V:
        raise ValueError("F is undefined for vanishing Bloch lengths")
    g = inv.gamma
    return (g - inv.vbar2 * inv.vbar3) ** 2 / (4096.0 * g**3) * B_function(inv)


class FeasibilityReport(NamedTuple):
    """`feasibility`'s verdict, per point where vbar2 or vbar3 is an array.

    `feasible` holds where the lengths lie in [0, 1], `p_ok` (every
    expansion probability >= 0, or both vbars 0 with a vanishing Bloch
    vector) and `B_ok` (B <= 0), each up to the slack.  `probabilities` are
    `expansion_probabilities` (None where it cannot compute them, a Bloch
    length below VANISHING_V); `violations` names each failure on float
    vbars, and is empty on arrays.
    """

    feasible: bool | np.ndarray
    p_ok: bool | np.ndarray
    B: float | np.ndarray
    B_ok: bool | np.ndarray
    probabilities: np.ndarray | None
    violations: tuple[str, ...]


def feasibility(inv: InvariantSet3Q, slack: float = FEASIBILITY_SLACK) -> FeasibilityReport:
    """Existence test: lengths in [0, 1], probabilities nonnegative, B <= 0.

    Float vbar2 and vbar3, or arrays of broadcastable shapes with each
    point's float verdict and bits, as `expansion_probabilities`; a NaN
    probability or B fails its gate.
    """
    va, vb, vc = inv.vs
    violations = [f"v_{name} = {v} outside [0, 1]" for name, v in zip("abc", inv.vs) if not -slack <= v <= 1.0 + slack]
    vanishing = min(va * vb, va * vc, vb * vc) < VANISHING_V
    probs = None if vanishing and min(va, vb, vc) < VANISHING_V else expansion_probabilities(inv)
    b_val = B_function(inv)
    b_ok = b_val <= slack
    point = _point(inv)
    if point is None:
        # a grid tests each point's least probability: (8, N) flags slowed region-scan
        p_ok = ~((np.abs(inv.vbar2) > slack) | (np.abs(inv.vbar3) > slack)) if vanishing else probs.min(axis=0) >= -slack
        return FeasibilityReport(p_ok & b_ok & (not violations), p_ok, b_val, b_ok, probs, ())
    if vanishing:
        # vanishing vector: both correlation invariants must vanish with it
        # (a NaN one passes this gate and fails B's)
        p_ok = not (abs(point[0]) > slack or abs(point[1]) > slack)
        violations += [] if p_ok else ["nonzero vbar with a vanishing Bloch vector"]
    else:
        # one point tests each probability, so that the messages can name them
        failed = [f"p[{idx:03b}] = {p} < 0" for idx, p in enumerate(probs.tolist()) if not p >= -slack]
        p_ok = not failed
        violations += failed
    if not b_ok:
        violations.append(f"B = {b_val} > 0")
    return FeasibilityReport(not violations, p_ok, b_val, b_ok, probs, tuple(violations))


def _amplitudes_on_basis(probs_by_index: dict[int, float]) -> np.ndarray:
    amps = np.zeros(8)
    for idx, p in probs_by_index.items():
        # rounding can leave 1e-17 residue where a probability is an exact 0
        amps[idx] = np.sqrt(p) if p > PROB_FLOOR else 0.0
    return amps / np.linalg.norm(amps)


def seed_probabilities(va: float, vb: float, vc: float) -> dict[int, float]:
    """The four surviving probabilities of the seed point, keyed by basis
    index ({+++} -> 000, {+--} -> 011, {-+-} -> 101, {--+} -> 110)."""
    return {
        0b000: (1.0 + va + vb + vc) / 4.0,
        0b011: (1.0 + va - vb - vc) / 4.0,
        0b101: (1.0 - va + vb - vc) / 4.0,
        0b110: (1.0 - va - vb + vc) / 4.0,
    }


def negative_seed_probabilities(va: float, vb: float, vc: float) -> dict[int, float]:
    return {
        0b001: (1.0 + va + vb - vc) / 4.0,
        0b010: (1.0 + va - vb + vc) / 4.0,
        0b100: (1.0 - va + vb + vc) / 4.0,
        0b111: (1.0 - va - vb - vc) / 4.0,
    }


def zero_tangle_point(va: float, vb: float, vc: float) -> tuple[float, float]:
    """The (vbar2, vbar3) point solving I6 = 0 on the B = 0 boundary.

    Raises InfeasibleInvariantsError where no pure state has the lengths
    (`lengths_exist`) or where sum(v) < 1, where no zero-3-tangle state
    exists; otherwise f1, f2 and f3 below are >= 0 up to rounding.
    """
    _check_lengths(va, vb, vc)
    vsum = va + vb + vc
    if vsum < 1.0 - EXISTENCE_SLACK:
        raise InfeasibleInvariantsError(f"zero-3-tangle state needs sum(v) = {vsum} >= 1")
    a2, b2, c2 = va * va, vb * vb, vc * vc
    f1 = (1.0 + a2 - b2 - c2) / 2.0
    f2 = (1.0 - a2 + b2 - c2) / 2.0
    f3 = (1.0 - a2 - b2 + c2) / 2.0
    xi = float(np.sqrt(max(0.0, f1 * f2 * f3)))
    vbar2 = -(1.0 - a2 - b2 - c2) / 2.0 + xi
    vbar3 = 0.25 * (
        1.0 - a2 * a2 - b2 * b2 - c2 * c2 + 2.0 * (a2 * b2 + a2 * c2 + b2 * c2)
    ) - xi
    return vbar2, vbar3


def _check_range(va: float, vb: float, vc: float) -> None:
    for v in (va, vb, vc):
        if not 0.0 <= v <= 1.0 + RANGE_SLACK:
            raise ValueError(f"Bloch length {v} outside [0, 1]")


def lengths_exist(va: float, vb: float, vc: float) -> bool:
    """Whether some pure three-qubit state has reduced Bloch lengths
    (v_a, v_b, v_c): the polygon inequality v_a + v_b + v_c <= 1 + 2 v_min
    of Higuchi, Sudbery & Szulc, PRL 90, 107902 (2003)."""
    return va + vb + vc <= 1.0 + 2.0 * min(va, vb, vc) + EXISTENCE_SLACK


def _check_lengths(va: float, vb: float, vc: float) -> None:
    _check_range(va, vb, vc)
    if not lengths_exist(va, vb, vc):
        raise InfeasibleInvariantsError(
            f"no pure state has Bloch lengths ({va}, {vb}, {vc}): "
            "they break the polygon inequality v_a + v_b + v_c <= 1 + 2 v_min"
        )


def named_point(kind: str, va: float, vb: float, vc: float) -> tuple[float, float]:
    """The (vbar2, vbar3) coordinates of a named invariant point.

    kind: 'seed', 'negative_seed', 'max_tangle' or 'zero_tangle'.  Raises
    InfeasibleInvariantsError where the point does not exist: every kind
    needs `lengths_exist`; the negative seed also needs sum(v) <= 1, the
    maximum-3-tangle point v_min^2 >= v_a v_b v_c and the zero-3-tangle
    point sum(v) >= 1.
    """
    if kind not in ("seed", "negative_seed", "max_tangle", "zero_tangle"):
        raise ValueError(f"unknown special state kind {kind!r}")
    if kind == "zero_tangle":
        return zero_tangle_point(va, vb, vc)
    _check_lengths(va, vb, vc)
    vmin = min(va, vb, vc)
    vsum = va + vb + vc
    g = va * vb * vc
    tol = EXISTENCE_SLACK
    if kind == "seed":
        return g, g
    if kind == "negative_seed":
        if vsum > 1.0 + tol:
            raise InfeasibleInvariantsError(f"negative seed needs sum(v) = {vsum} <= 1")
        return -g, -g
    if vmin * vmin < g - tol:
        raise InfeasibleInvariantsError(f"maximum-3-tangle state needs v_min^2 >= {g}")
    return vmin * vmin, g**2 / (vmin * vmin)


def degenerate_limit(case: str, *, v_b: float | None = None, v_c: float | None = None) -> DensityOperator:
    """Limiting states with one or more reduced vectors vanishing.

    'two_vectors': v_a = 0, lengths (v_b, v_c) remain, needs v_b + v_c <= 1
    (`lengths_exist` at v_a = 0).
    'one_vector': v_a = v_b = 0, only v_c remains.
    'no_vectors': all vanish; the state is GHZ up to local rotations.
    Each is the seed-state limit with the corresponding lengths sent to 0.
    """
    if case == "two_vectors":
        if v_b is None or v_c is None:
            raise ValueError("two_vectors needs v_b and v_c")
        _check_lengths(0.0, v_b, v_c)
        probs = seed_probabilities(0.0, v_b, v_c)
    elif case == "one_vector":
        if v_c is None:
            raise ValueError("one_vector needs v_c")
        _check_range(0.0, 0.0, v_c)
        probs = seed_probabilities(0.0, 0.0, v_c)
    elif case == "no_vectors":
        probs = seed_probabilities(0.0, 0.0, 0.0)
    else:
        raise ValueError(f"unknown degenerate case {case!r}")
    return pure_state_from_amplitudes(_amplitudes_on_basis(probs))


def degenerate_i6(case: str, *, v_b: float = 0.0, v_c: float = 0.0) -> float:
    """Closed-form squared 3-tangle of the degenerate limits."""
    if case == "two_vectors":
        return (1.0 - v_c * v_c) ** 2 - 2.0 * (1.0 + v_c * v_c) * v_b * v_b + v_b**4
    if case == "one_vector":
        return (1.0 - v_c * v_c) ** 2
    if case == "no_vectors":
        return 1.0
    raise ValueError(f"unknown degenerate case {case!r}")
