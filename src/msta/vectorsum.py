"""Planar vector-sum equations for three-qubit pure-state consistency.

The eight expansion basis states i = (a b c) in binary carry probabilities
p_i and phases.  Each of the twelve consistency vectors joins two basis
states that differ in one qubit's sign, i and j = i | bit (`_PAIRS`: qubit
a's four pairs, then b's, then c's): its length is sqrt(p_i p_j) and its
direction the phase of j less the phase of i.  The phases of 000, 100, 010
and 001 are the references, zero; those of 110, 101 and 011 are phi_ab,
phi_ac and phi_bc, and that of 111 is phi_ab' + phi_ac + phi_bc
(`_PHASE_MATRIX`).  So four free angles

    (theta, psi, phi_ac, phi_bc) = (phi_ab, phi_ab', phi_ac, phi_bc)

fix every direction, and the other two named angles follow by the closure
rules phi_ac' = phi_ac + phi_ab' - phi_ab and phi_bc' = phi_bc + phi_ab' -
phi_ab.  A pure state requires the four vectors of every qubit to sum to
zero: six scalar equations.

With lengths L0..L11 in `vector_lengths` order, a = e^{i theta},
c = e^{i phi_ac}, d = e^{i phi_bc} and w = e^{i (psi + phi_ac + phi_bc)},
the sums of qubits a, b and c are L0 + L1 c + L2 a + L3 w/d,
L4 + L5 d + L6 a + L7 w/c and L8 + L9 d + L10 c + L11 w/a.  The first
fixes w/d = -S/L3 with S = L0 + L1 c + L2 a; the other two are then linear
in d and agree where their determinant P1(a, c) vanishes, and |w/d| = 1
reads E3(a, c) = ac (|S|^2 - L3^2) = 0 on the unit circle.  Both are
quadratic in c, with coefficients quadratic in a (`_coefficients`, built
once, evaluated by one product with [1, a, a^2]), so their resultant in c,
the eliminant, is of degree 7 in a alone, with a factor a^2 (`_roots`).
Its coefficients are real, so its roots and the solutions come in
conjugate pairs: at each root near the unit circle with Im a >= 0,
`_starts` takes theta, phi_ac from E3, psi from qubit a's sum and phi_bc
from qubit b's; Gauss-Newton (`_newton`) polishes each start that nearly
closes the sums, and `solve` adds the conjugates (every angle negated).  Near
theta in {0, pi} rounding, or lengths with few correct digits near a product
or W state, can split a pair across the circle, to rho e^{i phi} and
e^{i phi}/rho; so when no start converges, each root restarts at phi + ln rho.
Every input also tries the sixteen {0, pi}^4 lattice points: the roots of
real-amplitude states, where the Jacobian is singular, and the stand-ins
for the starts where L1 L3 = 0 or the eliminant vanishes (boundary states,
states near a product or W state).  A lattice point is self-conjugate, and
every vector is real there, so the Gauss-Newton step is zero up to rounding:
one that closes the sums (`_closing_lattice`) is kept without iterating, and
stands for every iterate within SNAP_RADIUS of it, so that a line solution's
flat valley does not smear into duplicates.

Per state the solver does its arithmetic on Python floats and complex
numbers; numpy does only the eliminant's samples and `eigvals` (`_roots`),
one SVD per Gauss-Newton step (`_step`) and the lattice screen.

`reconstruct` builds the state from the invariants and one solution, and
`special_state` the states of the named invariant points.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .invariants import (
    FeasibilityReport, InfeasibleInvariantsError, InvariantSet3Q, _amplitudes_on_basis, feasibility,
    named_point, negative_seed_probabilities, seed_probabilities,
)
from .states import DensityOperator, pure_state_from_amplitudes
from .tolerances import (
    DEDUP_RADIUS, ELIMINANT_TRIM, FEASIBILITY_SLACK, PROB_FLOOR, SNAP_RADIUS,
    SOLVER_TOL, START_TOL, SUM_FLOOR, SUM_TOL, UNIT_CIRCLE_TOL, ZERO_LENGTH,
)

TWO_PI = 2.0 * np.pi

# the solver's fixed budget: Gauss-Newton iterations and step halvings
_MAX_ITER = 200
_MAX_HALVINGS = 40

_LATTICE = np.pi * np.array(list(itertools.product((0.0, 1.0), repeat=4)))

# the twelve sign-flip pairs (i, j = i | bit) of basis states, qubit a's
# (bit 4), then b's, then c's, each in increasing i
_PAIRS = np.array([(i, i | bit) for bit in (4, 2, 1) for i in range(8) if not i & bit])
# the phase of each basis state as a combination of the four free angles
# (phi_ab, phi_ab', phi_ac, phi_bc); 000, 100, 010 and 001 are references
_PHASE_MATRIX = np.zeros((8, 4))
_PHASE_MATRIX[0b110, 0] = _PHASE_MATRIX[0b101, 2] = _PHASE_MATRIX[0b011, 3] = 1.0
_PHASE_MATRIX[0b111, 1:] = 1.0
# a vector's angle is the phase difference of its pair
_ANGLE_MATRIX = _PHASE_MATRIX[_PAIRS[:, 1]] - _PHASE_MATRIX[_PAIRS[:, 0]]
# the turns e^{i angle} of the twelve vectors at each lattice point: the
# real parts, exactly +-1
_LATTICE_TURNS = np.exp(1j * (_LATTICE @ _ANGLE_MATRIX.T)).real
# the same turns as Python floats, for `_closing_lattice`
_LATTICE_SIGNS = _LATTICE_TURNS.tolist()
# the eliminant's sample points, the 16th roots of unity (more than its
# degree); the matrix taking a polynomial from its values there to its
# coefficients, lowest first; and [1, a, a^2] at the samples, as floats
_SAMPLES = np.exp(TWO_PI * 1j * np.arange(16) / 16)
_INVERSE_DFT = np.exp(-TWO_PI * 1j * np.outer(np.arange(16), np.arange(16)) / 16) / 16
_SAMPLE_POWERS = (_SAMPLES ** np.arange(3)[:, None]).view(np.float64)


def _wrap(angle) -> np.ndarray | float:
    """Map angles (an array, or a float by Python's %, which rounds as
    numpy's does) to (-pi, pi]; a zero comes out as +0."""
    # pi - m with m = (pi - angle) mod 2 pi in [0, 2 pi) is never -0
    return np.pi - (np.pi - angle) % TWO_PI


def _in_range(angle: float) -> float:
    """One angle mapped to (-pi, pi] as a Python float; an angle already
    there is kept bit for bit, where `_wrap` would round it."""
    angle = float(angle)
    return angle if -np.pi < angle <= np.pi else _wrap(angle)


@dataclass(frozen=True)
class AngleSet:
    """The four free angles of the twelve consistency vectors, each mapped
    into (-pi, pi] when the set is built.  They fix every vector's direction;
    the primed ac and bc angles follow by the closure rules, which turn
    phi_ac and phi_bc by the same shift phi_ab' - phi_ab (module docstring).
    """

    phi_ab: float
    phi_ab_prime: float
    phi_ac: float
    phi_bc: float

    def __post_init__(self) -> None:
        for name, angle in vars(self).items():
            object.__setattr__(self, name, _in_range(angle))

    @property
    def phi_ac_prime(self) -> float:
        return self.as_tuple()[3]

    @property
    def phi_bc_prime(self) -> float:
        return self.as_tuple()[5]

    def free(self) -> np.ndarray:
        return np.array([self.phi_ab, self.phi_ab_prime, self.phi_ac, self.phi_bc])

    def as_tuple(self) -> tuple[float, ...]:
        """All six named angles, the primed ones after their unprimed."""
        # the shift is wrapped on its own: a zero shift keeps an angle, a zero as +0
        shift = _wrap(self.phi_ab_prime - self.phi_ab)
        ac, bc = self.phi_ac, self.phi_bc
        return self.phi_ab, self.phi_ab_prime, ac, _in_range(ac + shift), bc, _in_range(bc + shift)


def vector_lengths(probs) -> np.ndarray:
    """Lengths of the twelve vectors from the eight expansion probabilities:
    sqrt(p_i p_j) for each sign-flip pair (i, j) of `_PAIRS`.

    Probabilities below PROB_FLOOR are exact zeros: boundary states leave
    rounding there, whose square root would make vectors that cannot close.
    """
    p = np.asarray(probs, dtype=float).ravel().tolist()
    if len(p) != 8:
        raise ValueError("expected eight probabilities")
    if not all(map(math.isfinite, p)):
        raise ValueError("probabilities must be finite")
    if min(p) < -FEASIBILITY_SLACK:
        raise ValueError(f"negative probability {min(p)}")
    p = [0.0 if q < PROB_FLOOR else q for q in p]
    return np.array([math.sqrt(p[i] * p[j]) for i, j in _PAIRS.tolist()])


def _vectors(lengths: list[float], x) -> list[complex]:
    """The twelve vectors L_k e^{i angle_k} at one point x of free angles,
    each angle summed from x alone, so no other point changes its bits."""
    t, p, ac, bc = x
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11 = lengths
    rect = cmath.rect
    return [l0, rect(l1, ac), rect(l2, t), rect(l3, p + ac), l4, rect(l5, bc), rect(l6, t), rect(l7, p + bc),
            l8, rect(l9, bc), rect(l10, ac), rect(l11, (p - t) + (ac + bc))]


def _sums(v: list[complex]) -> list[float]:
    """The six components of the three per-qubit sums of `_vectors`, four
    vectors added as numpy adds them, (v0 + v1) + (v2 + v3)."""
    a, b, c = ((v[g] + v[g + 1]) + (v[g + 2] + v[g + 3]) for g in (0, 4, 8))
    return [a.real, a.imag, b.real, b.imag, c.real, c.imag]


def residual(lengths, free_angles) -> np.ndarray:
    """Six components (x_a, y_a, x_b, y_b, x_c, y_c) of the three planar
    sums at the given free angles, broadcast over their leading axes:
    shape (..., 4) in, (..., 6) out."""
    vecs = lengths * np.exp(1j * (np.asarray(free_angles, dtype=float) @ _ANGLE_MATRIX.T))
    return vecs.reshape(vecs.shape[:-1] + (3, 4)).sum(axis=-1).view(np.float64)


def _step(jac, r) -> list[float]:
    """The minimum-norm least-squares step -pinv(J) r for one (M, N)
    Jacobian and M residuals, without forming pinv: V (s^-1 U^T (-r)) from
    the thin SVD J = U diag(s) V^T, with pinv's cutoff (singular values at
    most max(M, N) eps s_max are zero), so a rank-deficient J (a lattice
    point) gets pinv's step.  Each dot product is rounded once (`math.fsum`),
    on every Python version."""
    u, s, vt = (m.tolist() for m in np.linalg.svd(jac, full_matrices=False))
    cut = max(len(u), len(vt[0])) * sys.float_info.epsilon * s[0]
    coef = [-math.fsum(map(float.__mul__, r, col)) / sk if sk > cut else 0.0 for col, sk in zip(zip(*u), s)]
    return [math.fsum(map(float.__mul__, coef, row)) for row in zip(*vt)]


def _newton(lengths, starts, limit: float = math.inf) -> np.ndarray:
    """The converged iterates of damped Gauss-Newton from each start whose
    max-abs residual is below ``limit``, in start order, each polished to
    full precision.

    Each start iterates alone, on Python floats, so an iterate does not
    depend on the other starts: at most ``_MAX_ITER`` minimum-norm
    least-squares steps (`_step`, numpy's one SVD each), taken at the first
    length in 1, 1/2, ..., 2^(1 - _MAX_HALVINGS) that lowers the max-abs
    residual, below SOLVER_TOL at full length only.  An iterate carries its
    twelve vectors: the residual is their per-qubit sums and the Jacobian a
    linear map of them.  A start retires at the first step that does not
    strictly lower its residual, or once a full step takes it to the
    rounding of `_sums` (SUM_FLOOR times the longest length), where a
    residual certifies nothing more.  Stopping at SOLVER_TOL instead would
    leave an ill-conditioned root up to residual / sigma_min(J) away.
    """
    lengths = list(map(float, lengths))
    floor = SUM_FLOOR * max(lengths)
    out = []
    for x in np.asarray(starts, dtype=float).reshape(-1, 4).tolist():
        v = _vectors(lengths, x)
        r = _sums(v)
        rnorm = max(map(abs, r))
        if not rnorm < limit:
            continue
        for _ in range(_MAX_ITER):
            # d residual / d free angles: the x row of a qubit is -sum_k Im(v_k) A_k
            # and its y row sum_k Re(v_k) A_k over its four vectors (`_ANGLE_MATRIX`)
            _, v1, v2, v3, _, v5, v6, v7, _, v9, v10, v11 = v
            a, b, c, d = v1 + v3, v5 + v7, v10 + v11, v9 + v11
            step = _step([
                [-v2.imag, -v3.imag, -a.imag, 0.0], [v2.real, v3.real, a.real, 0.0],
                [-v6.imag, -v7.imag, 0.0, -b.imag], [v6.real, v7.real, 0.0, b.real],
                [v11.imag, -v11.imag, -c.imag, -d.imag], [-v11.real, v11.real, c.real, d.real],
            ], r)
            # the full step, then (above SOLVER_TOL) the first halved one that lowers the residual
            for k in range(_MAX_HALVINGS if rnorm >= SOLVER_TOL else 1):
                cand = [xi + 0.5**k * si for xi, si in zip(x, step)]
                vc = _vectors(lengths, cand)
                rc = _sums(vc)
                rcn = max(map(abs, rc))
                if rcn < rnorm:
                    break
            else:
                break
            x, v, r, rnorm = cand, vc, rc, rcn
            if not k and rnorm <= floor:
                break
        if rnorm < SOLVER_TOL:
            out.append(x)
    return np.array(out).reshape(-1, 4)


def _closing_lattice(lengths) -> np.ndarray:
    """The rows of `_LATTICE` whose real sums close below SOLVER_TOL, on
    Python floats: each qubit's sum of its four turned lengths t_k = +-l_k
    (exact) is added as (t0 + t1) + (t2 + t3), the pairwise order of numpy's
    complex sum, so it is its real part bit for bit.  Each qubit screens
    only the points the ones before it kept."""
    kept = range(len(_LATTICE))
    for i in (0, 4, 8):
        l0, l1, l2, l3 = lengths[i : i + 4]
        kept = [
            k for k in kept
            if abs((_LATTICE_SIGNS[k][i] * l0 + _LATTICE_SIGNS[k][i + 1] * l1)
                   + (_LATTICE_SIGNS[k][i + 2] * l2 + _LATTICE_SIGNS[k][i + 3] * l3)) < SOLVER_TOL
        ]
        if not kept:
            return _LATTICE[:0]
    return _LATTICE[kept]


def _coefficients(lengths: np.ndarray) -> np.ndarray:
    """P1's and E3's coefficients of c^2, c and 1 (rows p2, p1, p0, q2, q1,
    q0), each a quadratic in a with its a^k term in column k."""
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11 = lengths.tolist()
    g, m = l3 * l5 - l7 * l1, l3 * l9 - l11 * l2
    return np.array([
        (-l11 * l1 * l4, -l11 * l1 * l6 - l10 * g, 0.0),
        (-l11 * l4 * l0, l4 * m - l11 * l6 * l0 - l8 * g + l10 * l7 * l0, l6 * m + l10 * l7 * l2),
        (0.0, l8 * l7 * l0, l8 * l7 * l2),
        (l1 * l2, l1 * l0, 0.0),
        (l0 * l2, l0 * l0 + l1 * l1 + l2 * l2 - l3 * l3, l0 * l2),
        (0.0, l1 * l0, l1 * l2),
    ])


def _roots(lengths: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """The roots of `quad`'s eliminant within UNIT_CIRCLE_TOL of the unit
    circle in log radius; none when L1 L3 = 0 (E3 loses its c^2 term, or is
    |S|^2) or the eliminant vanishes or is not finite."""
    if lengths[1] * lengths[3] == 0.0:
        return np.empty(0, dtype=complex)
    # u, v, w = p2 q0 - p0 q2, p2 q1 - p1 q2, p1 q0 - p0 q1 as one product
    pairs = quad[[0, 0, 1, 5, 4, 5, 2, 1, 2, 3, 3, 4]]
    left, right, left_, right_ = (pairs @ _SAMPLE_POWERS).view(complex).reshape(4, 3, -1)
    u, v, w = left * right - left_ * right_
    coef = (_INVERSE_DFT @ (u * u - v * w)).real
    # rounding of the terms the samples were made of, at either end; a
    # power of a there has no root on the circle
    kept = np.flatnonzero(np.abs(coef) > ELIMINANT_TRIM * np.max(np.abs(u) ** 2 + np.abs(v * w)))
    if kept.size < 2 or not np.isfinite(coef).all():
        return np.empty(0, dtype=complex)
    coef = coef[kept[0] : kept[-1] + 1]
    companion = np.eye(len(coef) - 1, k=-1)
    companion[:, -1] = -coef[:-1] / coef[-1]
    roots = np.linalg.eigvals(companion)
    return roots[np.abs(np.log(np.abs(roots))) < UNIT_CIRCLE_TOL]


def _starts(lengths, theta, quad: np.ndarray) -> np.ndarray:
    """The free angles at each theta: phi_ac from each of E3's two roots c
    (E3 from `quad`; all the + roots, then the - ones), psi from qubit a's
    sum and phi_bc from qubit b's."""
    l0, l1, l2, _, l4, l5, l6, l7 = map(float, lengths[:8])
    e3 = quad[3:].tolist()
    rows: list[list[float]] = [[], []]
    for t in theta:
        a = cmath.rect(1.0, t)
        q2, q1, q0 = (k0 + k1 * a + k2 * (a * a) for k0, k1, k2 in e3)
        root = cmath.sqrt(q1 * q1 - 4.0 * q2 * q0)
        for out, sign in zip(rows, (1.0, -1.0)):
            phi_ac = cmath.phase((sign * root - q1) / (2.0 * q2))
            psi = cmath.phase(-(l0 + cmath.rect(l1, phi_ac) + cmath.rect(l2, t))) - phi_ac
            phi_bc = cmath.phase(-(l4 + cmath.rect(l6, t))) - cmath.phase(l5 + cmath.rect(l7, psi))
            out.append([t, psi, phi_ac, phi_bc])
    return np.array(rows[0] + rows[1]).reshape(-1, 4)


def _distance(p, q) -> float:
    """The largest per-angle distance of two points, modulo 2 pi."""
    return max(abs(_wrap(a - b)) for a, b in zip(p, q))


def _distinct(points: list[list[float]]) -> list[list[float]]:
    """The wrapped points, then their conjugates (every angle negated), each
    kept when farther than DEDUP_RADIUS (per angle, modulo 2 pi) from every
    earlier kept one; a conjugate only when its point was kept."""
    found = points + [[_wrap(-a) for a in p] for p in points]
    keep: list[int] = []
    for i, p in enumerate(found):
        if (i < len(points) or i - len(points) in keep) and all(_distance(p, found[j]) >= DEDUP_RADIUS for j in keep):
            keep.append(i)
    return [found[i] for i in keep]


def solve(lengths) -> list[AngleSet]:
    """All distinct angle assignments closing the three vector sums.

    Deterministic: Gauss-Newton (`_newton`) from the eliminant's roots in the
    upper half plane (`_roots`, `_starts`), joined by the closing lattice
    points, which replace the iterates near them (module docstring).  The
    solutions are completed with their conjugates, deduplicated modulo 2 pi
    and ordered.  An empty list means no root: infeasible lengths, or a
    solver failure if feasibility said a state exists.  Non-finite lengths
    raise ValueError.
    """
    array = np.asarray(lengths, dtype=float).ravel()
    lengths = array.tolist()
    if len(lengths) != 12:
        raise ValueError("expected twelve lengths")
    if not all(map(math.isfinite, lengths)):
        raise ValueError("lengths must be finite")
    if min(lengths) < -ZERO_LENGTH:
        raise ValueError("lengths must be nonnegative")
    if max(lengths) < ZERO_LENGTH:
        return [AngleSet(0.0, 0.0, 0.0, 0.0)]

    lattice = _closing_lattice(lengths).tolist()
    quad = _coefficients(array)
    roots = _roots(array, quad).tolist()
    # the lower half's roots give the conjugate solutions (module docstring)
    starts = _starts(lengths, [cmath.phase(a) for a in roots if a.imag >= 0.0], quad)
    x = _newton(lengths, starts, START_TOL * max(lengths)).tolist()
    if lattice:
        # a closing lattice point stands for the iterates near it (module docstring)
        x = [p for p in x if all(_distance(p, q) >= SNAP_RADIUS for q in lattice)]
    elif not x:
        # a near-double root split across the circle (module docstring)
        x = _newton(lengths, _starts(lengths, [cmath.phase(a) + math.log(abs(a)) for a in roots], quad)).tolist()
    sols = [AngleSet(*p) for p in _distinct([[_wrap(a) for a in p] for p in x + lattice])]
    # ordered by the six named angles rounded to 1e-9 as np.round rounds, the first one first
    return sorted(sols, key=lambda s: [round(a * 1e9) for a in s.as_tuple()])


def reconstruct(inv: InvariantSet3Q, angles: AngleSet, axes=None) -> DensityOperator:
    """Assemble the pure state fixed by invariants plus solved angles.

    The expansion probabilities give the amplitude moduli and the free
    angles the phases (`_PHASE_MATRIX`), so every vector points along its
    pair's phase difference.  The result is pure by construction and
    reproduces the input invariants.
    """
    return _assemble(_feasible_report(inv), angles, axes)


def _feasible_report(inv: InvariantSet3Q) -> FeasibilityReport:
    report = feasibility(inv)
    if not report.feasible:
        raise InfeasibleInvariantsError("; ".join(report.violations))
    return report


def _assemble(report: FeasibilityReport, angles: AngleSet, axes=None) -> DensityOperator:
    if not all(map(math.isfinite, angles.as_tuple())):
        raise ValueError(f"angles must be finite, got {angles.as_tuple()}")
    if report.probabilities is None:
        raise ValueError("expansion probabilities require nonvanishing Bloch lengths")
    free = angles.free()
    res = max(map(abs, _sums(_vectors(vector_lengths(report.probabilities).tolist(), free.tolist()))))
    if res > SUM_TOL:
        raise ValueError(f"angles do not close the vector sums (residual {res})")
    amps = np.sqrt(np.clip(report.probabilities, 0.0, None)) * np.exp(1j * (_PHASE_MATRIX @ free))
    amps = amps / np.linalg.norm(amps)
    return pure_state_from_amplitudes(amps, axes=axes)


def special_state(kind: str, va: float, vb: float, vc: float) -> tuple[InvariantSet3Q, DensityOperator]:
    """Construct one of the named invariant points and a state realising it.

    kind and the existence conditions are those of `named_point`.  The seed
    and negative seed are built from their four basis probabilities, the
    other two through the vector-sum solver.
    """
    inv = InvariantSet3Q(va, vb, vc, *named_point(kind, va, vb, vc))
    if kind in ("seed", "negative_seed"):
        probs = (seed_probabilities if kind == "seed" else negative_seed_probabilities)(va, vb, vc)
        return inv, pure_state_from_amplitudes(_amplitudes_on_basis(probs))
    # one report at FEASIBILITY_SLACK decides, the slack `vector_lengths` takes
    report = _feasible_report(inv)
    solutions = solve(vector_lengths(report.probabilities))
    if not solutions:
        raise RuntimeError("vector-sum solver found no solution for a feasible point")
    return inv, _assemble(report, solutions[0])
