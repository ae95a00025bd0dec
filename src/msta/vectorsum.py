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
quadratic in c (`_quadratics`), so their resultant in c, the eliminant, is
a polynomial of degree 7 in a alone, with a factor a^2 (`_roots`).  At each
of its roots near the unit circle `_starts` takes theta, phi_ac from E3,
psi from qubit a's sum and phi_bc from qubit b's; the starts that nearly
close the sums run Gauss-Newton (`_newton`), and `solve` adds the conjugate
of each root.  Near theta in {0, pi} a root and its conjugate nearly meet,
and rounding, or lengths with few correct digits near a product or W
state, can split the pair across the circle instead, to rho e^{i phi} and
e^{i phi}/rho; so when no start converges, each root starts again at
theta = phi + ln rho.
Every input also tries the sixteen {0, pi}^4 lattice points: the roots of
real-amplitude states, where the Jacobian is singular, and the stand-ins
for the starts where L1 L3 = 0 or the eliminant vanishes (boundary states,
states near a product or W state).  Every vector is real there, so the
Gauss-Newton step is zero up to rounding: a lattice point is kept, without
iterating, when it closes the sums below SOLVER_TOL.
Solutions come in conjugate pairs (negate every angle); boundary solutions
with all angles in {0, pi} are self-conjugate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .invariants import (
    InfeasibleInvariantsError,
    InvariantSet3Q,
    expansion_probabilities,
    feasibility,
)
from .states import DensityOperator, pure_state_from_amplitudes
from .tolerances import (
    DEDUP_RADIUS, ELIMINANT_TRIM, FEASIBILITY_SLACK, PROB_FLOOR, SNAP_RADIUS, SOLVER_TOL,
    START_TOL, SUM_TOL, UNIT_CIRCLE_TOL, ZERO_LENGTH,
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


def _wrap(angle) -> np.ndarray | float:
    """Map angles to (-pi, pi]; a zero comes out as +0."""
    # the negation alone would turn +0 into -0; adding +0 clears that sign
    return -((-np.asarray(angle) + np.pi) % TWO_PI - np.pi) + 0.0


def _in_range(angle: float) -> float:
    """One angle mapped to (-pi, pi]; an angle already there is kept bit for
    bit, where `_wrap` would round it."""
    return float(angle) if -np.pi < angle <= np.pi else float(_wrap(angle))


@dataclass(frozen=True)
class AngleSet:
    """The four free angles of the twelve consistency vectors, each mapped
    into (-pi, pi] when the set is built.

    They fix every vector's direction.  The primed ac and bc angles follow
    by the closure rules, which turn phi_ac and phi_bc by the same shift
    phi_ab' - phi_ab (module docstring).
    """

    phi_ab: float
    phi_ab_prime: float
    phi_ac: float
    phi_bc: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _in_range(getattr(self, f.name)))

    def _shifted(self, angle: float) -> float:
        # the shift is wrapped on its own, so that a zero shift leaves
        # `angle` as it is (a zero angle as +0)
        return _in_range(angle + float(_wrap(self.phi_ab_prime - self.phi_ab)))

    @property
    def phi_ac_prime(self) -> float:
        return self._shifted(self.phi_ac)

    @property
    def phi_bc_prime(self) -> float:
        return self._shifted(self.phi_bc)

    def free(self) -> np.ndarray:
        return np.array([self.phi_ab, self.phi_ab_prime, self.phi_ac, self.phi_bc])

    def as_tuple(self) -> tuple[float, ...]:
        """All six named angles, the primed ones after their unprimed."""
        return (
            self.phi_ab, self.phi_ab_prime, self.phi_ac, self.phi_ac_prime, self.phi_bc, self.phi_bc_prime
        )

    def negated(self) -> "AngleSet":
        return AngleSet(*(-self.free()))


def vector_lengths(probs) -> np.ndarray:
    """Lengths of the twelve vectors from the eight expansion probabilities.

    Length k is sqrt(p_i p_j) for the k-th sign-flip pair (i, j) of
    `_PAIRS`: qubit a's four pairs, then b's, then c's.
    Probabilities below PROB_FLOOR are treated as exact zeros: boundary
    states produce analytic zeros contaminated by rounding, and the square
    root would otherwise inflate that noise into unclosable vectors.
    """
    p = np.asarray(probs, dtype=float).ravel()
    if p.size != 8:
        raise ValueError("expected eight probabilities")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.min() < -FEASIBILITY_SLACK:
        raise ValueError(f"negative probability {p.min()}")
    p = np.where(p < PROB_FLOOR, 0.0, p)
    return np.sqrt(p[_PAIRS].prod(axis=1))


def _vectors(lengths: np.ndarray, free_angles) -> np.ndarray:
    """The twelve complex vectors L_k exp(i angle_k) at the given free
    angles, shape (..., 4) in, (..., 12) out."""
    return lengths * np.exp(1j * (np.asarray(free_angles, dtype=float) @ _ANGLE_MATRIX.T))


def _sums(vecs: np.ndarray) -> np.ndarray:
    """The six components of the three per-qubit sums of `_vectors`."""
    return vecs.reshape(vecs.shape[:-1] + (3, 4)).sum(axis=-1).view(np.float64)


def residual(lengths, free_angles) -> np.ndarray:
    """Six components (x_a, y_a, x_b, y_b, x_c, y_c) of the three planar
    sums at the given free angles, broadcast over their leading axes:
    shape (..., 4) in, (..., 6) out."""
    return _sums(_vectors(lengths, free_angles))


# d residual / d free angles from the vectors: the x row of qubit g is
# -sum_k Im(v_k) A_k and its y row sum_k Re(v_k) A_k over g's four vectors,
# so the Jacobian is one real (24, 24) map of the vectors' float view
_JACOBIAN_MAP = np.zeros((12, 2, 3, 2, 4))
_JACOBIAN_MAP[np.arange(12), 1, np.arange(12) // 4, 0] = -_ANGLE_MATRIX
_JACOBIAN_MAP[np.arange(12), 0, np.arange(12) // 4, 1] = _ANGLE_MATRIX
_JACOBIAN_MAP = _JACOBIAN_MAP.reshape(24, 24)


def _jacobian(vecs: np.ndarray) -> np.ndarray:
    """d residual / d free angles at the vectors `vecs` (S, 12): (S, 6, 4)."""
    return (vecs.view(np.float64) @ _JACOBIAN_MAP).reshape(len(vecs), 6, 4)


def _step(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares step -pinv(J) r for each row of a
    (S, M, N) Jacobian stack and (S, M) residuals, without forming pinv.

    From the thin SVD J = U diag(s) V^T it is V (s^-1 U^T (-r)), with
    pinv's own cutoff (`rtol=None`): singular values at most
    max(M, N) eps s_max count as zero, so a rank-deficient J (a lattice
    point) gets the same step as from `np.linalg.pinv`."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    large = s > max(jac.shape[-2:]) * np.finfo(float).eps * s[:, :1]
    coef = np.divide((-r[:, None, :] @ u)[:, 0, :], s, out=np.zeros(s.shape), where=large)
    return (coef[:, None, :] @ vt)[:, 0, :]


def _newton(lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The converged iterates of damped Gauss-Newton from each start, in
    start order, each polished to full precision.

    All starts advance together, for at most ``_MAX_ITER`` iterations.
    Each takes the minimum-norm least-squares step (`_step`: from the SVD
    of the Jacobian, as pinv would give it) at the first length in 1, 1/2,
    ..., 2^(1 - _MAX_HALVINGS) that lowers its max-abs residual; the
    shorter lengths are only tried, in one array pass, by the starts whose
    full step failed.  Each iterate carries its twelve vectors, computed
    once when it is tried: the residual is their per-qubit sums and the
    Jacobian a fixed linear map of them.  Once the residual is below
    SOLVER_TOL a start takes full steps only, and it retires at the first
    step that does not strictly lower the residual: stopping at SOLVER_TOL
    would leave an ill-conditioned root up to residual / sigma_min(J)
    away, 1e-7 at sigma_min = 1e-4.  Starts that no step length improves
    retire too.
    """
    x = np.array(starts, dtype=float)
    v = _vectors(lengths, x)
    r = _sums(v)
    rnorm = np.abs(r).max(axis=-1)
    active = np.ones(len(x), dtype=bool)
    ladder = 0.5 ** np.arange(1, _MAX_HALVINGS)[:, None, None]
    for _ in range(_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        step = _step(_jacobian(v[idx]), r[idx])
        cand = x[idx] + step
        vc = _vectors(lengths, cand)
        rc = _sums(vc)
        rcn = np.abs(rc).max(axis=-1)
        ok = rcn < rnorm[idx]
        short = np.flatnonzero(~ok & (rnorm[idx] >= SOLVER_TOL))
        if short.size:
            cands = x[idx[short]] + ladder * step[short]
            vcs = _vectors(lengths, cands)
            rcs = _sums(vcs)
            rcns = np.abs(rcs).max(axis=-1)
            better = rcns < rnorm[idx[short]]
            pick = better.argmax(axis=0), np.arange(short.size)
            cand[short], vc[short], rc[short], rcn[short] = cands[pick], vcs[pick], rcs[pick], rcns[pick]
            ok[short] = better.any(axis=0)
        moved = idx[ok]
        x[moved], v[moved], r[moved], rnorm[moved] = cand[ok], vc[ok], rc[ok], rcn[ok]
        active[idx[~ok]] = False
    return x[rnorm < SOLVER_TOL]


@functools.cache
def _inverse_dft() -> tuple[np.ndarray, np.ndarray]:
    """The 16th roots of unity, more than the eliminant's degree, and the
    matrix taking a polynomial from its values there to its coefficients,
    lowest first."""
    k = np.arange(16)
    return np.exp(TWO_PI * 1j * k / 16), np.exp(-TWO_PI * 1j * np.outer(k, k) / 16) / 16


def _quadratics(lengths: np.ndarray, a: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """P1's and E3's coefficients of c^2, c and 1 at the points a (module
    docstring): (p2, p1, p0), (q2, q1, q0)."""
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11 = lengths
    s0, t0, b0 = l0 + l2 * a, l0 * a + l2, l4 + l6 * a
    g, h = l3 * l5 - l7 * l1, -l7 * s0
    p = (-l11 * l1 * b0 - l10 * g * a, b0 * (l3 * l9 * a - l11 * s0) - (l8 * g + l10 * h) * a, -l8 * h * a)
    return p, (l1 * t0, t0 * s0 + (l1 * l1 - l3 * l3) * a, l1 * s0 * a)


def _roots(lengths: np.ndarray) -> np.ndarray:
    """The eliminant's roots within UNIT_CIRCLE_TOL of the unit circle in
    log radius; none when L1 L3 = 0 (E3 loses its c^2 term, or is |S|^2) or
    the eliminant vanishes or is not finite."""
    if lengths[1] * lengths[3] == 0.0:
        return np.empty(0, dtype=complex)
    points, inverse = _inverse_dft()
    (p2, p1, p0), (q2, q1, q0) = _quadratics(lengths, points)
    u, v, w = p2 * q0 - p0 * q2, p2 * q1 - p1 * q2, p1 * q0 - p0 * q1
    coef = (inverse @ (u * u - v * w)).real
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


def _starts(lengths: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The free angles at each theta: phi_ac from each of E3's two roots c
    (all the + roots, then the - ones), psi from qubit a's sum and phi_bc
    from qubit b's."""
    theta = np.tile(theta, 2)
    a = np.exp(1j * theta)
    _, (q2, q1, q0) = _quadratics(lengths, a)
    c = (np.sqrt(q1 * q1 - 4.0 * q2 * q0) * np.repeat([1.0, -1.0], len(a) // 2) - q1) / (2.0 * q2)
    phi_ac = np.angle(c)
    psi = np.angle(-(lengths[0] + lengths[1] * np.exp(1j * phi_ac) + lengths[2] * a)) - phi_ac
    phi_bc = np.angle(-(lengths[4] + lengths[6] * a)) - np.angle(lengths[5] + lengths[7] * np.exp(1j * psi))
    return np.stack([theta, psi, phi_ac, phi_bc], axis=-1)


def _distinct(points: np.ndarray) -> np.ndarray:
    """Each point farther than DEDUP_RADIUS (per angle, modulo 2 pi) from
    every earlier kept point, in order."""
    near = np.abs(_wrap(points[:, None] - points[None, :])).max(axis=-1) < DEDUP_RADIUS
    keep: list[int] = []
    for i in range(len(points)):
        if not near[i, keep].any():
            keep.append(i)
    return points[keep]


def solve(lengths) -> list[AngleSet]:
    """All distinct angle assignments closing the three vector sums.

    Deterministic: damped Gauss-Newton with a Newton polish (`_newton`) from
    the eliminant's roots (`_roots`, `_starts`, module docstring), joined by
    the {0, pi}^4 lattice points that close the sums; roots near the lattice
    snap onto it.  The solutions are deduplicated modulo 2 pi, completed
    with their sign-flipped conjugates, and deterministically ordered.  An
    empty list means no root: genuinely infeasible lengths, or a solver
    failure if feasibility said a state exists.  Non-finite lengths raise
    ValueError.
    """
    lengths = np.asarray(lengths, dtype=float).ravel()
    if lengths.size != 12:
        raise ValueError("expected twelve lengths")
    if not np.isfinite(lengths).all():
        raise ValueError("lengths must be finite")
    if lengths.min() < -ZERO_LENGTH:
        raise ValueError("lengths must be nonnegative")
    if lengths.max() < ZERO_LENGTH:
        return [AngleSet(0.0, 0.0, 0.0, 0.0)]

    # the Gauss-Newton step is zero at a lattice point (module docstring)
    lattice = _LATTICE[np.abs(residual(lengths, _LATTICE)).max(axis=-1) < SOLVER_TOL]
    roots = _roots(lengths)
    starts = _starts(lengths, np.angle(roots))
    near = np.abs(residual(lengths, starts)).max(axis=-1) < START_TOL * lengths.max()
    x = _newton(lengths, starts[near])
    if not len(x) and not len(lattice):
        # a near-double root split across the circle (module docstring)
        x = _newton(lengths, _starts(lengths, np.angle(roots) + np.log(np.abs(roots))))
    x = np.vstack([x, lattice])

    # boundary solutions are exact {0, pi} lattice points with a singular
    # Jacobian; snap nearby converged iterates so the flat valley around a
    # line solution does not smear into duplicates
    snapped = np.round(x / np.pi) * np.pi
    snap = (np.abs(_wrap(x - snapped)).max(axis=-1) < SNAP_RADIUS) & (
        np.abs(residual(lengths, snapped)).max(axis=-1) < SOLVER_TOL
    )
    found = _distinct(_wrap(np.where(snap[:, None], snapped, x)))
    # conjugate completion: negating every angle preserves the sums
    found = _distinct(np.vstack([found, _wrap(-found)]))

    sols = [AngleSet(*p) for p in found]
    # ordered by the six named angles rounded to 1e-9, the first one first
    six = np.round([s.as_tuple() for s in sols], 9).reshape(-1, 6)
    return [sols[i] for i in np.lexsort(six.T[::-1])]


def reconstruct(inv: InvariantSet3Q, angles: AngleSet, axes=None) -> DensityOperator:
    """Assemble the pure state fixed by invariants plus solved angles.

    The expansion probabilities give the amplitude moduli and the free
    angles the phases (`_PHASE_MATRIX`), so every vector points along its
    pair's phase difference.  The result is pure by construction and
    reproduces the input invariants.
    """
    report = feasibility(inv)
    if not report.feasible:
        raise InfeasibleInvariantsError("; ".join(report.violations))
    if not np.isfinite(angles.as_tuple()).all():
        raise ValueError(f"angles must be finite, got {angles.as_tuple()}")
    probs = expansion_probabilities(inv)
    lengths = vector_lengths(probs)
    res = np.abs(residual(lengths, angles.free())).max()
    if res > SUM_TOL:
        raise ValueError(f"angles do not close the vector sums (residual {res})")
    amps = np.sqrt(np.clip(probs, 0.0, None)) * np.exp(1j * (_PHASE_MATRIX @ angles.free()))
    amps = amps / np.linalg.norm(amps)
    return pure_state_from_amplitudes(amps, axes=axes)
