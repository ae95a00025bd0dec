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

With lengths L0..L11 in `vector_lengths` order, qubit a's sum is
A + e^{i phi_ac} (L1 + L3 e^{i psi}) with A = L0 + L2 e^{i theta}: a
triangle with sides |A|, L1 and L3.  For each theta it fixes cos psi, so
psi on two branches +-psi, and then phi_ac; phi_bc follows in the same way
from B = L4 + L6 e^{i theta}.  For lengths taken from expansion
probabilities qubit b's sum then closes for every theta (its magnitude
condition vanishes identically), which leaves qubit c's two equations in
theta.  `solve` evaluates that reduction on a fixed periodic grid of theta,
symmetric under theta -> -theta, seeds damped Gauss-Newton on all four
angles at the residual's local minima of the +psi branch, and polishes
every converged root with plain Newton steps.  The -psi branch at -theta is
the conjugate of the +psi branch at theta, so its roots are the conjugates
of the +psi ones, which `solve` adds to every root it finds.  Each
Gauss-Newton iterate carries its twelve complex vectors: the residual is
their per-qubit sums, the Jacobian a fixed linear map of them, and the step
the minimum-norm least-squares solution from the Jacobian's SVD.
Every input also tries the sixteen {0, pi}^4 lattice points.  They hold the
roots of real-amplitude states, where the Jacobian is singular and a seed
from the grid would converge only linearly, and they stand in for the seeds
where L1 L3 or L5 L7 is below ZERO_LENGTH: there a triangle is degenerate
and psi ill-defined (boundary states, states near a product or W state).
Every vector is real at a lattice point, so the Gauss-Newton step there is
zero up to rounding: a lattice point is kept, without iterating, when it
closes the sums below SOLVER_TOL.
Solutions come in conjugate pairs (negate every angle); boundary solutions
with all angles in {0, pi} are self-conjugate.
"""

from __future__ import annotations

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
    DEDUP_RADIUS, FEASIBILITY_SLACK, PROB_FLOOR, REAL_LINE_TOL, SNAP_RADIUS,
    SOLVER_TOL, SUM_TOL, ZERO_LENGTH,
)

TWO_PI = 2.0 * np.pi

# the solver's fixed budget: Gauss-Newton iterations and step halvings
_MAX_ITER = 200
_MAX_HALVINGS = 40

# the theta grid of the one-angle reduction, offset by half a step: at
# theta in {0, pi} a seed whose other angles are in {0, pi} too is a fixed
# point of Gauss-Newton (every vector is real, and so is every step)
_GRID = 256
_THETA = TWO_PI * (np.arange(_GRID) + 0.5) / _GRID
_TURN = np.exp(1j * _THETA)
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


def _circ_dist(a: float, b: float) -> float:
    return abs(float(_wrap(a - b)))


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

    def twelve_angles(self) -> np.ndarray:
        return _ANGLE_MATRIX @ self.free()

    def is_real_line(self, tol: float = REAL_LINE_TOL) -> bool:
        """True when every vector lies on the reference line (angles 0/pi)."""
        return all(
            min(_circ_dist(t, 0.0), _circ_dist(t, np.pi)) <= tol
            for t in self.twelve_angles()
        )


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


def _seeds(lengths: np.ndarray) -> np.ndarray:
    """Starts from the one-angle reduction: for each grid theta and the
    branch +psi of qubit a's triangle, the free angles that close qubit a's
    sum (and, for lengths from probabilities, qubit b's); kept where the
    squared norm of the six sums is a periodic local minimum along the
    branch.  Where |A| violates the triangle inequality cos psi is clipped
    to [-1, 1], so that norm stays continuous and counts qubit a's
    mismatch.  Empty when L1 L3 = 0.

    The -psi branch is not seeded: the grid is symmetric under theta ->
    -theta, and the -psi branch at -theta is the conjugate (every angle
    negated) of the +psi branch at theta.  So are its minima and their
    Gauss-Newton paths, and `solve` adds the conjugate of every root.
    Where the triangle is clipped (psi in {0, pi}) the branches meet, and
    a -psi minimum there can be a +psi seed itself rather than a
    conjugate one."""
    l1l3 = lengths[1] * lengths[3]
    if l1l3 == 0.0:
        return np.empty((0, 4))
    a = lengths[0] + lengths[2] * _TURN
    b = lengths[4] + lengths[6] * _TURN
    cos_psi = (np.abs(a) ** 2 - lengths[1] ** 2 - lengths[3] ** 2) / (2.0 * l1l3)
    psi = np.arccos(np.clip(cos_psi, -1.0, 1.0))
    turn_psi = np.exp(1j * psi)
    u = lengths[1] + lengths[3] * turn_psi
    w = lengths[5] + lengths[7] * turn_psi
    phi_ac = np.angle(-a) - np.angle(u)
    phi_bc = np.angle(-b) - np.angle(w)
    # the three sums of `residual`, from the turns already at hand
    turn_ac, turn_bc = np.exp(1j * phi_ac), np.exp(1j * phi_bc)
    c = (
        lengths[8]
        + lengths[9] * turn_bc
        + lengths[10] * turn_ac
        + lengths[11] * turn_ac * turn_bc * turn_psi * _TURN.conj()
    )
    f = np.abs(a + turn_ac * u) ** 2 + np.abs(b + turn_bc * w) ** 2 + np.abs(c) ** 2
    keep = (f <= np.concatenate((f[-1:], f[:-1]))) & (f <= np.concatenate((f[1:], f[:1])))
    return np.stack([_THETA, psi, phi_ac, phi_bc], axis=-1)[keep]


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

    Deterministic: damped Gauss-Newton over the four free angles (see
    `_newton`) from the local minima of the one-angle reduction (see
    `_seeds` and the module docstring), joined by the {0, pi}^4 lattice
    points that close the sums.  Every converged root is polished by plain
    Newton steps (see `_newton`); roots near the lattice snap onto it.
    Returned solutions are deduplicated modulo 2 pi, completed with their
    sign-flipped conjugates, and deterministically ordered.  An empty list
    means no root on either branch: genuinely infeasible lengths, or a
    solver failure if feasibility said a state exists.  Non-finite lengths
    raise ValueError.
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
    x = np.vstack([_newton(lengths, _seeds(lengths)), lattice])

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
