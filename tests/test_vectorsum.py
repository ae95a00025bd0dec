import itertools
import warnings

import numpy as np
import pytest

from msta import oracle, vectorsum
from msta.invariants import (
    InfeasibleInvariantsError,
    InvariantSet3Q,
    expansion_probabilities,
    feasibility,
    invariants_3q,
    sudbery,
)
from msta.states import DensityOperator, apply_rotor, bloch_slice, local_rotor, pure_state_from_amplitudes
from msta.tolerances import DEDUP_RADIUS, PROB_FLOOR, SNAP_RADIUS, SOLVER_TOL, START_TOL, SUM_TOL, ZERO_LENGTH
from msta.vectorsum import (
    _ANGLE_MATRIX,
    _INVERSE_DFT,
    _LATTICE,
    _LATTICE_TURNS,
    _PAIRS,
    _PHASE_MATRIX,
    _SAMPLES,
    AngleSet,
    _closing_lattice,
    _coefficients,
    _distinct,
    _in_range,
    _newton,
    _roots,
    _starts,
    _step,
    _wrap,
    reconstruct,
    residual,
    solve,
    special_state,
    vector_lengths,
)
from conftest import negated, same_bits

# an angle within this of 0 or pi lies on the reference line
REAL_LINE_TOL = 1e-8


def _circ_dist(a, b):
    return abs(float(_wrap(a - b)))


def twelve_angles(s):
    return _ANGLE_MATRIX @ s.free()


def is_real_line(s, tol=REAL_LINE_TOL):
    """True when every vector of the angle set lies on the reference line
    (angles 0/pi)."""
    return all(min(_circ_dist(t, 0.0), _circ_dist(t, np.pi)) <= tol for t in twelve_angles(s))


def _quadratics(lengths, a):
    """P1's and E3's coefficients of c^2, c and 1 at the points a, from the
    sums (module docstring of `msta.vectorsum`): (p2, p1, p0), (q2, q1, q0);
    the reference for `_coefficients`."""
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11 = lengths
    s0, t0, b0 = l0 + l2 * a, l0 * a + l2, l4 + l6 * a
    g, h = l3 * l5 - l7 * l1, -l7 * s0
    p = (-l11 * l1 * b0 - l10 * g * a, b0 * (l3 * l9 * a - l11 * s0) - (l8 * g + l10 * h) * a, -l8 * h * a)
    return p, (l1 * t0, t0 * s0 + (l1 * l1 - l3 * l3) * a, l1 * s0 * a)


def random_pure_invariants(rng):
    while True:
        psi = oracle.random_statevector(3, rng)
        rho = DensityOperator(oracle.from_matrix(oracle.statevector_density(psi)))
        try:
            return psi, rho, invariants_3q(rho)
        except ValueError:
            continue


def test_vector_lengths_uniform():
    lengths = vector_lengths(np.full(8, 0.125))
    assert np.allclose(lengths, 0.125)


def test_vector_lengths_seed_all_zero():
    va, vb, vc = 0.3, 0.4, 0.2
    g = va * vb * vc
    lengths = vector_lengths(expansion_probabilities(InvariantSet3Q(va, vb, vc, g, g)))
    assert np.abs(lengths).max() == 0.0


def test_vector_lengths_validation():
    with pytest.raises(ValueError):
        vector_lengths(np.full(4, 0.25))
    with pytest.raises(ValueError):
        vector_lengths(np.array([-0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1]))


# the vector angles written out row by row: qubit a then b then c, each over
# sign pairs (++, +-, -+, --), as integer combinations of the free angles
ANGLE_MATRIX_BY_HAND = np.array(
    [
        [0, 0, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [-1, 1, 1, 1],
    ],
    dtype=float,
)


def vector_lengths_by_loops(p):
    """The twelve lengths qubit by qubit: a [perp,jk], b [i,perp,k], c [ij,perp]."""
    p = np.where(p < PROB_FLOOR, 0.0, p)
    out = np.empty(12)
    for jk in range(4):
        out[jk] = np.sqrt(p[jk] * p[4 | jk])
    for idx, (i, k) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        out[4 + idx] = np.sqrt(p[(i << 2) | k] * p[(i << 2) | 2 | k])
    for ij in range(4):
        out[8 + ij] = np.sqrt(p[ij << 1] * p[(ij << 1) | 1])
    return out


def test_angle_matrix_derived_from_pairs_equals_hand_table():
    assert np.array_equal(_ANGLE_MATRIX, ANGLE_MATRIX_BY_HAND)


def test_vector_lengths_match_loops_bit_for_bit(rng):
    for _ in range(2000):
        p = rng.dirichlet(np.ones(8))
        # exact zeros and values below the floor, as boundary states give
        p[rng.random(8) < 0.2] = 0.0
        p[rng.random(8) < 0.1] = PROB_FLOOR * rng.random()
        got = vector_lengths(p)
        assert np.array_equal(got, vector_lengths_by_loops(p))
        # and the pairs' product as one reduction, bit for bit
        assert got.tobytes() == np.sqrt(np.where(p < PROB_FLOOR, 0.0, p)[_PAIRS].prod(axis=1)).tobytes()


def test_angle_set_closure_by_construction(rng):
    for _ in range(200):
        free = rng.uniform(-3 * np.pi, 3 * np.pi, size=4)
        for s in (AngleSet(*free), negated(AngleSet(*free))):
            assert all(-np.pi < a <= np.pi for a in s.as_tuple())
            shift = s.phi_ab_prime - s.phi_ab
            assert abs(_wrap(s.phi_ac_prime - s.phi_ac - shift)) < 1e-12
            assert abs(_wrap(s.phi_bc_prime - s.phi_bc - shift)) < 1e-12
            # a set rebuilt from its own free angles is the same set
            assert AngleSet(*s.free()) == s


def test_solve_trivial_for_zero_lengths():
    sols = solve(np.zeros(12))
    assert len(sols) == 1
    assert sols[0] == AngleSet(0.0, 0.0, 0.0, 0.0)


def test_solve_random_state_conjugate_pair(rng):
    for _ in range(10):
        psi, rho, inv = random_pure_invariants(rng)
        lengths = vector_lengths(expansion_probabilities(inv))
        sols = solve(lengths)
        assert sols, "solver failed on a realizable length set"
        assert len(sols) == 2
        # residuals below the solver tolerance
        for s in sols:
            assert np.abs(residual(lengths, s.free())).max() < 1e-11
        # the two solutions are each other's negation
        neg = negated(sols[0])
        assert max(
            abs(a - b) for a, b in zip(neg.as_tuple(), sols[1].as_tuple())
        ) < 1e-6 or max(
            abs(a - b) for a, b in zip(neg.free(), sols[1].free())
        ) < 1e-6


def test_solve_angles_match_state_phases(rng):
    # the solved angles agree (up to conjugation) with the phase pattern of
    # the sampled state once each qubit is rotated so its reduced Bloch
    # vector points along z (the expansion's adapted frame)
    psi, rho, inv = random_pure_invariants(rng)
    aligned = rho
    for q in range(3):
        v = bloch_slice(aligned.correlation_tensor(), q)
        v /= np.linalg.norm(v)
        axis = np.cross(v, [0.0, 0.0, 1.0])
        if np.linalg.norm(axis) < 1e-12:
            continue
        axis /= np.linalg.norm(axis)
        angle = float(np.arccos(np.clip(v[2], -1.0, 1.0)))
        aligned = apply_rotor(local_rotor(3, q, axis, angle), aligned)
    w, vecs = oracle.jacobi_eigh(aligned.matrix())
    ph = np.angle(vecs[:, int(np.argmax(w))])
    want = AngleSet(
        (ph[0b110] - ph[0b010]) - (ph[0b100] - ph[0b000]),  # phi_ab
        (ph[0b111] - ph[0b011]) - (ph[0b101] - ph[0b001]),  # phi_ab_prime
        (ph[0b101] - ph[0b001]) - (ph[0b100] - ph[0b000]),  # phi_ac
        (ph[0b011] - ph[0b001]) - (ph[0b010] - ph[0b000]),  # phi_bc
    )
    lengths = vector_lengths(expansion_probabilities(inv))
    assert np.abs(residual(lengths, want.free())).max() < 1e-9
    sols = solve(lengths)

    def close(s1, s2):
        return (
            max(
                min(abs(d), 2 * np.pi - abs(d))
                for d in np.subtract(s1.as_tuple(), s2.as_tuple())
            )
            < 1e-6
        )

    assert any(close(s, want) or close(s, negated(want)) for s in sols)


def test_solve_boundary_line_solution():
    # maximum-3-tangle point with unequal lengths: vectors lie on a line and
    # the lone solution is its own conjugate
    va, vb, vc = 0.5, 0.6, 0.7
    vmin2 = 0.25
    inv = InvariantSet3Q(va, vb, vc, vmin2, (va * vb * vc) ** 2 / vmin2)
    lengths = vector_lengths(expansion_probabilities(inv))
    assert lengths.max() > 0.01
    sols = solve(lengths)
    assert len(sols) == 1
    assert is_real_line(sols[0], 1e-9)


def test_solutions_sorted_and_deduplicated(rng):
    psi, rho, inv = random_pure_invariants(rng)
    # the near-special and real-amplitude cases have more than one pair
    for lengths in [vector_lengths(expansion_probabilities(inv))] + _one_branch_cases():
        sols = solve(lengths)
        keys = [tuple(np.round(s.as_tuple(), 9)) for s in sols]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_reconstruct_roundtrip(rng):
    for _ in range(10):
        psi, rho, inv = random_pure_invariants(rng)
        lengths = vector_lengths(expansion_probabilities(inv))
        sols = solve(lengths)
        rec = reconstruct(inv, sols[0])
        assert rec.is_pure(1e-9)
        inv2 = invariants_3q(rec)
        for a, b in zip(
            (inv.v_a, inv.v_b, inv.v_c, inv.vbar2, inv.vbar3),
            (inv2.v_a, inv2.v_b, inv2.v_c, inv2.vbar2, inv2.vbar3),
        ):
            assert abs(a - b) < 1e-8
        assert abs(sudbery(inv).i6 - sudbery(inv2).i6) < 1e-8


def test_reconstruct_seed_without_solver():
    va, vb, vc = 0.3, 0.25, 0.2
    g = va * vb * vc
    inv = InvariantSet3Q(va, vb, vc, g, g)
    rec = reconstruct(inv, AngleSet(0.0, 0.0, 0.0, 0.0))
    got = invariants_3q(rec)
    assert abs(got.vbar2 - g) < 1e-12
    assert abs(got.vbar3 - g) < 1e-12


def test_reconstruct_respects_frames(rng):
    psi, rho, inv = random_pure_invariants(rng)
    sols = solve(vector_lengths(expansion_probabilities(inv)))
    axes = rng.standard_normal((3, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    rec = reconstruct(inv, sols[0], axes=[tuple(ax) for ax in axes])
    inv2 = invariants_3q(rec)
    assert abs(inv2.vbar2 - inv.vbar2) < 1e-8
    assert abs(inv2.vbar3 - inv.vbar3) < 1e-8


def test_reconstruct_rejects_infeasible():
    bad = InvariantSet3Q(1.0, 1.0, 0.5, 0.5, 0.5)
    with pytest.raises(InfeasibleInvariantsError):
        reconstruct(bad, AngleSet(0.0, 0.0, 0.0, 0.0))


def test_reconstruct_rejects_non_solution(rng):
    psi, rho, inv = random_pure_invariants(rng)
    with pytest.raises(ValueError):
        reconstruct(inv, AngleSet(0.1, 1.7, -2.0, 0.5))


def test_roundtrip_equivalent_up_to_local_rotors(rng):
    # the reconstruction reproduces all reduced spectra of the original
    psi, rho, inv = random_pure_invariants(rng)
    sols = solve(vector_lengths(expansion_probabilities(inv)))
    rec = reconstruct(inv, sols[0])
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        w1, _ = oracle.jacobi_eigh(oracle.partial_trace_matrix(rho.matrix(), keep, 3))
        w2, _ = oracle.jacobi_eigh(oracle.partial_trace_matrix(rec.matrix(), keep, 3))
        assert np.abs(w1 - w2).max() < 1e-8


def _sums_and_jacobian(lengths, x):
    """The six sums and their 6 x 4 Jacobian at free angles x, qubit by
    qubit."""
    ang = _ANGLE_MATRIX @ x
    cos, sin = np.cos(ang), np.sin(ang)
    r, jac = np.empty(6), np.empty((6, 4))
    for g in range(3):
        sl = slice(4 * g, 4 * g + 4)
        r[2 * g], r[2 * g + 1] = lengths[sl] @ cos[sl], lengths[sl] @ sin[sl]
        jac[2 * g] = -(lengths[sl] * sin[sl]) @ _ANGLE_MATRIX[sl]
        jac[2 * g + 1] = (lengths[sl] * cos[sl]) @ _ANGLE_MATRIX[sl]
    return r, jac


def _newton_polish(lengths, x, max_steps=8):
    """Plain minimum-norm Newton steps from x while the max-abs residual
    strictly falls."""
    r, jac = _sums_and_jacobian(lengths, x)
    for _ in range(max_steps):
        cand = x + np.linalg.lstsq(jac, -r, rcond=None)[0]
        rc, jc = _sums_and_jacobian(lengths, cand)
        if not np.abs(rc).max() < np.abs(r).max():
            break
        x, r, jac = cand, rc, jc
    return x


def _serial_solve(lengths, tol=1e-11, restarts=32, seed=0, max_iter=200):
    """Reference solver: one start at a time (the {0, pi} lattice, then
    seeded uniform draws), an lstsq step per iteration, step halvings tried
    one by one, a final Newton polish, then snap, dedup and conjugates by
    Python loops."""
    if lengths.max() < 1e-12:
        return [AngleSet(0.0, 0.0, 0.0, 0.0)]

    def newton(x):
        r, jac = _sums_and_jacobian(lengths, x)
        rnorm = np.abs(r).max()
        for _ in range(max_iter):
            if rnorm < tol:
                return x
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            for k in range(40):
                cand = x + 0.5**k * step
                rc, jc = _sums_and_jacobian(lengths, cand)
                if np.abs(rc).max() < rnorm:
                    x, r, jac, rnorm = cand, rc, jc, np.abs(rc).max()
                    break
            else:
                return None
        return x if rnorm < tol else None

    def dist(a, b):
        return np.abs(_wrap(a - b)).max()

    found = []

    def try_starts(starts):
        for start in starts:
            x = newton(np.asarray(start, dtype=float))
            if x is None:
                continue
            x = _newton_polish(lengths, x)
            snapped = np.round(x / np.pi) * np.pi
            if dist(x, snapped) < 1e-3 and np.abs(_sums_and_jacobian(lengths, snapped)[0]).max() < tol:
                x = snapped
            x = _wrap(x)
            if all(dist(x, prev) >= 1e-6 for prev in found):
                found.append(x)

    rng = np.random.default_rng(seed)
    try_starts(np.pi * np.array([[i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(16)]))
    try_starts(rng.uniform(-np.pi, np.pi, size=(restarts, 4)))
    if not found:
        try_starts(rng.uniform(-np.pi, np.pi, size=(8 * restarts, 4)))
    for x in list(found):
        if all(dist(_wrap(-x), prev) >= 1e-6 for prev in found):
            found.append(_wrap(-x))
    return [AngleSet(*x) for x in found]


def assert_same_solutions(got, want):
    # solutions within a set are more than 1e-6 apart, so matching each
    # wanted one within 1e-8 makes equal-sized sets correspond one to one
    assert len(got) == len(want)
    for w in want:
        assert min(
            np.abs(_wrap(np.subtract(g.as_tuple(), w.as_tuple()))).max() for g in got
        ) < 1e-8


def test_solve_matches_serial_reference_on_random_states():
    rng = np.random.default_rng(4004)
    for _ in range(100):
        _, _, inv = random_pure_invariants(rng)
        lengths = vector_lengths(expansion_probabilities(inv))
        assert_same_solutions(solve(lengths), _serial_solve(lengths))


def test_solve_matches_serial_reference_on_real_amplitude_states():
    # eight nonzero real amplitudes: every length is nonzero and the roots
    # lie on the {0, pi} lattice, where the Jacobian is singular
    rng = np.random.default_rng(4005)
    for _ in range(20):
        psi = rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        rho = DensityOperator(oracle.from_matrix(oracle.statevector_density(psi.astype(complex))))
        lengths = vector_lengths(expansion_probabilities(invariants_3q(rho)))
        assert lengths.min() > 1e-6
        sols = solve(lengths)
        assert any(is_real_line(s) for s in sols)
        assert_same_solutions(sols, _serial_solve(lengths))


def test_solve_roots_are_fully_polished():
    # stopping at the solver tolerance left ill-conditioned roots up to
    # 1.3e-7 from the root (sigma_min(J) = 2.9e-5 at the eighth state)
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(100):
        _, _, inv = random_pure_invariants(rng)
        lengths = vector_lengths(expansion_probabilities(inv))
        for s in solve(lengths):
            x = s.free()
            worst = max(worst, np.abs(_wrap(_newton_polish(lengths, x) - x)).max())
    assert worst < 1e-10


def test_solve_matches_serial_reference_on_special_lengths():
    va, vb, vc = 0.3, 0.4, 0.2
    g = va * vb * vc
    seed = vector_lengths(expansion_probabilities(InvariantSet3Q(va, vb, vc, g, g)))
    va, vb, vc = 0.5, 0.6, 0.7
    line = vector_lengths(
        expansion_probabilities(InvariantSet3Q(va, vb, vc, 0.25, (va * vb * vc) ** 2 / 0.25))
    )
    # qubit a's first vector outweighs the other three: no start can close it
    infeasible = np.array([1.0, 0.1, 0.1, 0.1] * 3)
    for lengths, count in ((seed, 1), (line, 1), (infeasible, 0)):
        sols = solve(lengths)
        assert len(sols) == count
        assert_same_solutions(sols, _serial_solve(lengths))


def test_residual_broadcasts_over_leading_axes(rng):
    lengths = rng.uniform(0.0, 1.0, size=12)
    points = rng.uniform(-np.pi, np.pi, size=(3, 5, 4))
    batched = residual(lengths, points)
    assert batched.shape == (3, 5, 6)
    for idx in np.ndindex(3, 5):
        # equal up to the rounding of the BLAS kernel the batch shape picks
        assert np.allclose(batched[idx], residual(lengths, points[idx]), rtol=0.0, atol=1e-14)
    ang = _ANGLE_MATRIX @ points[0, 0]
    want = [
        f(ang[4 * g : 4 * g + 4]) @ lengths[4 * g : 4 * g + 4]
        for g in range(3)
        for f in (np.cos, np.sin)
    ]
    assert np.allclose(batched[0, 0], want, rtol=0.0, atol=1e-14)


def test_solve_refuses_non_finite_lengths():
    # NaN lengths used to return [], read as "no solution"; an inf length
    # raised LinAlgError from inside the Gauss-Newton step
    with pytest.raises(ValueError, match="finite"):
        solve(np.full(12, np.nan))
    lengths = np.full(12, 0.1)
    lengths[5] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solve(lengths)


def test_vector_lengths_refuses_nan_probability():
    probs = np.full(8, 0.125)
    probs[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        vector_lengths(probs)


def test_reconstruct_refuses_nan_angles():
    # NaN angles used to pass the residual gate and fail later on
    # "amplitudes must be finite"
    va, vb, vc = 0.4, 0.5, 0.6
    g = va * vb * vc
    inv = InvariantSet3Q(va, vb, vc, g, g)
    for angles in (
        AngleSet(np.nan, 0.0, 0.0, 0.0),
        AngleSet(0.0, 0.0, 0.0, np.nan),
    ):
        with pytest.raises(ValueError, match="angles must be finite"):
            reconstruct(inv, angles)


def test_jacobian_of_the_vectors_matches_loops(rng, monkeypatch):
    # the residual and Jacobian Gauss-Newton hands its first step, at the start
    lengths = rng.uniform(0.0, 1.0, size=12)
    seen = []
    step = vectorsum._step
    monkeypatch.setattr(vectorsum, "_step", lambda jac, r: seen.append((jac, r)) or step(jac, r))
    for x in rng.uniform(-np.pi, np.pi, size=(20, 4)):
        seen.clear()
        _newton(lengths, x)
        want_r, want_jac = _sums_and_jacobian(lengths, x)
        assert np.allclose(seen[0][0], want_jac, rtol=0.0, atol=1e-15)
        assert np.allclose(seen[0][1], want_r, rtol=0.0, atol=1e-15)
        assert all(type(r) is float for r in seen[0][1])


def test_svd_step_equals_pinv_step(rng):
    lengths = rng.uniform(0.1, 1.0, size=12)
    # random stacks; the Jacobian at every {0, pi}^4 lattice point, where
    # every vector is real and J has rank at most 3; two equal columns
    stacks = [rng.standard_normal((k, 6, 4)) for k in (1, 4, 33)]
    stacks.append(np.array([_sums_and_jacobian(lengths, x)[1] for x in _LATTICE]))
    equal_columns = rng.standard_normal((5, 6, 4))
    equal_columns[..., 3] = equal_columns[..., 1]
    stacks.append(equal_columns)
    # a singular value above pinv's cutoff (6 eps s_max) and one far below
    u = np.linalg.qr(rng.standard_normal((2, 6, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((2, 4, 4)))[0]
    s = np.array([[1.0, 0.5, 1e-3, 1e-13], [1.0, 0.3, 1e-8, 1e-18]])
    stacks.append(u * s[:, None, :] @ v.transpose(0, 2, 1))
    for jac in stacks:
        r = rng.standard_normal(jac.shape[:2])
        want = (np.linalg.pinv(jac, rtol=None) @ -r[..., None])[..., 0]
        # one matrix at a time, as nested lists of Python floats
        got = np.array([_step(j.tolist(), ri.tolist()) for j, ri in zip(jac, r)])
        err = np.linalg.norm(got - want, axis=-1)
        assert (err <= 1e-13 * np.linalg.norm(want, axis=-1)).all()
    assert np.linalg.matrix_rank(stacks[3]).max() <= 3
    assert np.linalg.matrix_rank(equal_columns).max() == 3
    assert np.linalg.matrix_rank(stacks[5], rtol=None).tolist() == [4, 3]


# the solver as it was before the eliminant, kept as a reference: seeds on a
# 256-point theta grid, offset by half a step (at theta in {0, pi} a seed
# whose other angles are in {0, pi} too is a fixed point of Gauss-Newton)
_GRID = 256
_THETA = 2.0 * np.pi * (np.arange(_GRID) + 0.5) / _GRID
_TURN = np.exp(1j * _THETA)


def _grid_seeds(lengths):
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
    Gauss-Newton paths, and the solver adds the conjugate of every root.
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


def _grid_solve(lengths, seeds=_grid_seeds):
    """The grid-seeded solver: batched Gauss-Newton from ``seeds`` and the
    closing lattice points, then snap, dedup, conjugates and order, as
    `solve` does them."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.max() < ZERO_LENGTH:
        return [AngleSet(0.0, 0.0, 0.0, 0.0)]
    lattice = _LATTICE[np.abs(residual(lengths, _LATTICE)).max(axis=-1) < SOLVER_TOL]
    x = np.vstack([_newton(lengths, seeds(lengths)), lattice])
    snapped = np.round(x / np.pi) * np.pi
    snap = (np.abs(_wrap(x - snapped)).max(axis=-1) < SNAP_RADIUS) & (
        np.abs(residual(lengths, snapped)).max(axis=-1) < SOLVER_TOL
    )

    def distinct(points):
        near = np.abs(_wrap(points[:, None] - points[None, :])).max(axis=-1) < DEDUP_RADIUS
        keep = []
        for i in range(len(points)):
            if not near[i, keep].any():
                keep.append(i)
        return points[keep]

    found = distinct(_wrap(np.where(snap[:, None], snapped, x)))
    found = distinct(np.vstack([found, _wrap(-found)]))
    sols = [AngleSet(*p) for p in found]
    six = np.round([s.as_tuple() for s in sols], 9).reshape(-1, 6)
    return [sols[i] for i in np.lexsort(six.T[::-1])]


def _two_branch_seeds(lengths):
    """The seeds as they were taken from both branches +-psi: all +psi
    seeds in theta order, then all -psi seeds."""
    l1l3 = lengths[1] * lengths[3]
    if l1l3 == 0.0:
        return np.empty((0, 4))
    a = lengths[0] + lengths[2] * _TURN
    b = lengths[4] + lengths[6] * _TURN
    cos_psi = (np.abs(a) ** 2 - lengths[1] ** 2 - lengths[3] ** 2) / (2.0 * l1l3)
    psi = np.arccos(np.clip(cos_psi, -1.0, 1.0)) * np.array([[1.0], [-1.0]])
    turn_psi = np.exp(1j * psi)
    u = lengths[1] + lengths[3] * turn_psi
    w = lengths[5] + lengths[7] * turn_psi
    phi_ac = np.angle(-a) - np.angle(u)
    phi_bc = np.angle(-b) - np.angle(w)
    turn_ac, turn_bc = np.exp(1j * phi_ac), np.exp(1j * phi_bc)
    c = (
        lengths[8]
        + lengths[9] * turn_bc
        + lengths[10] * turn_ac
        + lengths[11] * turn_ac * turn_bc * turn_psi * _TURN.conj()
    )
    f = np.abs(a + turn_ac * u) ** 2 + np.abs(b + turn_bc * w) ** 2 + np.abs(c) ** 2
    keep = (f <= np.roll(f, 1, axis=-1)) & (f <= np.roll(f, -1, axis=-1))
    return np.stack(np.broadcast_arrays(_THETA, psi, phi_ac, phi_bc), axis=-1)[keep]


def _lengths_of(psi):
    rho = DensityOperator(oracle.from_matrix(oracle.statevector_density(psi)))
    return vector_lengths(expansion_probabilities(invariants_3q(rho)))


def _one_branch_cases():
    """Seed 4004's 100 random states, seed 4005's 20 real-amplitude states
    and states 10^-1..10^-6 from a product, GHZ or W state (four per base
    and distance; those whose Bloch vectors vanish are skipped)."""
    rng = np.random.default_rng(4004)
    cases = [vector_lengths(expansion_probabilities(random_pure_invariants(rng)[2])) for _ in range(100)]
    rng = np.random.default_rng(4005)
    for _ in range(20):
        psi = rng.standard_normal(8)
        cases.append(_lengths_of((psi / np.linalg.norm(psi)).astype(complex)))
    product, ghz, w = np.zeros((3, 8), dtype=complex)
    product[0] = 1.0
    ghz[[0, 7]] = 2**-0.5
    w[[1, 2, 4]] = 3**-0.5
    rng = np.random.default_rng(4006)
    for base in (product, ghz, w):
        for k in range(1, 7):
            for _ in range(4):
                psi = base + 10.0**-k * oracle.random_statevector(3, rng)
                try:
                    cases.append(_lengths_of(psi / np.linalg.norm(psi)))
                except ValueError:
                    continue
    return cases


def test_minus_psi_seeds_are_conjugates_of_plus_psi_seeds():
    for lengths in _one_branch_cases():
        plus = _grid_seeds(lengths)
        both = _two_branch_seeds(lengths)
        assert np.array_equal(both[: len(plus)], plus)
        # the -psi seed at -theta is the conjugate of the +psi seed at
        # theta.  Where the triangle is clipped (psi in {0, pi}) the two
        # branches meet, and a tie between neighbouring grid values can keep
        # the -psi seed at theta instead, the very point of a +psi seed
        for seed in both[len(plus) :]:
            conjugate = np.abs(_wrap(plus + seed)).max(axis=-1).min(initial=np.inf)
            same = np.abs(_wrap(plus - seed)).max(axis=-1).min(initial=np.inf)
            assert conjugate < 1e-12 or (same < 1e-12 and abs(np.sin(seed[1])) < 1e-12)


def test_one_branch_solve_matches_two_branch_solve():
    # the grid reference seeded on one branch and on both
    cases = _one_branch_cases()
    assert len(cases) > 150
    for lengths in cases:
        got, want = _grid_solve(lengths), _grid_solve(lengths, _two_branch_seeds)
        assert len(got) == len(want)
        for w in want:
            d = [np.abs(_wrap(np.subtract(g.as_tuple(), w.as_tuple()))).max() for g in got]
            g = got[int(np.argmin(d))]
            # two points whose residuals are at most rho can be up to about
            # 2 rho / sigma_min(J) apart: the angles' own precision, which is
            # above 1e-8 where the lengths are ~1e-5 (near a product state)
            rho = max(np.abs(residual(lengths, s.free())).max() for s in (g, w))
            sigma_min = np.linalg.svd(_sums_and_jacobian(lengths, w.free())[1], compute_uv=False)[-1]
            assert min(d) < 1e-8 or min(d) * sigma_min < 2.0 * rho


def _draws(kind, seed, count=100):
    """Lengths of ``count`` 3-qubit states: random complex ones, ones with
    eight real amplitudes, or random complex ones with two amplitudes zero."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        psi = rng.standard_normal(8).astype(complex) if kind == "real" else oracle.random_statevector(3, rng)
        if kind == "two zeros":
            psi[rng.choice(8, 2, replace=False)] = 0.0
        try:
            cases.append(_lengths_of(psi / np.linalg.norm(psi)))
        except ValueError:
            continue
    return cases


@pytest.mark.parametrize("kind, seed", [("complex", 2101), ("real", 2102), ("two zeros", 2103)])
def test_solve_matches_grid_reference(kind, seed):
    for lengths in _draws(kind, seed):
        got, want = solve(lengths), _grid_solve(lengths)
        assert len(got) == len(want)
        for w in want:
            assert min(np.abs(_wrap(np.subtract(g.as_tuple(), w.as_tuple()))).max() for g in got) < 1e-9


@pytest.mark.parametrize("base, k", [("000", 2), ("W", 3)])
def test_solve_rebuilds_every_near_state_the_grid_reference_solves(base, k):
    # |000> or W plus 10^-k times a normalised real Gaussian vector: lengths
    # with few correct digits, some of whose roots sit near theta in {0, pi}
    psi0 = np.zeros(8, dtype=complex)
    psi0[[0] if base == "000" else [1, 2, 4]] = 1.0
    psi0 /= np.linalg.norm(psi0)
    rng = np.random.default_rng(99)
    solved = 0
    for _ in range(100):
        g = rng.standard_normal(8)
        psi = psi0 + 10.0**-k * g / np.linalg.norm(g)
        rho = DensityOperator(oracle.from_matrix(oracle.statevector_density(psi / np.linalg.norm(psi))))
        try:
            inv = invariants_3q(rho)
        except ValueError:
            continue
        lengths = vector_lengths(expansion_probabilities(inv))
        if not _grid_solve(lengths):
            continue
        solved += 1
        errs = []
        for s in solve(lengths):
            got = invariants_3q(reconstruct(inv, s))
            errs.append(max(abs(getattr(got, n) - getattr(inv, n)) for n in ("v_a", "v_b", "v_c", "vbar2", "vbar3")))
        assert min(errs, default=np.inf) < 1e-8
    assert solved >= 50


def test_newton_drops_starts_at_or_above_the_limit_before_iterating(rng, monkeypatch):
    lengths = _lengths_of(oracle.random_statevector(3, rng))
    near = solve(lengths)[0].free() + 1e-3
    starts = np.array([near, near + 0.5])
    first = np.abs(residual(lengths, starts)).max(axis=-1)
    assert first[0] < first[1]
    # each step records the max-abs residual it starts from
    rows = []
    step = vectorsum._step
    monkeypatch.setattr(vectorsum, "_step", lambda jac, r: rows.append(max(map(abs, r))) or step(jac, r))
    # at the limit a start is dropped: nothing is iterated
    assert _newton(lengths, starts[:1], first[0]).shape == (0, 4)
    assert not rows
    # the same start converges without a limit
    x = _newton(lengths, starts[:1])
    assert len(x) == 1 and np.abs(residual(lengths, x)).max() < SOLVER_TOL
    # of two starts only the one below the limit is iterated: no step starts
    # from the second's residual, and the first step from the first's
    rows.clear()
    x = _newton(lengths, starts, first[1])
    assert rows and max(rows) < first[1] and rows[0] == pytest.approx(first[0], rel=1e-12)
    assert len(x) == 1 and np.abs(residual(lengths, x)).max() < SOLVER_TOL


def test_newton_iterates_do_not_depend_on_the_batch():
    # a batch's angles as one matrix product rounded a row by the batch it
    # sat in; now each converged iterate equals, bit for bit, the one its
    # start gives alone
    rng = np.random.default_rng(4010)
    converged = 0
    for _ in range(60):
        lengths = _lengths_of(oracle.random_statevector(3, rng))
        sols = np.array([s.free() for s in solve(lengths)])
        k = int(rng.integers(2, 13))
        near = sols[rng.integers(0, len(sols), k)] + rng.normal(0.0, 0.05, (k, 4))
        starts = np.where(rng.random((k, 1)) < 0.7, near, rng.uniform(-np.pi, np.pi, (k, 4)))
        for limit in (np.inf, START_TOL * lengths.max()):
            batch = _newton(lengths, starts, limit)
            alone = np.vstack([_newton(lengths, start, limit) for start in starts])
            assert batch.tobytes() == alone.tobytes()
            converged += len(batch)
    assert converged > 200


def test_iterates_near_a_closing_lattice_point_are_that_point():
    # a real-amplitude state whose Gauss-Newton roots end within 1e-7 of the
    # lattice point (0, 0, pi, pi): only the exact lattice point is returned
    a = np.array([0.2, -0.35, 0.3, 0.45, -0.25, 0.4, 0.15, -0.3])
    sols = solve(_lengths_of(a / np.linalg.norm(a)))
    assert [s.free().tolist() for s in sols] == [[0.0, 0.0, np.pi, np.pi]]


def test_a_double_root_split_across_the_circle_is_turned_onto_it():
    # a state 1e-2 from |000>: rounding split the eliminant's two roots near
    # a = -1 across the circle, to log radius +-0.059, where they start
    # Gauss-Newton on the lattice and go nowhere; the grid reference solves it
    lengths = np.array([
        9.289544095781276e-07, 1.2658850479431204e-09, 1.2728728384415349e-09, 9.264111578687171e-07,
        6.047009264970899e-07, 1.9519128084565815e-09, 1.955414295380912e-09, 6.008106652678738e-07,
        1.5775701208007078e-06, 7.481908209038273e-10, 7.454182110833331e-10, 1.5760733320087575e-06,
    ])
    roots = _roots(lengths, _coefficients(lengths))
    assert np.array_equal(roots.imag, np.zeros(2)) and np.abs(np.log(np.abs(roots))).min() > 0.05
    assert not len(_newton(lengths, _starts(lengths, np.angle(roots), _coefficients(lengths))))
    sols = solve(lengths)
    assert len(sols) == 2
    assert_same_solutions(sols, _grid_solve(lengths))


def test_every_solution_is_a_root_of_p1_e3_and_the_eliminant(rng):
    points, inverse = _SAMPLES, _INVERSE_DFT
    for _ in range(20):
        _, _, inv = random_pure_invariants(rng)
        lengths = vector_lengths(expansion_probabilities(inv))
        # degree 7 with a factor a^2: five roots
        (p2, p1, p0), (q2, q1, q0) = _quadratics(lengths, points)
        coef = np.abs(inverse @ ((p2 * q0 - p0 * q2) ** 2 - (p2 * q1 - p1 * q2) * (p1 * q0 - p0 * q1)))
        assert coef[[0, 1, *range(8, 16)]].max() < 1e-12 * coef.max()
        assert coef[[2, 7]].min() > 1e-6 * coef.max()
        roots = _roots(lengths, _coefficients(lengths))
        sols = solve(lengths)
        assert len(sols) == 2
        for s in sols:
            a, c = np.exp(1j * s.phi_ab), np.exp(1j * s.phi_ac)
            p, q = _quadratics(lengths, a)
            assert abs(np.polyval(p, c)) < 1e-12 and abs(np.polyval(q, c)) < 1e-12
            assert np.abs(roots - a).min() < 1e-6
            # and one of the starts lies within 1e-6 of the solution
            starts = _starts(lengths, np.angle(roots), _coefficients(lengths))
            assert np.abs(_wrap(starts - s.free())).max(axis=-1).min() < 1e-6


def test_no_roots_without_a_triangle_or_an_eliminant():
    lengths = np.full(12, 0.1)
    for k in (1, 3):
        degenerate = lengths.copy()
        degenerate[k] = 0.0
        assert _roots(degenerate, _coefficients(degenerate)).shape == (0,)
    # L0 = L2 = 0 leaves E3 only its c term and the eliminant exactly zero,
    # so no start divides by E3's c^2 coefficient
    lengths[[0, 2]] = 0.0
    assert _roots(lengths, _coefficients(lengths)).shape == (0,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(lengths)


def _greedy_distinct(points):
    """Each point farther than DEDUP_RADIUS (per angle, modulo 2 pi) from
    every earlier kept point, in order: `solve`'s dedup as it was, run
    before and after the conjugate completion."""
    near = np.abs(_wrap(points[:, None] - points[None, :])).max(axis=-1) < DEDUP_RADIUS
    keep = []
    for i in range(len(points)):
        if not near[i, keep].any():
            keep.append(i)
    return points[keep]


def _every_root_solve(lengths):
    """`solve` as it was when Gauss-Newton ran from the starts of every root
    of the eliminant, the lower half's too, and deduplicated greedily before
    and after the conjugate completion."""
    lattice = _LATTICE[np.abs(residual(lengths, _LATTICE)).max(axis=-1) < SOLVER_TOL]
    roots = _roots(lengths, _coefficients(lengths))
    starts = _starts(lengths, np.angle(roots), _coefficients(lengths))
    x = _newton(lengths, starts[np.abs(residual(lengths, starts)).max(axis=-1) < START_TOL * lengths.max()])
    if not len(x) and not len(lattice):
        x = _newton(lengths, _starts(lengths, np.angle(roots) + np.log(np.abs(roots)), _coefficients(lengths)))
    x = np.vstack([x, lattice])
    snapped = np.round(x / np.pi) * np.pi
    snap = (np.abs(_wrap(x - snapped)).max(axis=-1) < SNAP_RADIUS) & (
        np.abs(residual(lengths, snapped)).max(axis=-1) < SOLVER_TOL
    )
    found = _greedy_distinct(_wrap(np.where(snap[:, None], snapped, x)))
    found = _greedy_distinct(np.vstack([found, _wrap(-found)]))
    sols = [AngleSet(*p) for p in found]
    six = np.round([s.as_tuple() for s in sols], 9).reshape(-1, 6)
    return [sols[i] for i in np.lexsort(six.T[::-1])]


def _near_draws(base, k, count=100):
    """Lengths of |000> or W plus 10^-k times a normalised real Gaussian
    vector (seed 99), as in the near-state test above."""
    psi0 = np.zeros(8, dtype=complex)
    psi0[[0] if base == "000" else [1, 2, 4]] = 1.0
    psi0 /= np.linalg.norm(psi0)
    rng = np.random.default_rng(99)
    cases = []
    for _ in range(count):
        g = rng.standard_normal(8)
        try:
            cases.append(_lengths_of(psi0 + 10.0**-k * g / np.linalg.norm(g)))
        except ValueError:
            continue
    return cases


@pytest.mark.parametrize(
    "cases",
    [("complex", 2101), ("real", 2102), ("two zeros", 2103), ("000", 2), ("W", 3)],
    ids=["complex", "real", "two zeros", "000-2", "W-3"],
)
def test_upper_half_starts_give_the_solutions_of_every_root(cases):
    draws = _draws(*cases) if cases[0] in ("complex", "real", "two zeros") else _near_draws(*cases)
    for lengths in draws:
        got, want = solve(lengths), _every_root_solve(lengths)
        assert len(got) == len(want)
        for w in want:
            d = [np.abs(_wrap(np.subtract(g.as_tuple(), w.as_tuple()))).max() for g in got]
            g = got[int(np.argmin(d))]
            # near |000> and W the angles are fixed only to about
            # 2 rho / sigma_min(J), rho the residual (see the one-branch test)
            rho = max(np.abs(residual(lengths, s.free())).max() for s in (g, w))
            sigma_min = np.linalg.svd(_sums_and_jacobian(lengths, w.free())[1], compute_uv=False)[-1]
            assert min(d) < 1e-9 or min(d) * sigma_min < 2.0 * rho


def test_roots_come_in_exact_conjugate_pairs():
    # the eliminant's coefficients are real, so the lower half's roots are
    # the upper half's conjugates bit for bit
    for lengths in _draws("complex", 2104):
        roots = np.sort_complex(_roots(lengths, _coefficients(lengths)).astype(complex))
        assert np.array_equal(roots, np.sort_complex(roots.conj()))


def _scalar_as_tuple(free):
    """The six named angles by the scalar rule `AngleSet` has always used:
    each primed angle is the unprimed one turned by the separately wrapped
    shift phi_ab' - phi_ab."""
    ab, ab_prime, ac, bc = (_in_range(f) for f in free)
    shift = float(_wrap(ab_prime - ab))
    return ab, ab_prime, ac, _in_range(ac + shift), bc, _in_range(bc + shift)


def test_as_tuple_is_the_scalar_rule_bit_for_bit():
    # solve orders by as_tuple, which wraps the shift phi_ab' - phi_ab once;
    # it must round as the scalar rule does, at +-pi, +-0 and at shifts that
    # wrap, and a set built from wrapped rows keeps them
    values = [np.pi, -np.pi, 0.0, -0.0, np.pi - 1e-16, -np.pi + 4e-16, 3.0, -3.0, 1e-300, 2.5 * np.pi, -2.5 * np.pi]
    for row in itertools.product(values, repeat=4):
        wrapped = _wrap(np.array(row))
        s = AngleSet(*wrapped.tolist())
        assert np.float64(s.phi_ab).tobytes() == wrapped[0].tobytes()
        assert np.array(s.as_tuple()).tobytes() == np.array(_scalar_as_tuple(wrapped.tolist())).tobytes()
        assert np.array(AngleSet(*row).as_tuple()).tobytes() == np.array(_scalar_as_tuple(row)).tobytes()


def test_coefficient_form_equals_the_sample_form(rng):
    for _ in range(50):
        lengths = vector_lengths(expansion_probabilities(random_pure_invariants(rng)[2]))
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 16)) * rng.uniform(0.5, 2.0, 16)
        want = np.array(_quadratics(lengths, a)).reshape(6, -1)
        got = _coefficients(lengths) @ a ** np.arange(3)[:, None]
        assert (np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=-1, keepdims=True)).all()


def _reconstruct_reference(inv, angles):
    """`reconstruct` as it was: feasibility, then the probabilities again."""
    assert feasibility(inv).feasible and np.isfinite(angles.as_tuple()).all()
    probs = expansion_probabilities(inv)
    lengths = vector_lengths(probs)
    assert np.abs(residual(lengths, angles.free())).max() <= SUM_TOL
    amps = np.sqrt(np.clip(probs, 0.0, None)) * np.exp(1j * (_PHASE_MATRIX @ angles.free()))
    return pure_state_from_amplitudes(amps / np.linalg.norm(amps))


def test_reconstruct_is_bit_identical_to_computing_the_probabilities_twice(rng):
    for _ in range(50):
        _, _, inv = random_pure_invariants(rng)
        for s in solve(vector_lengths(expansion_probabilities(inv))):
            assert same_bits(reconstruct(inv, s).mv, _reconstruct_reference(inv, s).mv)
    # Bloch lengths whose pairwise products vanish: feasibility tests that
    # the vbars vanish, and its report still carries the expansion's own
    # probabilities, which reconstruct uses
    va, vb, vc = 1e-6, 1e-6, 0.5
    inv = InvariantSet3Q(va, vb, vc, 0.0, 0.0)
    s = solve(vector_lengths(expansion_probabilities(inv)))[0]
    assert same_bits(reconstruct(inv, s).mv, _reconstruct_reference(inv, s).mv)
    # a feasible point with v_a = 0 has no expansion to rebuild from
    with pytest.raises(ValueError, match="nonvanishing Bloch lengths"):
        reconstruct(InvariantSet3Q(0.0, vc, vc, 0.0, 0.0), s)


def test_the_round_trip_squares_only_its_input(rng, dense_squares):
    # reconstruct's state is certified pure by its constructor, so the
    # gate of invariants_3q reads the bound; the oracle-built input is
    # squared once, by the gate's exact pass
    for _ in range(20):
        _, rho, inv = random_pure_invariants(rng)
        assert dense_squares == ["pass"]
        for s in solve(vector_lengths(expansion_probabilities(inv))):
            invariants_3q(reconstruct(inv, s))
        assert dense_squares == ["pass"]
        dense_squares.clear()
    # so are special_state's, from four probabilities or through the solver
    for kind, v in (("seed", 0.6), ("negative_seed", 1 / 3), ("max_tangle", 0.5)):
        invariants_3q(special_state(kind, v, v, v)[1])
    assert dense_squares == []


def test_sets_that_tie_in_phi_ab_are_ordered_by_the_other_angles():
    # a real state near W: two solution pairs share phi_ab
    # to 1e-9 and arrive in the order phi_ab alone cannot fix
    lengths = np.array([
        2.8891710109078494e-06, 1.4445834727838774e-06, 1.444587492391913e-06, 7.133991176295348e-12,
        2.889145363990193e-06, 1.4445418431052285e-06, 1.4446003159822131e-06, 7.134196767958594e-12,
        2.889143729257446e-06, 1.4445426604546151e-06, 1.4445971137186928e-06, 7.1342125824565195e-12,
    ])
    keys = [tuple(np.round(s.as_tuple(), 9)) for s in solve(lengths)]
    assert len({k[0] for k in keys}) < len(keys)
    assert keys == sorted(keys)


def test_wrap_equals_the_six_operation_form_bit_for_bit(rng):
    # _wrap was -((-a + pi) % 2 pi - pi) + 0; the three-operation form must
    # round alike on every finite angle, a zero coming out as +0
    angles = [rng.uniform(-20.0, 20.0, 100000), rng.standard_normal(1000) * 1e-12, [0.0, -0.0, 1e-300, -5e-324]]
    for k in range(-6, 7):
        base = k * np.pi
        angles.append(base + np.arange(-20, 21) * np.spacing(base if base else 1.0))
    a = np.concatenate(angles)
    want = -((-a + np.pi) % (2.0 * np.pi) - np.pi) + 0.0
    assert _wrap(a).tobytes() == want.tobytes()
    # a Python float wraps by Python's %, as numpy's % rounds
    assert np.array([_wrap(x) for x in a.tolist()]).tobytes() == want.tobytes()
    assert all(type(y) is float for y in AngleSet(*a[:4].tolist()).as_tuple() + AngleSet(*a[-4:]).as_tuple())
    assert np.signbit(_wrap(np.array([0.0, -0.0, 2.0 * np.pi]))).sum() == 0


def _conjugate_dedup(points):
    """`solve`'s dedup as it was: greedy over the wrapped points, then over
    the kept ones and their conjugates."""
    found = _greedy_distinct(_wrap(points))
    return _greedy_distinct(np.vstack([found, _wrap(-found)]))


def test_dedup_keeps_both_ends_of_a_chain():
    # B lies within DEDUP_RADIUS of A and of C, A and C farther apart: B
    # goes, A and C stay, and so do both conjugates
    a = np.array([0.3, -1.2, 2.0, 0.7])
    step = np.array([0.0, 0.6 * DEDUP_RADIUS, 0.0, 0.0])
    got = np.array(_distinct(_wrap(np.array([a, a + step, a + 2.0 * step])).tolist()))
    assert got.tobytes() == _conjugate_dedup(np.array([a, a + step, a + 2.0 * step])).tobytes()
    assert np.allclose(got, [a, a + 2.0 * step, -a, -a - 2.0 * step], rtol=0.0, atol=1e-15)
    # a chain through the conjugates: near the {0, pi} lattice a point and
    # its conjugate are near too
    b = np.array([np.pi, 0.0, np.pi, 0.0]) + 0.3 * DEDUP_RADIUS
    got = np.array(_distinct(_wrap(np.array([b, b + 4.0 * step])).tolist()))
    assert got.tobytes() == _conjugate_dedup(np.array([b, b + 4.0 * step])).tobytes()
    assert len(got) == 3


def test_dedup_equals_the_greedy_passes_bit_for_bit(rng):
    # two clusters 2.4 DEDUP_RADIUS wide around random points, points of
    # the {0, pi} lattice and +-pi, where chains form and conjugates meet
    chains = 0
    for _ in range(300):
        centres = rng.choice([0.0, np.pi, -np.pi, 1.0], size=(2, 4)) + (rng.random((2, 1)) < 0.3) * rng.uniform(-3, 3, (2, 4))
        points = centres[rng.integers(0, 2, 8)] + rng.uniform(-1.2, 1.2, (8, 4)) * DEDUP_RADIUS
        got, want = np.array(_distinct(_wrap(points).tolist())), _conjugate_dedup(points)
        assert got.tobytes() == want.tobytes()
        # the rule "drop a point near any earlier one" keeps fewer here
        both = _wrap(np.vstack([points, -points]))
        near = np.abs(_wrap(both[:, None] - both)).max(axis=-1) < DEDUP_RADIUS
        chains += len(want) > np.flatnonzero(near.cumsum(axis=-1).diagonal() == 1).size
    assert chains > 30


def test_lattice_turns_are_exact_signs():
    # solve screens the {0, pi}^4 lattice with real turns: the real parts of
    # e^{i angle} there are exactly +-1, the imaginary parts rounding
    turns = np.exp(1j * (_LATTICE @ _ANGLE_MATRIX.T))
    assert np.array_equal(np.abs(turns.real), np.ones((16, 12)))
    assert turns.real.tobytes() == _LATTICE_TURNS.tobytes()
    assert np.abs(turns.imag).max() < 4e-16


def test_real_lattice_screen_keeps_the_complex_screens_points(rng):
    # the real sums are the complex sums' real parts bit for bit; their
    # imaginary parts stay far below SOLVER_TOL, so both keep the same points
    kept = 0
    for lengths in _one_branch_cases():
        sums = residual(lengths, _LATTICE)
        assert np.abs(sums[:, 1::2]).max() <= 1e-14 * lengths.max()
        want = _LATTICE[np.abs(sums).max(axis=-1) < SOLVER_TOL]
        got = _closing_lattice(lengths)
        assert got.tobytes() == want.tobytes()
        kept += len(got)
    assert kept >= 20
    # numpy adds a complex row of four as (z0 + z1) + (z2 + z3)
    for lengths in rng.uniform(0.0, 1.0, (200, 12)):
        turned = lengths * _LATTICE_TURNS
        halves = turned[:, ::2] + turned[:, 1::2]
        assert (halves[:, ::2] + halves[:, 1::2]).tobytes() == residual(lengths, _LATTICE)[:, ::2].tobytes()


def test_solve_factors_about_one_jacobian_per_start(monkeypatch):
    # a start retires once a full step takes it to the rounding of the sums,
    # so most starts cost one SVD; with a second SVD that only confirmed no
    # lower residual, these draws took 2.28 a solve.  Every kept start is
    # factored at least once
    rng = np.random.default_rng(4008)
    cases = [vector_lengths(expansion_probabilities(random_pure_invariants(rng)[2])) for _ in range(200)]
    factored = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: factored.append(np.prod(np.shape(a)[:-2])) or svd(a, **kw))
    counts = []
    for lengths in cases:
        quad = _coefficients(lengths)
        roots = _roots(lengths, quad)
        starts = _starts(lengths, np.angle(roots[roots.imag >= 0.0]), quad)
        kept = (np.abs(residual(lengths, starts)).max(axis=-1) < START_TOL * lengths.max()).sum()
        factored.clear()
        solve(lengths)
        assert kept >= 1 and sum(factored) >= kept
        counts.append(sum(factored))
    assert np.mean(counts) <= 1.4
