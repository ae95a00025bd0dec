import numpy as np
import pytest

from msta import oracle, states, vectorsum
from msta.algebra import Multivector
from msta.invariants import (
    InfeasibleInvariantsError,
    InvariantSet3Q,
    B_function,
    F_function,
    degenerate_i6,
    degenerate_limit,
    expansion_probabilities,
    feasibility,
    invariants_2q,
    invariants_3q,
    lengths_exist,
    named_point,
    sudbery,
    three_tangle_oracle,
    zero_tangle_point,
)
from msta.states import (
    DensityOperator,
    ProductState,
    apply_rotor,
    bell,
    bloch_slice,
    ghz,
    local_rotor,
    product_state,
    projector_sphere,
    pure_state_from_amplitudes,
    sphere_state,
    w_state,
)
from msta.tolerances import DEGENERATE_V, INVARIANT_PURE_TOL, PAIR_TOL
from msta.vectorsum import special_state, vector_lengths


def random_pure_3q(rng):
    psi = oracle.random_statevector(3, rng)
    return psi, DensityOperator(oracle.from_matrix(oracle.statevector_density(psi)))


def test_invariants_2q_examples():
    assert abs(invariants_2q(product_state(ProductState.computational("01"))) - 1.0) < 1e-12
    for which in ("phi+", "phi-", "psi+", "psi-"):
        assert invariants_2q(bell(which)) < 1e-12
    c = ProductState.computational
    sph = projector_sphere(c("00"), c("11"))
    theta = 1.2
    rho = sphere_state(sph, theta, 0.7)
    assert abs(invariants_2q(rho) - abs(np.cos(theta))) < 1e-12


def _blade_vector(mv, qubit):
    """Qubit ``qubit``'s (x, y, z) blade coefficients of ``mv``, as a
    vector multivector."""
    n = mv.n_qubits
    comps = []
    for ch in "XYZ":
        label = ["I"] * n
        label[qubit] = ch
        comps.append(mv.coeff("".join(label)).real)
    return Multivector.vector(n, qubit, comps)


def _support_part(mv, qubits):
    """The terms of ``mv`` acting non-trivially on exactly ``qubits``."""
    terms = {
        label: c
        for label, c in mv.terms().items()
        if {q for q, ch in enumerate(label) if ch != "I"} == set(qubits)
    }
    return Multivector(mv.n_qubits, terms)


def test_invariants_equal_the_scalar_part_products(rng):
    # the paper's forms: v_q from the grade-one blades of 2^n rho,
    # vbar2 = < v_a v_b V_ab > and vbar3 = < v_a v_b v_c V_abc >
    for _ in range(200):
        rho2 = pure_state_from_amplitudes(oracle.random_statevector(2, rng))
        mv4 = rho2.mv * 4.0
        va, vb = _blade_vector(mv4, 0), _blade_vector(mv4, 1)
        la, lb = (float(np.sqrt((v * v).scalar_part())) for v in (va, vb))
        assert abs(invariants_2q(rho2) - 0.5 * (la + lb)) < 1e-12

        rho = pure_state_from_amplitudes(oracle.random_statevector(3, rng))
        mv8 = rho.mv * 8.0
        vs = [_blade_vector(mv8, q) for q in range(3)]
        lens = [float(np.sqrt((v * v).scalar_part())) for v in vs]
        pairs = [
            (vs[a] * vs[b] * _support_part(mv8, (a, b))).scalar_part()
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
        vbar3 = (vs[0] * vs[1] * vs[2] * _support_part(mv8, (0, 1, 2))).scalar_part()
        inv = invariants_3q(rho)
        got = np.array([inv.v_a, inv.v_b, inv.v_c, inv.vbar2, inv.vbar3])
        want = np.array(lens + [np.mean(pairs), vbar3])
        assert np.abs(got - want).max() < 1e-12


def _invariants_3q_reference(rho):
    """`invariants_3q` on numpy arrays, as it was: the correlation tensor,
    np.linalg.norm, va @ V_ab @ vb and einsum, with the same checks."""
    if rho.n_qubits != 3:
        raise ValueError("expected a three-qubit state")
    if not rho.is_pure(INVARIANT_PURE_TOL):
        raise ValueError("invariant extraction requires a pure state")
    t = rho.correlation_tensor()
    va, vb, vc = t[1:, 0, 0], t[0, 1:, 0], t[0, 0, 1:]
    lens = [float(np.linalg.norm(v)) for v in (va, vb, vc)]
    if min(lens) <= DEGENERATE_V:
        raise ValueError("vanishing reduced Bloch vector: use degenerate_limit for this state")
    pair_scalars = [float(va @ t[1:, 1:, 0] @ vb), float(va @ t[1:, 0, 1:] @ vc), float(vb @ t[0, 1:, 1:] @ vc)]
    spread = max(pair_scalars) - min(pair_scalars)
    if spread > PAIR_TOL:
        raise ValueError(f"pairwise invariants disagree by {spread}")
    vbar3 = float(np.einsum("ijk,i,j,k", t[1:, 1:, 1:], va, vb, vc))
    return InvariantSet3Q(lens[0], lens[1], lens[2], sum(pair_scalars) / 3.0, vbar3)


def _parity_states():
    """1000 seeded 3-qubit states: 400 random complex, 200 with real
    amplitudes, and 50 at each of 10^-1..10^-4 from |000> and from W."""
    rng = np.random.default_rng(3636)
    states_ = [oracle.random_statevector(3, rng) for _ in range(400)]
    states_ += [rng.standard_normal(8).astype(complex) for _ in range(200)]
    zero, w = np.zeros((2, 8), dtype=complex)
    zero[0] = 1.0
    w[[1, 2, 4]] = 3**-0.5
    for base in (zero, w):
        for k in range(1, 5):
            states_ += [base + 10.0**-k * oracle.random_statevector(3, rng) for _ in range(50)]
    return [psi / np.linalg.norm(psi) for psi in states_]


def test_invariants_3q_equals_the_array_form_within_four_ulp():
    states_ = _parity_states()
    assert len(states_) == 1000
    worst = 0.0
    for psi in states_:
        rho = pure_state_from_amplitudes(psi)
        got, want = invariants_3q(rho), _invariants_3q_reference(rho)
        # the lengths are numpy's norms bit for bit
        assert got.vs == want.vs
        worst = max(worst, abs(got.vbar2 - want.vbar2), abs(got.vbar3 - want.vbar3))
    assert worst <= 4.0 * np.finfo(float).eps


def test_invariants_3q_refuses_what_the_array_form_refuses(rng):
    mixed = DensityOperator(0.5 * (pure_state_from_amplitudes(oracle.random_statevector(3, rng)).mv + ghz().mv))
    # a pure state with one pair correlation moved by 2e-9 past the other two
    rho = pure_state_from_amplitudes(oracle.random_statevector(3, rng))
    t = rho.correlation_tensor()
    va, vb = t[1:, 0, 0], t[0, 1:, 0]
    shifted = DensityOperator(rho.mv + Multivector(3, {"XXI": 2e-9 / (8.0 * va[0] * vb[0])}))
    for state in (ghz(), mixed, bell("phi+"), shifted):
        with pytest.raises(ValueError) as want:
            _invariants_3q_reference(state)
        with pytest.raises(ValueError) as got:
            invariants_3q(state)
        # the spread is a difference of pair scalars, each within a few ulp
        text, _, number = str(got.value).partition(" by ")
        want_text, _, want_number = str(want.value).partition(" by ")
        assert text == want_text and bool(number) == bool(want_number)
        assert not number or abs(float(number) - float(want_number)) <= 4.0 * np.finfo(float).eps
    assert text == "pairwise invariants disagree"


def test_invariants_2q_rejects_mixed():
    mixed = DensityOperator(0.5 * bell("phi+").mv + 0.5 * bell("psi+").mv)
    with pytest.raises(ValueError):
        invariants_2q(mixed)


def test_invariants_3q_w_state():
    inv = invariants_3q(w_state())
    assert np.allclose(inv.vs, [1 / 3] * 3, atol=1e-12)
    assert abs(inv.vbar2 + 1 / 27) < 1e-12
    assert abs(inv.vbar3 + 1 / 27) < 1e-12


def test_invariants_3q_seed_relation(rng):
    va, vb, vc = 0.4, 0.55, 0.6
    inv, rho = special_state("seed", va, vb, vc)
    got = invariants_3q(rho)
    assert abs(got.vbar2 - va * vb * vc) < 1e-12
    assert abs(got.vbar3 - va * vb * vc) < 1e-12


def test_invariants_3q_rejects_degenerate():
    with pytest.raises(ValueError):
        invariants_3q(ghz())


def test_invariants_local_unitary_invariance(rng):
    psi, rho = random_pure_3q(rng)
    inv = invariants_3q(rho)
    r = (
        local_rotor(3, 0, [0, 1, 0], 0.7)
        .compose(local_rotor(3, 1, [1, 0, 0], -1.1))
        .compose(local_rotor(3, 2, np.array([1, 1, 1]) / np.sqrt(3), 2.3))
    )
    inv2 = invariants_3q(apply_rotor(r, rho))
    for a, b in zip(
        (inv.v_a, inv.v_b, inv.v_c, inv.vbar2, inv.vbar3),
        (inv2.v_a, inv2.v_b, inv2.v_c, inv2.vbar2, inv2.vbar3),
    ):
        assert abs(a - b) < 1e-9


def test_expansion_probabilities_sum_to_one(rng):
    _, rho = random_pure_3q(rng)
    inv = invariants_3q(rho)
    p = expansion_probabilities(inv)
    assert abs(p.sum() - 1.0) < 1e-14
    assert p.min() > -1e-10


def test_expansion_probabilities_seed_pattern():
    va, vb, vc = 0.3, 0.4, 0.2
    g = va * vb * vc
    p = expansion_probabilities(InvariantSet3Q(va, vb, vc, g, g))
    assert abs(p[0b000] - (1 + va + vb + vc) / 4) < 1e-12
    assert abs(p[0b011] - (1 + va - vb - vc) / 4) < 1e-12
    assert abs(p[0b101] - (1 - va + vb - vc) / 4) < 1e-12
    assert abs(p[0b110] - (1 - va - vb + vc) / 4) < 1e-12
    for idx in (0b001, 0b010, 0b100, 0b111):
        assert abs(p[idx]) < 1e-12
    pneg = expansion_probabilities(InvariantSet3Q(va, vb, vc, -g, -g))
    assert abs(pneg[0b111] - (1 - va - vb - vc) / 4) < 1e-12


def _loop_probabilities(va, vb, vc, v2, v3):
    """The per-index float loop that the array form replaced."""
    out = []
    for idx in range(8):
        i, j, k = (-1.0 if idx & bit else 1.0 for bit in (4, 2, 1))
        out.append(
            (
                1.0
                + i * va
                + j * vb
                + k * vc
                + i * j * (v2 / (va * vb))
                + i * k * (v2 / (va * vc))
                + j * k * (v2 / (vb * vc))
                + i * j * k * (v3 / (va * vb * vc))
            )
            / 8.0
        )
    return out


def _python_b(inv):
    """B_function in Python floats and ``**``."""
    a, b, g = inv.alpha, inv.beta, inv.gamma
    v2, v3 = inv.vbar2, inv.vbar3
    return (
        -(v3**3)
        + (b + v2) * v3**2
        + (a * v2**2 - 2.0 * b * v2 + g * (1.0 - a)) * v3
        + v2**4
        - a * v2**3
        + (b - 2.0 * g) * v2**2
        - g * (1.0 - a) * v2
        + g * g
    )


def test_array_and_float_evaluations_are_bit_identical(rng):
    for _ in range(20):
        va, vb, vc = rng.uniform(0.05, 0.95, 3).tolist()
        v2, v3 = rng.uniform(-1.0, 1.0, (2, 100))
        arr = InvariantSet3Q(va, vb, vc, v2, v3)
        probs, b_vals, i6 = expansion_probabilities(arr), B_function(arr), sudbery(arr).i6
        assert probs.shape == (8, 100)
        for n, (x2, x3) in enumerate(zip(v2.tolist(), v3.tolist())):
            inv = InvariantSet3Q(va, vb, vc, x2, x3)
            assert expansion_probabilities(inv).tolist() == probs[:, n].tolist()
            assert probs[:, n].tolist() == _loop_probabilities(va, vb, vc, x2, x3)
            assert B_function(inv) == b_vals[n] == _python_b(inv)
            assert sudbery(inv).i6 == i6[n]


def test_scalar_probabilities_equal_the_array_path_bit_for_bit(rng):
    # Python floats, numpy scalars and 0-d arrays take Python arithmetic; a
    # one-point array takes the array path
    points = [rng.uniform(-1.0, 1.0, 2).tolist() for _ in range(300)]
    points += [[0.0, -0.0], [-0.0, 0.0], [1e-300, -1e-300], [0.1, 0.1]]
    for n, (v2, v3) in enumerate(points):
        vs = rng.uniform(1e-6, 1.0, 3) if n % 2 else rng.uniform(0.05, 0.95, 3).tolist()
        want = expansion_probabilities(InvariantSet3Q(*vs, np.array([v2]), np.array([v3])))[:, 0]
        for kind in (float, np.float64, np.array):
            got = expansion_probabilities(InvariantSet3Q(*vs, kind(v2), kind(v3)))
            assert got.shape == (8,) and got.tobytes() == want.tobytes()


def test_sudbery_examples():
    assert sudbery(InvariantSet3Q(0, 0, 0, 0, 0)).i6 == 1.0
    w = sudbery(InvariantSet3Q(1 / 3, 1 / 3, 1 / 3, -1 / 27, -1 / 27))
    assert abs(w.i6) < 1e-12
    prod = sudbery(InvariantSet3Q(1, 1, 1, 1, 1))
    assert prod.i6 == pytest.approx(1 - 6 - 6 + 3 + 8)
    assert prod.i2 == prod.i3 == prod.i4 == 1.0
    assert prod.i5 == 1.0


def test_three_tangle_oracle_anchors():
    ghz_amps = np.zeros(8)
    ghz_amps[0] = ghz_amps[7] = 1 / np.sqrt(2)
    assert abs(three_tangle_oracle(ghz_amps) - 1.0) < 1e-12
    w_amps = np.zeros(8)
    w_amps[[1, 2, 4]] = 1 / np.sqrt(3)
    assert three_tangle_oracle(w_amps) < 1e-12
    with pytest.raises(ValueError):
        three_tangle_oracle(np.ones(8))


def test_i6_formula_matches_hyperdeterminant(rng):
    worst = 0.0
    checked = 0
    while checked < 300:
        psi, rho = random_pure_3q(rng)
        try:
            inv = invariants_3q(rho)
        except ValueError:
            continue
        checked += 1
        worst = max(worst, abs(sudbery(inv).i6 - three_tangle_oracle(psi)))
    assert worst < 1e-8


def test_b_function_zero_on_special_points():
    for kind, v2v3 in (
        ("seed", lambda g: (g, g)),
        ("negative_seed", lambda g: (-g, -g)),
    ):
        va, vb, vc = 0.35, 0.25, 0.3
        g = va * vb * vc
        inv = InvariantSet3Q(va, vb, vc, *v2v3(g))
        assert abs(B_function(inv)) < 1e-15
    va, vb, vc = 0.5, 0.6, 0.7
    vmin2 = 0.25
    inv = InvariantSet3Q(va, vb, vc, vmin2, (va * vb * vc) ** 2 / vmin2)
    assert abs(B_function(inv)) < 1e-15
    v2, v3 = zero_tangle_point(va, vb, vc)
    assert abs(B_function(InvariantSet3Q(va, vb, vc, v2, v3))) < 1e-13


def test_b_nonpositive_on_pure_states(rng):
    for _ in range(50):
        _, rho = random_pure_3q(rng)
        try:
            inv = invariants_3q(rho)
        except ValueError:
            continue
        assert B_function(inv) <= 1e-9


def test_f_function_matches_length_products(rng):
    for _ in range(20):
        _, rho = random_pure_3q(rng)
        try:
            inv = invariants_3q(rho)
        except ValueError:
            continue
        lengths = vector_lengths(expansion_probabilities(inv))
        for block in range(3):
            l0, l1, l2, l3 = lengths[4 * block : 4 * block + 4]
            prod = 1.0
            for s1 in (1, -1):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        prod *= l0 + s1 * l1 + s2 * l2 + s3 * l3
            assert abs(F_function(inv) - prod) < 1e-9


def test_feasibility_verdicts(rng):
    _, rho = random_pure_3q(rng)
    try:
        inv = invariants_3q(rho)
        assert feasibility(inv, slack=1e-9).feasible
    except ValueError:
        pass
    # impossible seed-like point: v_c too small for v_a = v_b = 1
    bad = InvariantSet3Q(1.0, 1.0, 0.5, 0.5, 0.5)
    report = feasibility(bad)
    assert not report.feasible
    assert any("p[" in v for v in report.violations)
    assert feasibility(InvariantSet3Q(0, 0, 0, 0, 0)).feasible


def test_special_state_seed_product():
    inv, rho = special_state("seed", 1.0, 1.0, 1.0)
    assert (rho.mv - product_state(ProductState.computational("000")).mv).max_abs() < 1e-12
    assert abs(sudbery(inv).i6) < 1e-12


def test_special_state_negative_seed_w():
    inv, rho = special_state("negative_seed", 1 / 3, 1 / 3, 1 / 3)
    assert (rho.mv - w_state().mv).max_abs() < 1e-9
    assert abs(sudbery(inv).i6) < 1e-12


def test_seed_biseparable_factorizes():
    # v_c = 1 forces v_a = v_b and the state splits off qubit c
    v = 0.6
    _, rho = special_state("seed", v, v, 1.0)
    pair = oracle.partial_trace_matrix(rho.matrix(), [0, 1], 3)
    c_mat = oracle.partial_trace_matrix(rho.matrix(), [2], 3)
    assert np.abs(rho.matrix() - np.kron(pair, c_mat)).max() < 1e-12
    assert np.abs(c_mat - np.diag([1.0, 0.0])).max() < 1e-12
    with pytest.raises(InfeasibleInvariantsError):
        special_state("seed", 0.5, 0.6, 1.0)


def test_special_state_seed_i6_closed_form():
    va, vb, vc = 0.5, 0.3, 0.4
    inv, rho = special_state("seed", va, vb, vc)
    want = (
        (1 + va - vb - vc)
        * (1 - va + vb - vc)
        * (1 - va - vb + vc)
        * (1 + va + vb + vc)
    )
    assert abs(sudbery(inv).i6 - want) < 1e-12
    got = invariants_3q(rho)
    assert abs(sudbery(got).i6 - want) < 1e-9


def test_special_state_negative_seed_i6_closed_form():
    va, vb, vc = 0.2, 0.3, 0.4
    inv, _ = special_state("negative_seed", va, vb, vc)
    want = (
        (1 - va + vb + vc)
        * (1 + va - vb + vc)
        * (1 + va + vb - vc)
        * (1 - va - vb - vc)
    )
    assert abs(sudbery(inv).i6 - want) < 1e-12


def test_special_state_max_tangle_points():
    for v in (0.2, 0.5, 0.8):
        inv, rho = special_state("max_tangle", v, v, v)
        assert abs(inv.vbar2 - v * v) < 1e-12
        assert abs(inv.vbar3 - v**4) < 1e-12
        got = invariants_3q(rho)
        assert abs(sudbery(got).i6 - (1 - v * v) ** 2) < 1e-9


def test_special_state_max_tangle_exceeds_seed():
    # where the max-tangle state exists its 3-tangle beats the seed's
    va, vb, vc = 0.5, 0.6, 0.7
    inv_m, _ = special_state("max_tangle", va, vb, vc)
    inv_s, _ = special_state("seed", va, vb, vc)
    vmin = min(va, vb, vc)
    gap = sudbery(inv_m).i6 - sudbery(inv_s).i6
    want = 4.0 * (vmin**2 - va * vb * vc) ** 2 / vmin**2
    assert abs(gap - want) < 1e-12


def test_special_state_zero_tangle():
    inv, rho = special_state("zero_tangle", 0.5, 0.6, 0.7)
    assert abs(sudbery(inv).i6) < 1e-12
    got = invariants_3q(rho)
    assert abs(sudbery(got).i6) < 1e-8


def test_special_state_decides_at_one_slack(monkeypatch):
    # past the maximum-3-tangle point of (0.6, 0.6, 0.6), where three
    # probabilities vanish: the least is -5.2e-10 and B is rounding, so a
    # report at 1e-9 passed it on to vector_lengths, which raised a ValueError
    point = (0.36 + 5e-10, 0.1296 + 6e-10)
    monkeypatch.setattr(vectorsum, "named_point", lambda kind, va, vb, vc: point)
    report = feasibility(InvariantSet3Q(0.6, 0.6, 0.6, *point))
    assert -6e-10 < report.probabilities.min() < -5e-10 and report.B_ok
    with pytest.raises(InfeasibleInvariantsError, match=r"p\[001\] = -5\.2\d*e-10 < 0"):
        special_state("max_tangle", 0.6, 0.6, 0.6)


def test_zero_tangle_matches_negative_seed_on_boundary():
    va, vb, vc = 0.2, 0.3, 0.5  # sums to 1
    v2, v3 = zero_tangle_point(va, vb, vc)
    g = va * vb * vc
    assert abs(v2 + g) < 1e-12
    assert abs(v3 + g) < 1e-12


def test_special_state_existence_conditions():
    with pytest.raises(InfeasibleInvariantsError):
        special_state("seed", 1.0, 1.0, 0.5)
    with pytest.raises(InfeasibleInvariantsError):
        special_state("negative_seed", 0.5, 0.5, 0.5)
    with pytest.raises(InfeasibleInvariantsError):
        special_state("max_tangle", 0.1, 0.9, 0.9)
    with pytest.raises(InfeasibleInvariantsError):
        special_state("zero_tangle", 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        special_state("nonsense", 0.5, 0.5, 0.5)


# break v_a + v_b + v_c <= 1 + 2 v_min; the second also has no real
# zero-3-tangle point, the first has one
IMPOSSIBLE_LENGTHS = [(0.5, 0.76, 0.76), (0.1, 0.9, 0.9)]


def test_zero_tangle_point_refuses_impossible_lengths():
    # it checked only f1 f2 f3 >= 0, which these lengths pass, and returned
    # (0.284, 0.297) for a triple no state has
    with pytest.raises(InfeasibleInvariantsError, match="polygon"):
        zero_tangle_point(0.5, 0.76, 0.76)


def test_zero_tangle_point_refuses_sum_below_one():
    # it returned (-0.107, -0.081) at (0.2, 0.2, 0.2), where no zero-3-tangle
    # state exists, while named_point raised by its own copy of the rule
    for point in (zero_tangle_point, lambda *vs: named_point("zero_tangle", *vs)):
        with pytest.raises(InfeasibleInvariantsError, match=r"sum\(v\) = 0\.6"):
            point(0.2, 0.2, 0.2)
        # within EXISTENCE_SLACK of the boundary the point still exists
        assert point(0.2, 0.3, 0.5 - 5e-13) == pytest.approx((-0.03, -0.03), abs=1e-11)


@pytest.mark.parametrize("kind", ["seed", "negative_seed", "max_tangle", "zero_tangle"])
@pytest.mark.parametrize("vs", IMPOSSIBLE_LENGTHS)
def test_named_point_refuses_impossible_lengths(kind, vs):
    assert not lengths_exist(*vs)
    with pytest.raises(InfeasibleInvariantsError, match="polygon inequality"):
        named_point(kind, *vs)
    with pytest.raises(InfeasibleInvariantsError, match="polygon inequality"):
        special_state(kind, *vs)


def test_lengths_exist_holds_on_random_states(rng):
    for _ in range(200):
        _, rho = random_pure_3q(rng)
        t = rho.correlation_tensor()
        assert lengths_exist(*(float(np.linalg.norm(bloch_slice(t, q))) for q in range(3)))


def test_degenerate_limit_no_vectors_is_ghz_class():
    rho = degenerate_limit("no_vectors")
    assert rho.is_pure(1e-12)
    amps = np.zeros(8)
    amps[[0, 3, 5, 6]] = 0.5
    assert abs(three_tangle_oracle(amps) - 1.0) < 1e-12
    # same spectra as GHZ for the state and every reduced operator
    for keep in ([0], [1], [2], [0, 1]):
        w1, _ = oracle.jacobi_eigh(
            oracle.partial_trace_matrix(rho.matrix(), keep, 3)
        )
        w2, _ = oracle.jacobi_eigh(
            oracle.partial_trace_matrix(ghz().matrix(), keep, 3)
        )
        assert np.abs(w1 - w2).max() < 1e-10


def test_degenerate_limit_one_vector():
    vc = 1.0
    rho = degenerate_limit("one_vector", v_c=vc)
    assert degenerate_i6("one_vector", v_c=vc) == 0.0
    vc = 0.6
    rho = degenerate_limit("one_vector", v_c=vc)
    assert rho.is_pure(1e-12)
    t = rho.correlation_tensor()
    assert np.linalg.norm(bloch_slice(t, 0)) < 1e-12
    assert np.linalg.norm(bloch_slice(t, 1)) < 1e-12
    assert abs(np.linalg.norm(bloch_slice(t, 2)) - vc) < 1e-12


def test_degenerate_limit_two_vectors():
    vb = vc = 0.3
    rho = degenerate_limit("two_vectors", v_b=vb, v_c=vc)
    assert rho.is_pure(1e-12)
    t = rho.correlation_tensor()
    lens = [float(np.linalg.norm(bloch_slice(t, q))) for q in range(3)]
    assert lens[0] < 1e-12
    assert abs(lens[1] - vb) < 1e-12
    assert abs(lens[2] - vc) < 1e-12
    # closed-form squared 3-tangle against the hyperdeterminant
    amps = np.sqrt(np.clip(np.diag(rho.matrix()).real, 0, None))
    want = degenerate_i6("two_vectors", v_b=vb, v_c=vc)
    assert abs(three_tangle_oracle(amps) - want) < 1e-10
    with pytest.raises(InfeasibleInvariantsError, match="polygon inequality"):
        degenerate_limit("two_vectors", v_b=0.7, v_c=0.6)


def test_three_tangle_oracle_refuses_nan_amplitude():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    amps[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        three_tangle_oracle(amps)


def test_feasibility_refuses_nan_invariants():
    # NaN probabilities and a NaN B used to pass their gates as feasible
    for vbar2, vbar3 in ((np.nan, 0.1), (0.1, np.nan)):
        assert not feasibility(InvariantSet3Q(0.5, 0.5, 0.5, vbar2, vbar3)).feasible


def _feasibility_cases(rng):
    """(lengths, vbar2 array, vbar3 array): random states' own points among
    points near them, a coarse scan grid on three triples, NaN vbars, a
    length just past 1, a triple whose v_a v_b vanishes and one with v_a = 0."""
    grid = np.linspace(-1.0, 1.0, 41)
    g2, g3 = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    cases = []
    while len(cases) < 10:
        _, rho = random_pure_3q(rng)
        try:
            inv = invariants_3q(rho)
        except ValueError:
            continue
        v2 = inv.vbar2 + np.concatenate([[0.0], rng.normal(0.0, 1e-3, 60)])
        v3 = inv.vbar3 + np.concatenate([[0.0], rng.normal(0.0, 1e-3, 60)])
        cases.append((inv.vs, v2, v3))
    for vs in ((0.333, 0.333, 0.333), (0.5, 0.6, 0.7), (0.2, 0.3, 0.6), (1.0 + 1e-9, 0.5, 0.5)):
        cases.append((vs, g2, g3))
    nan = np.array([np.nan, 0.1, np.nan, 0.0])
    cases.append(((0.5, 0.5, 0.5), nan, nan[::-1].copy()))
    small = np.array([0.0, 5e-11, -5e-11, 2e-10, -2e-10, 1e-3, np.nan])
    vanishing = (np.concatenate([g2, np.repeat(small, small.size)]), np.concatenate([g3, np.tile(small, small.size)]))
    cases.append(((1e-6, 1e-6, 0.5), *vanishing))
    cases.append(((0.0, 0.5, 0.5), *vanishing))  # no expansion probabilities
    return cases


def test_array_feasibility_equals_the_float_one_point_by_point(rng):
    for vs, v2, v3 in _feasibility_cases(rng):
        for slack in (1e-10, 1e-9):
            report = feasibility(InvariantSet3Q(*vs, v2, v3), slack)
            assert report.violations == ()
            for n, (x2, x3) in enumerate(zip(v2.tolist(), v3.tolist())):
                one = feasibility(InvariantSet3Q(*vs, x2, x3), slack)
                got = (report.feasible[n], report.p_ok[n], report.B_ok[n])
                assert got == (one.feasible, one.p_ok, one.B_ok), (vs, x2, x3, slack)
                assert one.feasible == (not one.violations)
                assert np.array_equal(report.B[n], one.B, equal_nan=True)
                if one.probabilities is None:
                    assert report.probabilities is None
                else:
                    assert np.array_equal(report.probabilities[:, n], one.probabilities, equal_nan=True)
