import math

import numpy as np
import pytest

from msta import oracle, states
from msta.algebra import _BLOCK_QUBITS, Multivector, _trace_plan
from msta.entanglement import (
    ChshSetting,
    binary_entropy,
    chsh_maximize,
    chsh_value,
    concurrence_2q,
    correlator,
    entanglement_entropy,
    measure_update,
    partial_trace,
)
from msta.states import ProductState, bell, local_rotor, product_state, projector_sphere, sphere_state

from conftest import same_bits


def sphere00_11():
    c = ProductState.computational
    return projector_sphere(c("00"), c("11"))


def test_partial_trace_of_sphere_state():
    theta = 1.1
    rho = sphere_state(sphere00_11(), theta, 0.4)
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.bloch_vector(), [0, 0, np.cos(theta)], atol=1e-12)


def test_partial_trace_product_state():
    rho = product_state(ProductState.computational("01"))
    assert np.allclose(partial_trace(rho, [1]).bloch_vector(), [0, 0, -1], atol=1e-15)


def test_partial_trace_matches_oracle(rng):
    psi = oracle.random_statevector(3, rng)
    rho = states.pure_state_from_amplitudes(psi)
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        got = partial_trace(rho, keep).matrix()
        want = oracle.partial_trace_matrix(oracle.statevector_density(psi), keep, 3)
        assert np.abs(got - want).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 1, 2])


def test_partial_trace_rejects_qubits_out_of_range(rng):
    # [0, 7] on 3 qubits must not reduce to qubit 0 alone
    rho = states.pure_state_from_amplitudes(oracle.random_statevector(3, rng))
    for keep in ([0, 7], [-1, 0], [3], [0, 1.0], [0.5], ["0"]):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)
    # True used to be taken as qubit 1
    for keep in ([True], [0, False], [np.True_], [np.False_, 1]):
        with pytest.raises(ValueError, match="is not an integer"):
            partial_trace(rho, keep)
    for keep in ([], [2, 0, 1], [1, 1, 0, 2]):
        with pytest.raises(ValueError, match="proper subset"):
            partial_trace(rho, keep)


def test_partial_trace_equals_scaled_drop_bit_for_bit(rng):
    for n in (2, 3, 5, 7):
        rho = states.pure_state_from_amplitudes(oracle.random_statevector(n, rng))
        for _ in range(6):
            keep = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
            dropped = [q for q in range(n) if q not in keep]
            got = partial_trace(rho, keep).mv
            want = rho.mv.drop_qubits(dropped) * 2.0 ** len(dropped)
            assert same_bits(got, want)


def test_trace_plan_paths_agree_with_the_oracle(rng):
    # the gather through the plan's index (full-span operators, n <= 6),
    # the drop mask and the oracle, for every keep; n = 7 has no index
    for n in range(2, 8):
        sph = projector_sphere(ProductState.computational("0" * n), ProductState.computational("1" * (n - 1) + "0"))
        axes = rng.standard_normal((n, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=n))
        full = [
            states.pure_state_from_amplitudes(oracle.random_statevector(n, rng)),
            product_state(ProductState(tuple(map(tuple, axes)), signs)),
        ]
        sparse = [
            product_state(ProductState.computational(rng.integers(0, 2, size=n).tolist())),
            sphere_state(sph, 0.7, -1.3),
        ]
        assert all(len(rho.mv) == 4**n for rho in full) and all(len(rho.mv) < 4**n for rho in sparse)
        matrices = [oracle.to_matrix(rho.mv) for rho in full + sparse]
        for mask in range(1, (1 << n) - 1):
            keep = [q for q in range(n) if mask >> q & 1]
            plan = _trace_plan(n, tuple(keep))
            assert (plan.span_index is None) == (n > _BLOCK_QUBITS)
            for rho, m in zip(full + sparse, matrices):
                masked = plan.masked_terms(rho.mv._keys, rho.mv._coeffs)
                assert same_bits(Multivector._raw(len(keep), *plan.terms(rho.mv)), Multivector._raw(len(keep), *masked))
                want = oracle.partial_trace_matrix(m, keep, n)
                assert np.abs(partial_trace(rho, keep).matrix() - want).max() < 1e-12


def test_entropy_endpoints_and_value():
    sph = sphere00_11()
    assert entanglement_entropy(sphere_state(sph, 0.0, 0.0)) == 0.0
    assert abs(entanglement_entropy(sphere_state(sph, np.pi / 2, 0.3)) - 1.0) < 1e-12
    want = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(entanglement_entropy(sphere_state(sph, np.pi / 3, 0.0)) - want) < 1e-12


def test_binary_entropy_refuses_a_non_probability():
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for p in (math.nan, 1.5, -0.25, math.inf, -math.inf, 1.0 + 1e-15):
        with pytest.raises(ValueError, match="p = "):
            binary_entropy(p)


def test_entropy_matches_oracle(rng):
    sph = sphere00_11()
    for _ in range(40):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        rho = sphere_state(sph, theta, phi)
        want = oracle.oracle_entropy(partial_trace(rho, [0]).matrix())
        assert abs(entanglement_entropy(rho) - want) < 1e-9


def test_entropy_same_for_both_cuts(rng):
    psi = oracle.random_statevector(2, rng)
    rho = states.pure_state_from_amplitudes(psi)
    assert abs(entanglement_entropy(rho, 0) - entanglement_entropy(rho, 1)) < 1e-12


def test_entropy_rejects_mixed():
    mixed = states.DensityOperator(0.5 * bell("phi+").mv + 0.5 * bell("psi-").mv)
    with pytest.raises(ValueError):
        entanglement_entropy(mixed)


def test_concurrence():
    assert concurrence_2q(product_state(ProductState.computational("10"))) == 0.0
    for which in ("phi+", "phi-", "psi+", "psi-"):
        assert abs(concurrence_2q(bell(which)) - 1.0) < 1e-12
    rho = sphere_state(sphere00_11(), np.pi / 3, 0.0)
    assert abs(concurrence_2q(rho) - np.sqrt(3) / 2) < 1e-12


def test_measure_update_single_qubit_probability():
    rho = states.bloch_state([0, 0, 1])
    theta = 0.9
    axis = [np.sin(theta), 0.0, np.cos(theta)]
    p_plus, _ = measure_update(rho, 0, axis, +1)
    p_minus, _ = measure_update(rho, 0, axis, -1)
    assert abs(p_plus - (1 + np.cos(theta)) / 2) < 1e-12
    assert abs(p_plus + p_minus - 1.0) < 1e-12


def test_measure_update_singlet_anticorrelation(rng):
    singlet = bell("psi-")
    s = rng.standard_normal(3)
    s /= np.linalg.norm(s)
    prob, post = measure_update(singlet, 0, s, +1)
    assert abs(prob - 0.5) < 1e-12
    assert np.abs(partial_trace(post, [1]).bloch_vector() + s).max() < 1e-10
    assert post.is_pure(1e-10)


def test_measure_update_impossible_outcome():
    rho = product_state(ProductState.computational("00"))
    with pytest.raises(ValueError):
        measure_update(rho, 0, [0, 0, 1], -1)


def reference_correlator(rho, axis_a, axis_b):
    """The paper's scalar-part form E(a, b) = 4 < a_1 b_2 rho >, from
    `Multivector.vector` products: the reference for `correlator`."""
    obs = Multivector.vector(2, 0, axis_a) * Multivector.vector(2, 1, axis_b)
    return 4.0 * (obs * rho.mv).scalar_part()


def reference_chsh(rho, setting):
    """E(QS) + E(RS) + E(RT) - E(QT) as one scalar part, the paper's form:
    the reference for `chsh_value`."""
    va = Multivector.vector
    q, r = va(2, 0, setting.q), va(2, 0, setting.r)
    s, t = va(2, 1, setting.s), va(2, 1, setting.t)
    return 4.0 * ((q * s + r * s + r * t - q * t) * rho.mv).scalar_part()


def random_axes(k, rng):
    vs = rng.standard_normal((k, 3))
    return [tuple(v) for v in vs / np.linalg.norm(vs, axis=1)[:, None]]


def test_correlator_and_chsh_value_match_the_scalar_part_forms(rng):
    # the correlation-tensor reads against the paper's multivector products,
    # on pure states and on mixtures of two
    rhos = []
    for _ in range(50):
        a = states.pure_state_from_amplitudes(oracle.random_statevector(2, rng))
        b = states.pure_state_from_amplitudes(oracle.random_statevector(2, rng))
        w = float(rng.uniform(0.0, 1.0))
        rhos += [a, states.DensityOperator(w * a.mv + (1.0 - w) * b.mv)]
    for rho in rhos:
        for _ in range(4):
            axis_a, axis_b = random_axes(2, rng)
            assert abs(correlator(rho, axis_a, axis_b) - reference_correlator(rho, axis_a, axis_b)) < 1e-14
            setting = ChshSetting(*random_axes(4, rng))
            assert abs(chsh_value(rho, setting) - reference_chsh(rho, setting)) < 1e-14
    for f, args in ((correlator, ((0, 0, 1), (0, 0, 1))), (chsh_value, (ChshSetting(*random_axes(4, rng)),))):
        with pytest.raises(ValueError, match="two-qubit"):
            f(states.ghz(), *args)


def test_chsh_single_correlator():
    assert abs(correlator(bell("psi-"), [0, 0, 1], [0, 0, 1]) + 1.0) < 1e-12


def test_chsh_optimal_setting_on_singlet():
    # q, r orthogonal; s, t opposite the diagonals
    q = np.array([1.0, 0, 0])
    r = np.array([0, 0, 1.0])
    s = -(r + q) / np.sqrt(2)
    t = -(r - q) / np.sqrt(2)
    setting = ChshSetting(tuple(q), tuple(r), tuple(s), tuple(t))
    assert abs(chsh_value(bell("psi-"), setting) - 2 * np.sqrt(2)) < 1e-12


def test_chsh_product_state_bound(rng):
    rho = product_state(ProductState.computational("00"))
    worst = 0.0
    for _ in range(2000):
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        setting = ChshSetting(*(tuple(v) for v in vs))
        worst = max(worst, chsh_value(rho, setting))
    assert worst <= 2.0 + 1e-9


def test_chsh_maximize_bell_states():
    for which in ("phi+", "phi-", "psi+", "psi-"):
        val, setting = chsh_maximize(bell(which))
        assert abs(val - 2 * np.sqrt(2)) < 1e-6
        # the reported setting reproduces the reported value
        assert abs(chsh_value(bell(which), setting) - val) < 1e-12


def test_chsh_maximize_axes_have_no_negative_zero():
    # a zero axis component is +0, so `msta chsh` never prints -0.0
    s = 2**-0.5
    singlet = states.pure_state_from_amplitudes([0.0, s, -s, 0.0])
    for rho in [bell(which) for which in ("phi+", "phi-", "psi+", "psi-")] + [singlet]:
        _, setting = chsh_maximize(rho)
        for axis in (setting.q, setting.r, setting.s, setting.t):
            assert all(math.copysign(1.0, x) == 1.0 for x in axis if x == 0.0), axis


def test_chsh_maximize_decreases_with_entanglement_angle():
    sph = sphere00_11()
    values = []
    for theta in (np.pi / 2, 1.2, 0.8, 0.4, 0.1):
        val, _ = chsh_maximize(sphere_state(sph, theta, 0.0))
        values.append(val)
    assert all(a > b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] > 2.0  # even weak entanglement violates the inequality


def test_chsh_invariant_under_joint_rotation(rng):
    rho = bell("phi-")
    vs = rng.standard_normal((4, 3))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    setting = ChshSetting(*(tuple(v) for v in vs))
    base = chsh_value(rho, setting)

    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = 1.1
    ra = local_rotor(2, 0, axis, angle)
    rb = local_rotor(2, 1, axis, angle)
    rotated_state = states.apply_rotor(ra.compose(rb), rho)

    def rot(v):
        c, s = np.cos(angle), np.sin(angle)
        v = np.asarray(v)
        return tuple(v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1 - c))

    rotated_setting = ChshSetting(rot(setting.q), rot(setting.r), rot(setting.s), rot(setting.t))
    assert abs(chsh_value(rotated_state, rotated_setting) - base) < 1e-10


def test_tsirelson_bound_sampled(rng):
    for _ in range(10):
        psi = oracle.random_statevector(2, rng)
        rho = states.pure_state_from_amplitudes(psi)
        val, _ = chsh_maximize(rho)
        assert val <= 2 * np.sqrt(2) + 1e-6


def _ascent_chsh(rho, restarts=8, tol=1e-12, max_iter=2000, seed=0):
    """Reference CHSH maximiser: from random (q, r), alternate the two
    analytic half-steps (best (s, t) lie along T^T(q + r) and T^T(r - q),
    best (q, r) along T(s - t) and T(s + t)) until the value improves by
    less than ``tol``; the best of ``restarts`` ascents.  T is built from
    the scalar-part `reference_correlator` over the Cartesian axes."""
    axes = np.eye(3)
    tmat = np.array([[reference_correlator(rho, ea, eb) for eb in axes] for ea in axes])

    def normalized(v):
        nrm = np.linalg.norm(v)
        return np.array([0.0, 0.0, 1.0]) if nrm < 1e-15 else v / nrm

    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(restarts):
        q = normalized(rng.standard_normal(3))
        r = normalized(rng.standard_normal(3))
        val = -np.inf
        for _ in range(max_iter):
            s = normalized(tmat.T @ (q + r))
            t = normalized(tmat.T @ (r - q))
            q = normalized(tmat @ (s - t))
            r = normalized(tmat @ (s + t))
            new_val = (q + r) @ tmat @ s + (r - q) @ tmat @ t
            if new_val - val < tol:
                val = new_val
                break
            val = new_val
        best = max(best, val)
    return best


def test_chsh_closed_form_matches_ascent_reference(rng):
    rhos = [states.pure_state_from_amplitudes(oracle.random_statevector(2, rng)) for _ in range(100)]
    for _ in range(50):
        a = states.pure_state_from_amplitudes(oracle.random_statevector(2, rng))
        b = states.pure_state_from_amplitudes(oracle.random_statevector(2, rng))
        w = float(rng.uniform(0.0, 1.0))
        rhos.append(states.DensityOperator(w * a.mv + (1.0 - w) * b.mv))
    for rho in rhos:
        val, setting = chsh_maximize(rho)
        ref = _ascent_chsh(rho)
        assert val >= ref - 1e-12
        assert abs(val - ref) < 1e-9
        assert abs(chsh_value(rho, setting) - val) < 1e-12


def test_chsh_maximize_product_states_respect_the_classical_bound(rng):
    for _ in range(50):
        axes = rng.standard_normal((2, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        signs = tuple(int(x) for x in rng.choice([-1, 1], size=2))
        val, _ = chsh_maximize(product_state(ProductState(tuple(map(tuple, axes)), signs)))
        assert val <= 2.0 + 1e-12


def test_chsh_maximize_rejects_other_qubit_counts():
    with pytest.raises(ValueError):
        chsh_maximize(states.ghz())


def test_chsh_setting_refuses_nan_axis():
    z = (0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="unit 3-vector"):
        ChshSetting(z, z, z, (np.nan, 0.0, 0.0))
