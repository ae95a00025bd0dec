import copy
import math
import pickle

import numpy as np
import pytest

from msta import dynamics, entanglement, oracle, states
from msta.algebra import Multivector, _dense_coeffs, _from_dense, _to_dense, allclose
from msta.states import (
    DensityOperator,
    ProductState,
    Rotor,
    apply_rotor,
    bell,
    bloch_slice,
    bloch_state,
    frame_for,
    ghz,
    local_rotor,
    product_state,
    projector_sphere,
    pure_state_from_amplitudes,
    pure_state_from_spheres,
    sphere_state,
    w_state,
)
from msta.tolerances import INVARIANT_PURE_TOL, PURE_TOL

from conftest import random_hermitian_mv, same_bits


def c(bits):
    return ProductState.computational(bits)


def test_bloch_state_examples():
    rho = bloch_state([0, 0, 1])
    assert rho.mv == Multivector(1, {"I": 0.5, "Z": 0.5})
    assert rho.is_pure(1e-12)
    assert bloch_state([0, 0, 0]).mv == Multivector.scalar(1, 0.5)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert abs(bloch_state(v).purity() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        bloch_state([0, 0, 1.1])


def test_product_state_00():
    rho = product_state(c("00"))
    assert rho.mv == Multivector(2, {"II": 0.25, "ZI": 0.25, "IZ": 0.25, "ZZ": 0.25})
    # {11} flips both signs
    rho11 = product_state(c("11"))
    assert rho11.mv == Multivector(2, {"II": 0.25, "ZI": -0.25, "IZ": -0.25, "ZZ": 0.25})


def chained_product_state_mv(ps):
    """A product state as the chain of multivector products
    scalar * (1 + s_0 n_0)/2 * (1 + s_1 n_1)/2 * ..., the reference the
    Kronecker construction is held to bit for bit."""
    n = ps.n_qubits
    mv = Multivector.scalar(n, 1.0)
    for q, (ax, s) in enumerate(zip(ps.axes, ps.signs)):
        factor = 0.5 * (Multivector.scalar(n, 1.0) + s * Multivector.vector(n, q, ax))
        mv = mv * factor
    return mv


# components a factor keeps, halves below the prune or drops, with both signs
_TINY = (0.0, -0.0, 1e-15, -1e-15, 1.5e-14, -1.5e-14, 3e-14, -3e-14)


def reference_axes(n, rng):
    """Four kinds of n unit axes: random, axis-aligned, axis-aligned with
    the other two components drawn from _TINY, and random with about a
    third of the components drawn from _TINY."""
    rand = rng.standard_normal((n, 3))
    rand /= np.linalg.norm(rand, axis=1)[:, None]
    aligned = np.zeros((n, 3))
    aligned[np.arange(n), rng.integers(0, 3, size=n)] = rng.choice([-1.0, 1.0], size=n)
    tiny = np.where(aligned == 0.0, rng.choice(_TINY, size=(n, 3)), aligned)
    mixed = np.where(rng.random((n, 3)) < 0.3, rng.choice(_TINY, size=(n, 3)), rand)
    mixed[np.abs(mixed).max(axis=1) < 0.5, 2] = 1.0
    mixed /= np.linalg.norm(mixed, axis=1)[:, None]
    return [tuple(map(tuple, axes)) for axes in (rand, aligned, tiny, mixed)]


def test_product_state_equals_the_product_chain_bit_for_bit(rng):
    for n in range(1, 7):
        for _ in range(12):
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=n))
            for axes in reference_axes(n, rng):
                ps = ProductState(axes, signs)
                assert same_bits(product_state(ps).mv, chained_product_state_mv(ps))
    # a computational-basis state keeps only its 2^n terms
    assert len(product_state(c("0" * 12)).mv) == 1 << 12


def test_bloch_state_equals_the_sum_bit_for_bit(rng):
    vectors = [rng.uniform(-0.57, 0.57, size=3) for _ in range(20)]
    vectors += [rng.choice(_TINY, size=3) for _ in range(20)]
    vectors += [np.where(rng.random(3) < 0.5, rng.choice(_TINY, size=3), rng.uniform(-0.5, 0.5, size=3)) for _ in range(20)]
    for v in vectors:
        want = 0.5 * (Multivector.scalar(1, 1.0) + Multivector.vector(1, 0, v))
        assert same_bits(bloch_state(v).mv, want)
    # a NaN length used to pass the unit-ball check
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="unit ball"):
            bloch_state(bad)


def test_product_state_idempotent(rng):
    for _ in range(5):
        axes = rng.standard_normal((3, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=3))
        rho = product_state(ProductState(tuple(map(tuple, axes)), signs))
        assert (rho.mv * rho.mv - rho.mv).max_abs() < 1e-12


def test_projector_sphere_0011_closed_forms():
    sph = projector_sphere(c("00"), c("11"))
    assert sph.p == Multivector(2, {"II": 0.5, "ZZ": 0.5})
    assert sph.z == Multivector(2, {"ZI": 0.5, "IZ": 0.5})
    assert sph.x == Multivector(2, {"XX": 0.5, "YY": -0.5})
    assert sph.y == Multivector(2, {"XY": 0.5, "YX": 0.5})
    sph.check()


def test_projector_sphere_0001_is_conditional_bloch():
    sph = projector_sphere(c("00"), c("01"))
    assert sph.p == Multivector(2, {"II": 0.5, "ZI": 0.5})
    # the sphere is qubit b's Bloch basis times the projector
    assert sph.z == Multivector.blade("IZ") * sph.p
    assert sph.x == Multivector.blade("IX") * sph.p
    assert sph.y == Multivector.blade("IY") * sph.p
    sph.check()


def test_projector_sphere_000111():
    sph = projector_sphere(c("000"), c("111"))
    assert sph.z == Multivector(3, {"ZII": 0.25, "IZI": 0.25, "IIZ": 0.25, "ZZZ": 0.25})
    assert sph.x == Multivector(
        3, {"XXX": 0.25, "XYY": -0.25, "YXY": -0.25, "YYX": -0.25}
    )
    sph.check()


def test_projector_sphere_validation():
    with pytest.raises(ValueError):
        projector_sphere(c("00"), c("00"))
    tilted = ProductState(((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), (1, 1))
    with pytest.raises(ValueError):
        projector_sphere(c("00"), tilted)


def test_projector_sphere_check_raises_on_a_bad_basis():
    # the relations used to be asserts, which python -O strips
    m = Multivector.blade("XX")
    with pytest.raises(ValueError, match="P\\^2 = P"):
        states.ProjectorSphere(m, m, m, m, frozenset({0})).check()


def test_density_operators_are_immutable():
    # setting mv on a built state used to leave n_qubits at 2 while mv had
    # 3 qubits, with purity() 100.0: the constructor's checks were bypassed.
    # The purity-defect bound is immutable too, and copies drop it
    rho = bell("phi+")
    for name in ("mv", "n_qubits", "_defect", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(rho, name, Multivector(3, {"XXX": 5.0}))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(rho, name)
    assert rho.n_qubits == 2 and abs(rho.purity() - 1.0) < 1e-12 and rho.is_pure()
    assert rho._defect is None and type(rho._defect_bound()) is float and rho._defect == rho._defect_bound()
    for twin in (copy.copy(rho), copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert type(twin) is DensityOperator and twin.mv == rho.mv and twin.n_qubits == 2
        assert twin._defect is None
        with pytest.raises(AttributeError, match="immutable"):
            twin.mv = rho.mv


def test_is_pure_matches_the_pairwise_defect(rng):
    # the dense pass against the largest coefficient of rho rho - rho formed
    # term by term, on pure, mixed and product states
    for n in range(1, 6):
        pure = DensityOperator(oracle.from_matrix(oracle.statevector_density(oracle.random_statevector(n, rng))))
        mixed = DensityOperator(0.5 * pure.mv + 0.5 * product_state(c("0" * n)).mv)
        for rho in (pure, mixed, product_state(c("1" * n))):
            defect = (rho.mv * rho.mv - rho.mv).max_abs()
            for tol in (1e-9, 0.5 * defect, 2.0 * defect):
                assert rho.is_pure(tol) == (defect <= tol)


def pruned_dense_defect(rho):
    """The largest coefficient of rho rho - rho after the prune, from the
    multivector of the dense square."""
    m = _to_dense(rho.mv)
    return _from_dense(m @ m - m).max_abs()


def evolved(rho0, rng):
    """rho0 after one evolve, and after a chain of three, under a random
    Hamiltonian: states that carry a bound on their purity defect."""
    hmv = random_hermitian_mv(rho0.n_qubits, rng)
    once = dynamics.evolve(rho0, hmv, float(rng.uniform(-3.0, 3.0)))
    chain = once
    for _ in range(2):
        chain = dynamics.evolve(chain, hmv, float(rng.uniform(-3.0, 3.0)))
    return [once, chain]


def test_is_pure_matches_the_pruned_dense_defect(rng):
    # the verdict read off the unpruned coefficients equals the one from the
    # pruned multivector, also where `evolve` carried a bound on the
    # defect.  Mixtures (1 - eps) rho + eps 1/2^n have a defect linear in
    # eps; scaled to 1 -/+ 1e-3 of PURE_TOL they sit just below and just
    # above it
    for n in range(1, 5):
        pure = pure_state_from_amplitudes(oracle.random_statevector(n, rng))
        white = Multivector.scalar(n, 1.0 / (1 << n))

        def mix(eps):
            return DensityOperator((1.0 - eps) * pure.mv + eps * white)

        eps = 1e-6 * PURE_TOL / pruned_dense_defect(mix(1e-6))
        edges = [mix(eps * (1.0 - 1e-3)), mix(eps * (1.0 + 1e-3))]
        assert [pruned_dense_defect(rho) <= PURE_TOL for rho in edges] == [True, False]
        starts = [pure, mix(0.3), product_state(c("0" * n)), *edges]
        for rho in starts + [rho_t for rho0 in starts for rho_t in evolved(rho0, rng)]:
            for tol in (PURE_TOL, 1e-12, 1e-15, 0.0):
                assert rho.is_pure(tol) == (pruned_dense_defect(rho) <= tol)
    # rho rho overflows to inf
    huge = DensityOperator(Multivector(2, {"II": 0.25, "XZ": 1e200}))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        huge.is_pure()


def random_axis(rng):
    v = rng.standard_normal(3)
    return tuple((v / np.linalg.norm(v)).tolist())


def certified_draws(rng, sizes=range(1, 9)):
    """States their constructors certify: amplitudes on the default axes,
    on random unit axes and with half of them zeroed, and product states on
    random axes."""
    for n in sizes:
        for _ in range(3):
            psi = oracle.random_statevector(n, rng)
            axes = [random_axis(rng) for _ in range(n)]
            half = psi.copy()
            half[rng.permutation(psi.size)[: psi.size // 2]] = 0.0
            yield pure_state_from_amplitudes(psi)
            yield pure_state_from_amplitudes(psi, axes)
            yield pure_state_from_amplitudes(half / np.linalg.norm(half))
            yield product_state(ProductState(tuple(axes), tuple(int(s) for s in rng.choice([-1, 1], n))))


def test_constructed_states_bound_their_exact_defect(rng):
    # the bound a constructor writes is at least the largest coefficient of
    # rho rho - rho that `is_pure`'s exact pass computes, and at least the
    # root-sum-square `_defect_bound` measures on an uncertified copy; up to
    # n = 8 it settles `is_pure` at PURE_TOL.  Bloch states inside the ball
    # are mixed, and their bound holds too
    pure = [*certified_draws(rng), bloch_state(random_axis(rng))]
    mixed = [bloch_state(r * np.array(random_axis(rng))) for r in (1.0 - 1e-12, 0.999, 0.5, 0.0)]
    for rho in pure + mixed:
        twin = DensityOperator(rho.mv)
        assert type(rho._defect) is float and twin._defect is None
        m = _to_dense(rho.mv)
        largest = float(np.abs(_dense_coeffs(m @ m - m)).max())
        m = twin.matrix()
        rss = float(np.linalg.norm(m @ m - m)) / math.sqrt(len(m))
        assert rho._defect >= largest and rho._defect >= rss, (rho.n_qubits, rho._defect, largest, rss)
    assert max(rho._defect for rho in pure) <= PURE_TOL


def test_certified_and_uncertified_states_get_one_verdict(rng):
    # the bound settles `is_pure` only where the exact pass agrees: at n = 9
    # it exceeds PURE_TOL and the pass decides, and a mixed Bloch state's
    # bound exceeds both tolerances
    blochs = [bloch_state(r * np.array(random_axis(rng))) for r in (1.0, 1.0 - 1e-12, 0.999999, 0.5)]
    verdicts = []
    for rho in [*certified_draws(rng, (1, 2, 3, 4, 9)), *blochs]:
        twin = DensityOperator(rho.mv)
        for tol in (PURE_TOL, INVARIANT_PURE_TOL):
            verdicts.append(rho.is_pure(tol))
            assert verdicts[-1] == twin.is_pure(tol), (rho.n_qubits, tol, rho._defect)
    assert verdicts[-4:] == [False] * 4 and verdicts.count(True) == len(verdicts) - 4


def test_constructed_states_are_not_squared(rng, dense_squares):
    # a constructed start settles the entanglement measures' gate and
    # carries its bound into `evolve` without a dense square; a bare copy
    # is squared once
    rho = pure_state_from_amplitudes(oracle.random_statevector(2, rng))
    hmv = random_hermitian_mv(2, rng)
    entanglement.entanglement_entropy(rho)
    entanglement.entanglement_entropy(product_state(c("01")))
    dynamics.evolve(rho, hmv, 0.3)
    assert dense_squares == []
    entanglement.entanglement_entropy(DensityOperator(rho.mv))
    dynamics.evolve(DensityOperator(rho.mv), hmv, 0.3)
    assert dense_squares == ["pass", "measure"]


def test_z_order_flips_y():
    fwd = projector_sphere(c("00"), c("11"), north_first=True)
    rev = projector_sphere(c("00"), c("11"), north_first=False)
    assert rev.z == -fwd.z
    assert rev.y == -fwd.y
    assert rev.x == fwd.x


def test_x_invariant_under_opposite_azimuth_rotation():
    # rotating two differing qubits' orthogonal vectors by opposite angles
    # leaves X unchanged
    sph = projector_sphere(c("000"), c("111"))
    phi = 0.77
    xb = np.array([np.cos(phi), np.sin(phi), 0.0])
    xc = np.array([np.cos(phi), -np.sin(phi), 0.0])
    rebuilt = (
        Multivector.vector(3, 0, [1, 0, 0])
        * Multivector.vector(3, 1, xb)
        * Multivector.vector(3, 2, xc)
        * sph.p
    )
    assert allclose(rebuilt, sph.x, 1e-12)


def test_sphere_state_poles_and_purity():
    sph = projector_sphere(c("00"), c("11"))
    north = sphere_state(sph, 0.0, 0.0)
    assert allclose(north.mv, product_state(c("00")).mv, 1e-12)
    for theta, phi in ((0.3, 1.2), (np.pi / 2, 0.0), (2.2, -2.0)):
        rho = sphere_state(sph, theta, phi)
        assert (rho.mv * rho.mv - rho.mv).max_abs() < 1e-10


def test_sphere_state_matches_statevector():
    sph = projector_sphere(c("00"), c("11"))
    theta, phi = np.pi / 3, np.pi / 4
    rho = sphere_state(sph, theta, phi)
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(theta / 2)
    amps[3] = np.exp(1j * phi) * np.sin(theta / 2)
    assert np.abs(rho.matrix() - oracle.statevector_density(amps)).max() < 1e-12


def test_pure_state_from_amplitudes_basics():
    amps = np.zeros(8)
    amps[0] = 1.0
    rho = pure_state_from_amplitudes(amps)
    assert allclose(rho.mv, product_state(c("000")).mv, 1e-12)
    ghz_amps = np.zeros(8)
    ghz_amps[0] = ghz_amps[7] = 1 / np.sqrt(2)
    assert allclose(pure_state_from_amplitudes(ghz_amps).mv, ghz().mv, 1e-12)
    with pytest.raises(ValueError):
        pure_state_from_amplitudes(np.ones(8))


def test_pure_state_rejects_non_finite_amplitudes():
    for bad in ([np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1, 0, 0, complex(0, np.nan)]):
        for build in (pure_state_from_amplitudes, pure_state_from_spheres):
            with pytest.raises(ValueError, match="finite"):
                build(bad)
    with pytest.raises(ValueError):
        pure_state_from_amplitudes([1, 0, 0, 0], axes=[(0.0, 0.0, 1.0)])


def test_pure_state_from_amplitudes_matches_oracle(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            psi = oracle.random_statevector(n, rng)
            rho = pure_state_from_amplitudes(psi)
            assert np.abs(rho.matrix() - oracle.statevector_density(psi)).max() < 1e-10
            assert rho.is_pure(1e-10)


def test_x_coefficients_are_sqrt_pipj(rng):
    psi = oracle.random_statevector(2, rng)
    rho = pure_state_from_amplitudes(psi)
    sph = projector_sphere(c("00"), c("11"))
    # project the state onto the {00,11} sphere's X and Y directions
    cx = 4.0 * (sph.x * rho.mv).scalar_part() / 2.0
    cy = 4.0 * (sph.y * rho.mv).scalar_part() / 2.0
    want = abs(psi[0]) * abs(psi[3])
    assert abs(np.hypot(cx, cy) - want) < 1e-12


def test_angle_additivity(rng):
    # phases of X-terms compose: psi_ik = psi_ij + psi_jk for i < j < k
    psi = oracle.random_statevector(3, rng)
    ph = np.angle(psi)
    psi01 = ph[1] - ph[0]
    psi12 = ph[2] - ph[1]
    psi02 = ph[2] - ph[0]
    assert abs((psi01 + psi12) - psi02) < 1e-10


def test_bell_closed_forms():
    assert bell("phi+").mv == Multivector(2, {"II": 0.25, "ZZ": 0.25, "XX": 0.25, "YY": -0.25})
    assert bell("psi-").mv == Multivector(2, {"II": 0.25, "ZZ": -0.25, "XX": -0.25, "YY": -0.25})
    for which in ("phi+", "phi-", "psi+", "psi-"):
        rho = bell(which)
        for q in (0, 1):
            reduced = rho.mv.drop_qubits([1 - q]) * 2.0
            assert allclose(reduced, Multivector.scalar(1, 0.5), 1e-12)
    with pytest.raises(ValueError):
        bell("sigma+")


def test_bell_from_amplitudes():
    amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert allclose(pure_state_from_amplitudes(amps).mv, bell("phi+").mv, 1e-12)
    amps = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert allclose(pure_state_from_amplitudes(amps).mv, bell("psi-").mv, 1e-12)


def test_ghz_w_purity_and_oracle():
    for rho in (ghz(), w_state()):
        assert (rho.mv * rho.mv - rho.mv).max_abs() < 1e-12
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    assert np.abs(w_state().matrix() - oracle.statevector_density(amps)).max() < 1e-12


def test_apply_rotor_identity_and_spectrum(rng):
    rho = w_state()
    ident = Rotor(Multivector.scalar(3, 1.0))
    assert allclose(apply_rotor(ident, rho).mv, rho.mv, 1e-15)
    r = local_rotor(3, 1, [0.0, 1.0, 0.0], 1.3).compose(local_rotor(3, 0, [1, 0, 0], -0.4))
    rotated = apply_rotor(r, rho)
    w1, _ = oracle.jacobi_eigh(rho.matrix())
    w2, _ = oracle.jacobi_eigh(rotated.matrix())
    assert np.abs(w1 - w2).max() < 1e-10


def test_pi_rotation_maps_singlet_to_phi_plus():
    r = local_rotor(2, 0, [0.0, 1.0, 0.0], np.pi)
    assert allclose(apply_rotor(r, bell("psi-")).mv, bell("phi+").mv, 1e-12)


def test_singlet_rotation_invariance(rng):
    singlet = bell("psi-")
    for _ in range(5):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(0, 2 * np.pi))
        r = local_rotor(2, 0, axis, angle).compose(local_rotor(2, 1, axis, angle))
        assert (apply_rotor(r, singlet).mv - singlet.mv).max_abs() < 1e-10


def test_wide_local_rotor_matches_closed_form(rng):
    n = 12
    for q in (0, 5, n - 1):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        closed = np.cos(theta / 2) - np.sin(theta / 2) * (Multivector.iota(n) * Multivector.vector(n, q, axis))
        got, want = local_rotor(n, q, axis, theta).mv.terms(), closed.terms()
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) < 1e-14


def test_purity_equals_scalar_part_of_square(rng):
    for n in (1, 2, 3, 4):
        pure = [pure_state_from_amplitudes(oracle.random_statevector(n, rng)) for _ in range(5)]
        weights = rng.dirichlet(np.ones(len(pure)))
        mixed = DensityOperator(sum((w * rho.mv for w, rho in zip(weights, pure)), Multivector.zero(n)))
        for rho in pure + [mixed, DensityOperator(Multivector.scalar(n, 1.0 / (1 << n)))]:
            assert abs(rho.purity() - (1 << n) * (rho.mv * rho.mv).scalar_part()) < 1e-15


def test_rotor_rejects_non_unitary():
    with pytest.raises(ValueError):
        Rotor(Multivector.scalar(2, 2.0))


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(Multivector(1, {"I": 0.5, "X": 1.0j}))
    with pytest.raises(ValueError):
        DensityOperator(Multivector(1, {"I": 0.7}))


def test_frame_for_z_is_standard():
    e1, e2, n = frame_for([0.0, 0.0, 1.0])
    assert np.allclose(e1, [1, 0, 0])
    assert np.allclose(e2, [0, 1, 0])
    assert np.allclose(np.cross(e1, e2), n)


def test_frame_for_e2_equals_np_cross():
    # e2 is written out by components; it must stay bit for bit np.cross
    axes = np.random.default_rng(2000).standard_normal((2000, 3))
    for axis in axes / np.linalg.norm(axes, axis=1, keepdims=True):
        e1, e2, n = frame_for(axis)
        assert np.array_equal(e2, np.cross(n, e1))


def test_constructors_are_positive_semidefinite(rng):
    candidates = [
        bloch_state([0.3, -0.1, 0.4]),
        product_state(c("010")),
        sphere_state(projector_sphere(c("00"), c("11")), 1.1, -0.8),
        bell("phi-"),
        ghz(),
        w_state(),
        pure_state_from_amplitudes(oracle.random_statevector(3, rng)),
    ]
    for rho in candidates:
        w, _ = oracle.jacobi_eigh(rho.matrix())
        assert w.min() > -1e-10
        assert w.max() < 1.0 + 1e-10


# the Pauli matrices in correlation-tensor index order 1, x, y, z
_PAULI_BY_INDEX = (
    np.eye(2),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def test_correlation_tensor_matches_oracle_traces(rng):
    for n in (1, 2, 3, 4):
        for mixed in (False, True):
            mv = pure_state_from_amplitudes(oracle.random_statevector(n, rng)).mv
            if mixed:
                other = pure_state_from_amplitudes(oracle.random_statevector(n, rng)).mv
                mv = 0.3 * mv + 0.7 * other
            rho = DensityOperator(mv)
            m = oracle.to_matrix(rho.mv)
            t = rho.correlation_tensor()
            assert t.shape == (4,) * n
            for mu in np.ndindex(*t.shape):
                sigma = np.eye(1)
                for k in mu:  # qubit 0 first: the most significant index bit
                    sigma = np.kron(sigma, _PAULI_BY_INDEX[k])
                assert abs(t[mu] - np.trace(m @ sigma).real) < 1e-13


def test_bloch_slices_of_the_correlation_tensor():
    rho = product_state(ProductState(((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), (1, -1)))
    t = rho.correlation_tensor()
    assert t[0, 0] == 1.0
    assert np.allclose(bloch_slice(t, 0), [1, 0, 0], atol=1e-15)
    assert np.allclose(bloch_slice(t, 1), [0, -0.6, -0.8], atol=1e-15)
    assert np.array_equal(bloch_state([0.1, -0.2, 0.3]).bloch_vector(), [0.1, -0.2, 0.3])
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            bloch_slice(t, bad)
    # True used to read qubit 1 and 1.0 to raise TypeError from the indexing
    for bad in (True, False, np.True_, 1.0, np.float64(0.0)):
        with pytest.raises(ValueError, match="not an integer"):
            bloch_slice(t, bad)
        with pytest.raises(ValueError, match="not an integer"):
            entanglement.entanglement_entropy(bell("phi+"), cut=bad)
    assert np.array_equal(bloch_slice(t, np.int64(1)), bloch_slice(t, 1))


def test_nan_axes_are_refused():
    # a NaN norm used to pass the unit check, giving NaN frames and axes
    bad = (np.nan, 0.0, 0.0)
    with pytest.raises(ValueError, match="unit 3-vector"):
        frame_for(bad)
    with pytest.raises(ValueError, match="unit 3-vector"):
        ProductState((bad,), (1,))
