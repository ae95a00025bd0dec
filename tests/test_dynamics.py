import copy
import math

import numpy as np
import pytest

from msta import algebra, oracle, states
from msta.algebra import Multivector, _dense_coeffs, _dense_exp_i, _from_dense, _to_dense, allclose, exp_i
from msta.dynamics import (
    ExchangeHamiltonian,
    ProductEvolution,
    _standard_spheres,
    eigensystem_2q,
    evolve,
    hamiltonian,
    min_bloch_length,
    product_evolution,
    projector_decompose,
)
from msta.entanglement import partial_trace
from msta.states import ProductState, bell, product_state
from msta.tolerances import PRUNE_EPS, PURE_TOL, purity_defect_allowance

from conftest import fresh_copy, random_hermitian_mv, same_bits


def random_h(rng):
    return ExchangeHamiltonian(*(float(x) for x in rng.uniform(-1.5, 1.5, size=5)))


def test_hamiltonian_isotropic_form():
    hmv = hamiltonian(ExchangeHamiltonian.isotropic(2.0))
    assert hmv == Multivector(2, {"XX": 0.5, "YY": 0.5, "ZZ": 0.5})
    assert hamiltonian(ExchangeHamiltonian()) == Multivector.zero(2)


def test_hamiltonian_is_hermitian(rng):
    for _ in range(5):
        m = oracle.to_matrix(hamiltonian(random_h(rng)))
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_projector_decompose_isotropic():
    hmv = hamiltonian(ExchangeHamiltonian.isotropic(1.0))
    part00, part01 = projector_decompose(hmv)
    sph00, sph01 = _standard_spheres()
    assert allclose(part00 + part01, hmv, 1e-15)
    assert allclose(part00, 0.25 * sph00.p, 1e-15)
    assert allclose(part01, 0.25 * (-sph01.p + 2.0 * sph01.x), 1e-15)
    # the two parts commute
    assert (part00 * part01 - part01 * part00).max_abs() < 1e-12


def test_projector_decompose_field_case():
    h = ExchangeHamiltonian(1.0, 0.4, 0.6, 0.3, -0.2)
    part00, part01 = projector_decompose(hamiltonian(h))
    sph00, sph01 = _standard_spheres()
    want00 = 0.5 * (
        h.omega_minus * sph00.x + h.beta_plus * sph00.z + (h.omega_z / 2.0) * sph00.p
    )
    want01 = 0.5 * (
        h.omega_plus * sph01.x + h.beta_minus * sph01.z - (h.omega_z / 2.0) * sph01.p
    )
    assert allclose(part00, want00, 1e-12)
    assert allclose(part01, want01, 1e-12)


def test_projector_decompose_rejects_noncommuting():
    with pytest.raises(ValueError):
        projector_decompose(Multivector.blade("XI"))


def test_evolve_aligned_state_is_stationary():
    hmv = hamiltonian(ExchangeHamiltonian.isotropic(0.9))
    rho0 = states.sphere_state(_standard_spheres()[0], 0.77, 0.3)
    rho_t = evolve(rho0, hmv, 2.5)
    assert (rho_t.mv - rho0.mv).max_abs() < 1e-12


def test_evolve_anisotropic_00():
    h = ExchangeHamiltonian(1.2, 0.5, 0.8)
    sph00, _ = _standard_spheres()
    t = 1.9
    rho_t = evolve(product_state(ProductState.computational("00")), hamiltonian(h), t)
    wm = h.omega_minus
    want = 0.5 * (sph00.p + np.cos(wm * t) * sph00.z - np.sin(wm * t) * sph00.y)
    assert (rho_t.mv - want).max_abs() < 1e-12


def test_evolve_bell_state_constant_under_isotropic():
    hmv = hamiltonian(ExchangeHamiltonian.isotropic(1.1))
    for which in ("psi+", "psi-"):
        rho_t = evolve(bell(which), hmv, 3.3)
        assert (rho_t.mv - bell(which).mv).max_abs() < 1e-12


def mixed_product_start(n, rng):
    """A product of one-qubit states with Bloch lengths in [0.2, 0.9]."""
    mv = Multivector.scalar(n, 1.0)
    for q in range(n):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.2, 0.9) / np.linalg.norm(v)
        mv = mv * (0.5 * (1.0 + Multivector.vector(n, q, v)))
    return states.DensityOperator(mv)


def test_evolve_matches_oracle(rng):
    # exchange Hamiltonians on pure 2-qubit starts, then random generators
    # at n = 2..5 on pure and mixed starts: n <= 4 conjugates as matrices,
    # n = 5 takes the series rotor and pairwise products
    cases = []
    for _ in range(20):
        h = random_h(rng)
        psi = oracle.random_statevector(2, rng)
        t = float(rng.uniform(-3, 3))
        cases.append((states.pure_state_from_amplitudes(psi), hamiltonian(h), t))
    for n in (2, 3, 4, 5):
        for start in (states.pure_state_from_amplitudes(oracle.random_statevector(n, rng)), mixed_product_start(n, rng)):
            cases.append((start, random_hermitian_mv(n, rng), float(rng.uniform(-3, 3))))
    for rho0, hmv, t in cases:
        got = evolve(rho0, hmv, t)
        u = exp_i(hmv, t)
        assert allclose(got.mv, u * rho0.mv * u.reverse(), 1e-12)
        um = oracle.expm_minus_i(oracle.to_matrix(hmv), t)
        assert np.abs(got.matrix() - um @ rho0.matrix() @ um.conj().T).max() < 1e-9


def test_evolve_memo_cold_and_warm_calls_agree(rng):
    # the generator keeps its spectrum and the start its matrix, so later
    # steps reuse both; every step equals a step from fresh equal copies
    for n in (2, 3, 4):
        hmv = hamiltonian(random_h(rng)) if n == 2 else random_hermitian_mv(n, rng)
        rho0 = states.pure_state_from_amplitudes(oracle.random_statevector(n, rng))
        for t in rng.uniform(-3, 3, size=3):
            got = evolve(rho0, hmv, float(t))
            assert hmv._spectrum is not None and rho0.mv._dense is not None
            again = evolve(rho0, hmv, float(t))
            fresh = evolve(states.DensityOperator(fresh_copy(rho0.mv)), fresh_copy(hmv), float(t))
            assert same_bits(got.mv, again.mv) and same_bits(got.mv, fresh.mv)


def test_evolve_rejects_a_non_hermitian_generator_every_call():
    rho0 = product_state(ProductState.computational("00"))
    hmv = Multivector(2, {"XX": 0.5, "ZI": 0.25j})
    for _ in range(2):
        with pytest.raises(ValueError, match="Hermitian generator"):
            evolve(rho0, hmv, 1.0)
    assert hmv._spectrum is None and hmv._propagator is None


def random_start(n, kind, rng):
    """A pure start, a mixed product start, or a Hermitian unit-trace
    operator with Tr(rho^2) = 1/2^n + r^2, r in [0.5, 2], which no state
    has."""
    if kind == "pure":
        return states.pure_state_from_amplitudes(oracle.random_statevector(n, rng))
    if kind == "mixed":
        return mixed_product_start(n, rng)
    d = 1 << n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = g + g.conj().T
    g -= np.trace(g) / d * np.eye(d)
    g *= rng.uniform(0.5, 2.0) / np.linalg.norm(g)
    return states.DensityOperator(oracle.from_matrix(np.eye(d) / d + g))


def random_time(hmv, rng):
    """A time with |t| norm1(H) log-uniform in [1e-2, 1e3] (less when
    norm1(H) < 1)."""
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0) / max(hmv.norm1(), 1.0))


def exact_defects(rho):
    """(root-sum-square, largest) of the Pauli coefficients of rho^2 - rho:
    the first from the oracle's matrix, squared in extended precision; the
    second as `is_pure`'s dense pass computes it, before its prune."""
    m = oracle.to_matrix(rho.mv).astype(np.clongdouble)
    l2 = float(np.sqrt(np.sum(np.abs(m @ m - m) ** 2) / len(m)))
    md = _to_dense(rho.mv)
    return l2, float(np.abs(_dense_coeffs(md @ md - md)).max())


def test_evolve_carries_a_bound_on_the_purity_defect(rng):
    # 1000 draws of (rho0, H, t) at n = 1..4, then chains of 50 evolves:
    # the bound each result carries is at least its exact root-sum-square
    # defect and the largest coefficient `is_pure`'s pass computes.  From a
    # pure start the bound stays within PURE_TOL over the whole chain
    kinds = ("pure", "mixed", "unphysical")

    def checked_bound(rho):
        bound = rho._defect_bound()
        l2, largest = exact_defects(rho)
        assert bound >= l2 and bound >= largest, (rho.n_qubits, bound, l2, largest)
        return bound

    for draw in range(1000):
        n = 1 + draw % 4
        hmv = random_hermitian_mv(n, rng)
        checked_bound(evolve(random_start(n, kinds[draw % 3], rng), hmv, random_time(hmv, rng)))
    for n in range(1, 5):
        for kind in kinds:
            hmv = random_hermitian_mv(n, rng)
            rho = random_start(n, kind, rng)
            for _ in range(50):
                rho = evolve(rho, hmv, random_time(hmv, rng))
                bound = checked_bound(rho)
            if kind == "pure":
                assert bound <= PURE_TOL and rho.is_pure()


def conjugated_reference(rho0, hmv, t):
    """U rho0 U^H as two matmuls on rho0's matrix, U the matrix of
    `exp_i`'s spectral route, and one `_from_dense`."""
    u = _dense_exp_i(hmv, t)
    return _from_dense(u @ _to_dense(rho0.mv) @ u.conj().T)


def test_evolve_matches_the_conjugation_reference(rng):
    # the propagator's step against the conjugation, per coefficient, over
    # exchange and random generators, pure, mixed and unphysical starts and
    # random times.  Each route is within the rounding that
    # `purity_defect_allowance` grants one step, 8 d^2 u scaled by
    # Tr(rho^2) when that exceeds 1, and a coefficient at the prune
    # threshold may be kept by one route and dropped by the other: so they
    # differ by at most PRUNE_EPS + 16 d^2 u max(1, Tr(rho^2)).  The worst
    # gap measured here is 4.4e-16, at n = 1
    for draw in range(600):
        n = 1 + draw % 4
        hmv = hamiltonian(random_h(rng)) if n == 2 and draw % 8 == 1 else random_hermitian_mv(n, rng)
        rho0 = random_start(n, ("pure", "mixed", "unphysical")[draw % 3], rng)
        # every fifth time with |t| norm1(H) up to 1e9, where the phases
        # are the same on both routes, and phases rounded per eigenvalue
        # pair would be off by 1e-8
        t = random_time(hmv, rng) * (1e6 if draw % 5 == 4 else 1.0)
        bound = PRUNE_EPS + 16.0 * (1 << (2 * n)) * 2.0**-53 * max(1.0, rho0.purity())
        assert allclose(evolve(rho0, hmv, t).mv, conjugated_reference(rho0, hmv, t), bound), (n, t)


def test_evolve_writes_the_bound_and_squares_its_start_once(rng, monkeypatch):
    hmv = hamiltonian(random_h(rng))
    # an uncertified start: the constructor's own bound would spare the square
    rho0 = states.DensityOperator(states.pure_state_from_amplitudes(oracle.random_statevector(2, rng)).mv)
    # `_defect_bound` takes the matrix for its square through
    # `DensityOperator.matrix`; `_conjugated` reads rho0's through `_to_dense`
    matrix = states.DensityOperator.matrix
    squared = []
    monkeypatch.setattr(states.DensityOperator, "matrix", lambda rho: squared.append(rho) or matrix(rho))
    rho = evolve(rho0, hmv, 0.4)
    assert type(rho0._defect) is float and type(rho._defect) is float
    for t in rng.uniform(-3.0, 3.0, size=20):
        evolve(rho0, hmv, float(t))
    assert sum(a is rho0 for a in squared) == 1
    # a chain of k evolves adds one allowance per step to its start's bound
    chain, k = rho, 10
    for _ in range(k):
        chain = evolve(chain, hmv, float(rng.uniform(-3.0, 3.0)))
    want = rho._defect + k * purity_defect_allowance(2)
    assert type(chain._defect) is float and math.isclose(chain._defect, want, rel_tol=1e-12)
    assert chain.is_pure() and sum(a is rho for a in squared) == 0
    # copies and equality ignore the bound
    for twin in (states.DensityOperator(fresh_copy(rho.mv)), copy.copy(rho), copy.deepcopy(rho)):
        assert twin.mv == rho.mv and same_bits(twin.mv, rho.mv) and twin._defect is None


def test_no_bound_is_carried_above_four_qubits(rng):
    rho0 = states.DensityOperator(states.pure_state_from_amplitudes(oracle.random_statevector(5, rng)).mv)
    rho = evolve(rho0, random_hermitian_mv(5, rng), 0.7)
    assert rho._defect is None and rho0._defect is None
    assert rho.is_pure() and rho._defect is None


def test_an_overflowing_start_raises_as_without_the_bound(rng):
    huge = states.DensityOperator(Multivector(2, {"II": 0.25, "XZ": 1e200}))
    # a generic generator's rounding leaves the result non-Hermitian
    hmv = hamiltonian(random_h(rng))
    for t in (0.0, 0.3, 2.5):
        with pytest.raises(ValueError, match="must be Hermitian"):
            evolve(huge, hmv, t)
    # a diagonal one does not, and rho rho overflows: there is no bound,
    # so even at tol = inf the exact pass raises
    rho = evolve(huge, hamiltonian(ExchangeHamiltonian(omega_z=1.0)), 1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        rho.is_pure(math.inf)
    assert math.isnan(rho._defect_bound())


@pytest.mark.parametrize("degenerate", [False, True])
def test_memoized_spectrum_equals_closed_form_energies(degenerate, rng, monkeypatch):
    if degenerate:
        cases = [ExchangeHamiltonian(0.7, 0.7, 0.4, 0.3, -0.3)]
    else:
        cases = [random_h(rng) for _ in range(10)]
    rho0 = product_state(ProductState.computational("01"))
    # the propagator is the one `_block_coeffs` an evolve step makes
    block_coeffs = algebra._block_coeffs
    built = []
    monkeypatch.setattr(algebra, "_block_coeffs", lambda w, k: built.append(w.shape) or block_coeffs(w, k))
    for h in cases:
        hmv = hamiltonian(h)
        built.clear()
        evolve(rho0, hmv, 0.5)
        p = hmv._propagator
        for t in rng.uniform(-3.0, 3.0, size=19):
            evolve(rho0, hmv, float(t))
        assert hmv._propagator is p and built == [(16, 16)]
        w, v, norm1 = hmv._spectrum
        want = sorted(e for _, e in eigensystem_2q(h))
        assert np.abs(w - np.array(want)).max() < 1e-12
        assert norm1 == hmv.norm1()
        assert np.abs((v * w) @ v.conj().T - _to_dense(hmv)).max() < 1e-12
        # column j 4 + k holds the coefficients of the eigen-dyad v_j v_k^H
        dyads = [_dense_coeffs(np.outer(v[:, j], v[:, k].conj())) for j in range(4) for k in range(4)]
        assert np.abs(p - np.stack(dyads, axis=1)).max() < 1e-15


def test_evolve_preserves_spectrum(rng):
    h = random_h(rng)
    psi = oracle.random_statevector(2, rng)
    rho0 = states.pure_state_from_amplitudes(psi)
    rho_t = evolve(rho0, hamiltonian(h), 1.3)
    w0, _ = oracle.jacobi_eigh(rho0.matrix())
    wt, _ = oracle.jacobi_eigh(rho_t.matrix())
    assert np.abs(w0 - wt).max() < 1e-9
    assert abs(rho_t.purity() - 1.0) < 1e-9


def test_eigensystem_field_case_energies(rng):
    h = random_h(rng)
    pairs = eigensystem_2q(h)
    want = sorted(
        [
            (h.omega_z + 2 * h.omega00) / 4,
            (h.omega_z - 2 * h.omega00) / 4,
            (-h.omega_z + 2 * h.omega01) / 4,
            (-h.omega_z - 2 * h.omega01) / 4,
        ]
    )
    got = sorted(e for _, e in pairs)
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-12
    w, _ = oracle.jacobi_eigh(oracle.to_matrix(hamiltonian(h)))
    assert np.abs(np.array(got) - w).max() < 1e-9


def test_eigensystem_residuals(rng):
    h = random_h(rng)
    hmv = hamiltonian(h)
    for rho_e, energy in eigensystem_2q(h):
        assert (hmv * rho_e.mv - energy * rho_e.mv).max_abs() < 1e-9
        assert abs(4.0 * (hmv * rho_e.mv).scalar_part() - energy) < 1e-12


def test_eigensystem_degenerate_axis_falls_back_to_z():
    # omega_x = omega_y and beta_a = -beta_b make the aligned space
    # degenerate; the Z basis vector then serves as the axis
    h = ExchangeHamiltonian(0.7, 0.7, 0.4, 0.3, -0.3)
    assert h.omega00 == 0.0
    hmv = hamiltonian(h)
    for rho_e, energy in eigensystem_2q(h):
        assert (hmv * rho_e.mv - energy * rho_e.mv).max_abs() < 1e-12


def test_eigensystem_isotropic_contains_psi_states():
    pairs = eigensystem_2q(ExchangeHamiltonian.isotropic(1.0))
    mats = [rho.mv for rho, _ in pairs]
    assert any((m - bell("psi+").mv).max_abs() < 1e-12 for m in mats)
    assert any((m - bell("psi-").mv).max_abs() < 1e-12 for m in mats)
    energies = sorted(e for _, e in pairs)
    assert np.allclose(energies, [-0.75, 0.25, 0.25, 0.25])


def test_product_evolution_aligned_is_stationary():
    pe = ProductEvolution.from_axes([0, 0, 1.0], [0, 0, 1.0])
    full, ra, rb = product_evolution(pe, 1.0, 2.2)
    assert (full.mv - product_state(ProductState.computational("00")).mv).max_abs() < 1e-12
    assert np.allclose(ra.bloch_vector(), [0, 0, 1])


def test_product_evolution_matches_evolve(rng):
    for _ in range(15):
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        omega = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0, 10))
        pe = ProductEvolution.from_axes(m, n)
        full, ra, rb = product_evolution(pe, omega, t)
        direct = evolve(
            product_state(ProductState((tuple(m), tuple(n)), (1, 1))),
            hamiltonian(ExchangeHamiltonian.isotropic(omega)),
            t,
        )
        assert (full.mv - direct.mv).max_abs() < 1e-9
        assert np.abs(ra.bloch_vector() - partial_trace(direct, [0]).bloch_vector()).max() < 1e-9
        assert np.abs(rb.bloch_vector() - partial_trace(direct, [1]).bloch_vector()).max() < 1e-9


def test_product_evolution_reduced_closed_form():
    m = np.array([0, 0, 1.0])
    n = np.array([np.sin(1.0), 0, np.cos(1.0)])
    pe = ProductEvolution.from_axes(m, n)
    omega, t = 1.4, 2.6
    _, ra, rb = product_evolution(pe, omega, t)
    p, q = pe.p_len, pe.q_len
    want_a = (
        p * np.array(pe.p_hat)
        + q * np.cos(omega * t) * np.array(pe.q_hat)
        + p * q * np.sin(omega * t) * np.array(pe.r_hat)
    )
    assert np.abs(ra.bloch_vector() - want_a).max() < 1e-12
    want_b = (
        p * np.array(pe.p_hat)
        - q * np.cos(omega * t) * np.array(pe.q_hat)
        - p * q * np.sin(omega * t) * np.array(pe.r_hat)
    )
    assert np.abs(rb.bloch_vector() - want_b).max() < 1e-12


def test_product_evolution_geometry_invariants(rng):
    m = rng.standard_normal(3)
    m /= np.linalg.norm(m)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    pe = ProductEvolution.from_axes(m, n)
    assert abs(np.dot(pe.p_hat, pe.q_hat)) < 1e-12
    assert abs(pe.p_len**2 + pe.q_len**2 - 1.0) < 1e-12


def test_entanglement_periodicity():
    pe = ProductEvolution.from_axes([0, 0, 1.0], [1.0, 0, 0])
    omega = 0.9
    _, ra0, _ = product_evolution(pe, omega, 0.0)
    _, ra1, _ = product_evolution(pe, omega, 2 * np.pi / omega)
    assert abs(
        np.linalg.norm(ra0.bloch_vector()) - np.linalg.norm(ra1.bloch_vector())
    ) < 1e-9


def test_min_bloch_length_endpoints():
    assert min_bloch_length(0.0) == 1.0
    assert min_bloch_length(np.pi) == 0.0


def test_min_bloch_length_monotone():
    grid = np.linspace(0, np.pi, 200)
    vals = [min_bloch_length(p) for p in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_min_bloch_length_matches_numeric_minimum():
    for psi in (0.5, np.pi / 2, 2.4):
        m = np.array([0, 0, 1.0])
        n = np.array([np.sin(psi), 0, np.cos(psi)])
        pe = ProductEvolution.from_axes(m, n)
        ts = np.linspace(0, 2 * np.pi, 100001)
        lengths = np.sqrt(
            pe.p_len**2
            + (pe.q_len * np.cos(ts)) ** 2
            + (pe.p_len * pe.q_len * np.sin(ts)) ** 2
        )
        assert abs(min_bloch_length(psi) - lengths.min()) < 1e-6


def test_product_evolution_refuses_nan_axis():
    with pytest.raises(ValueError, match="unit 3-vector"):
        ProductEvolution.from_axes((np.nan, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_exchange_hamiltonian_refuses_non_finite_coupling():
    # a NaN coupling used to reach eigensystem_2q's degenerate-axis branch
    # and come back as four eigenstates with NaN energies
    for field in ("omega_x", "omega_y", "omega_z", "beta_a", "beta_b"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ExchangeHamiltonian(**{field: bad})
