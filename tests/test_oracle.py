import numpy as np
import pytest

from msta import oracle
from msta.algebra import Multivector
from conftest import random_hermitian_mv, random_multivector


def test_to_matrix_blade():
    got = oracle.to_matrix(Multivector.blade("XZ"))
    sx = np.array([[0, 1], [1, 0]])
    sz = np.diag([1, -1])
    assert np.array_equal(got, np.kron(sx, sz))


def test_to_matrix_bloch_form():
    rho = Multivector(1, {"I": 0.5, "Z": 0.5})
    assert np.abs(oracle.to_matrix(rho) - np.diag([1.0, 0.0])).max() == 0.0


def test_from_matrix_examples():
    assert oracle.from_matrix(np.eye(2)) == Multivector.scalar(1, 1.0)
    assert oracle.from_matrix(np.diag([1.0, 0.0])) == Multivector(1, {"I": 0.5, "Z": 0.5})
    with pytest.raises(ValueError):
        oracle.from_matrix(np.eye(3))


def test_matrix_roundtrip(rng):
    for n in (1, 2, 3, 4):
        a = random_multivector(n, rng)
        assert oracle.from_matrix(oracle.to_matrix(a)) == a or (
            (oracle.from_matrix(oracle.to_matrix(a)) - a).max_abs() < 1e-13
        )
        m = oracle.to_matrix(random_multivector(n, rng))
        assert np.abs(oracle.to_matrix(oracle.from_matrix(m)) - m).max() < 1e-13


def test_jacobi_against_numpy(rng):
    for d in (2, 4, 8, 16):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (a + a.conj().T) / 2
        w, v = oracle.jacobi_eigh(h)
        assert np.abs(w - np.linalg.eigvalsh(h)).max() < 1e-11
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-11
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-12


def test_jacobi_raises_when_sweeps_run_out(rng):
    # one sweep leaves a random 8x8 decomposition off by about 1; it used
    # to be returned without a word
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    with pytest.raises(np.linalg.LinAlgError, match="off-diagonal norm"):
        oracle.jacobi_eigh((a + a.conj().T) / 2, max_sweeps=1)
    # one rotation diagonalises a 2x2 matrix: converging on the last sweep
    # is not a failure
    h = np.array([[1.0, 0.5], [0.5, -1.0]])
    w, _ = oracle.jacobi_eigh(h, max_sweeps=1)
    assert np.abs(w - np.linalg.eigvalsh(h)).max() < 1e-14


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError):
        oracle.jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_entropy_examples():
    # pure state
    assert oracle.oracle_entropy(np.diag([1.0, 0.0])) == 0.0
    # maximally mixed qubit
    assert abs(oracle.oracle_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    # eigenvalues {3/4, 1/4}
    rho = oracle.to_matrix(Multivector(1, {"I": 0.5, "Z": 0.5 * np.cos(np.pi / 3)}))
    want = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(oracle.oracle_entropy(rho) - want) < 1e-12


def test_entropy_validation():
    with pytest.raises(ValueError):
        oracle.oracle_entropy(np.diag([0.9, 0.0]))
    with pytest.raises(ValueError):
        oracle.oracle_entropy(np.diag([1.1, -0.1]))


def test_entropy_unitary_invariance(rng):
    from msta.algebra import exp_i

    rho = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
    for _ in range(5):
        u = oracle.to_matrix(exp_i(random_hermitian_mv(2, rng), float(rng.uniform(0, 2))))
        rotated = u @ rho @ u.conj().T
        assert abs(oracle.oracle_entropy(rotated) - oracle.oracle_entropy(rho)) < 1e-10


def test_statevector_density():
    assert np.array_equal(
        oracle.statevector_density([1, 0, 0, 0]), np.diag([1.0, 0, 0, 0]).astype(complex)
    )
    got = oracle.statevector_density(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.abs(got - 0.5).max() < 1e-15
    with pytest.raises(ValueError):
        oracle.statevector_density([1.0, 1.0])


def test_statevector_matches_ghz_construction():
    from msta.states import ghz

    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    assert np.abs(oracle.statevector_density(amps) - ghz().matrix()).max() < 1e-12


def test_expm_is_unitary(rng):
    h = oracle.to_matrix(random_hermitian_mv(2, rng))
    u = oracle.expm_minus_i(h, 0.8)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
