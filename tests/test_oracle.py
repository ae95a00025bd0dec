import numpy as np
import pytest

from msta import oracle
from msta.algebra import Multivector
from msta.states import DensityOperator
from conftest import random_hermitian_mv, random_multivector

# single-qubit basis in blade-code order I, X, Z, Y
_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
)


def kron_to_matrix(a):
    """Reference `to_matrix`: one Kronecker chain of Pauli matrices per term."""
    n = a.n_qubits
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for key, coeff in a.items():
        m = _SIGMA[key & 3]
        for q in range(1, n):
            m = np.kron(m, _SIGMA[(key >> (2 * q)) & 3])
        out += coeff * m
    return out


def block_from_matrix(m):
    """Reference `from_matrix` as {key: coefficient}, by recursive block
    decomposition: qubit 0 is the most significant index bit, so the
    top-level 2x2 block structure of the matrix is qubit 0's Pauli
    expansion."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0].bit_length() - 1
    work = {0: m}
    for q in range(n):
        nxt = {}
        for key, blk in work.items():
            h = blk.shape[0] // 2
            a, b = blk[:h, :h], blk[:h, h:]
            c, d = blk[h:, :h], blk[h:, h:]
            comps = ((a + d) / 2, (b + c) / 2, (a - d) / 2, 0.5j * (b - c))
            for code, sub in enumerate(comps):
                if np.any(sub):
                    nxt[key | (code << (2 * q))] = sub
        work = nxt
    return {key: complex(blk[0, 0]) for key, blk in work.items()}


def coeff_vector(terms, n):
    """A {key: coefficient} map as a dense vector in key order."""
    out = np.zeros(1 << (2 * n), dtype=complex)
    out[list(terms)] = list(terms.values())
    return out


def random_density_matrix(n, rng):
    a = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_contraction_matches_kron_and_block_references(n, rng):
    for _ in range(10):
        a = random_multivector(n, rng, max_terms=12)
        assert np.abs(oracle.to_matrix(a) - kron_to_matrix(a)).max() <= 1e-15
        rho = random_density_matrix(n, rng)
        got = coeff_vector(dict(oracle.from_matrix(rho).items()), n)
        assert np.abs(got - coeff_vector(block_from_matrix(rho), n)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contraction_is_exact_on_single_blades(n, rng):
    for key in range(1 << (2 * n)):
        label = "".join("IXZY"[(key >> (2 * q)) & 3] for q in range(n))
        blade = Multivector.blade(label, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        m = kron_to_matrix(blade)
        assert np.array_equal(oracle.to_matrix(blade), m)
        assert oracle.from_matrix(m) == blade
        assert dict(oracle.from_matrix(m).items()) == block_from_matrix(m)


def test_density_matrix_is_a_writable_copy_equal_to_the_oracle(rng):
    for n in (1, 2, 3, 5):
        rho = DensityOperator(oracle.from_matrix(random_density_matrix(n, rng)))
        m = rho.matrix()
        assert m.flags.writeable
        assert np.abs(m - oracle.to_matrix(rho.mv)).max() <= 1e-15
        m[0, 0] += 1.0
        assert np.abs(rho.matrix() - oracle.to_matrix(rho.mv)).max() <= 1e-15


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


def test_jacobi_rejects_nan():
    # a NaN entry used to pass the Hermitian check and run every sweep
    # before failing with "off-diagonal norm nan"
    with pytest.raises(ValueError, match="not Hermitian"):
        oracle.jacobi_eigh(np.diag([np.nan, 0.0]))


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
    # NaN fails the Hermitian check, not Jacobi's sweep limit
    with pytest.raises(ValueError, match="not Hermitian"):
        oracle.oracle_entropy(np.diag([np.nan, 1.0]))


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
    with pytest.raises(ValueError, match="norm nan"):
        oracle.statevector_density([np.nan, 0, 0, 0])


def test_partial_trace_matrix_checks_its_arguments():
    m = np.eye(4) / 4
    assert np.abs(oracle.partial_trace_matrix(m, [1], 2) - np.eye(2) / 2).max() == 0.0
    for keep in ([2], [-1], [0, 5]):
        bad = max(keep) if max(keep) > 0 else min(keep)
        with pytest.raises(ValueError, match=f"keep index {bad} out of range"):
            oracle.partial_trace_matrix(m, keep, 2)
    for shape in ((8, 8), (3, 4), (4,)):
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]},"):
            oracle.partial_trace_matrix(np.zeros(shape), [0], 2)


def test_statevector_matches_ghz_construction():
    from msta.states import ghz

    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    assert np.abs(oracle.statevector_density(amps) - ghz().matrix()).max() < 1e-12


def test_expm_is_unitary(rng):
    h = oracle.to_matrix(random_hermitian_mv(2, rng))
    u = oracle.expm_minus_i(h, 0.8)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_random_multivector_keeps_the_last_coefficient_of_a_repeated_blade():
    # a twin generator replays the draws: count, blades, then two uniforms
    # per drawn blade, repeats included, so the stream `verify` reads stays
    # where it was
    repeats = 0
    for seed in range(40):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        mv = oracle.random_multivector(1, rng)
        n_terms = int(twin.integers(1, 7))
        want = {}
        for key in twin.integers(0, 4, size=n_terms):
            want["IXZY"[int(key)]] = complex(twin.uniform(-1, 1), twin.uniform(-1, 1))
        repeats += len(want) < n_terms
        assert mv.terms() == want
        assert rng.random() == twin.random()
    assert repeats > 0
