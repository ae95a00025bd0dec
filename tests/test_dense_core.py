"""The dense core of `msta.algebra` against the oracle and the paper's
projector-sphere construction."""

import subprocess
import sys

import numpy as np
import pytest

from msta import algebra, oracle, states
from msta.algebra import PRUNE_EPS, Multivector, PauliString, _dense_coeffs, _from_dense, _to_dense

# The per-qubit form of the transform, kept as the reference for the
# table-driven one: per qubit, the 4x4 map from its (row bit, column bit)
# entries 2 r + c to the codes I, X, Z, Y, and back, applied along each
# qubit's axis of the matrix reshaped to (2,) * 2n and transposed to key
# order (r_{n-1}, c_{n-1}, ..., r_0, c_0).
ENTRIES_TO_CODES = 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1j, -1j, 0]])
CODES_TO_ENTRIES = np.array([[1, 0, 1, 0], [0, 1, 0, -1j], [0, 1, 0, 1j], [1, 0, -1, 0]])


def per_qubit(t, maps):
    t = t.reshape(4, -1)
    for m in reversed(maps):
        t = (m @ t).T.reshape(4, -1)
    return t.reshape(-1)


def key_axes(n):
    return tuple(ax for q in reversed(range(n)) for ax in (q, n + q))


def reference_to_dense(a):
    n, d = a.n_qubits, 1 << a.n_qubits
    coeffs = np.zeros(1 << (2 * n), dtype=np.complex128)
    coeffs[a._keys] = a._coeffs
    t = per_qubit(coeffs, (CODES_TO_ENTRIES,) * n)
    return t.reshape((2,) * (2 * n)).transpose(np.argsort(key_axes(n))).reshape(d, d)


def reference_dense_coeffs(m):
    n = m.shape[0].bit_length() - 1
    return per_qubit(m.reshape((2,) * (2 * n)).transpose(key_axes(n)).reshape(-1), (ENTRIES_TO_CODES,) * n)


def random_terms(n, k, rng, scale=None):
    """A multivector with exactly k distinct random blades; coefficients
    are scaled by 1/k so every product stays of order one."""
    keys = rng.choice(1 << (2 * n), size=k, replace=False)
    scale = 1.0 / k if scale is None else scale
    coeffs = scale * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
    return Multivector(n, {PauliString.from_key(int(key), n).letters: c for key, c in zip(keys, coeffs)})


def coeff_diff(a, b):
    da, db = dict(a.items()), dict(b.items())
    return max((abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in da.keys() | db.keys()), default=0.0)


def random_axes(n, rng):
    v = rng.standard_normal((n, 3))
    return [tuple(row / np.linalg.norm(row)) for row in v]


# +-x, +-y, +-z; shifted so that each lands on every qubit
COORDINATE_AXES = [tuple(s * np.eye(3)[k]) for k in range(3) for s in (1.0, -1.0)]


def coordinate_axes(n):
    return [[COORDINATE_AXES[(shift + q) % 6] for q in range(n)] for shift in range(6)]


def named_states(n, rng):
    ghz = np.zeros(1 << n, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    w = np.zeros(1 << n, dtype=complex)
    w[[1 << q for q in range(n)]] = 1 / np.sqrt(n)
    basis = np.zeros(1 << n, dtype=complex)
    basis[int(rng.integers(0, 1 << n))] = 1.0
    return [oracle.random_statevector(n, rng), ghz, w, basis]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transform_equals_sphere_reference(n, rng):
    for psi in named_states(n, rng):
        for axes in (None, random_axes(n, rng), *coordinate_axes(n)):
            got = states.pure_state_from_amplitudes(psi, axes=axes).mv
            want = states.pure_state_from_spheres(psi, axes=axes).mv
            assert coeff_diff(got, want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_to_dense_matches_oracle_and_round_trips(n, rng):
    a = random_terms(n, min(1 << (2 * n), 48), rng, scale=1.0)
    m = _to_dense(a)
    assert np.abs(m - oracle.to_matrix(a)).max() < 1e-12
    assert coeff_diff(_from_dense(m), a) < 1e-12
    d = 1 << n
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.abs(_to_dense(_from_dense(z)) - z).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_products_on_both_sides_of_the_crossover(n, rng, monkeypatch):
    dense_calls = []
    real_to_dense = algebra._to_dense
    monkeypatch.setattr(algebra, "_to_dense", lambda a: dense_calls.append(a) or real_to_dense(a))
    # the least pair count on the matrix route, then just below it
    cut = max(algebra._MATRIX_ROUTE_PAIRS, 1 << (2 * n + 2))
    k = 1 << (cut.bit_length() // 2)
    cases = [(k, cut // k), (k - 1, cut // k)]
    if n <= 5:
        full = 1 << (2 * n)
        cases.append((full, full))
    for ka, kb in cases:
        a, b = random_terms(n, ka, rng), random_terms(n, kb, rng)
        dense_calls.clear()
        got = a * b
        assert len(dense_calls) == (2 if ka * kb >= cut else 0)
        want = oracle.from_matrix(oracle.to_matrix(a) @ oracle.to_matrix(b))
        assert coeff_diff(got, want) < 1e-12


def test_small_products_stay_pairwise(rng, monkeypatch):
    def refuse(a):
        raise AssertionError("a product with n <= 3 took the matrix route")

    monkeypatch.setattr(algebra, "_to_dense", refuse)
    for n in (1, 2, 3):
        full = 1 << (2 * n)
        a, b = random_terms(n, full, rng), random_terms(n, full, rng)
        assert len(a * b) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exp_route_follows_qubit_count(n, rng, monkeypatch):
    dense_calls = []
    real_to_dense = algebra._to_dense
    monkeypatch.setattr(algebra, "_to_dense", lambda a: dense_calls.append(a) or real_to_dense(a))
    a = random_terms(n, 3, rng)
    h = a + a.reverse()
    got = algebra.exp_i(h, 1.0)
    assert len(dense_calls) == (1 if n <= 4 else 0)
    want = oracle.from_matrix(oracle.expm_minus_i(oracle.to_matrix(h), 1.0))
    assert coeff_diff(got, want) < 1e-12


def test_matrix_route_results_are_canonical(rng):
    rho = states.pure_state_from_amplitudes(oracle.random_statevector(4, rng)).mv
    assert len(rho) == 256
    sq = rho * rho
    assert np.all(np.diff(sq._keys) > 0)
    assert sq._keys.dtype == np.int64
    assert np.all(np.abs(sq._coeffs) > PRUNE_EPS)
    assert coeff_diff(sq, rho) < 1e-12
    # rho (1 - rho) vanishes: every rounding-level term is pruned
    complement = 1.0 - rho
    assert len(rho) * len(complement) >= algebra._MATRIX_ROUTE_PAIRS
    assert len(rho * complement) == 0
    zero = Multivector.zero(4)
    assert len(rho * zero) == 0 and len(zero * rho) == 0



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_table_transform_equals_per_qubit_reference(n, rng):
    d = 1 << n
    for _ in range(2):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(_dense_coeffs(m) - reference_dense_coeffs(m)).max() < 1e-13
        for a in (random_terms(n, min(1 << (2 * n), 48), rng, scale=1.0), _from_dense(m)):
            assert np.abs(_to_dense(a) - reference_to_dense(a)).max() < 1e-13


@pytest.mark.parametrize("n", [4, 5])
def test_square_converts_once(n, rng, monkeypatch):
    dense_calls = []
    real_to_dense = algebra._to_dense
    monkeypatch.setattr(algebra, "_to_dense", lambda a: dense_calls.append(a) or real_to_dense(a))
    a = random_terms(n, 1 << (2 * n), rng)
    assert len(a) ** 2 >= max(algebra._MATRIX_ROUTE_PAIRS, 1 << (2 * n + 2))
    got = a * a
    assert len(dense_calls) == 1
    want = oracle.from_matrix(oracle.to_matrix(a) @ oracle.to_matrix(a))
    assert coeff_diff(got, want) < 1e-12


def test_import_builds_no_table():
    # nor a partial-trace plan
    code = (
        "import msta, msta.cli; from msta import algebra; "
        "print(algebra._dense_layout.cache_info().currsize, algebra._trace_plan.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 0"
