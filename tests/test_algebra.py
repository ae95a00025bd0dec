import cmath
import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msta import oracle
from msta.algebra import (
    Multivector,
    PauliString,
    _dense_exp_i,
    _key_of,
    _merge_terms,
    _sum_by_slot,
    _to_dense,
    allclose,
    exp_i,
    single_letter_product,
)
from conftest import fresh_copy, random_hermitian_mv, random_multivector, same_bits


def test_single_letter_products():
    assert single_letter_product("X", "X") == ("I", 1.0 + 0.0j)
    assert single_letter_product("X", "Y") == ("Z", 1.0j)
    assert single_letter_product("Y", "X") == ("Z", -1.0j)
    assert single_letter_product("Y", "Z") == ("X", 1.0j)
    assert single_letter_product("X", "Z") == ("Y", -1.0j)
    assert single_letter_product("I", "Z") == ("Z", 1.0 + 0.0j)


def test_single_letter_rejects_bad_input():
    with pytest.raises(ValueError):
        single_letter_product("Q", "X")


def test_pauli_string_roundtrip():
    ps = PauliString("XIZY")
    assert PauliString.from_key(ps.key, 4) == ps
    with pytest.raises(ValueError):
        PauliString("ABC")


def _keys_one_at_a_time(n, labels):
    """The constructor's label parse as it was: each label checked and
    parsed on its own, raising at the first bad one."""
    keys = []
    for label in labels:
        s = label.letters if isinstance(label, PauliString) else label
        if len(s) != n:
            raise ValueError(f"label {s!r} has length {len(s)}, expected {n}")
        keys.append(_key_of(s))
    return np.array(keys, dtype=np.int64)


def test_constructor_keys_equal_the_per_label_parse(rng):
    for n in range(1, 13):
        for count in (1, 5, 64):
            codes = rng.integers(0, 4, size=(count, n))
            labels = ["".join("IXZY"[c] for c in row) for row in codes]
            mixed = [PauliString(s) if i % 3 == 0 else s for i, s in enumerate(labels)]
            for terms in (labels, mixed):
                want = _keys_one_at_a_time(n, terms)
                assert np.array_equal(Multivector(n)._keys_of(terms), want)
                assert Multivector(n, dict.fromkeys(terms, 1.0))._keys.tolist() == sorted(set(want.tolist()))
    # a label without a length fails as the per-label parse fails
    for bad in (3, None):
        with pytest.raises(TypeError, match="has no len"):
            Multivector(2, {"XY": 1.0, bad: 1.0})


@pytest.mark.parametrize(
    "labels",
    [["XQ"], ["XX", "X"], ["XXX"], [""], ["Xé"], ["ΧΥ"], ["X_"], ["X "], ["+X"], ["-X"], ["1_"], ["xy"], ["X\x00"],
     ["XY", "ZZ", "IQ"], ["XY", "Y"], [b"XY"]],
)
def test_constructor_errors_match_the_per_label_parse(labels):
    # int("+1_0", 4) parses, so no label may reach a base-4 int parse
    with pytest.raises(ValueError) as want:
        _keys_one_at_a_time(2, labels)
    with pytest.raises(ValueError) as got:
        Multivector(2, dict.fromkeys(labels, 1.0))
    assert str(got.value) == str(want.value)


def test_different_qubit_vectors_commute():
    xa = Multivector.blade("XI")
    yb = Multivector.blade("IY")
    assert xa * yb == yb * xa


def test_scalar_identity():
    m = Multivector(2, {"XY": 1.5, "ZZ": -0.5j})
    assert Multivector.scalar(2, 1.0) * m == m


def test_qubit_count_mismatch_raises():
    with pytest.raises(ValueError):
        Multivector.blade("X") * Multivector.blade("XX")


def test_iota_squares_to_minus_one():
    i2 = Multivector.iota(2)
    assert (i2 * i2 + 1.0).max_abs() == 0.0


@pytest.mark.parametrize("n", [1, 3, 9])
def test_products_with_zero_are_the_zero_multivector(n, rng):
    zero = Multivector.zero(n)
    a = random_multivector(n, rng)
    products = [p for s in (0, 0.0, -0.0, 0j) for p in (a * s, s * a)]
    products += [a * zero, zero * a, zero * zero]
    for p in products:
        assert p == zero
        assert p._keys.dtype == zero._keys.dtype == np.int64
        assert p._coeffs.dtype == zero._coeffs.dtype == np.complex128


def test_prune_keeps_equality_canonical():
    a = Multivector(1, {"X": 1.0, "Z": 1e-16})
    b = Multivector(1, {"X": 1.0})
    assert a == b


def test_product_isomorphism(rng):
    for n in (1, 2, 3, 4):
        for _ in range(25):
            a = random_multivector(n, rng)
            b = random_multivector(n, rng)
            ma, mb = oracle.to_matrix(a), oracle.to_matrix(b)
            assert np.abs(oracle.to_matrix(a * b) - ma @ mb).max() < 1e-12
            assert np.abs(oracle.to_matrix(a + b) - (ma + mb)).max() < 1e-12


def test_reverse_is_adjoint(rng):
    for _ in range(25):
        a = random_multivector(3, rng)
        assert np.abs(oracle.to_matrix(a.reverse()) - oracle.to_matrix(a).conj().T).max() < 1e-12


def test_reverse_example_blade():
    # a two-vector blade per qubit: reversal flips the bivector sign on each
    m = Multivector.blade("XI") * Multivector.blade("YI") * Multivector.blade("IZ")
    assert m.reverse() == Multivector.blade("IZ") * Multivector.blade("YI") * Multivector.blade("XI")


def test_reverse_of_scalar_conjugates():
    c = Multivector.scalar(2, 0.3 + 0.7j)
    assert c.reverse() == Multivector.scalar(2, 0.3 - 0.7j)


def test_scalar_part():
    rho = Multivector(1, {"I": 0.5, "Z": 0.5})
    assert rho.scalar_part() == 0.5
    assert Multivector.blade("XX").scalar_part() == 0.0
    # trace rule: Tr = 2^N * scalar part
    assert 2 * rho.scalar_part() == 1.0


def test_partial_drop_examples():
    rho = Multivector(2, {"II": 0.25, "ZI": 0.25, "IZ": 0.25, "ZZ": 0.25})  # {00}
    reduced = rho.drop_qubits([1]) * 2.0
    assert reduced == Multivector(1, {"I": 0.5, "Z": 0.5})
    with pytest.raises(ValueError):
        rho.drop_qubits([2])
    with pytest.raises(ValueError):
        rho.drop_qubits([])
    # True used to drop qubit 1
    for dropped in ([True], [np.True_], [0, False]):
        with pytest.raises(ValueError, match="is not an integer"):
            rho.drop_qubits(dropped)


def test_partial_drop_matches_oracle(rng):
    for _ in range(20):
        a = random_multivector(3, rng)
        keep = sorted(rng.choice(3, size=2, replace=False).tolist())
        dropped = [q for q in range(3) if q not in keep]
        got = oracle.to_matrix(a.drop_qubits(dropped) * 2.0)
        want = oracle.partial_trace_matrix(oracle.to_matrix(a), keep, 3)
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_drop_qubits_is_canonical_and_matches_oracle(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        dropped = [q for q in range(n) if q not in keep]
        terms = {}
        for _ in range(24):
            letters = rng.choice(list("IXZY"), size=n)
            if rng.random() < 0.5:  # a term the reduction keeps
                letters[dropped] = "I"
            terms["".join(letters)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = Multivector(n, terms)
        reduced = a.drop_qubits(dropped)
        assert len(reduced) >= 2
        assert np.all(np.diff(reduced._keys) > 0)
        got = oracle.to_matrix(reduced * float(2 ** len(dropped)))
        want = oracle.partial_trace_matrix(oracle.to_matrix(a), keep, n)
        assert np.abs(got - want).max() < 1e-12


def test_allclose_resolves_differences_below_the_prune():
    x = Multivector(2, {"XI": 1.0, "ZY": -0.5j})
    y = x * (1.0 + 9e-15)
    assert not allclose(x, y, 1e-15)
    assert allclose(x, y, 1e-14)
    assert allclose(x, x, 0.0)
    # a term present in one operand only counts at its full size
    assert not allclose(x, x + Multivector.blade("YY", 2e-14), 1e-14)
    with pytest.raises(ValueError):
        allclose(x, Multivector.blade("X"))


def test_exp_single_qubit_rotor():
    u = exp_i(Multivector(1, {"Z": 0.5}), 0.9)
    got = u * Multivector.blade("X") * u.reverse()
    want = Multivector(1, {"X": np.cos(0.9), "Y": np.sin(0.9)})
    assert allclose(got, want, 1e-12)


def test_exp_projector_sphere_rotor():
    # rotation generator Y of the aligned two-qubit sphere:
    # exp(-iota Y theta/2) = 1 + (cos(theta/2) - 1) P - sin(theta/2) iota Y
    p = Multivector(2, {"II": 0.5, "ZZ": 0.5})
    y = Multivector(2, {"XY": 0.5, "YX": 0.5})
    theta = 1.234
    got = exp_i(y, theta / 2)
    want = (
        Multivector.scalar(2, 1.0)
        + (np.cos(theta / 2) - 1.0) * p
        - np.sin(theta / 2) * (Multivector.iota(2) * y)
    )
    assert allclose(got, want, 1e-12)
    # cos coefficient on the projector is the quoted closed form
    assert got.coeff("II").real == pytest.approx(1.0 + (np.cos(theta / 2) - 1.0) * 0.5)


def test_exp_matches_oracle(rng):
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            h = random_hermitian_mv(n, rng)
            t = float(rng.uniform(-1.5, 1.5))
            got = oracle.to_matrix(exp_i(h, t))
            want = oracle.expm_minus_i(oracle.to_matrix(h), t)
            assert np.abs(got - want).max() < 1e-10


def test_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        exp_i(Multivector(1, {"X": 1.0j}), 1.0)


def test_exp_rejects_non_finite_and_huge_times():
    for h in (Multivector(2, {"XX": 0.5, "ZI": 0.25}), Multivector(5, {"XXIIZ": 0.5, "ZIYII": 0.25})):
        for t in (np.nan, np.inf, -np.inf, 1e300):
            with pytest.raises(ValueError):
                exp_i(h, t)
    with pytest.raises(ValueError):
        exp_i(Multivector(1, {"X": np.inf}), 1.0)


def test_exp_memo_cold_and_warm_calls_agree(rng):
    for n in (1, 2, 3, 4):
        for _ in range(3):
            h = random_hermitian_mv(n, rng)
            t = float(rng.uniform(-3, 3))
            assert h._spectrum is None
            cold = exp_i(h, t)
            assert h._spectrum is not None
            warm = exp_i(h, t)
            assert same_bits(cold, warm)
            assert same_bits(warm, exp_i(fresh_copy(h), t))
            assert _dense_exp_i(h, t).tobytes() == _dense_exp_i(fresh_copy(h), t).tobytes()
            assert fresh_copy(h) == h


def test_exp_non_hermitian_raises_every_call_and_keeps_no_spectrum():
    h = Multivector(2, {"XX": 0.5, "ZI": 0.25j})
    for _ in range(3):
        with pytest.raises(ValueError, match="Hermitian generator"):
            exp_i(h, 1.0)
    assert h._spectrum is None


def test_exp_time_checks_hold_after_the_memo():
    h = Multivector(2, {"XX": 0.5, "ZI": 0.25})
    exp_i(h, 0.3)
    assert h._spectrum is not None
    huge = 2.0**31 / h.norm1() * 1.5
    for t in (np.nan, np.inf, -np.inf, 1e300, huge):
        with pytest.raises(ValueError) as cold:
            exp_i(fresh_copy(h), t)
        with pytest.raises(ValueError) as warm:
            exp_i(h, t)
        assert str(warm.value) == str(cold.value)
    with pytest.raises(ValueError, match=r"^exp_i needs a finite time, got nan$"):
        exp_i(h, np.nan)
    with pytest.raises(ValueError, match=r"^exp_i: \|t\| \* norm1\(a\) = [0-9.e+]+ exceeds 2\^31$"):
        exp_i(h, huge)


def test_memoized_dense_matrix_is_read_only_and_fresh(rng):
    for n in (1, 2, 3, 4):
        a = random_multivector(n, rng)
        m = _to_dense(a)
        assert not m.flags.writeable
        assert _to_dense(a) is m
        assert m.tobytes() == _to_dense(fresh_copy(a)).tobytes()
        assert np.abs(m - oracle.to_matrix(a)).max() < 1e-12
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_multivectors_are_immutable_and_copy_without_kept_values(rng):
    # the kept matrix and spectrum trust the terms never to change
    a = random_hermitian_mv(2, rng)
    m = _to_dense(a)
    for name in ("n_qubits", "_keys", "_coeffs", "_dense", "_spectrum", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(a, name)
    assert a._dense is m
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert same_bits(b, a) and b == a
        assert b._dense is None and b._spectrum is None
        assert not (b._keys.flags.writeable or b._coeffs.flags.writeable)
        with pytest.raises(AttributeError, match="immutable"):
            b._coeffs = a._coeffs


def test_nothing_is_memoized_above_four_qubits(rng):
    h = random_hermitian_mv(5, rng)
    m = _to_dense(h)
    assert h._dense is None and m.flags.writeable
    exp_i(h, 0.4)
    assert h._dense is None and h._spectrum is None


def test_rotors_are_unitary(rng):
    for _ in range(10):
        h = random_hermitian_mv(2, rng)
        u = exp_i(h, float(rng.uniform(-2, 2)))
        assert (u * u.reverse() - 1.0).max_abs() < 1e-10


def test_reverse_involution(rng):
    a = random_multivector(3, rng)
    assert a.reverse().reverse() == a


def test_qubit_cap():
    with pytest.raises(ValueError):
        Multivector.zero(13)


_coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_label2 = st.text(alphabet="IXYZ", min_size=2, max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(_label2, _coeff, min_size=1, max_size=4),
    st.dictionaries(_label2, _coeff, min_size=1, max_size=4),
    st.dictionaries(_label2, _coeff, min_size=1, max_size=4),
)
def test_associativity(ta, tb, tc):
    a, b, c = (Multivector(2, t) for t in (ta, tb, tc))
    assert allclose((a * b) * c, a * (b * c), 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_label2, _coeff, min_size=1, max_size=5))
def test_scalar_part_is_trace(terms):
    a = Multivector(2, terms)
    assert abs(a.scalar_part() - np.trace(oracle.to_matrix(a)).real / 4.0) < 1e-12


def test_non_finite_coefficients_are_rejected():
    # each used to return a multivector with the NaN term pruned as if zero
    with pytest.raises(ValueError):
        Multivector(1, {"X": np.nan})
    with pytest.raises(ValueError):
        Multivector(1, {"X": 1.0}) * np.nan
    with pytest.raises(ValueError):
        Multivector(1, {"X": 1.0}) + np.nan


@np.errstate(over="ignore", invalid="ignore")
def test_overflow_raises_instead_of_vanishing():
    big = Multivector(1, {"X": 1e200})
    # the pair product is (inf, nan); the prune used to drop it, leaving {}
    with pytest.raises(ValueError, match="non-finite"):
        big * big
    # the sum used to keep an inf term
    with pytest.raises(ValueError, match="non-finite"):
        Multivector(1, {"X": 1.7e308}) + Multivector(1, {"X": 1.7e308})
    with pytest.raises(ValueError, match="non-finite"):
        big * 1e200
    # a fully dense product takes the matrix route
    dense = Multivector(4, {"".join(p): 1e160 for p in itertools.product("IXYZ", repeat=4)})
    with pytest.raises(ValueError, match="non-finite"):
        dense * dense


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_merge_over_span_and_distinct_keys_agree(n, rng):
    span = 1 << (2 * n)
    cases = []
    for p, q in ((8, 4), (30, 20), (3, 3)):
        ka = rng.choice(span, p, replace=False)
        kb = rng.choice(span, q, replace=False)
        ca = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        cb = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        cases.append(((ka[:, None] ^ kb[None, :]).ravel(), (ca[:, None] * cb[None, :]).ravel()))
    # many duplicates per key, and pairs that cancel exactly
    keys = rng.integers(0, 64, 500)
    coeffs = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    cases.append((np.concatenate([keys, keys[:50]]), np.concatenate([coeffs, -coeffs[:50]])))
    # few terms in a wide span: merged over the distinct keys at every n here
    cases.append((np.array([5, 5, span - 1]), np.array([1.0 + 2.0j, -1.0 - 2.0j, 3.0 - 0.5j])))
    for keys, coeffs in cases:
        keys = keys.astype(np.int64)
        got_keys, got_coeffs = _merge_terms(n, keys, coeffs)
        span_keys, span_coeffs = _sum_by_slot(keys, coeffs, span)
        assert np.array_equal(got_keys, span_keys)
        assert np.array_equal(got_coeffs, span_coeffs)
        assert np.all(np.diff(got_keys) > 0)


_non_finite = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.builds(complex, st.floats(), st.floats()).filter(lambda c: not cmath.isfinite(c)),
)
_bounded = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_label2, _coeff, min_size=1, max_size=4), _label2, _non_finite)
def test_non_finite_input_raises(terms, label, bad):
    with pytest.raises(ValueError):
        Multivector(2, {**terms, label: bad})
    a = Multivector(2, terms)
    for op in (
        lambda: a * bad,
        lambda: bad * a,
        lambda: a + bad,
        lambda: bad + a,
        lambda: a - bad,
        lambda: bad - a,
    ):
        with pytest.raises(ValueError):
            op()


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(_label2, _bounded, min_size=1, max_size=4),
    st.dictionaries(_label2, _bounded, min_size=1, max_size=4),
    _bounded,
)
def test_bounded_finite_input_stays_finite(ta, tb, c):
    a, b = Multivector(2, ta), Multivector(2, tb)
    h = a + a.reverse()
    for r in (a * b, a + b, a - b, a * c, c - a, a.reverse(), exp_i(h, 1.0)):
        assert all(cmath.isfinite(x) for _, x in r.items())
