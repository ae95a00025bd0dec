"""Correlated Pauli tensor algebra for multi-qubit systems.

The algebra is the tensor product of N copies of the Pauli algebra G(3),
with the per-qubit pseudoscalars identified to a single correlated element
``iota`` that plays the role of the imaginary unit.  A basis blade is
labelled by a Pauli string (one letter per qubit from {I, X, Y, Z}); a
general multivector is a finite complex combination of blades where the
real part of each coefficient weights the blade itself and the imaginary
part weights the blade times iota.

Blades are encoded as integers with two bits per qubit in (x, z) form:

    I -> 00, X -> 01, Z -> 10, Y -> 11

so that the blade product is XOR on keys plus a phase in {1, i, -1, -i}
obtained from bit counts.  Vectors of different qubits commute; within one
qubit the product follows x y = iota z and cyclic permutations.  The
reverse operation conjugates coefficients (blades are invariant under
per-qubit reversal, iota flips sign).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .tolerances import HERMITIAN_TOL, MATCH_TOL, PRUNE_EPS, SERIES_TOL

MAX_QUBITS = 12

_CODE_OF = {"I": 0, "X": 1, "Z": 2, "Y": 3}
_CHAR_OF = "IXZY"
# the ASCII letters of _CHAR_OF to their codes; a label's base-4 digit weights by length
_CODE_BYTES = bytes.maketrans(_CHAR_OF.encode(), bytes(range(4)))
_DIGIT_WEIGHTS = [4 ** np.arange(n) for n in range(MAX_QUBITS + 1)]
_PHASES = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

# `exp_i` refuses |t| * norm1(a) above 2^31.  On the series route each
# squaring doubles the rounding error of the result, so past 32 squarings
# (2^32 * 1e-16 ~ 4e-7) it would return a wrong operator instead of
# failing.  On the spectral route every eigenvalue w has |w| <= norm1(a),
# and w carries a rounding error of about 1e-16 * norm1(a), so the same
# bound caps the phase error of exp(-i w t) at about 2^31 * 1e-16 ~ 2e-7.
_MAX_SQUARINGS = 32


def _x_mask(n: int) -> int:
    """Mask with the x-bit of every qubit set (0b...010101)."""
    return ((1 << (2 * n)) - 1) // 3


def _check_n(n: int) -> int:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    return n


def _key_of(letters: str) -> int:
    key = 0
    for a, ch in enumerate(letters):
        try:
            key |= _CODE_OF[ch] << (2 * a)
        except KeyError:
            raise ValueError(f"invalid Pauli letter {ch!r} in {letters!r}") from None
    return key


def _letters_of(key: int, n: int) -> str:
    return "".join(_CHAR_OF[(key >> (2 * a)) & 3] for a in range(n))


@dataclass(frozen=True)
class PauliString:
    """A basis blade label: one letter per qubit from {I, X, Y, Z}."""

    letters: str

    def __post_init__(self) -> None:
        _check_n(len(self.letters))
        _key_of(self.letters)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def key(self) -> int:
        return _key_of(self.letters)

    @classmethod
    def from_key(cls, key: int, n_qubits: int) -> "PauliString":
        return cls(_letters_of(key, n_qubits))

    def __str__(self) -> str:
        return self.letters


def _magnitudes(coeffs: np.ndarray) -> np.ndarray:
    """|coeffs|, checked finite.

    Raises ValueError if any coefficient is not finite: an overflowing
    product or sum gives inf or nan, which the prune alone would keep (inf)
    or silently drop (nan)."""
    mags = np.abs(coeffs)
    if not mags.max(initial=0.0) < np.inf:
        raise ValueError("multivector coefficient overflowed to a non-finite value")
    return mags


def _kept(coeffs: np.ndarray) -> np.ndarray:
    """Mask of the coefficients above the prune threshold; raises
    ValueError on a non-finite coefficient (`_magnitudes`)."""
    return _magnitudes(coeffs) > PRUNE_EPS


def _merge_terms(n: int, keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate keys, prune negligible coefficients, sort ascending.

    The sums run over either the whole 4^n blade span or the sorted
    distinct keys; both sum in input order, so they agree bit for bit.  The
    span costs one slot per blade and the distinct keys a sort of the
    terms; the span is used while it has at most 64 slots per term, which
    keeps every n <= 3 product on it.  Timed on random keys, the distinct
    keys win from about 64 slots per term at n = 5, 32 at n = 6, 7 and 10
    and 16 at n = 8, 9; the span wins at every ratio at n <= 4.  (An 8 x
    4-term product at n = 8 takes 1.8 ms over the span, 0.04 ms over the
    keys.)  Raises ValueError if a sum is not finite.
    """
    if keys.size == 0:
        return keys.astype(np.int64), coeffs.astype(np.complex128)
    span = 1 << (2 * n)
    if span > 64 * keys.size:
        distinct = np.unique(keys)
        slots, sums = _sum_by_slot(distinct.searchsorted(keys), coeffs, distinct.size)
        return distinct[slots], sums
    return _sum_by_slot(keys, coeffs, span)


def _sum_by_slot(slot: np.ndarray, coeffs: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients summed per slot in 0..size-1, in input order, and
    pruned: (kept slots ascending, their sums)."""
    sums = np.bincount(slot, weights=coeffs.real, minlength=size) + 1j * np.bincount(
        slot, weights=coeffs.imag, minlength=size
    )
    slots = _kept(sums).nonzero()[0]
    return slots, sums[slots]


def _qubit_set(qubits: Iterable[int], n: int) -> list[int]:
    """The distinct qubit indices in ``qubits``, ascending.  Raises
    ValueError for an index that is not an integer in 0..n-1."""
    out = set()
    for q in qubits:
        try:
            # operator.index takes a Python bool as 0 or 1 (numpy's bool it
            # refuses); neither names a qubit
            if isinstance(q, bool):
                raise TypeError
            out.add(operator.index(q))
        except TypeError:
            raise ValueError(f"qubit index {q!r} is not an integer") from None
    out = sorted(out)
    if out and (out[0] < 0 or out[-1] >= n):
        raise ValueError(f"qubits {out} out of range for n={n}")
    return out


def _digit_mask(qubits: Iterable[int]) -> int:
    """Key mask with both bits of each given qubit set."""
    mask = 0
    for q in qubits:
        mask |= 3 << (2 * q)
    return mask


def _kept_digits(keys: np.ndarray, kept: tuple[int, ...]) -> np.ndarray:
    """The digits of the ``kept`` qubits (ascending) of each key, moved to
    qubits 0..len(kept) - 1; every other digit is dropped.  Each run of
    consecutive kept qubits moves as one masked shift."""
    out = None
    start = 0
    for i, q in enumerate(kept):
        if i + 1 < len(kept) and kept[i + 1] == q + 1:
            continue
        lo = kept[start]
        part = keys >> (2 * lo) if lo else keys
        part = part & ((1 << (2 * (q - lo + 1))) - 1)
        if start:
            part <<= 2 * start
        out = part if out is None else out | part
        start = i + 1
    return out


class _TracePlan(NamedTuple):
    """How a reduction of an n-qubit operator to the ``kept`` qubits
    selects and reindexes terms (`_trace_plan`): ``mask`` has both bits of
    every dropped qubit, ``scale`` is 2^d for d dropped qubits, and on at
    most `_BLOCK_QUBITS` qubits ``span_index`` holds the positions in
    0..4^n - 1 of the keys the reduction keeps and ``span_keys`` their
    reindexed keys, 0..4^k - 1; both are read-only.  (A named tuple: a
    frozen dataclass would add 0.5 ms to every import of msta.)"""

    kept: tuple[int, ...]
    mask: int
    scale: float
    span_index: np.ndarray | None = None
    span_keys: np.ndarray | None = None

    def masked_terms(self, keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The terms with no digit on a dropped qubit, their kept digits
        moved to qubits 0..k - 1.  Canonical keys stay canonical: the
        selected keys have all-zero dropped digits, so removing those
        digits keeps them strictly increasing."""
        sel = (keys & self.mask) == 0
        return _kept_digits(keys[sel], self.kept), coeffs[sel]

    def terms(self, a: "Multivector") -> tuple[np.ndarray, np.ndarray]:
        """`masked_terms` of ``a``, unscaled.  An operator that holds every
        key (canonical keys strictly increase, so a full set is 0..4^n - 1)
        takes one gather through ``span_index`` instead."""
        if self.span_index is not None and a._keys.size == 1 << (2 * a.n_qubits):
            return self.span_keys, a._coeffs.take(self.span_index)
        return self.masked_terms(a._keys, a._coeffs)


@lru_cache(maxsize=256)
def _trace_plan(n: int, kept: tuple[int, ...]) -> _TracePlan:
    """The `_TracePlan` of reducing n qubits to ``kept`` (ascending), built
    on first use: `Multivector.drop_qubits` and
    `entanglement.partial_trace` select terms through it.  A plan holds at
    most 2 x 4^5 int64 (16 KB)."""
    plan = _TracePlan(kept, 3 * _x_mask(n) ^ _digit_mask(kept), float(2 ** (n - len(kept))))
    if n > _BLOCK_QUBITS:
        return plan
    span = np.arange(1 << (2 * n))
    keys, index = plan.masked_terms(span, span)
    keys.setflags(write=False)
    index.setflags(write=False)
    return plan._replace(span_index=index, span_keys=keys)


# -- dense core ------------------------------------------------------------
#
# In the matrix of a blade (qubit 0 the most significant index bit) the x
# bits shift the row, P|j> = i^popcount(x & z) (-1)^popcount(j & z) |j ^ x>,
# so the Pauli coefficients of a 2^k x 2^k matrix m are
#
#     c[x, z] = i^popcount(x & z) / 2^k  sum_j (-1)^popcount(j & z) m[j, j ^ x]:
#
# a gather g[j, x] = m[j, j ^ x], a Walsh-Hadamard transform over j (one
# real matmul of the Sylvester-Hadamard matrix against g's float view, which
# interleaves real and imaginary parts) and a phase, applied with the
# permutation from the (z, x) grid to key order (Hantzko, Binkowski & Gupta,
# arXiv:2310.13421; Jones, arXiv:2401.16378).  `_to_dense` runs the same
# steps backwards.  The tables for this are built per block of at most
# `_BLOCK_QUBITS` qubits, on first use: above that, qubits 0..a-1 and
# a..n-1 form two blocks, and the transform of one block runs batched over
# the other block's entries.  A blade's matrix is the Kronecker product of
# its blocks' matrices, and a key's leading base-4 digits belong to the
# second block, so the result is the (4^b, 4^a) array of the second
# transform, read in order.  At n = 6 a matrix to coefficients took 45 us
# against 155 us for the per-qubit 4 x 4 maps this replaces, and at n = 10
# 36 ms against 127 ms (medians of six alternating runs, 2-vCPU Xeon guest,
# numpy 2.4.6, one BLAS thread).
_BLOCK_QUBITS = 6

# Products with at least this many term pairs, and at least 4^(n+1), take
# the matrix route (two `_to_dense`, one matmul, one `_from_dense`; one
# `_to_dense` for a square) instead of the pairwise kernel.  Measured with
# random operands on a 2-vCPU Xeon guest, numpy 2.4.6, one BLAS thread: the
# routes tie below 2^10 pairs at n = 4, near 2^10 at n = 5, 2^13.5 at n = 6,
# 2^15.5 at n = 7 and 2^18 at n = 8, where the matrix route takes 0.05,
# 0.08, 0.21, 1.1 and 7.6 ms (with the per-qubit transform they tied at
# 2^12, 2^13, 2^15, 2^16.6 and 2^19).  Full products at n = 2 and 3 take
# 0.05 ms on the matrix route against 0.06 and 0.14 ms pairwise, but the
# floor keeps every product with n <= 3 (at most 2^12 pairs) on the
# pairwise kernel; from n = 6 the 4^(n+1) term follows the tie.
_MATRIX_ROUTE_PAIRS = 1 << 13

# `exp_i` diagonalises generators on at most this many qubits (one `eigh`
# of the 2^n x 2^n matrix) and runs scaling and squaring above it.  Median
# timings at |t| * norm1 = 7.5, same host as above, series against
# spectral: n = 1..4 with 2, 3 or up to 41 terms, 1.3-5.4 ms against
# 0.05-0.24 ms; n = 5, 1.5 ms against 0.4 ms; n = 6 with 2 or 3 terms,
# about even; n = 7 with 2 terms, 1.6 ms against 5.5 ms; n = 10 with 2
# terms, 1.9 ms against 1.5 s.  The spectral cost grows as 8^n and the
# series cost with the terms the result fills, so a wide, sparse generator
# such as a one-qubit rotor at n = 12 can only run on the series.  The cut
# sits where the spectral route wins at least 6x on every generator tried.
# The same cut picks `dynamics.evolve`'s conjugation: at most this many
# qubits, U rho U^H as matrices from `_dense_exp_i`; above it, pairwise
# products with the series rotor.
_SPECTRAL_EXP_QUBITS = 4


@lru_cache(maxsize=_BLOCK_QUBITS)
def _dense_layout(k: int) -> tuple[np.ndarray, ...]:
    """The tables of the transform on a block of k qubits, d = 2^k: the
    gather g[j, x] = m[j, j ^ x] as flat indices (an involution, so it is
    its own inverse), the permutation from key order to the (z, x) grid
    and its inverse, the phases i^popcount(x & z) / d in key order and
    (-i)^popcount(x & z) on the grid, each a column, and the d x d
    Sylvester-Hadamard matrix.  Read-only: every call shares them."""
    d = 1 << k
    j = np.arange(d)[:, None]
    gather = (j * d + (j ^ j.T)).ravel()
    keys = np.arange(d * d)
    x = z = 0
    for q in range(k):
        bit = 1 << (k - 1 - q)
        x = x | (keys >> (2 * q) & 1) * bit
        z = z | (keys >> (2 * q + 1) & 1) * bit
    to_grid = z * d + x
    to_keys = np.argsort(to_grid)
    overlap = np.bitwise_count(x & z)
    phase = (1j**overlap / d)[:, None]
    grid_phase = ((-1j) ** overlap)[to_keys][:, None]
    hadamard = (-1.0) ** np.bitwise_count(j & j.T)
    tables = (gather, to_grid, to_keys, phase, grid_phase, hadamard)
    for t in tables:
        t.setflags(write=False)
    return tables


def _blocks(n: int) -> tuple[int, int]:
    """Qubit counts (a, b) of the two blocks, b = 0 when one block holds
    all n qubits."""
    a = n if n <= _BLOCK_QUBITS else n - n // 2
    return a, n - a


def _hadamard(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h @ u along u's first axis, as one real matmul on u's float view."""
    return (h @ u.reshape(h.shape[0], -1).view(np.float64)).view(np.complex128).reshape(u.shape)


def _block_coeffs(w: np.ndarray, k: int) -> np.ndarray:
    """Coefficients in key order along the first axis of ``w``, whose rows
    are a k-qubit block's matrix entries r 2^k + c."""
    gather, to_grid, _, phase, _, h = _dense_layout(k)
    c = _hadamard(w.take(gather, axis=0), h).take(to_grid, axis=0)
    c *= phase
    return c


def _block_entries(c: np.ndarray, k: int) -> np.ndarray:
    """Inverse of `_block_coeffs`."""
    gather, _, to_keys, _, grid_phase, h = _dense_layout(k)
    u = c.take(to_keys, axis=0)
    u *= grid_phase
    return _hadamard(u, h).take(gather, axis=0)


def _to_dense(a: "Multivector") -> np.ndarray:
    """The 2^n x 2^n matrix of a multivector (as `oracle.to_matrix`).

    On at most `_SPECTRAL_EXP_QUBITS` (4) qubits the matrix is kept on
    ``a``, read-only, and later calls return it: at most 4 KB per
    multivector.  Above the cut nothing is kept (at n = 12 the matrix
    takes 268 MB)."""
    if a._dense is not None:
        return a._dense
    n = a.n_qubits
    ka, kb = _blocks(n)
    da, db = 1 << ka, 1 << kb
    if a._keys.size == 1 << (2 * n):
        # canonical keys strictly increase, so a full set is 0..4^n - 1
        c = a._coeffs
    else:
        c = np.zeros(1 << (2 * n), dtype=np.complex128)
        c[a._keys] = a._coeffs
    c = c.reshape(-1, da * da)
    if kb:
        c = _block_entries(c, kb)
    m = _block_entries(c.T, ka)
    m = m.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)
    if n <= _SPECTRAL_EXP_QUBITS:
        m.setflags(write=False)
        object.__setattr__(a, "_dense", m)
    return m


def _dense_coeffs(m: np.ndarray) -> np.ndarray:
    """Every Pauli coefficient of a 2^n x 2^n matrix, in key order and
    unpruned: `_from_dense` before its prune."""
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0].bit_length() - 1
    ka, kb = _blocks(n)
    da, db = 1 << ka, 1 << kb
    c = _block_coeffs(m.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, -1), ka)
    if kb:
        c = _block_coeffs(c.T, kb)
    return c.reshape(-1)


def _from_dense(m: np.ndarray) -> "Multivector":
    """The canonical multivector of a 2^n x 2^n matrix, inverse to
    `_to_dense`."""
    c = _dense_coeffs(m)
    keys = _kept(c).nonzero()[0]
    return Multivector._raw(m.shape[0].bit_length() - 1, keys, c[keys])


class Multivector:
    """Immutable element of the correlated Pauli algebra on ``n_qubits`` qubits.

    Canonical form: keys strictly increasing, no coefficient below the prune
    threshold.  Two multivectors are equal iff their canonical term maps are.
    A non-finite coefficient, or scalar operand, raises ValueError.

    Because the terms never change, two derived values are kept once
    computed, on at most `_SPECTRAL_EXP_QUBITS` qubits: ``_dense``, the
    matrix (`_to_dense`), and ``_spectrum``, the eigendecomposition of a
    Hermitian generator (`_spectrum`).  Equality and copies ignore them.
    Setting or deleting an attribute raises AttributeError, so no kept
    value can go stale.
    """

    __slots__ = ("n_qubits", "_keys", "_coeffs", "_dense", "_spectrum")

    def __init__(self, n_qubits: int, terms: Mapping[str, complex] | None = None):
        _check_n(n_qubits)
        object.__setattr__(self, "n_qubits", n_qubits)
        if terms:
            keys = self._keys_of(terms)
            values = [complex(c) for c in terms.values()]
            if not all(map(cmath.isfinite, values)):
                raise ValueError("multivector coefficients must be finite")
            coeffs = np.array(values, dtype=np.complex128)
            keys, coeffs = _merge_terms(n_qubits, keys, coeffs)
        else:
            keys = np.empty(0, dtype=np.int64)
            coeffs = np.empty(0, dtype=np.complex128)
        self._set(keys, coeffs)

    def _keys_of(self, labels: Collection[str | PauliString]) -> np.ndarray:
        """The keys of ``labels`` by one byte lookup over the joined labels when
        all are ASCII strings of Pauli letters of the right length; others (a
        `PauliString`, a bad label) take the per-label parse, which raises."""
        n = self.n_qubits
        try:
            joined = "".join(labels).encode("ascii")
        except (TypeError, UnicodeEncodeError):
            joined = None
        if joined is None or joined.translate(None, _CHAR_OF.encode()) or set(map(len, labels)) != {n}:
            return np.array([_key_of(self._checked_label(s)) for s in labels], dtype=np.int64)
        return np.frombuffer(joined.translate(_CODE_BYTES), np.uint8).reshape(-1, n).dot(_DIGIT_WEIGHTS[n])

    def _checked_label(self, label: str | PauliString) -> str:
        s = label.letters if isinstance(label, PauliString) else label
        if len(s) != self.n_qubits:
            raise ValueError(f"label {s!r} has length {len(s)}, expected {self.n_qubits}")
        return s

    def _set(self, keys: np.ndarray, coeffs: np.ndarray) -> None:
        keys.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_dense", None)
        object.__setattr__(self, "_spectrum", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Multivector is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Multivector is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the terms and keep no derived value
        return Multivector._raw, (self.n_qubits, self._keys, self._coeffs)

    @classmethod
    def _raw(cls, n: int, keys: np.ndarray, coeffs: np.ndarray) -> "Multivector":
        """Internal: wrap already-canonical term arrays."""
        mv = cls.__new__(cls)
        object.__setattr__(mv, "n_qubits", n)
        mv._set(keys, coeffs)
        return mv

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, value: complex) -> "Multivector":
        return cls(n, {"I" * n: value})

    @classmethod
    def blade(cls, letters: str, coeff: complex = 1.0) -> "Multivector":
        return cls(len(letters), {letters: coeff})

    @classmethod
    def vector(cls, n: int, qubit: int, components) -> "Multivector":
        """v_x x + v_y y + v_z z on one qubit of an n-qubit algebra."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        vx, vy, vz = (float(c) for c in components)
        terms = {}
        for code, val in ((1, vx), (3, vy), (2, vz)):
            label = ["I"] * n
            label[qubit] = _CHAR_OF[code]
            terms["".join(label)] = val
        return cls(n, terms)

    @classmethod
    def iota(cls, n: int) -> "Multivector":
        """The correlated pseudoscalar; squares to -1."""
        return cls.scalar(n, 1j)

    # -- term access -------------------------------------------------------

    def items(self) -> Iterator[tuple[int, complex]]:
        return zip(self._keys.tolist(), self._coeffs.tolist())

    def terms(self) -> dict[str, complex]:
        return {_letters_of(k, self.n_qubits): c for k, c in self.items()}

    def coeff(self, label: str | PauliString) -> complex:
        key = _key_of(self._checked_label(label))
        idx = np.searchsorted(self._keys, key)
        if idx < self._keys.size and self._keys[idx] == key:
            return complex(self._coeffs[idx])
        return 0.0 + 0.0j

    def __len__(self) -> int:
        return int(self._keys.size)

    def __repr__(self) -> str:
        shown = dict(list(self.terms().items())[:6])
        more = "" if len(self) <= 6 else f", +{len(self) - 6} terms"
        return f"Multivector(n={self.n_qubits}, {shown}{more})"

    # -- ring operations ---------------------------------------------------

    def _require_same_n(self, other: "Multivector") -> None:
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"qubit count mismatch: {self.n_qubits} vs {other.n_qubits}"
            )

    def __add__(self, other) -> "Multivector":
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.n_qubits, other)
        self._require_same_n(other)
        keys = np.concatenate([self._keys, other._keys])
        coeffs = np.concatenate([self._coeffs, other._coeffs])
        return Multivector._raw(self.n_qubits, *_merge_terms(self.n_qubits, keys, coeffs))

    __radd__ = __add__

    def __sub__(self, other) -> "Multivector":
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.n_qubits, other)
        return self + (-other)

    def __rsub__(self, other) -> "Multivector":
        return (-self) + other

    def __neg__(self) -> "Multivector":
        return Multivector._raw(self.n_qubits, self._keys, -self._coeffs)

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, (int, float, complex)):
            if not cmath.isfinite(other):
                raise ValueError(f"cannot scale a multivector by {other}")
            coeffs = self._coeffs * other
            keep = _kept(coeffs)
            return Multivector._raw(self.n_qubits, self._keys[keep], coeffs[keep])
        self._require_same_n(other)
        n = self.n_qubits
        if self._keys.size * other._keys.size >= max(_MATRIX_ROUTE_PAIRS, 1 << (2 * n + 2)):
            m = _to_dense(self)
            return _from_dense(m @ (m if other is self else _to_dense(other)))
        k1 = self._keys[:, None]
        k2 = other._keys[None, :]
        xm = _x_mask(self.n_qubits)
        rk = np.bitwise_xor(k1, k2)
        e = (
            np.bitwise_count(k1 & (k1 >> 1) & xm).astype(np.int64)
            + np.bitwise_count(k2 & (k2 >> 1) & xm).astype(np.int64)
            - np.bitwise_count(rk & (rk >> 1) & xm).astype(np.int64)
            + 2 * np.bitwise_count((k1 >> 1) & k2 & xm).astype(np.int64)
        ) & 3
        coeffs = (self._coeffs[:, None] * other._coeffs[None, :]) * _PHASES[e]
        keys, coeffs = _merge_terms(self.n_qubits, rk.ravel(), coeffs.ravel())
        return Multivector._raw(self.n_qubits, keys, coeffs)

    def __rmul__(self, other) -> "Multivector":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __truediv__(self, other) -> "Multivector":
        return self * (1.0 / other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    __hash__ = None  # mutable-looking container semantics

    # -- algebra-specific operations ---------------------------------------

    def reverse(self) -> "Multivector":
        """Per-qubit reversal of vector factors; the matrix-side adjoint."""
        return Multivector._raw(self.n_qubits, self._keys, np.conj(self._coeffs))

    def scalar_part(self) -> float:
        """Real coefficient of the identity blade."""
        if self._keys.size and self._keys[0] == 0:
            return float(self._coeffs[0].real)
        return 0.0

    def drop_qubits(self, qubits: Iterable[int]) -> "Multivector":
        """Discard every term touching the given qubits; reindex the rest.

        This is the unnormalised partial trace: the caller multiplies by
        2**len(qubits) to recover the reduced operator.
        """
        dropped = _qubit_set(qubits, self.n_qubits)
        if not dropped:
            raise ValueError("subset of qubits to drop must be nonempty")
        kept = tuple(q for q in range(self.n_qubits) if q not in dropped)
        if not kept:
            raise ValueError("cannot drop every qubit")
        return Multivector._raw(len(kept), *_trace_plan(self.n_qubits, kept).terms(self))

    # -- norms and predicates ----------------------------------------------

    def norm1(self) -> float:
        return float(np.abs(self._coeffs).sum()) if self._coeffs.size else 0.0

    def max_abs(self) -> float:
        return float(np.abs(self._coeffs).max()) if self._coeffs.size else 0.0

    def hermitian_defect(self) -> float:
        """Max coefficient deviation between self and its reverse."""
        if not self._coeffs.size:
            return 0.0
        return float(2.0 * np.abs(self._coeffs.imag).max())


# -- module-level operation surface ---------------------------------------


def single_letter_product(p: str, q: str) -> tuple[str, complex]:
    """Product of two single-qubit letters: (letter, phase).

    Same letters square to one; distinct non-identity letters give the third
    with phase +/- iota following x y = iota z.
    """
    for ch in (p, q):
        if ch not in _CODE_OF:
            raise ValueError(f"invalid Pauli letter {ch!r}")
    a = Multivector.blade(p) * Multivector.blade(q)
    ((key, coeff),) = a.items()
    return _CHAR_OF[key & 3], coeff


def _check_generator(a: Multivector) -> None:
    """`exp_i`'s check on the generator: a non-Hermitian ``a`` raises
    ValueError."""
    if a.hermitian_defect() > HERMITIAN_TOL:
        raise ValueError("exp_i requires a Hermitian generator (reverse(a) == a)")


def _checked_exp_time(t: float, norm1: float) -> float:
    """``t`` as a float, after `exp_i`'s checks on the time: a non-finite
    ``t``, or |t| * norm1 above 2^31, raises ValueError."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"exp_i needs a finite time, got {t}")
    scale = abs(t) * norm1
    if not scale <= 0.5 * 2.0**_MAX_SQUARINGS:
        raise ValueError(
            f"exp_i: |t| * norm1(a) = {scale} exceeds 2^{_MAX_SQUARINGS - 1}"
        )
    return t


def _spectrum(a: Multivector) -> tuple[np.ndarray, np.ndarray, float]:
    """(w, v, norm1(a)) with a = V diag(w) V^H, from one `eigh` of the
    dense matrix, kept on ``a`` after the first call.  The generator check
    runs before the decomposition, so a non-Hermitian ``a`` raises on
    every call and keeps nothing."""
    s = a._spectrum
    if s is None:
        _check_generator(a)
        w, v = np.linalg.eigh(_to_dense(a))
        w.setflags(write=False)
        v.setflags(write=False)
        s = (w, v, a.norm1())
        object.__setattr__(a, "_spectrum", s)
    return s


def _dense_exp_i(a: Multivector, t: float) -> np.ndarray:
    """The 2^n x 2^n matrix of exp(-iota * a * t), `exp_i`'s spectral
    route: V exp(-i t W) V^H from `_spectrum`, with `exp_i`'s checks."""
    w, v, norm1 = _spectrum(a)
    t = _checked_exp_time(t, norm1)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def exp_i(a: Multivector, t: float) -> Multivector:
    """exp(-iota * a * t) for Hermitian a.

    On at most `_SPECTRAL_EXP_QUBITS` (4) qubits: one eigendecomposition
    of the dense matrix, V exp(-i t W) V^H (`_dense_exp_i`; Moler & Van
    Loan, SIAM Review 45, 2003).  ``a`` keeps the decomposition after the
    Hermitian check has passed (`_spectrum`), so every later call on the
    same generator is one phase vector, one matmul and `_from_dense`; the
    time checks still run on every call.  At n = 2 the dense exponential
    then takes about 6-9 us against 25-30 us for the first call (timeit
    medians, 2-vCPU Xeon guest).  Above 4 qubits, scaling and squaring: the
    Taylor series on the generator halved to norm1 <= 1/2, evaluated in
    Horner's form to the degree whose remainder bound falls below 1e-16
    (norm1 = sum of coefficient magnitudes).  The route follows the qubit
    count alone: at n <= 4 the spectral route took 0.05-0.24 ms against
    1.3-5.4 ms for the series, while its 8^n cost loses to the series from
    n = 7 on (n = 10, 2 terms: 1.5 s against 1.9 ms).  A non-Hermitian
    ``a``, a non-finite ``t``, or |t| * norm1(a) above 2^31 raises
    ValueError on both routes.
    """
    if a.n_qubits <= _SPECTRAL_EXP_QUBITS:
        return _from_dense(_dense_exp_i(a, t))
    _check_generator(a)
    t = _checked_exp_time(t, a.norm1())
    gen = a * (-1j * t)
    nrm = gen.norm1()
    squarings = max(0, math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0
    g = gen * (0.5**squarings)
    # Horner's form 1 + g (1 + g/2 (1 + ...)) keeps every partial result of
    # order one.  A term-by-term sum would lose each term to the 1e-14
    # coefficient prune once it fell below it, an error of up to 1e-14
    # that each squaring doubles.  The degree is the least with remainder
    # norm1(g)^(degree+1) / (degree+1)! below SERIES_TOL.
    x = g.norm1()
    degree, remainder = 0, x
    while remainder >= SERIES_TOL:
        degree += 1
        remainder *= x / (degree + 1)
    one = result = Multivector.scalar(a.n_qubits, 1.0)
    for k in range(degree, 0, -1):
        result = one + (g * result) * (1.0 / k)
    for _ in range(squarings):
        result = result * result
    return result


def allclose(a: Multivector, b: Multivector, tol: float = MATCH_TOL) -> bool:
    """Every coefficient of a and b within ``tol``, over the keys of both.

    The coefficient maps are compared unpruned: ``a - b`` would drop a
    difference below the 1e-14 prune and read it as 0."""
    a._require_same_n(b)
    keys = np.union1d(a._keys, b._keys)
    diff = np.zeros(keys.size, dtype=np.complex128)
    diff[keys.searchsorted(a._keys)] += a._coeffs
    diff[keys.searchsorted(b._keys)] -= b._coeffs
    return float(np.abs(diff).max(initial=0.0)) <= tol
