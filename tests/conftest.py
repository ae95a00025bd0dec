import json

import numpy as np
import pytest

from msta import states
from msta.algebra import Multivector
from msta.oracle import random_multivector
from msta.vectorsum import AngleSet


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian_mv(n, rng, max_terms=6):
    a = random_multivector(n, rng, max_terms)
    return a + a.reverse()


@pytest.fixture
def dense_squares(monkeypatch):
    """A list that grows by one entry per dense square of a state: "pass"
    for `is_pure`'s exact pass (its `_dense_coeffs` of rho rho - rho) and
    "measure" for `_defect_bound`'s (its `DensityOperator.matrix`)."""
    squares = []
    coeffs, matrix = states._dense_coeffs, states.DensityOperator.matrix
    monkeypatch.setattr(states, "_dense_coeffs", lambda m: squares.append("pass") or coeffs(m))
    monkeypatch.setattr(states.DensityOperator, "matrix", lambda rho: squares.append("measure") or matrix(rho))
    return squares


def fresh_copy(a):
    """An equal multivector that has computed nothing yet: no matrix and
    no spectrum kept."""
    return Multivector._raw(a.n_qubits, a._keys, a._coeffs)


def same_bits(a, b):
    """Equal qubit counts, keys and coefficient bytes."""
    return a.n_qubits == b.n_qubits and np.array_equal(a._keys, b._keys) and a._coeffs.tobytes() == b._coeffs.tobytes()


def block_rows(block):
    """The cells of a `msta.cli` cell block as strings, one per row, the
    0xFF pad bytes dropped."""
    return [row.tobytes().translate(None, b"\xff").decode() for row in block]


def table_rows(table):
    """The rows of a `msta.cli.Table` as dicts of Python values, read
    through each column's tolist()."""
    cols = [c if isinstance(c, list) else c.tolist() for c in table.columns.values()]
    return [dict(zip(table.columns, row)) for row in zip(*cols)]


def save_state(path, amps):
    """Write amplitudes as a state file that `msta.cli.load_state` reads."""
    amps = np.asarray(amps, dtype=complex).ravel()
    n = amps.size.bit_length() - 1
    doc = {"n_qubits": n, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def negated(s):
    """The conjugate of an angle set: every angle negated."""
    return AngleSet(*(-s.free()))
