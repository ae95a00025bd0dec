import numpy as np
import pytest

from msta.algebra import Multivector
from msta.oracle import random_multivector


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian_mv(n, rng, max_terms=6):
    a = random_multivector(n, rng, max_terms)
    return a + a.reverse()


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
