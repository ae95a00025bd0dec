import numpy as np
import pytest

from msta.oracle import random_multivector


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian_mv(n, rng, max_terms=6):
    a = random_multivector(n, rng, max_terms)
    return a + a.reverse()
