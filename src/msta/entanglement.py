"""Reduced operators, entanglement measures, measurement updates, CHSH.

Entropy, concurrence, correlators, CHSH values and the CHSH maximum read
slices of the correlation tensor (`DensityOperator.correlation_tensor`);
the tests hold the correlators equal to the paper's scalar-part forms,
4 <a_1 b_2 rho>.  `pure_2q_measures` reads a state's amplitudes instead.
`partial_trace` keeps the terms on the kept qubits, scaled by 2^d,
O(terms) for any n where the tensor costs O(4^n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, _magnitudes, _qubit_set, _trace_plan
from .states import DensityOperator, _unit3, bloch_slice
from .tolerances import OUTCOME_FLOOR


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced operator on the kept qubits: drop the rest, rescale by 2^d.

    The terms come from the (n, keep) plan that `Multivector.drop_qubits`
    also reads (`algebra._trace_plan`, built once per pair): the terms that
    act on the kept qubits only, reindexed, then scaled by 2^d.  An
    operator that holds every key, as a random pure state does, reduces by
    one gather through the plan's index on up to 6 qubits; any other takes
    the drop mask.  The result equals
    ``rho.mv.drop_qubits(dropped) * 2.0**d`` bit for bit.  Raises ValueError unless ``keep`` is a nonempty proper subset of the
    qubit indices 0..n-1 (a bool is no index), or if a scaled coefficient
    overflows."""
    n = rho.n_qubits
    keep = _qubit_set(keep, n)
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a nonempty proper subset of qubits")
    plan = _trace_plan(n, tuple(keep))
    keys, coeffs = plan.terms(rho.mv)
    coeffs = coeffs * plan.scale
    # every stored coefficient is above the prune and 2^d >= 2, so the
    # scaled ones are too: only the finiteness check can fail
    _magnitudes(coeffs)
    return DensityOperator(Multivector._raw(len(keep), keys, coeffs))


def _require_pure_2q(rho: DensityOperator) -> None:
    if rho.n_qubits != 2:
        raise ValueError("expected a two-qubit state")
    if not rho.is_pure():
        raise ValueError("expected a pure state")


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2 (1-p) with 0 log 0 = 0.  Raises ValueError
    unless 0 <= p <= 1."""
    # written so that a NaN p fails too
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs a probability in [0, 1], got p = {p}")
    s = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            s -= x * np.log2(x)
    return s


def _length_entropy(v: float) -> float:
    """Binary entropy of (1 + v)/2, v a reduced Bloch length clamped to 1."""
    return binary_entropy((1.0 + min(v, 1.0)) / 2.0)


def entanglement_entropy(rho: DensityOperator, cut: int = 0) -> float:
    """Von Neumann entropy of one qubit of a pure two-qubit state: the binary
    entropy of (1 + v)/2, v the reduced Bloch length.  Raises ValueError
    unless ``rho`` is a pure two-qubit state (`is_pure` at PURE_TOL).  Like
    `concurrence_2q` it fails below C of about 1e-8; see `pure_2q_measures`.
    """
    _require_pure_2q(rho)
    return _length_entropy(float(np.linalg.norm(bloch_slice(rho.correlation_tensor(), cut))))


def concurrence_2q(rho: DensityOperator) -> float:
    """sqrt(1 - v^2) for a pure two-qubit state.  1 - v^2 keeps the Pauli
    coefficients' absolute rounding, about 1e-16, so C has a floor of about
    1e-8; `pure_2q_measures` takes C from the amplitudes instead."""
    _require_pure_2q(rho)
    v = float(np.linalg.norm(bloch_slice(rho.correlation_tensor(), 0)))
    return float(np.sqrt(max(0.0, 1.0 - v * v)))


def pure_2q_measures(amps) -> tuple[float, float]:
    """Concurrence C = 2 |psi00 psi11 - psi01 psi10| (Wootters, PRL 80,
    2245, 1998) and one-qubit entropy of a pure two-qubit state from its
    normalised amplitudes, exact to rounding near product states: the
    smaller reduced eigenvalue is C^2 / (2 (1 + sqrt(1 - C^2))), and log1p
    gives the entropy's (1 - lambda) term."""
    psi00, psi01, psi10, psi11 = np.asarray(amps, dtype=complex).ravel().tolist()
    c = min(2.0 * abs(psi00 * psi11 - psi01 * psi10), 1.0)
    lam = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))
    entropy = -(1.0 - lam) * np.log1p(-lam) / np.log(2.0)
    if lam > 0.0:
        entropy -= lam * np.log2(lam)
    return c, float(entropy)


def measure_update(
    rho: DensityOperator, qubit: int, axis, outcome: int
) -> tuple[float, DensityOperator]:
    """Projective measurement (1 +/- s)/2 on one qubit.

    Returns (probability, post-measurement state).  Raises if the outcome
    has probability below OUTCOME_FLOOR.
    """
    if outcome not in (-1, 1):
        raise ValueError("outcome must be +1 or -1")
    n = rho.n_qubits
    e = 0.5 * (Multivector.scalar(n, 1.0) + float(outcome) * Multivector.vector(n, qubit, _unit3(axis)))
    prob = (1 << n) * (e * rho.mv).scalar_part()
    if prob < OUTCOME_FLOOR:
        raise ValueError(f"measurement outcome has vanishing probability ({prob})")
    post = (e * rho.mv * e) * (1.0 / prob)
    return float(prob), DensityOperator(post)


@dataclass(frozen=True)
class ChshSetting:
    """Measurement axes: q, r on qubit a and s, t on qubit b."""

    q: tuple[float, float, float]
    r: tuple[float, float, float]
    s: tuple[float, float, float]
    t: tuple[float, float, float]

    def __post_init__(self) -> None:
        for v in (self.q, self.r, self.s, self.t):
            _unit3(v)


def _correlation_matrix(rho: DensityOperator) -> np.ndarray:
    """T[1:, 1:] of a two-qubit state: entry (i, j) is Tr(rho sigma_i (x)
    sigma_j) over i, j in (x, y, z)."""
    if rho.n_qubits != 2:
        raise ValueError("expected a two-qubit state")
    return rho.correlation_tensor()[1:, 1:]


def correlator(rho: DensityOperator, axis_a, axis_b) -> float:
    """E(a, b) = 4 < a_1 b_2 rho > = a . T b for a two-qubit state, T the
    correlation matrix."""
    return float(_unit3(axis_a) @ _correlation_matrix(rho) @ _unit3(axis_b))


def chsh_value(rho: DensityOperator, setting: ChshSetting) -> float:
    """E(QS) + E(RS) + E(RT) - E(QT) = q . T (s - t) + r . T (s + t), T the
    correlation matrix."""
    corr = _correlation_matrix(rho)
    q, r, s, t = (_unit3(v) for v in (setting.q, setting.r, setting.s, setting.t))
    return float(q @ corr @ (s - t) + r @ corr @ (s + t))


def chsh_maximize(rho: DensityOperator) -> tuple[float, ChshSetting]:
    """The largest CHSH value over all four measurement axes, and its axes.

    The maximum is 2 sqrt(s_1^2 + s_2^2) over the two largest singular
    values of the correlation matrix T[1:, 1:] = U S W^T (Horodecki,
    Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)), reached at
    q = u_2, r = u_1, s = cos(phi) w_1 + sin(phi) w_2 and t = cos(phi) w_1
    - sin(phi) w_2 with phi = atan2(s_2, s_1).  Where singular values tie
    (every Bell state) these axes are one optimum of many.  The value is
    reported through `chsh_value`.
    """
    u, sv, wt = np.linalg.svd(_correlation_matrix(rho))
    phi = np.arctan2(sv[1], sv[0])
    s = np.cos(phi) * wt[0] + np.sin(phi) * wt[1]
    t = np.cos(phi) * wt[0] - np.sin(phi) * wt[1]
    # the SVD and the sums above can give -0 components; adding +0 clears
    # that sign, so a zero axis component always prints as 0.0
    best = ChshSetting(*(tuple(axis + 0.0) for axis in (u[:, 1], u[:, 0], s, t)))
    return chsh_value(rho, best), best
