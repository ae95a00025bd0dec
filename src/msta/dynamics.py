"""Two-qubit exchange dynamics as rotations in projector spaces.

The exchange-plus-field Hamiltonian splits into commuting parts on the
aligned and anti-aligned projector spaces, so time evolution is a pair of
independent sphere rotations.  For a product start under the isotropic
coupling the full trajectory has a closed form built from the half-sum and
half-difference of the two spin directions.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .algebra import _SPECTRAL_EXP_QUBITS, Multivector, _dense_conjugate, _to_dense, exp_i
from .states import (
    DensityOperator, ProductState, ProjectorSphere, _unit3, bloch_state, frame_for, projector_sphere,
)
from .tolerances import DEGENERATE_AXIS, IDENTITY_TOL, RANGE_SLACK


@dataclass(frozen=True)
class ExchangeHamiltonian:
    """Couplings of H = sum_k (omega_k/4) k_a k_b + (beta_a z_a + beta_b z_b)/2."""

    omega_x: float = 0.0
    omega_y: float = 0.0
    omega_z: float = 0.0
    beta_a: float = 0.0
    beta_b: float = 0.0

    def __post_init__(self) -> None:
        # a NaN coupling fails every comparison, so it would pick a branch
        # of eigensystem_2q silently and return NaN energies
        if not np.isfinite(astuple(self)).all():
            raise ValueError(f"couplings must be finite, got {self}")

    @classmethod
    def isotropic(cls, omega: float) -> "ExchangeHamiltonian":
        return cls(omega, omega, omega)

    @property
    def omega_minus(self) -> float:
        return 0.5 * (self.omega_x - self.omega_y)

    @property
    def omega_plus(self) -> float:
        return 0.5 * (self.omega_x + self.omega_y)

    @property
    def beta_plus(self) -> float:
        return self.beta_a + self.beta_b

    @property
    def beta_minus(self) -> float:
        return self.beta_a - self.beta_b

    @property
    def omega00(self) -> float:
        """Angular speed in the aligned projector space."""
        return float(np.hypot(self.omega_minus, self.beta_plus))

    @property
    def omega01(self) -> float:
        """Angular speed in the anti-aligned projector space."""
        return float(np.hypot(self.omega_plus, self.beta_minus))


def hamiltonian(h: ExchangeHamiltonian) -> Multivector:
    terms = {
        "XX": h.omega_x / 4.0,
        "YY": h.omega_y / 4.0,
        "ZZ": h.omega_z / 4.0,
        "ZI": h.beta_a / 2.0,
        "IZ": h.beta_b / 2.0,
    }
    return Multivector(2, terms)


@lru_cache(maxsize=2)
def _standard_spheres() -> tuple[ProjectorSphere, ProjectorSphere]:
    """The aligned {00,11} and anti-aligned {01,10} sphere bases."""
    c = ProductState.computational
    return (
        projector_sphere(c("00"), c("11")),
        projector_sphere(c("01"), c("10")),
    )


def projector_decompose(hmv: Multivector) -> tuple[Multivector, Multivector]:
    """Split H into its aligned- and anti-aligned-projector components.

    Valid only when H commutes with both projectors; otherwise the pieces
    are not separate rotation generators and a ValueError is raised.
    """
    if hmv.n_qubits != 2:
        raise ValueError("expected a two-qubit Hamiltonian")
    sph00, sph01 = _standard_spheres()
    for p in (sph00.p, sph01.p):
        if (hmv * p - p * hmv).max_abs() > IDENTITY_TOL:
            raise ValueError("Hamiltonian does not commute with the projectors")
    return hmv * sph00.p, hmv * sph01.p


def evolve(rho0: DensityOperator, hmv: Multivector, t: float) -> DensityOperator:
    """rho(t) = exp(-iota H t) rho(0) exp(iota H t).

    The route follows the qubit count, as `exp_i`'s does.  On at most
    `_SPECTRAL_EXP_QUBITS` (4) qubits, with H = V diag(w) V^H, the step is
    V (E o R) V^H for R = V^H rho0 V and E_jk = e^{-i t (w_j - w_k)}: one
    phase vector, R with the phases folded into V's columns (two 2^n x 2^n
    matmuls on rho0's matrix), and one product of vec(E o R) with the
    Pauli coefficients of the eigen-dyads v_j v_k^H
    (`algebra._dense_conjugate`).  ``hmv`` keeps its eigendecomposition and
    those coefficients (`algebra._propagator`, a 4^n x 4^n matrix: 4 KB at
    n = 2, 64 KB at n = 3, 1 MB at n = 4) and ``rho0.mv`` its matrix after
    the first call, so a trajectory pays for them once.  At n = 2 a later
    step takes about 0.021-0.025 ms against 0.030-0.031 ms through the
    matrix conjugation and `_from_dense` it replaced, and the first step on
    a generator, which also builds the propagator, about 0.063 against
    0.056 ms (timeit, 2-vCPU Xeon guest, numpy 2.4.6, one BLAS thread); at
    n = 4 the 256 x 256 product makes a step slower, about 0.048-0.058
    against 0.038-0.041 ms, and the first step takes 1.3-2.5 ms.  On this
    route the result also holds a bound on its purity defect: rho0's bound
    (`DensityOperator._defect_bound`) plus one rounding allowance
    (`DensityOperator._stepped`).  A start from
    `pure_state_from_amplitudes`, `product_state` or `bloch_state` holds
    its bound from construction; any other start is measured by one dense
    square the first time and keeps the result.  So a trajectory squares
    its start at most once, each step adds one float, and `is_pure` on a
    result is one comparison.  Above the cut nothing is kept or carried, U
    comes from the series and the conjugation is ``u * rho * u.reverse()``.
    Raises ValueError as `exp_i` does, and on a qubit count mismatch.
    """
    hmv._require_same_n(rho0.mv)
    if hmv.n_qubits <= _SPECTRAL_EXP_QUBITS:
        return rho0._stepped(_dense_conjugate(hmv, _to_dense(rho0.mv), t))
    u = exp_i(hmv, t)
    return DensityOperator(u * rho0.mv * u.reverse())


def eigensystem_2q(h: ExchangeHamiltonian) -> list[tuple[DensityOperator, float]]:
    """The four eigenstates (P +/- A)/2 and their energies.

    A is the rotation axis of each projector space; when the angular speed
    vanishes the space is degenerate and the Z basis vector serves as the
    axis (any orthogonal pair spans the eigenspace).  The aligned space
    comes first, with energies (omega_z +/- 2 omega00)/4, then the
    anti-aligned one, with (-omega_z +/- 2 omega01)/4.
    """
    spaces = zip(
        _standard_spheres(),
        ((h.omega_minus, h.beta_plus, h.omega00), (h.omega_plus, h.beta_minus, h.omega01)),
        (h.omega_z, -h.omega_z),
    )
    out: list[tuple[DensityOperator, float]] = []
    for sph, (wx, wz, speed), omega_z in spaces:
        axis = (wx * sph.x + wz * sph.z) / speed if speed > 0.0 else sph.z
        for sign in (1.0, -1.0):
            out.append((DensityOperator(0.5 * (sph.p + sign * axis)), (omega_z + sign * 2.0 * speed) / 4.0))
    return out


@dataclass(frozen=True)
class ProductEvolution:
    """Geometry of a product start m, n under isotropic exchange.

    p and q are the half-sum and half-difference of the spin directions
    (orthogonal, p^2 + q^2 = 1), r = p x q completes the rotation frame.
    Degenerate aligned or anti-aligned starts pick a deterministic
    orthogonal completion for the undefined direction.
    """

    m_axis: tuple[float, float, float]
    n_axis: tuple[float, float, float]
    p_len: float
    q_len: float
    p_hat: tuple[float, float, float]
    q_hat: tuple[float, float, float]
    r_hat: tuple[float, float, float]

    @classmethod
    def from_axes(cls, m_axis, n_axis) -> "ProductEvolution":
        m, n = _unit3(m_axis), _unit3(n_axis)
        pv = 0.5 * (m + n)
        qv = 0.5 * (m - n)
        p = float(np.linalg.norm(pv))
        q = float(np.linalg.norm(qv))
        if p > DEGENERATE_AXIS:
            ph = pv / p
        else:
            ph = frame_for(qv / q)[0]
        if q > DEGENERATE_AXIS:
            qh = qv / q
        else:
            qh = frame_for(pv / p)[0]
        rh = np.cross(ph, qh)
        return cls(tuple(m), tuple(n), p, q, tuple(ph), tuple(qh), tuple(rh))

    @property
    def psi(self) -> float:
        """Angle between the two initial spin directions."""
        return float(np.arccos(np.clip(np.dot(self.m_axis, self.n_axis), -1.0, 1.0)))


def product_evolution(
    pe: ProductEvolution, omega: float, t: float
) -> tuple[DensityOperator, DensityOperator, DensityOperator]:
    """Closed-form state at time t plus both reduced operators.

    Only the anti-aligned grade-one piece and the cross bivector rotate;
    the reduced vectors are p + cos(wt) q + pq sin(wt) r on qubit a and
    p - cos(wt) q - pq sin(wt) r on qubit b.
    """
    p, q = pe.p_len, pe.q_len
    ph, qh, rh = np.array(pe.p_hat), np.array(pe.q_hat), np.array(pe.r_hat)
    cos_t = float(np.cos(omega * t))
    sin_t = float(np.sin(omega * t))

    def va(axis):
        return Multivector.vector(2, 0, axis)

    def vb(axis):
        return Multivector.vector(2, 1, axis)

    mv = Multivector.scalar(2, 0.25)
    mv = mv + 0.25 * p * (va(ph) + vb(ph))
    mv = mv + 0.25 * (p * p) * (va(ph) * vb(ph))
    mv = mv - 0.25 * (q * q) * (va(qh) * vb(qh))
    mv = mv + 0.25 * q * cos_t * (va(qh) - vb(qh))
    mv = mv + 0.25 * q * sin_t * (va(rh) * vb(ph) - va(ph) * vb(rh))
    mv = mv + 0.25 * p * q * cos_t * (va(qh) * vb(ph) - va(ph) * vb(qh))
    mv = mv + 0.25 * p * q * sin_t * (va(rh) - vb(rh))

    bloch_a = p * ph + q * cos_t * qh + p * q * sin_t * rh
    bloch_b = p * ph - q * cos_t * qh - p * q * sin_t * rh
    return DensityOperator(mv), bloch_state(bloch_a), bloch_state(bloch_b)


def min_bloch_length(psi: float) -> float:
    """Minimum over time of the reduced Bloch length for a product start.

    With q = sin(psi/2) the length is sqrt(1 - q^4 sin^2(wt)), so the
    minimum is sqrt(1 - sin^4(psi/2)): 1 for aligned spins, 0 for
    anti-aligned, strictly decreasing in between.
    """
    if not 0.0 <= psi <= np.pi + RANGE_SLACK:
        raise ValueError("psi must lie in [0, pi]")
    q2 = float(np.sin(0.5 * psi) ** 2)
    return float(np.sqrt(max(0.0, 1.0 - q2 * q2)))
