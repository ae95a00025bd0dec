"""Density-operator constructors.

A pure product state is a product of per-qubit Bloch projectors
(1 + s n)/2, built as one Kronecker product of their coefficient
4-vectors in key order (`_kron_mv`); `bloch_state` is the one-qubit case.
Two orthogonal product states span a projector space with
its own Pauli-like basis (P, X, Y, Z), the projector sphere; any
superposition of the pair is a point on that sphere.

The general pure state is built by `pure_state_from_amplitudes` with the
dense core of `msta.algebra`: one table-driven Walsh-Hadamard
decomposition of |psi><psi|, O(n 4^n); custom spin axes first rotate the
amplitudes, one 2 x 2 frame unitary per qubit.  `pure_state_from_spheres`
is the paper's construction and the reference the tests hold it equal
to: the diagonal product-state expansion plus one X-term per pair of
basis states, weighted by sqrt(p_i p_j) and rotated by the phase
difference of the amplitudes, O(4^n) sphere products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import Multivector, _dense_coeffs, _from_dense, _kept, _magnitudes, _to_dense, _x_mask, exp_i
from .tolerances import (
    _UNIT_ROUNDOFF, AXIS_TOL, HERMITIAN_TOL, IDENTITY_TOL, NEGLIGIBLE_WEIGHT, NORM_TOL, PRUNE_EPS, PURE_TOL,
    TRACE_TOL, UNIT_TOL, purity_defect_allowance,
)


def _unit3(v) -> np.ndarray:
    u = np.asarray(v, dtype=float).reshape(3)
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_TOL:
        raise ValueError(f"expected a unit 3-vector, got norm {np.linalg.norm(u)}")
    return u


def frame_for(axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic right-handed orthonormal frame (e1, e2, axis).

    e1 is the reference orthogonal direction used for projector-sphere X
    vectors; for the z axis the frame is (x, y, z).
    """
    n = _unit3(axis)
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    e1 = e - np.dot(e, n) * n
    e1 /= np.linalg.norm(e1)
    # n x e1 by components: np.cross costs most of the call on 3-vectors
    (x, y, z), (p, q, r) = n.tolist(), e1.tolist()
    e2 = np.array([y * r - z * q, z * p - x * r, x * q - y * p])
    return e1, e2, n


def bloch_slice(t: np.ndarray, qubit: int) -> np.ndarray:
    """Qubit ``qubit``'s reduced Bloch vector in a correlation tensor: its
    (x, y, z) entries with every other qubit's index at 1."""
    if not 0 <= qubit < t.ndim:
        raise ValueError(f"qubit {qubit} out of range for n={t.ndim}")
    idx = [0] * t.ndim
    idx[qubit] = slice(1, None)
    return t[tuple(idx)]


class DensityOperator:
    """Hermitian, unit-trace multivector describing a quantum state.

    Immutable, like its multivector: setting or deleting an attribute
    raises AttributeError, so the constructor's checks cannot be bypassed.
    The one value a state keeps besides its terms is ``_defect``, a float
    bounding every Pauli coefficient of rho rho - rho, or None: written at
    construction by `pure_state_from_amplitudes`, `product_state` and
    `bloch_state` (`_certified`), written on a conjugated state by
    `_conjugated`, or else measured once by `_defect_bound`.  A state built
    from bare terms, ``DensityOperator(mv)``, holds None.  Copies and
    pickles drop it.
    """

    __slots__ = ("mv", "_defect")

    def __init__(self, mv: Multivector):
        if mv.hermitian_defect() > HERMITIAN_TOL:
            raise ValueError("density operator must be Hermitian")
        if abs((1 << mv.n_qubits) * mv.scalar_part() - 1.0) > TRACE_TOL:
            raise ValueError("density operator must have unit trace")
        object.__setattr__(self, "mv", mv)
        object.__setattr__(self, "_defect", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DensityOperator is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"DensityOperator is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the checked constructor
        return DensityOperator, (self.mv,)

    @property
    def n_qubits(self) -> int:
        return self.mv.n_qubits

    def matrix(self) -> np.ndarray:
        """The 2^n x 2^n density matrix, a writable copy."""
        return _to_dense(self.mv).copy()

    def purity(self) -> float:
        """Tr(rho^2) = 2^N <rho rho> = 2^N sum_k c_k^2: every blade squares
        to +1, so only the square of each term reaches the scalar part."""
        c = self.mv._coeffs
        return (1 << self.n_qubits) * float(np.dot(c, c).real)

    def is_pure(self, tol: float = PURE_TOL) -> bool:
        """rho^2 = rho to ``tol`` per coefficient, from one dense pass.

        The defect is the largest coefficient of rho^2 - rho that the prune
        keeps, read off the unpruned coefficient vector without building a
        multivector.  Raises ValueError if a coefficient is not finite.

        A state may hold a bound on that defect (``_defect``): the
        constructors of pure states write one (`_certified`), and
        `_conjugated`, as `dynamics.evolve` uses on its dense route, its
        start's bound plus a rounding allowance per step.  When the bound is
        at most ``tol`` the state is pure without the dense pass; otherwise,
        or with no bound, the pass decides, so the verdict is always the
        pass's.  The pass keeps no bound of its own."""
        bound = self._defect
        if bound is not None and bound <= tol:
            return True
        m = _to_dense(self.mv)
        worst = float(_magnitudes(_dense_coeffs(m @ m - m)).max())
        return (worst if worst > PRUNE_EPS else 0.0) <= tol

    def _defect_bound(self) -> float:
        """An upper bound on every Pauli coefficient of rho rho - rho that
        `is_pure`'s exact pass can compute: the root-sum-square of those
        coefficients, which unitary conjugation leaves unchanged.  A state
        with no bound yet is measured by one dense square, its measured
        norm plus one `_defect_allowance`, and keeps the result.  An
        overflowing square gives no bound (NaN, which no ``tol`` accepts),
        so the exact pass still raises on it."""
        bound = self._defect
        if bound is None:
            m = self.matrix()
            with np.errstate(all="ignore"):
                bound = float(np.linalg.norm(m @ m - m)) / math.sqrt(1 << self.n_qubits) + self._defect_allowance()
            if not math.isfinite(bound):
                bound = math.nan
            object.__setattr__(self, "_defect", bound)
        return bound

    def _defect_allowance(self) -> float:
        """`purity_defect_allowance` for this state, scaled by Tr(rho^2)
        when that exceeds 1."""
        c = self.mv._coeffs
        return purity_defect_allowance(self.n_qubits) * max(1.0, (1 << self.n_qubits) * float(np.vdot(c, c).real))

    def _conjugated(self, u: np.ndarray) -> "DensityOperator":
        """The state U rho U^H for the 2^n x 2^n unitary matrix ``u``: two
        matmuls on rho's matrix and one `_from_dense`.  The result holds
        this state's `_defect_bound` plus one `_defect_allowance`, so a
        chain of conjugations squares its start at most once."""
        rho = DensityOperator(_from_dense(u @ _to_dense(self.mv) @ u.conj().T))
        object.__setattr__(rho, "_defect", self._defect_bound() + self._defect_allowance())
        return rho

    def correlation_tensor(self) -> np.ndarray:
        """T[mu_0, ..., mu_{n-1}] = Tr(rho sigma_mu_0 (x) ... (x) sigma_mu_{n-1}).

        Shape (4,) * n: axis q belongs to qubit q and runs over (1, x, y, z),
        so T[0, ..., 0] = 1 and qubit q's reduced Bloch vector is the slice
        `bloch_slice` reads.  Each entry is 2^n times the real coefficient of
        its blade: one scatter of the terms over the 4^n span, each key's
        codes I, X, Z, Y taken to the indices 1, x, y, z by c ^ (c >> 1),
        then the axes reversed (qubit n - 1 owns a key's leading base-4
        digit).  O(4^n) memory, 128 MB at n = 12.
        """
        n = self.n_qubits
        keys = self.mv._keys
        t = np.zeros(1 << (2 * n))
        t[keys ^ ((keys >> 1) & _x_mask(n))] = self.mv._coeffs.real * float(1 << n)
        return t.reshape((4,) * n).T

    def bloch_vector(self) -> np.ndarray:
        if self.n_qubits != 1:
            raise ValueError("bloch_vector is defined for single-qubit operators")
        return self.correlation_tensor()[1:]

    def __repr__(self) -> str:
        return f"DensityOperator(n={self.n_qubits}, {len(self.mv)} terms)"


def _certified(mv: Multivector, excess: float) -> DensityOperator:
    """The state of ``mv``, just built by rounding an exactly Hermitian
    rho_0 with Tr(rho_0^2) <= (1 + e)^2 and |rho_0^2 - rho_0| <= e |rho_0|
    for e = ``excess``.  It holds, as ``_defect``, an a-priori bound on the
    root-sum-square of the Pauli coefficients of rho rho - rho that
    `is_pure`'s exact pass computes, so `is_pure` settles it with one
    comparison.  O(1): no pass over the amplitudes or the terms.

    Derivation, in the notation of `tolerances.purity_defect_allowance`:
    |X| = ||X||_F / sqrt(d), d = 2^n, the root-sum-square of X's Pauli
    coefficients.  |rho_0| = sqrt(Tr(rho_0^2) / d) <= (1 + e) / sqrt(d), so
    the normalisation term is |rho_0^2 - rho_0| <= e (1 + e) / sqrt(d).  The
    built state is rho = rho_0 + D, and

        rho^2 - rho = (rho_0^2 - rho_0) + rho_0 D + D rho_0 + D^2 - D,

    so |rho^2 - rho| <= e (1 + e) / sqrt(d) + 3 (1 + e) |D| to first order
    in D, as ||rho_0||_2 <= sqrt(Tr(rho_0^2)) <= 1 + e.  D holds the
    rounding of one product per matrix entry or coefficient (the outer
    product psi psi^H, about sqrt(5) u; or a Kronecker product's n - 1
    products, (n - 1) u), of at most one transform to coefficients (d u)
    and the prune (d PRUNE_EPS).  That is within the d PRUNE_EPS + 8 d^2 u
    that `purity_defect_allowance` grants one conjugation step, whose
    doubling also covers the exact pass's own rounding.  Scaling the
    allowance by Tr(rho_0^2) <= (1 + e)^2, as its derivation asks, the
    bound is e (1 + e) / sqrt(d) + (1 + e)^2 purity_defect_allowance(n).

    For a pure state the allowance dominates: 5.8e-13 at n = 3 and 3.6e-10
    at n = 8, under PURE_TOL; from n = 9 it exceeds PURE_TOL and the exact
    pass decides."""
    rho = DensityOperator(mv)
    n = mv.n_qubits
    bound = excess * (1.0 + excess) / math.sqrt(1 << n) + (1.0 + excess) ** 2 * purity_defect_allowance(n)
    object.__setattr__(rho, "_defect", bound)
    return rho


@dataclass(frozen=True)
class ProductState:
    """Per-qubit spin axes and signs defining a pure product state."""

    axes: tuple[tuple[float, float, float], ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.axes) != len(self.signs):
            raise ValueError("axes and signs must have equal length")
        for ax in self.axes:
            _unit3(ax)
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def n_qubits(self) -> int:
        return len(self.signs)

    @classmethod
    def computational(cls, bits: str | Sequence[int], axes=None) -> "ProductState":
        """Bit string to product state: bit 0 is spin up along the axis."""
        bit_list = [int(b) for b in bits]
        if axes is None:
            axes = [(0.0, 0.0, 1.0)] * len(bit_list)
        return cls(
            tuple(tuple(float(c) for c in ax) for ax in axes),
            tuple(1 if b == 0 else -1 for b in bit_list),
        )


def _bloch_factor(v, s: int = 1) -> np.ndarray:
    """The coefficients of (1 + s v . sigma)/2 on one qubit in key order,
    0.5 (1, s v_x, s v_z, s v_y), unpruned."""
    vx, vy, vz = map(float, v)
    return 0.5 * np.array([1.0, s * vx, s * vz, s * vy])


def _kron_mv(factors: Sequence[np.ndarray]) -> Multivector:
    """The product of one-qubit operators, ``factors[q]`` the coefficient
    4-vector of the one on qubit q, in key order: their Kronecker product,
    pruned once.  Each coefficient multiplies its factors' entries from
    qubit 0 up, as the chain of multivector products
    ``1 * f_0 * f_1 * ...`` does; every entry is at most 1/2 in modulus
    (to the unit check's 1e-12), so a partial product that the chain would prune leaves the whole
    product below the prune too, and the terms equal the chain's bit for
    bit.  A factor's zero entries are skipped, so an axis-aligned product
    state forms 2^n terms, not 4^n."""
    keys, coeffs = np.array([0]), np.array([1.0])
    for q, f in enumerate(factors):
        codes = f.nonzero()[0]
        keys = ((codes << (2 * q))[:, None] | keys).ravel()
        coeffs = (f[codes][:, None] * coeffs).ravel()
    kept = _kept(coeffs)
    return Multivector._raw(len(factors), keys[kept], coeffs[kept].astype(np.complex128))


def bloch_state(n) -> DensityOperator:
    """Single-qubit (1 + n . sigma)/2 for |n| <= 1, certified (`_certified`)
    with e = |1 - |n|^2| / 2 + 4 u: f = (1 + n . sigma)/2 squares to f plus
    (|n|^2 - 1)/4, against |f| = sqrt(1 + |n|^2) / 2, and Tr(f^2) =
    (1 + |n|^2)/2; the computed |n|^2 is off by at most 5 u.  A mixed state's
    bound exceeds every tolerance, and the exact pass decides."""
    v = np.asarray(n, dtype=float).reshape(3)
    r = float(np.linalg.norm(v))
    # written so that a NaN length fails too
    if not r <= 1.0 + UNIT_TOL:
        raise ValueError("Bloch vector must lie inside the unit ball")
    return _certified(_kron_mv([_bloch_factor(v)]), abs(1.0 - r * r) / 2.0 + 4.0 * _UNIT_ROUNDOFF)


def _product_state_mv(ps: ProductState) -> Multivector:
    return _kron_mv([_bloch_factor(ax, s) for ax, s in zip(ps.axes, ps.signs)])


def product_state(ps: ProductState) -> DensityOperator:
    """The product of the per-qubit projectors (1 + s_q n_q . sigma)/2.

    One Kronecker product of the per-qubit coefficient 4-vectors
    (`_kron_mv`), bit for bit the chain of multivector products it
    replaces: a 2-qubit state with random axes takes 19-25 us, against
    186-235 us for the chain (timeit, best of 5, three alternating runs,
    2-vCPU Xeon guest).

    Certified (`_certified`) with e = n UNIT_TOL: each factor f squares to
    f plus (|v|^2 - 1)/4, at most 0.51 UNIT_TOL for a unit axis v, against
    |f| >= 0.707, and the Kronecker product compounds these ratios to under
    n UNIT_TOL; Tr(rho_0^2) = prod (1 + |v_q|^2)/2 <= (1 + n UNIT_TOL)^2."""
    return _certified(_product_state_mv(ps), ps.n_qubits * UNIT_TOL)


@dataclass(frozen=True)
class ProjectorSphere:
    """Basis (P, X, Y, Z) of the two-state projector space.

    P projects onto the span of two orthogonal product states, Z separates
    them (north minus south), X is the product of the reference orthogonal
    vectors of the qubits whose signs differ, and Y = iota X Z.
    """

    p: Multivector
    x: Multivector
    y: Multivector
    z: Multivector
    differing: frozenset[int]

    @property
    def n_qubits(self) -> int:
        return self.p.n_qubits

    def axis(self, phi: float) -> Multivector:
        """In-plane unit vector cos(phi) X + sin(phi) Y."""
        return float(np.cos(phi)) * self.x + float(np.sin(phi)) * self.y

    def check(self) -> None:
        """Raise ValueError unless the sphere basis obeys the Pauli-algebra
        relations P^2 = P, V^2 = VP = PV = V (for V = X, Y, Z), pairwise
        anticommutation and XYZ = iota P."""
        p, x, y, z = self.p, self.x, self.y, self.z
        relations = {"P^2 = P": p * p - p}
        for name, v in zip("XYZ", (x, y, z)):
            relations[f"{name}^2 = P"] = v * v - p
            relations[f"{name}P = {name}"] = v * p - v
            relations[f"P{name} = {name}"] = p * v - v
        relations["XY = -YX"] = x * y + y * x
        relations["XZ = -ZX"] = x * z + z * x
        relations["YZ = -ZY"] = y * z + z * y
        relations["XYZ = iota P"] = x * y * z - Multivector.iota(p.n_qubits) * p
        for name, defect in relations.items():
            if not defect.max_abs() <= IDENTITY_TOL:
                raise ValueError(f"projector sphere violates {name} (defect {defect.max_abs():.3e})")


def _sphere_from_parts(
    mv_north: Multivector,
    mv_south: Multivector,
    differing: Iterable[int],
    axes,
) -> ProjectorSphere:
    n = mv_north.n_qubits
    p = mv_north + mv_south
    z = mv_north - mv_south
    x = p
    for q in sorted(differing):
        e1, _, _ = frame_for(axes[q])
        x = Multivector.vector(n, q, e1) * x
    y = Multivector.iota(n) * x * z
    return ProjectorSphere(p=p, x=x, y=y, z=z, differing=frozenset(differing))


def projector_sphere(s1: ProductState, s2: ProductState, north_first: bool = True) -> ProjectorSphere:
    """Sphere basis for the span of two orthogonal product states.

    The states must share per-qubit axes and differ in sign on at least one
    qubit.  ``north_first`` selects Z = s1 - s2; flipping it negates Z and Y
    and hence the handedness of the azimuthal angle.
    """
    if s1.n_qubits != s2.n_qubits:
        raise ValueError("product states must have the same qubit count")
    for a1, a2 in zip(s1.axes, s2.axes):
        if np.linalg.norm(np.subtract(a1, a2)) > AXIS_TOL:
            raise ValueError("product states must share per-qubit axes")
    differing = {q for q in range(s1.n_qubits) if s1.signs[q] != s2.signs[q]}
    if not differing:
        raise ValueError("product states are identical, not orthogonal")
    first, second = (s1, s2) if north_first else (s2, s1)
    return _sphere_from_parts(
        _product_state_mv(first), _product_state_mv(second), differing, s1.axes
    )


def sphere_state(sph: ProjectorSphere, theta: float, phi: float) -> DensityOperator:
    """(P + cos(theta) Z + sin(theta) (cos(phi) X + sin(phi) Y)) / 2."""
    s = float(np.cos(theta)) * sph.z + float(np.sin(theta)) * sph.axis(phi)
    return DensityOperator(0.5 * (sph.p + s))


def _checked_amplitudes(amps, axes) -> tuple[np.ndarray, int, list]:
    """Normalised amplitudes, qubit count and one unit axis per qubit."""
    psi = np.asarray(amps, dtype=complex).ravel()
    dim = psi.size
    n = dim.bit_length() - 1
    if (1 << n) != dim:
        raise ValueError(f"amplitude count {dim} is not a power of two")
    if not np.isfinite(psi).all():
        raise ValueError("amplitudes must be finite")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"amplitudes are not normalised (norm {nrm})")
    if axes is None:
        return psi / nrm, n, [(0.0, 0.0, 1.0)] * n
    if len(axes) != n:
        raise ValueError(f"{len(axes)} axes given for {n} qubits")
    axes = [tuple(float(c) for c in _unit3(ax)) for ax in axes]
    return psi / nrm, n, axes


def _frame_unitary(axis) -> np.ndarray:
    """U = [up | sigma_e1 up] for the frame (e1, e2, axis) of `frame_for`.

    U sigma_{x,y,z} U^H = sigma_{e1,e2,axis} whatever the phase of up, the
    spin-up state along the axis: up = (a, b) = (1 + z, x + iy) for z >= 0
    and (x - iy, 1 - z) below, normalised, so that -z never divides by ~0.
    """
    e1, _, v = frame_for(axis)
    # on Python floats: numpy scalar arithmetic costs about 10 us more per axis
    (ex, ey, ez), (x, y, z) = e1.tolist(), v.tolist()
    a, b = (1.0 + z, x + 1j * y) if z >= 0.0 else (x - 1j * y, 1.0 - z)
    u = np.array([[a, ez * a + (ex - 1j * ey) * b], [b, (ex + 1j * ey) * a - ez * b]])
    return u / (abs(a) ** 2 + abs(b) ** 2) ** 0.5


def pure_state_from_amplitudes(amps, axes=None) -> DensityOperator:
    """Density operator of sum_i alpha_i |i> (qubit 0's bit the most
    significant), bit 0 of qubit q being spin up along ``axes[q]``.

    Custom axes take the amplitudes to (U_0 (x) ... (x) U_{n-1}) psi with
    U_q from `_frame_unitary`, one 2 x 2 matmul per qubit and never the
    2^n x 2^n Kronecker product; the default z axes skip this.  The Pauli
    coefficients of |psi><psi| then come from the dense core's
    table-driven Walsh-Hadamard transform.  Equal to
    `pure_state_from_spheres`.  Measured up to n = 10 (2-vCPU Xeon guest,
    one BLAS thread, medians of three runs): 0.05, 0.11 and 55 ms at n = 4,
    6 and 10, and the full-density product ``rho.mv * rho.mv`` (matrix
    route) 0.045 ms, 0.19 ms and 0.26 s.  With custom axes, 0.13, 0.17 and
    0.33 ms at n = 2, 3 and 6 (same host under load, medians of three runs
    of best-of-five timeit), of which `frame_for` takes 17 us per qubit.

    The state is pure by construction: for the computed amplitudes psi,
    rho_0 = psi psi^H has rho_0^2 - rho_0 = (||psi||^2 - 1) rho_0 and
    Tr(rho_0^2) = ||psi||^4.  So it is certified (`_certified`) with e a
    bound on | ||psi||^2 - 1 |, a priori, from no pass over psi.  Dividing
    by the computed norm leaves at most 2 (d + 4) u: the norm carries the
    rounding of a sum of 2d squares and of a square root, at most (d + 2) u,
    and each quotient u.  Each frame unitary adds at most 4 UNIT_TOL + 64 u:
    its columns are orthogonal to within 1.5 | |axis|^2 - 1 | <= 3 UNIT_TOL,
    as `_unit3` passes axes within UNIT_TOL of unit length, and its entries
    and the 2 x 2 matmul round by a few u.
    """
    psi, n, checked = _checked_amplitudes(amps, axes)
    excess = 2.0 * (psi.size + 4) * _UNIT_ROUNDOFF
    if axes is not None:
        # each pass applies U_q to the leading qubit and moves that qubit last
        for ax in checked:
            psi = (_frame_unitary(ax) @ psi.reshape(2, -1)).T.ravel()
        excess += n * (4.0 * UNIT_TOL + 64.0 * _UNIT_ROUNDOFF)
    return _certified(_from_dense(psi[:, None] * psi.conj()), excess)


def pure_state_from_spheres(amps, axes=None) -> DensityOperator:
    """The paper's construction of sum_i alpha_i |i>, term by term.

    Diagonal part: probability-weighted product states in index order
    (qubit 0's bit is the most significant).  Off-diagonal part: for every
    pair i < j an X-term of the pair's projector sphere with weight
    sqrt(p_i p_j), rotated by arg(alpha_j) - arg(alpha_i).  Zero-probability
    basis states contribute no X-terms and arg(0) is taken as 0.  This is
    the reference `pure_state_from_amplitudes` is tested against.
    """
    psi, n, axes = _checked_amplitudes(amps, axes)
    dim = psi.size
    probs = np.abs(psi) ** 2
    phases = np.where(np.abs(psi) > 0.0, np.angle(psi), 0.0)
    bits = [format(i, f"0{n}b") for i in range(dim)]
    basis_mvs = {
        i: _product_state_mv(ProductState.computational(bits[i], axes))
        for i in range(dim)
        if probs[i] > 0.0
    }

    mv = Multivector.zero(n)
    for i, bi in basis_mvs.items():
        mv = mv + probs[i] * bi
    for i in sorted(basis_mvs):
        for j in sorted(basis_mvs):
            if j <= i:
                continue
            weight = float(np.sqrt(probs[i] * probs[j]))
            if weight < NEGLIGIBLE_WEIGHT:
                continue
            differing = {q for q in range(n) if bits[i][q] != bits[j][q]}
            sph = _sphere_from_parts(basis_mvs[i], basis_mvs[j], differing, axes)
            psi_ij = float(phases[j] - phases[i])
            mv = mv + weight * sph.axis(psi_ij)
    return DensityOperator(mv)


_BELL_TERMS = {
    "phi+": {"II": 0.25, "ZZ": 0.25, "XX": 0.25, "YY": -0.25},
    "phi-": {"II": 0.25, "ZZ": 0.25, "XX": -0.25, "YY": 0.25},
    "psi+": {"II": 0.25, "ZZ": -0.25, "XX": 0.25, "YY": 0.25},
    "psi-": {"II": 0.25, "ZZ": -0.25, "XX": -0.25, "YY": -0.25},
}


def bell(which: str) -> DensityOperator:
    """One of the four Bell states: 'phi+', 'phi-', 'psi+', 'psi-'."""
    key = which.lower().replace("φ", "phi").replace("ψ", "psi")
    if key not in _BELL_TERMS:
        raise ValueError(f"unknown Bell state {which!r}")
    return DensityOperator(Multivector(2, _BELL_TERMS[key]))


def ghz() -> DensityOperator:
    """(|000> + |111>)/sqrt(2) in closed form."""
    terms = {
        "III": 0.125,
        "ZZI": 0.125,
        "ZIZ": 0.125,
        "IZZ": 0.125,
        "XXX": 0.125,
        "XYY": -0.125,
        "YXY": -0.125,
        "YYX": -0.125,
    }
    return DensityOperator(Multivector(3, terms))


def w_state() -> DensityOperator:
    """(|001> + |010> + |100>)/sqrt(3)."""
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return pure_state_from_amplitudes(amps)


@dataclass(frozen=True)
class Rotor:
    """Even unit-magnitude multivector; conjugation implements a unitary."""

    mv: Multivector

    def __post_init__(self) -> None:
        defect = (self.mv * self.mv.reverse() - 1.0).max_abs()
        if defect > IDENTITY_TOL:
            raise ValueError(f"rotor is not unitary (defect {defect})")

    @classmethod
    def from_generator(cls, generator: Multivector, angle: float) -> "Rotor":
        """exp(-iota * generator * angle) for a Hermitian generator."""
        return cls(exp_i(generator, angle))

    def compose(self, other: "Rotor") -> "Rotor":
        return Rotor(self.mv * other.mv)


def local_rotor(n: int, qubit: int, axis, angle: float) -> Rotor:
    """Rotation of one qubit's Bloch sphere by ``angle`` about ``axis``."""
    generator = 0.5 * Multivector.vector(n, qubit, _unit3(axis))
    return Rotor.from_generator(generator, angle)


def apply_rotor(r: Rotor, rho: DensityOperator) -> DensityOperator:
    return DensityOperator(r.mv * rho.mv * r.mv.reverse())
