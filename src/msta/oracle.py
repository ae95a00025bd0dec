"""Dense-matrix ground truth for the multivector algebra.

Everything here works on plain 2^N x 2^N complex arrays and is kept
independent of the multivector code paths it verifies: eigenvalues come
from a self-contained cyclic Jacobi sweep rather than a library solver.
Input checks are written as ``not x <= bound``, so that NaN fails them.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import MAX_QUBITS, Multivector

# row k: the Pauli matrix of code k (I, X, Z, Y) as entries 2 r + c
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, -1j, 1j, 0]], dtype=complex)
_LETTERS = np.array(list("IXZY"))


def _n_from_dim(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"dimension {dim} exceeds the {MAX_QUBITS}-qubit bound")
    return n


def _each_qubit(t: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Apply the 4x4 map ``op`` (out, in) along every axis of a (4,)^n
    tensor: n rounds of `np.tensordot(t, op, axes=(0, 1))` as one matmul,
    each contracting the leading axis and appending the result last."""
    shape = t.shape
    for _ in shape:
        t = t.reshape(4, -1).T @ op.T
    return t.reshape(shape)


def _pair_axes(n: int) -> list[int]:
    """(row, column) axis pairs of a matrix reshaped to (2,) * 2n, qubit 0 first."""
    return [axis for q in range(n) for axis in (q, n + q)]


def to_matrix(a: Multivector) -> np.ndarray:
    """Map a multivector to its matrix: blades to Kronecker products of
    Pauli matrices, iota to the imaginary unit."""
    n = a.n_qubits
    dim = 1 << n
    terms = dict(a.items())
    t = np.zeros(dim * dim, dtype=complex)
    t[list(terms)] = list(terms.values())
    # key order puts qubit n - 1 on the leading axis; .T puts qubit q on axis q
    t = _each_qubit(t.reshape((4,) * n).T, _PAULI.T)
    return t.reshape((2,) * (2 * n)).transpose(np.argsort(_pair_axes(n))).reshape(dim, dim)


def from_matrix(m: np.ndarray) -> Multivector:
    """Inverse of `to_matrix` by the trace formula c_k = Tr(P_k M) / 2^n,
    one factor Tr(sigma_k A) / 2 per qubit."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    n = _n_from_dim(m.shape[0])
    t = m.reshape((2,) * (2 * n)).transpose(_pair_axes(n)).reshape((4,) * n)
    t = _each_qubit(t, _PAULI.conj() / 2)
    codes = np.nonzero(t)
    labels = _LETTERS[np.stack(codes, axis=-1)].view(f"U{n}").ravel()
    return Multivector(n, dict(zip(labels.tolist(), t[codes].tolist())))


def jacobi_eigh(h: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns).  Convergence is
    declared when the off-diagonal Frobenius norm drops below ``tol``
    (scaled by the matrix norm for badly scaled inputs); if it has not
    after ``max_sweeps`` sweeps, `np.linalg.LinAlgError` is raised.
    """
    m = np.array(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.abs(m - m.conj().T).max() <= 1e-8:
        raise ValueError("matrix is not Hermitian")
    d = m.shape[0]
    v = np.eye(d, dtype=complex)
    if d == 1:
        return m.real.ravel(), v
    scale = max(1.0, float(np.linalg.norm(m)))
    for sweep in range(max_sweeps + 1):
        off = math.sqrt(float((np.abs(m - np.diag(np.diag(m))) ** 2).sum()))
        if off < tol * scale:
            break
        if sweep == max_sweeps:
            raise np.linalg.LinAlgError(
                f"jacobi_eigh: off-diagonal norm {off:.3g} after {max_sweeps} sweeps "
                f"exceeds the tolerance {tol * scale:.3g}"
            )
        for p in range(d - 1):
            for q in range(p + 1, d):
                g = m[p, q]
                absg = abs(g)
                if absg < 1e-300:
                    continue
                w = (g / absg).conjugate()  # e^{-i arg g}
                zeta = (m[q, q].real - m[p, p].real) / (2.0 * absg)
                if zeta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # columns: [p q] <- [p q] @ [[c, s], [-s w, c w]]
                col_p = c * m[:, p] - (s * w) * m[:, q]
                col_q = s * m[:, p] + (c * w) * m[:, q]
                m[:, p], m[:, q] = col_p, col_q
                wc = w.conjugate()
                row_p = c * m[p, :] - (s * wc) * m[q, :]
                row_q = s * m[p, :] + (c * wc) * m[q, :]
                m[p, :], m[q, :] = row_p, row_q
                m[p, q] = 0.0
                m[q, p] = 0.0
                vcol_p = c * v[:, p] - (s * w) * v[:, q]
                vcol_q = s * v[:, p] + (c * w) * v[:, q]
                v[:, p], v[:, q] = vcol_p, vcol_q
    vals = np.diag(m).real
    order = np.argsort(vals)
    return vals[order], v[:, order]


def expm_minus_i(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h via the Jacobi eigendecomposition."""
    w, v = jacobi_eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def oracle_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam log2 lam) of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if not np.abs(rho - rho.conj().T).max() <= 1e-10:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= 1e-10:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    w, _ = jacobi_eigh(rho)
    if w.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {w.min()}")
    w = np.clip(w, 0.0, None)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def statevector_density(amps) -> np.ndarray:
    """Outer product |psi><psi| of a normalised amplitude vector."""
    psi = np.asarray(amps, dtype=complex).ravel()
    _n_from_dim(psi.size)
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"statevector norm {nrm} differs from 1")
    return np.outer(psi, psi.conj())


def partial_trace_matrix(m: np.ndarray, keep, n: int) -> np.ndarray:
    """Partial trace of a 2^n x 2^n matrix onto the kept qubits (sorted)."""
    keep = sorted(set(keep))
    if keep and not 0 <= keep[0] <= keep[-1] < n:
        raise ValueError(f"keep index {keep[0] if keep[0] < 0 else keep[-1]} out of range for n={n}")
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a nonempty proper subset")
    m = np.asarray(m, dtype=complex)
    if m.shape != (1 << n, 1 << n):
        raise ValueError(f"expected a {1 << n}x{1 << n} matrix for n={n}, got shape {m.shape}")
    t = m.reshape((2,) * (2 * n))
    # contract row/col axes of each dropped qubit
    dropped = [q for q in range(n) if q not in keep]
    for q in sorted(dropped, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    dim = 1 << len(keep)
    return t.reshape(dim, dim)


def random_multivector(n: int, rng: np.random.Generator, max_terms: int = 6) -> Multivector:
    """A sparse multivector of at most max_terms blades.

    Draws a term count in 1..max_terms, then that many blades uniform over
    the 4^n Pauli strings, then one coefficient uniform in [-1, 1] +
    i [-1, 1] per drawn blade.  A blade drawn twice keeps only its last
    coefficient (the terms are collected by label, not summed), so the
    result can have fewer terms than were drawn."""
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = {}
    for key in rng.integers(0, 1 << (2 * n), size=n_terms):
        label = "".join("IXZY"[(int(key) >> (2 * q)) & 3] for q in range(n))
        terms[label] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Multivector(n, terms)


def random_statevector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish uniform pure state: normalised standard complex Gaussians."""
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)
