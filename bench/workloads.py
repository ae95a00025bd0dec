"""The four benchmark workloads: inputs from a seed, one op, its checks.

Every input is generated here with numpy from the workload seed, before
msta sees it, so the inputs do not change when msta changes.  An op makes
the user calls into msta and returns their outputs; the runner times it.
``check`` then runs untimed on those outputs and returns its numeric checks
as ``(name, error, tolerance)`` triples; it raises `OpFailed` for a result
that is missing or of the wrong shape.  The runner counts an op as failed
when either raises or when any error exceeds (or is not comparable with)
its tolerance.

Both go through the tracer (``tr.call``) so a traced run can attribute
time to layers.  An op traces every msta call.  A check traces only its
reference computations (``oracle``, ``dynamics.product_evolution``,
``invariants.three_tangle_oracle``) and calls the functions under test
directly, so a layer's metrics count the op's work only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from msta import cli, dynamics, entanglement, invariants, oracle, states, vectorsum

# the region-scan CSV contract, README and the subcommand's --help
SCAN_COLUMNS = "kind,label,vbar2,vbar3,p_ok,B,B_ok,feasible,I6"
README_TRIPLE = (0.333, 0.333, 0.333)

# computed bytes per pair product of a dense multivector product: the
# int64 key and the complex128 coefficient every pair materialises
PAIR_BYTES = 8 + 16


class OpFailed(Exception):
    """An op produced no result, or a result of the wrong shape."""


def statevector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalised standard complex Gaussian amplitudes for n qubits."""
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def unit3(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return tuple(float(c) for c in v)


def coeff_diff(a, b) -> float:
    """Largest coefficient difference between two multivectors, computed
    from their term maps rather than with msta arithmetic."""
    da, db = dict(a.items()), dict(b.items())
    return max((abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in da.keys() | db.keys()), default=0.0)


class Workload:
    """One workload: a seeded input pool, the op applied to each input and
    the check of the op's outputs.

    ``round_ops`` ops make one rotation through the input kinds; a run
    ends on a whole rotation so every run has the same mix.  Counters
    cover the first ``count_ops`` ops.  ``host_elasticity`` is how op time
    scales with the host probe's time, d log(op) / d log(probe), fitted
    over ten runs (see README.md): the runner scales throughput by
    (probe / reference) to this power.
    """

    name: str
    round_ops = 1
    count_ops = 1
    host_elasticity = 1.0

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def op(self, tr, inp):
        raise NotImplementedError

    def check(self, tr, inp, out) -> list[tuple[str, float, float]]:
        raise NotImplementedError


class Roundtrip3Q(Workload):
    """Acceptance criterion 7 as one op: state -> invariants -> solved
    angles -> reconstructed state -> invariants again."""

    name = "roundtrip3q"
    count_ops = 20
    host_elasticity = 1.05

    def __init__(self, pool: int = 4096):
        self.pool = pool

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [statevector(rng, 3) for _ in range(self.pool)]

    def op(self, tr, psi):
        dm = tr.call("oracle.statevector_density", oracle.statevector_density, psi)
        mv = tr.call("oracle.from_matrix", oracle.from_matrix, dm, size=3)
        rho = tr.call("states.DensityOperator", states.DensityOperator, mv)
        inv = tr.call("invariants.invariants_3q", invariants.invariants_3q, rho)
        probs = tr.call("invariants.expansion_probabilities", invariants.expansion_probabilities, inv)
        lengths = tr.call("vectorsum.vector_lengths", vectorsum.vector_lengths, probs)
        sols = tr.call("vectorsum.solve", vectorsum.solve, lengths)
        tr.count("vectorsum.solve.solutions", len(sols))
        tr.count("vectorsum.solve.empty", not sols)
        if not sols:
            raise OpFailed("vectorsum.solve returned no solution")
        rec = tr.call("vectorsum.reconstruct", vectorsum.reconstruct, inv, sols[0])
        got = tr.call("invariants.invariants_3q", invariants.invariants_3q, rec)
        return inv, sols, got

    def check(self, tr, psi, out):
        inv, sols, got = out
        # solve adds each solution's conjugate without re-checking it, so
        # every other solution must reconstruct the input's invariants too
        found = [got] + [invariants.invariants_3q(vectorsum.reconstruct(inv, s)) for s in sols[1:]]
        i6_in = invariants.sudbery(inv).i6
        inv_err = max(
            max(
                abs(g.v_a - inv.v_a),
                abs(g.v_b - inv.v_b),
                abs(g.v_c - inv.v_c),
                abs(g.vbar2 - inv.vbar2),
                abs(g.vbar3 - inv.vbar3),
                abs(invariants.sudbery(g).i6 - i6_in),
            )
            for g in found
        )
        return [("invariant_error", inv_err, 1e-8)]


@dataclass(frozen=True)
class DenseInput:
    n: int
    psi: np.ndarray


class DenseStates(Workload):
    """Many-qubit pure-state construction and the dense product rho * rho,
    one op per qubit count in equal rotation."""

    name = "dense_states"
    # the n = 6 products spend much of their time moving large arrays,
    # which other tenants slow less than interpreted code
    host_elasticity = 0.55

    def __init__(self, sizes: tuple[int, ...] = (4, 5, 6), pool_rounds: int = 16):
        self.sizes = sizes
        self.pool_rounds = pool_rounds
        self.round_ops = len(sizes)
        self.count_ops = len(sizes)

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [DenseInput(n, statevector(rng, n)) for _ in range(self.pool_rounds) for n in self.sizes]

    def op(self, tr, inp):
        n = inp.n
        rho = tr.call("states.pure_state_from_amplitudes", states.pure_state_from_amplitudes, inp.psi, size=n)
        a = rho.mv
        tr.count("algebra.mul_dense.pair_products", len(a) * len(a))
        tr.count("algebra.mul_dense.bytes_computed", len(a) * len(a) * PAIR_BYTES)
        sq = tr.call("algebra.mul_dense", operator.mul, a, a, size=n)
        red = tr.call("entanglement.partial_trace", entanglement.partial_trace, rho, list(range(n // 2)))
        return a, sq, red

    def check(self, tr, inp, out):
        a, sq, red = out
        n, keep = inp.n, list(range(inp.n // 2))
        dm = tr.call("oracle.statevector_density", oracle.statevector_density, inp.psi)
        ref = tr.call("oracle.from_matrix", oracle.from_matrix, dm, size=n)
        rdm = tr.call("oracle.partial_trace_matrix", oracle.partial_trace_matrix, dm, keep, n)
        rref = tr.call("oracle.from_matrix", oracle.from_matrix, rdm, size=len(keep))
        tr.call("oracle.oracle_entropy", oracle.oracle_entropy, rdm)
        return [
            ("state_coefficients", coeff_diff(a, ref), 1e-12),
            ("reduced_operator", coeff_diff(red.mv, rref), 1e-12),
            ("purity_defect", coeff_diff(sq, a), 1e-10),
        ]


# 1-norm of every trajectory Hamiltonian's coefficients: with one norm,
# every op does the same exp_i work, so the two start kinds cost alike and
# the op median does not fall in the gap between two latency clusters
H_NORM1 = 1.5
# kind (a) is checked against the closed form at every fifth step, which
# keeps the untimed check short
CLOSED_FORM_EVERY = 5

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch_projector(axis) -> np.ndarray:
    """(1 + axis . sigma) / 2 as a 2x2 matrix."""
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(axis, _PAULI)))


@dataclass(frozen=True)
class ProductStart:
    """Kind (a): product start m, n under isotropic exchange omega."""

    m: tuple[float, float, float]
    n: tuple[float, float, float]
    omega: float


@dataclass(frozen=True)
class PureStart:
    """Kind (b): pure start psi under exchange-plus-field couplings."""

    psi: np.ndarray
    couplings: tuple[float, float, float, float, float]


class Trajectory2Q(Workload):
    """The per-step work of ``msta evolve``: one trajectory per op, the
    two start kinds alternating.  Every step is checked against the dense
    oracle evolution, for purity and for conservation of <H>."""

    name = "trajectory2q"
    round_ops = 2
    count_ops = 20
    host_elasticity = 1.15

    def __init__(self, steps: int = 20, pool: int = 2048):
        self.times = np.linspace(0.0, 2.0 * np.pi, steps)
        self.pool = pool

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.pool // 2):
            # isotropic exchange omega has 1-norm 3 omega / 4
            out.append(ProductStart(unit3(rng), unit3(rng), H_NORM1 / 0.75))
            c = rng.uniform(-1.5, 1.5, size=5)
            c *= H_NORM1 / (np.abs(c[:3]).sum() / 4.0 + np.abs(c[3:]).sum() / 2.0)
            out.append(PureStart(statevector(rng, 2), tuple(float(x) for x in c)))
        return out

    def op(self, tr, inp):
        if isinstance(inp, ProductStart):
            ps = states.ProductState((inp.m, inp.n), (1, 1))
            rho0 = tr.call("states.product_state", states.product_state, ps)
            h = dynamics.ExchangeHamiltonian.isotropic(inp.omega)
        else:
            rho0 = tr.call("states.pure_state_from_amplitudes", states.pure_state_from_amplitudes, inp.psi, size=2)
            h = dynamics.ExchangeHamiltonian(*inp.couplings)
        hmv = tr.call("dynamics.hamiltonian", dynamics.hamiltonian, h)
        steps = []
        for t in self.times:
            rho = tr.call("dynamics.evolve", dynamics.evolve, rho0, hmv, float(t))
            tr.call("entanglement.partial_trace", entanglement.partial_trace, rho, [0])
            tr.call("entanglement.partial_trace", entanglement.partial_trace, rho, [1])
            tr.call("entanglement.entanglement_entropy", entanglement.entanglement_entropy, rho)
            steps.append((rho, tr.call("states.DensityOperator.purity", rho.purity)))
        return hmv, steps

    def check(self, tr, inp, out):
        hmv, steps = out
        product = isinstance(inp, ProductStart)
        if product:
            pe = tr.call("dynamics.ProductEvolution.from_axes", dynamics.ProductEvolution.from_axes, inp.m, inp.n)
            m0 = np.kron(bloch_projector(inp.m), bloch_projector(inp.n))
        else:
            m0 = np.outer(inp.psi, inp.psi.conj())
        hm = tr.call("oracle.to_matrix", oracle.to_matrix, hmv)
        w, v = tr.call("oracle.jacobi_eigh", oracle.jacobi_eigh, hm)
        energy0 = float(np.real(np.trace(hm @ m0)))
        worst = {"oracle": 0.0, "energy": 0.0, "purity": 0.0}
        if product:
            worst["closed_form"] = 0.0
        for k, (t, (rho, purity)) in enumerate(zip(self.times, steps)):
            t = float(t)
            rm = tr.call("oracle.to_matrix", oracle.to_matrix, rho.mv)
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            worst["oracle"] = max(worst["oracle"], float(np.abs(rm - u @ m0 @ u.conj().T).max()))
            worst["energy"] = max(worst["energy"], abs(float(np.real(np.trace(hm @ rm))) - energy0))
            worst["purity"] = max(worst["purity"], abs(purity - 1.0))
            if product and k % CLOSED_FORM_EVERY == CLOSED_FORM_EVERY // 2:
                full, _, _ = tr.call("dynamics.product_evolution", dynamics.product_evolution, pe, inp.omega, t)
                worst["closed_form"] = max(worst["closed_form"], coeff_diff(rho.mv, full.mv))
        return [(name, err, 1e-9) for name, err in worst.items()]


def physical_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    """Bloch lengths in (0, 1) for which a 3-qubit pure state, the seed
    state and the scan's zero-tangle marker all exist, kept clear of the
    thresholds at which the scan's marker set changes."""
    while True:
        va, vb, vc = (float(x) for x in rng.uniform(0.05, 0.95, size=3))
        vmin, vsum, g = min(va, vb, vc), va + vb + vc, va * vb * vc
        if 1.0 + 2.0 * vmin < vsum + 1e-3 or abs(vsum - 1.0) < 1e-3:
            continue
        if abs(vmin * vmin - g) < 1e-6:
            continue
        a2, b2, c2 = va * va, vb * vb, vc * vc
        if vsum > 1.0 and min(1 + a2 - b2 - c2, 1 - a2 + b2 - c2, 1 - a2 - b2 + c2) < 1e-3:
            continue
        return va, vb, vc


def seed_amplitudes(va: float, vb: float, vc: float) -> np.ndarray:
    """The seed state on |000>, |011>, |101>, |110> for the given lengths."""
    amps = np.zeros(8)
    amps[0b000] = np.sqrt((1.0 + va + vb + vc) / 4.0)
    amps[0b011] = np.sqrt((1.0 + va - vb - vc) / 4.0)
    amps[0b101] = np.sqrt((1.0 - va + vb - vc) / 4.0)
    amps[0b110] = np.sqrt((1.0 - va - vb + vc) / 4.0)
    return amps / np.linalg.norm(amps)


class RegionScan(Workload):
    """One ``msta region-scan`` CLI call per op, README triple first."""

    name = "region_scan"
    count_ops = 2
    host_elasticity = 0.75

    def __init__(self, workdir: Path, grid: int = 201, pool: int = 32):
        self.out = Path(workdir) / "scan.csv"
        self.grid = grid
        self.pool = pool

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [README_TRIPLE] + [physical_triple(rng) for _ in range(self.pool - 1)]

    def op(self, tr, triple):
        va, vb, vc = triple
        argv = ["region-scan", "--va", repr(va), "--vb", repr(vb), "--vc", repr(vc)]
        argv += ["--grid", str(self.grid), "--out", str(self.out)]
        code = tr.call("cli.region_scan", cli.main, argv)
        if code != 0:
            raise OpFailed(f"region-scan exited with code {code}")
        return self.out

    def check(self, tr, triple, out):
        va, vb, vc = triple
        data = out.read_bytes()
        lines = data.decode("utf-8").splitlines()
        tr.count("cli.region_scan.rows", len(lines) - 1)
        tr.count("cli.region_scan.bytes_out", len(data))

        labels = ["A_seed", "B_min_tangle"]
        if min(triple) ** 2 >= va * vb * vc - 1e-12:
            labels.append("C_max_tangle")
        if lines[0] != SCAN_COLUMNS:
            raise OpFailed(f"column order changed: {lines[0]}")
        if len(lines) - 1 != self.grid**2 + len(labels):
            raise OpFailed(f"{len(lines) - 1} rows, expected {self.grid**2 + len(labels)}")
        if sum(line.startswith("grid,") for line in lines) != self.grid**2:
            raise OpFailed("grid row count differs from grid^2")
        markers = {row[1]: row for row in (line.split(",") for line in lines[-len(labels):])}
        if list(markers) != labels or any(row[0] != "marker" for row in markers.values()):
            raise OpFailed(f"marker rows {list(markers)}, expected {labels}")
        seed = markers["A_seed"]
        if seed[7] != "1":
            raise OpFailed("A_seed marker is not feasible")
        tau2 = tr.call("invariants.three_tangle_oracle", invariants.three_tangle_oracle, seed_amplitudes(*triple))
        return [("A_seed_B", abs(float(seed[5])), 1e-9), ("A_seed_I6", abs(float(seed[8]) - tau2), 1e-9)]
