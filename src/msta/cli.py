"""Command-line front end.

Subcommands: invariants, region-scan, evolve, chsh, bell, verify.  Each
`cmd_*` returns its rows and exit code, and `main` writes the rows with
`emit` as CSV (RFC 4180, stable column order) or a single JSON document;
all randomised commands are deterministic for a fixed --seed.

Exit codes: 0 success, 2 infeasible input or validation failure, 3 solver
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import dynamics, entanglement, invariants, oracle, states, tolerances, vectorsum
from .algebra import exp_i

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def load_state(path: str) -> np.ndarray:
    """Read a JSON state file {n_qubits, amplitudes: [[re, im], ...]}.

    Amplitudes are row-major in the computational basis with qubit a as
    the most significant bit.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read state file {path}: {e}", EXIT_IO) from e
    try:
        n = int(doc["n_qubits"])
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"malformed state file {path}: {e}", EXIT_VALIDATION) from e
    if amps.size != 1 << n:
        raise CliError(
            f"state file {path}: {amps.size} amplitudes for n_qubits={n}",
            EXIT_VALIDATION,
        )
    try:
        return states._checked_amplitudes(amps, None)[0]
    except ValueError as e:
        raise CliError(f"state file {path}: {e}", EXIT_VALIDATION) from e


def save_state(path: str, amps) -> None:
    amps = np.asarray(amps, dtype=complex).ravel()
    n = amps.size.bit_length() - 1
    doc = {"n_qubits": n, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def emit(args, rows: list[dict]) -> None:
    """Write rows as CSV or one JSON document to --out or stdout.

    The JSON document is {"command", "params", "rows"}; params are the
    subcommand's own arguments in declaration order.
    """
    if args.format == "json":
        params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "format")}
        text = json.dumps({"command": args.command, "params": params, "rows": rows})
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e}", EXIT_IO) from e
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt(x: float) -> float:
    return float(f"{x:.12g}")


def _pure_state(path: str, sizes: tuple[int, ...], command: str) -> tuple[np.ndarray, states.DensityOperator]:
    """Load a state file that `command` accepts at `sizes` qubits; returns
    its amplitudes and its density operator."""
    amps = load_state(path)
    n = amps.size.bit_length() - 1
    if n not in sizes:
        counts = "- or ".join(map(str, sizes))
        raise CliError(f"{command} needs a {counts}-qubit state, got n={n}", EXIT_VALIDATION)
    return amps, states.pure_state_from_amplitudes(amps)


# -- invariants -------------------------------------------------------------


def cmd_invariants(args) -> tuple[list[dict], int]:
    amps, rho = _pure_state(args.state, (2, 3), "invariants")
    rows: list[dict] = []

    def put(name: str, value) -> None:
        rows.append({"quantity": name, "value": _fmt(value)})

    if rho.n_qubits == 2:
        put("v", invariants.invariants_2q(rho))
        put("concurrence", entanglement.concurrence_2q(rho))
        put("entropy", entanglement.entanglement_entropy(rho))
        return rows, EXIT_OK

    t = rho.correlation_tensor()
    lens = [float(np.linalg.norm(states.bloch_slice(t, q))) for q in range(3)]
    for name, v in zip("abc", lens):
        put(f"v_{name}", v)
    tau2 = invariants.three_tangle_oracle(amps)
    put("three_tangle_sq_oracle", tau2)
    degenerate = min(lens) <= tolerances.DEGENERATE_V
    put("degenerate", float(degenerate))
    if degenerate:
        return rows, EXIT_OK

    inv = invariants.invariants_3q(rho)
    put("vbar2", inv.vbar2)
    put("vbar3", inv.vbar3)
    sud = invariants.sudbery(inv)
    for name, value in zip(("I2", "I3", "I4", "I5", "I6"), sud):
        put(name, value)
    put("i6_minus_oracle", sud.i6 - tau2)
    report = invariants.feasibility(inv, slack=tolerances.REPORT_SLACK)
    put("feasible", float(report.feasible))
    put("B", invariants.B_function(inv))
    solutions = vectorsum.solve(vectorsum.vector_lengths(invariants.expansion_probabilities(inv)))
    for i, sol in enumerate(solutions):
        for field, value in zip(
            ("phi_ab", "phi_ab_prime", "phi_ac", "phi_ac_prime", "phi_bc", "phi_bc_prime"),
            sol.as_tuple(),
        ):
            put(f"angles[{i}].{field}", value)
    return rows, EXIT_SOLVER if report.feasible and not solutions else EXIT_OK


# -- region scan ------------------------------------------------------------


def _markers(va: float, vb: float, vc: float) -> list[tuple[str, float, float]]:
    """The seed, the minimum-3-tangle point (the negative seed where it
    exists, else the zero-3-tangle point) and, where it exists, the
    maximum-3-tangle point.  Raises InfeasibleInvariantsError where no pure
    state has these Bloch lengths."""

    def point(kind: str) -> tuple[float, float] | None:
        try:
            return invariants.named_point(kind, va, vb, vc)
        except invariants.InfeasibleInvariantsError:
            return None

    out = [
        ("A_seed", *invariants.named_point("seed", va, vb, vc)),
        ("B_min_tangle", *(point("negative_seed") or point("zero_tangle"))),
    ]
    if (c := point("max_tangle")) is not None:
        out.append(("C_max_tangle", *c))
    return out


def _scan_feasibility(inv: invariants.InvariantSet3Q):
    """Per point of an array invariant set: whether its expansion
    probabilities are >= 0, its B value, whether B <= 0 (both up to
    FEASIBILITY_SLACK) and whether it is feasible, both holding."""
    p_ok = invariants.expansion_probabilities(inv).min(axis=0) >= -tolerances.FEASIBILITY_SLACK
    b_vals = invariants.B_function(inv)
    b_ok = b_vals <= tolerances.FEASIBILITY_SLACK
    return p_ok, b_vals, b_ok, p_ok & b_ok


def _scan_rows(kind: str, labels, va: float, vb: float, vc: float, v2: np.ndarray, v3: np.ndarray) -> list[dict]:
    """Region-scan rows for arrays of (vbar2, vbar3) points, one per label."""
    inv = invariants.InvariantSet3Q(va, vb, vc, v2, v3)
    p_ok, b_vals, b_ok, feasible = _scan_feasibility(inv)
    i6 = invariants.sudbery(inv).i6.tolist()
    return [
        {
            "kind": kind,
            "label": label,
            "vbar2": _fmt(x2),
            "vbar3": _fmt(x3),
            "p_ok": int(p),
            "B": _fmt(b),
            "B_ok": int(bo),
            "feasible": int(f),
            "I6": _fmt(i),
        }
        for label, x2, x3, p, b, bo, f, i in zip(
            labels, v2.tolist(), v3.tolist(), p_ok.tolist(), b_vals.tolist(), b_ok.tolist(), feasible.tolist(), i6
        )
    ]


def region_scan_rows(va: float, vb: float, vc: float, grid: int) -> list[dict]:
    labels, m2, m3 = zip(*_markers(va, vb, vc))
    m2, m3 = np.array(m2), np.array(m3)
    # coarse pass to find the feasible bounding box, seeded by the markers
    coarse = np.linspace(-1.0, 1.0, 41)
    c2, c3 = np.repeat(coarse, coarse.size), np.tile(coarse, coarse.size)
    feasible = _scan_feasibility(invariants.InvariantSet3Q(va, vb, vc, c2, c3))[-1]
    pts2 = np.concatenate([m2, c2[feasible]])
    pts3 = np.concatenate([m3, c3[feasible]])
    lo2, hi2, lo3, hi3 = pts2.min(), pts2.max(), pts3.min(), pts3.max()
    pad2 = 0.1 * max(hi2 - lo2, tolerances.SCAN_PAD_FLOOR)
    pad3 = 0.1 * max(hi3 - lo3, tolerances.SCAN_PAD_FLOOR)
    g2 = np.linspace(lo2 - pad2, hi2 + pad2, grid)
    g3 = np.linspace(lo3 - pad3, hi3 + pad3, grid)
    rows = []
    # one grid row at a time keeps the arrays, and peak memory, small
    for v2 in g2:
        rows += _scan_rows("grid", [""] * grid, va, vb, vc, np.full(grid, v2), g3)
    rows += _scan_rows("marker", labels, va, vb, vc, m2, m3)
    return rows


def cmd_region_scan(args) -> tuple[list[dict], int]:
    for v in (args.va, args.vb, args.vc):
        if not 0.0 < v < 1.0:
            raise CliError(f"Bloch lengths must be in (0, 1), got {v}", EXIT_VALIDATION)
    if args.grid < 2:
        raise CliError(f"--grid must be at least 2, got {args.grid}", EXIT_VALIDATION)
    return region_scan_rows(args.va, args.vb, args.vc, args.grid), EXIT_OK


# -- evolve -----------------------------------------------------------------


def cmd_evolve(args) -> tuple[list[dict], int]:
    _, rho0 = _pure_state(args.state, (2,), "evolve")
    for name in ("omega_x", "omega_y", "omega_z", "beta_a", "beta_b", "t0", "t1"):
        if not np.isfinite(getattr(args, name)):
            raise CliError(f"--{name.replace('_', '-')} must be finite", EXIT_VALIDATION)
    if args.steps < 1:
        raise CliError("--steps must be positive", EXIT_VALIDATION)
    h = dynamics.ExchangeHamiltonian(
        args.omega_x, args.omega_y, args.omega_z, args.beta_a, args.beta_b
    )
    hmv = dynamics.hamiltonian(h)
    rows = []
    for t in np.linspace(args.t0, args.t1, args.steps):
        rho_t = dynamics.evolve(rho0, hmv, float(t))
        tensor = rho_t.correlation_tensor()
        ba, bb = states.bloch_slice(tensor, 0), states.bloch_slice(tensor, 1)
        rows.append(
            {
                "t": _fmt(float(t)),
                "ax": _fmt(ba[0]),
                "ay": _fmt(ba[1]),
                "az": _fmt(ba[2]),
                "bx": _fmt(bb[0]),
                "by": _fmt(bb[1]),
                "bz": _fmt(bb[2]),
                "entropy": _fmt(entanglement.entanglement_entropy(rho_t)),
                "purity": _fmt(rho_t.purity()),
            }
        )
    return rows, EXIT_OK


# -- chsh and bell ----------------------------------------------------------


def cmd_chsh(args) -> tuple[list[dict], int]:
    _, rho = _pure_state(args.state, (2,), "chsh")
    value, setting = entanglement.chsh_maximize(rho)
    rows = [{"quantity": "chsh_max", "value": _fmt(value)}]
    for name, vec in (("q", setting.q), ("r", setting.r), ("s", setting.s), ("t", setting.t)):
        for comp, x in zip("xyz", vec):
            rows.append({"quantity": f"{name}{comp}", "value": _fmt(x)})
    return rows, EXIT_OK


def cmd_bell(args) -> tuple[list[dict], int]:
    rho = states.bell(args.which)
    rows = [
        {"term": label, "re": _fmt(c.real), "im": _fmt(c.imag)}
        for label, c in sorted(rho.mv.terms().items())
    ]
    return rows, EXIT_OK


# -- verify -----------------------------------------------------------------


def verify_algebra_once(n: int, rng: np.random.Generator) -> float:
    """One randomized oracle-equivalence trial; returns the worst error."""
    a = oracle.random_multivector(n, rng)
    b = oracle.random_multivector(n, rng)
    ma, mb = oracle.to_matrix(a), oracle.to_matrix(b)
    errs = [
        float(np.abs(oracle.to_matrix(a * b) - ma @ mb).max()),
        float(np.abs(oracle.to_matrix(a.reverse()) - ma.conj().T).max()),
        abs(a.scalar_part() - np.trace(ma).real / (1 << n)),
    ]
    if n >= 2:
        excluded = int(rng.integers(0, n))
        keep = [q for q in range(n) if q != excluded]
        reduced = a.drop_qubits([excluded]) * 2.0
        errs.append(
            float(
                np.abs(oracle.to_matrix(reduced) - oracle.partial_trace_matrix(ma, keep, n)).max()
            )
        )
    h = a + a.reverse()
    t = float(rng.uniform(-1.0, 1.0))
    errs.append(
        float(np.abs(oracle.to_matrix(exp_i(h, t)) - oracle.expm_minus_i(oracle.to_matrix(h), t)).max())
    )
    return max(errs)


def verify_tangle_once(rng: np.random.Generator) -> float | None:
    """|I6 formula - hyperdeterminant| for one random state, or None if the
    sample is degenerate."""
    psi = oracle.random_statevector(3, rng)
    rho = states.DensityOperator(oracle.from_matrix(oracle.statevector_density(psi)))
    try:
        inv = invariants.invariants_3q(rho)
    except ValueError:
        return None
    return abs(invariants.sudbery(inv).i6 - invariants.three_tangle_oracle(psi))


def _campaign_row(name: str, errors: list[float], tol: float) -> dict:
    """One verify row; also reports the campaign's pass count on stderr."""
    passes = sum(err < tol for err in errors)
    print(f"{name}: {passes}/{len(errors)} pass", file=sys.stderr)
    return {
        "campaign": name,
        "samples": len(errors),
        "passes": passes,
        "failures": len(errors) - passes,
        "max_error": _fmt(max(errors)),
    }


def cmd_verify(args) -> tuple[list[dict], int]:
    if args.samples < 1:
        raise CliError(f"--samples must be positive, got {args.samples}", EXIT_VALIDATION)
    rng = np.random.default_rng(args.seed)
    algebra = [verify_algebra_once(1 + k % 3, rng) for k in range(args.samples)]
    tangle: list[float] = []
    while len(tangle) < args.samples:
        err = verify_tangle_once(rng)
        if err is not None:
            tangle.append(err)
    rows = [
        _campaign_row("algebra_oracle", algebra, tolerances.VERIFY_ALGEBRA_TOL),
        _campaign_row("i6_vs_hyperdeterminant", tangle, tolerances.VERIFY_TANGLE_TOL),
    ]
    return rows, EXIT_OK if all(row["failures"] == 0 for row in rows) else EXIT_VALIDATION


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to FILE instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="msta",
        description="Multi-qubit density operators in the correlated Pauli algebra.",
        epilog=(
            "State files are JSON {\"n_qubits\": N, \"amplitudes\": [[re, im], ...]} "
            "with the amplitudes row-major in the computational basis, qubit a as "
            "the most significant index bit.  Exit codes: 0 ok, 2 validation or "
            "infeasible input, 3 solver failure, 4 I/O error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants",
        parents=[common],
        help="local-unitary invariants of a state file",
        epilog="CSV columns (stable): quantity,value.  On a pure state B cancels down to "
        "1e-9..1e-6, so its last printed digits are rounding noise.",
    )
    p.add_argument("--state", required=True, help="JSON state file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "region-scan",
        parents=[common],
        help="(vbar2, vbar3) feasibility scan",
        epilog="CSV columns (stable): kind,label,vbar2,vbar3,p_ok,B,B_ok,feasible,I6",
    )
    p.add_argument("--va", type=float, required=True)
    p.add_argument("--vb", type=float, required=True)
    p.add_argument("--vc", type=float, required=True)
    p.add_argument("--grid", type=int, default=201, help="grid resolution per axis")
    p.set_defaults(func=cmd_region_scan)

    p = sub.add_parser(
        "evolve",
        parents=[common],
        help="exchange-Hamiltonian trajectory of a 2-qubit state",
        epilog="CSV columns (stable): t,ax,ay,az,bx,by,bz,entropy,purity",
    )
    p.add_argument("--state", required=True)
    p.add_argument("--omega-x", dest="omega_x", type=float, default=0.0)
    p.add_argument("--omega-y", dest="omega_y", type=float, default=0.0)
    p.add_argument("--omega-z", dest="omega_z", type=float, default=0.0)
    p.add_argument("--beta-a", dest="beta_a", type=float, default=0.0)
    p.add_argument("--beta-b", dest="beta_b", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=6.283185307179586)
    p.add_argument("--steps", type=int, default=101)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser(
        "chsh",
        parents=[common],
        help="maximised CHSH value of a 2-qubit state",
        epilog="CSV columns (stable): quantity,value",
    )
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser(
        "bell",
        parents=[common],
        help="blade expansion of a Bell state",
        epilog="CSV columns (stable): term,re,im",
    )
    p.add_argument("--which", required=True, choices=("phi+", "phi-", "psi+", "psi-"))
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="randomised oracle-equivalence campaigns",
        epilog="CSV columns (stable): campaign,samples,passes,failures,max_error",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, code = args.func(args)
        emit(args, rows)
        return code
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code if isinstance(e, CliError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
