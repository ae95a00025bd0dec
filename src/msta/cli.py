"""Command-line front end.

Subcommands: invariants, region-scan, evolve, chsh, bell, verify.  Each
`cmd_*` returns a `Table` (named columns) and an exit code, and `main`
writes the table with `emit` as CSV (RFC 4180, stable column order) or a
single JSON document, floats at 12 significant digits in every command;
all randomised commands are deterministic for a fixed --seed.

Exit codes: 0 success, 2 infeasible input or validation failure, 3 solver
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

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


class Repeated(NamedTuple):
    """A column of few values (numbers or strings): row i holds values[codes[i]]."""

    values: np.ndarray | list
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def tolist(self) -> list:
        return np.asarray(self.values, dtype=object)[self.codes].tolist()


class Table:
    """A command's output: one or more named columns of equal length, numpy
    arrays for numbers, lists of strings, or `Repeated` for few values (a
    code that names none of its values raises ValueError).

    Iterating yields one mapping per row that reads and writes through to
    the columns, so `row["I6"] += 1e-6` changes what `emit` writes; writing
    to a `Repeated` column raises TypeError (it would change all rows alike)."""

    def __init__(self, **columns):
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"a Table needs one or more columns of equal length, got {lengths}")
        for name, col in columns.items():
            if isinstance(col, Repeated) and len(col) and not (0 <= col.codes.min() and col.codes.max() < len(col.values)):
                raise ValueError(f"column {name}: Repeated codes must lie in 0..{len(col.values) - 1}")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __iter__(self):
        return (_Row(self.columns, i) for i in range(len(self)))


class _Row:
    def __init__(self, columns: dict, i: int):
        self.columns, self.i = columns, i

    def __getitem__(self, name: str):
        col = self.columns[name]
        return col.values[col.codes[self.i]] if isinstance(col, Repeated) else col[self.i]

    def __setitem__(self, name: str, value) -> None:
        self.columns[name][self.i] = value


def _csv_field(v) -> str:
    """A value as a CSV field: a number by repr, a string quoted where RFC 4180 needs it."""
    s = v if isinstance(v, str) else repr(v)
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def _cells(col, quote=_csv_field) -> np.ndarray:
    """A column's cells as a (rows, width) uint8 block, each cell's UTF-8
    left-aligned and padded with `_PAD`: floats as repr(float(f"{x:.12g}"))
    by `_fixed_cells`, bools as 0 or 1, ints and strings through ``quote``
    (`_csv_field`, or json.dumps for JSON)."""
    if isinstance(col, list):
        return _text_cells(map(quote, col))
    if col.dtype.kind == "f":
        return _fixed_cells(col, quote)
    # a bool is written as 0 or 1: JSON has no True or False
    return _text_cells(map(quote, (col.view(np.int8) if col.dtype == bool else col).tolist()))


def _text_cells(cells) -> np.ndarray:
    """The block of some strings, each encoded once and padded to the longest."""
    cells = [c.encode() for c in cells]
    width = max(map(len, cells), default=0)
    return np.frombuffer(b"".join(c.ljust(width, _PAD) for c in cells), np.uint8).reshape(len(cells), width)


# a block pads its cells with 0xFF, no byte of any UTF-8 text; a float cell's
# characters index _CELL_ROW: 12 mantissa digits, constants, then the pad
_PAD = b"\xff"
_CELL_ROW = "ABCDEFGHIJKL0123456789.-e" + 3 * _PAD.decode("latin-1")
_CELL_WIDTH = 19  # "-d.ddddddddddde-NN", "-0.000dddddddddddd"; the per-value "-d.ddddddddddde-NNN"


@lru_cache(maxsize=None)
def _fixed_tables():
    """`_fixed_cells`' tables, built on first use: each 4-digit group as one
    word of 4 ASCII bytes and its trailing-zero count, the exact doubles
    10^0..10^22, and per (E = -11..10, significant digits 1..12, sign) the
    indices into `_CELL_ROW` of repr's characters."""
    groups = np.arange(10**4)
    chars = (groups[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zeros = sum(groups % 10**k == 0 for k in range(1, 5))
    digits, cells = _CELL_ROW[:12], []
    for e in range(-11, 11):
        for sig in range(1, 13):
            if e < -4:
                body = digits[0] + ("." + digits[1:sig]) * (sig > 1) + f"e-{-e:02d}"
            elif e < 0:
                body = "0." + "0" * (-e - 1) + digits[:sig]
            else:
                body = digits[: e + 1] + "." + digits[e + 1 : max(sig, e + 2)]
            cells += [(sign + body).ljust(_CELL_WIDTH, _CELL_ROW[-1]) for sign in ("", "-")]
    # each character becomes the code point of its index in _CELL_ROW
    indices = "".join(cells).translate({ord(c): _CELL_ROW.index(c) for c in _CELL_ROW})
    # uint8: a chunk's layout rows take an eighth of intp's bytes, and adding
    # the intp row offsets gives the gather intp indices, which it needs no cast for
    layouts = np.frombuffer(indices.encode("latin-1"), np.uint8).reshape(-1, _CELL_WIDTH)
    return chars.view(np.uint32).ravel(), zeros, layouts, np.array([float(10**k) for k in range(23)])


def _fixed_cells(col: np.ndarray, quote=_csv_field) -> np.ndarray:
    """The block of repr(float(f"{x:.12g}")) of each value of a float64 column,
    from its exact 12-digit mantissa M = rint(|x| 10^(11 - E)), E = floor(log10 |x|).

    On `tolerances.FIXED_FORMAT_MIN` <= |x| < FIXED_FORMAT_MAX the product
    is rounded once, so M is correctly rounded unless it lies near a half.
    E is corrected by one where log10 rounds across an integer, and an M
    of 10^12 carries into E.  Each cell is one gather from its row of
    digits and constants through the layout of its (E, digits, sign).
    Values outside that domain, or near a half, take the per-value
    %-path, spelled by ``quote`` (json.dumps writes NaN and Infinity)."""
    words, zeros, layouts, pow10 = _fixed_tables()
    a = np.abs(col)
    ok = (a >= tolerances.FIXED_FORMAT_MIN) & (a < tolerances.FIXED_FORMAT_MAX)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * pow10[np.clip(11 - e, 0, 22)]
    e += y >= 1e12
    e -= y < 1e11
    y = a * pow10[np.clip(11 - e, 0, 22)]
    m = np.rint(y)
    ok &= abs(y - np.floor(y) - 0.5) >= tolerances.FIXED_FORMAT_WINDOW
    e += m == 1e12
    m[m == 1e12] = 1e11
    ok &= (m >= 1e11) & (m < 1e12) & (e >= -11) & (e <= 10)
    m[~ok], e[~ok] = 1e11, 0
    hi, rest = np.divmod(m.astype(np.int64), 10**8)  # m is an exact integer
    mid, lo = np.divmod(rest, 10**4)
    sig = 12 - zeros[lo] - (lo == 0) * (zeros[mid] + (mid == 0) * zeros[hi])
    rows = np.empty((len(col), len(_CELL_ROW) // 4), np.uint32)
    rows[:, 0], rows[:, 1], rows[:, 2] = words[hi], words[mid], words[lo]
    rows[:, 3:] = np.frombuffer(_CELL_ROW[12:].encode("latin-1"), np.uint32)
    flat, key = rows.view(np.uint8).ravel(), ((e + 11) * 12 + sig - 1) * 2 + np.signbit(col)
    del a, y, m, rest, e, hi, mid, lo, sig  # the gather reads none: less peak memory
    cells = flat[layouts.take(key, 0) + len(_CELL_ROW) * np.arange(len(col))[:, None]]
    for i in np.flatnonzero(~ok).tolist():
        cells[i] = np.frombuffer(quote(_percent_cell(col[i])).encode().ljust(_CELL_WIDTH, _PAD), np.uint8)
    return cells


def _percent_cell(x: float) -> float:
    """The per-value path of `_fixed_cells`: x at 12 significant digits."""
    return float("%.12g" % x)


# rows formatted at a time
_CHUNK_ROWS = 8192


def _rows(table: Table, quote, seps: list[str], between: str = ""):
    """The rows as UTF-8, _CHUNK_ROWS at a time: seps[0], the first cell,
    seps[1], ..., the last cell, seps[-1], and ``between`` before each row but
    the first.  A chunk's column blocks (`_cells`) and its separators, as
    constant columns, fill one buffer, and then its pad bytes are dropped.
    A `Repeated` column's values are formatted once per table, and each
    chunk takes their block's rows by its codes: the table's builder states
    repetition, nothing sorts to find it."""
    seps = [np.frombuffer(s.encode(), np.uint8) for s in (between + seps[0], *seps[1:])]
    columns = [Repeated(_cells(c.values, quote), c.codes) if isinstance(c, Repeated) else c for c in table.columns.values()]
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        blocks = [c.values.take(c.codes[rows], 0) if isinstance(c, Repeated) else _cells(c[rows], quote) for c in columns]
        parts = [seps[0], *chain.from_iterable(zip(blocks, seps[1:]))]
        ends = np.cumsum([part.shape[-1] for part in parts]).tolist()
        buf = np.empty((len(blocks[0]), ends[-1]), np.uint8)
        for part, end in zip(parts, ends):
            buf[:, end - part.shape[-1] : end] = part
        text = buf.tobytes().translate(None, _PAD)
        yield text if start else text[len(between) :]


def emit(args, table: Table) -> None:
    """Write the table as CSV or one JSON document to --out or stdout.

    The JSON document is {"command", "params", "rows"}; params are the
    subcommand's own arguments in declaration order, and rows hold the CSV
    row values as objects.  Both formats write their rows by `_rows`, with
    their own separators and quoting."""
    if args.format == "json":
        params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "format")}
        head = '{"command": %s, "params": %s, "rows": [' % (json.dumps(args.command), json.dumps(params))
        keys = [json.dumps(name) + ": " for name in table.columns]
        rows = _rows(table, json.dumps, ["{" + keys[0], *(", " + k for k in keys[1:]), "}"], ", ")
        chunks = chain([head.encode()], rows, [b"]}"])
    else:
        head = ",".join(map(_csv_field, table.columns)) + "\n"
        chunks = chain([head.encode()], _rows(table, _csv_field, ["", *[","] * (len(table.columns) - 1), "\n"]))
    if not args.out:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
        if args.format == "json":
            sys.stdout.write("\n")
        return
    try:
        with open(args.out, "wb") as f:
            f.writelines(chunks)
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}", EXIT_IO) from e


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


def _quantities(values: dict[str, float]) -> Table:
    return Table(quantity=list(values), value=np.array(list(values.values()), dtype=float))


def cmd_invariants(args) -> tuple[Table, int]:
    amps, rho = _pure_state(args.state, (2, 3), "invariants")
    if rho.n_qubits == 2:
        out = {"v": invariants.invariants_2q(rho)}
        out["concurrence"], out["entropy"] = entanglement.pure_2q_measures(amps)
        return _quantities(out), EXIT_OK

    t = rho.correlation_tensor()
    lens = [float(np.linalg.norm(states.bloch_slice(t, q))) for q in range(3)]
    out = {f"v_{name}": v for name, v in zip("abc", lens)}
    out["three_tangle_sq_oracle"] = tau2 = invariants.three_tangle_oracle(amps)
    out["degenerate"] = degenerate = min(lens) <= tolerances.DEGENERATE_V
    if degenerate:
        return _quantities(out), EXIT_OK

    inv = invariants.invariants_3q(rho)
    out["vbar2"], out["vbar3"] = inv.vbar2, inv.vbar3
    sud = invariants.sudbery(inv)
    out.update(zip(("I2", "I3", "I4", "I5", "I6"), sud))
    out["i6_minus_oracle"] = sud.i6 - tau2
    report = invariants.feasibility(inv, slack=tolerances.REPORT_SLACK)
    out["feasible"], out["B"] = report.feasible, report.B
    solutions = vectorsum.solve(vectorsum.vector_lengths(report.probabilities))
    fields = ("phi_ab", "phi_ab_prime", "phi_ac", "phi_ac_prime", "phi_bc", "phi_bc_prime")
    for i, sol in enumerate(solutions):
        out.update((f"angles[{i}].{field}", value) for field, value in zip(fields, sol.as_tuple()))
    if report.feasible and not solutions:
        print("error: the invariants are feasible, but the solver found no angle set", file=sys.stderr)
        return _quantities(out), EXIT_SOLVER
    return _quantities(out), EXIT_OK


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


def region_scan_rows(va: float, vb: float, vc: float, grid: int) -> Table:
    """The scan as one table: grid x grid (vbar2, vbar3) points over the
    feasible bounding box, vbar2-major, then the marker points."""
    labels, m2, m3 = zip(*_markers(va, vb, vc))
    # coarse pass to find the feasible bounding box, seeded by the markers;
    # each pass runs on its two axes, (n, 1) against (n,), so the terms in
    # one vbar run once per axis value and only the mixed sums per point
    coarse = np.linspace(-1.0, 1.0, 41)
    feasible = invariants.feasibility(invariants.InvariantSet3Q(va, vb, vc, coarse[:, None], coarse)).feasible
    pts = np.concatenate([[m2, m3], coarse[np.argwhere(feasible).T]], axis=1)
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    pad = 0.1 * np.maximum(hi - lo, tolerances.SCAN_PAD_FLOOR)
    g2, g3 = (np.linspace(a, b, grid) for a, b in zip(lo - pad, hi + pad))
    parts = []
    for v2, v3 in ((g2[:, None], g3), (np.array(m2), np.array(m3))):
        inv = invariants.InvariantSet3Q(va, vb, vc, v2, v3)
        report = invariants.feasibility(inv)
        parts.append([report.p_ok, report.B, report.B_ok, report.feasible, invariants.sudbery(inv).i6])
    # the grid's (grid, grid) arrays flatten vbar2-major, the markers follow
    p_ok, b, b_ok, feasible, i6 = (np.concatenate([g.ravel(), m]) for g, m in zip(*parts))
    n, marks = grid**2, grid + np.arange(len(labels))
    # each flag is its own code into the values 0 and 1
    p_ok, b_ok, feasible = (Repeated(np.arange(2), ok.view(np.uint8)) for ok in (p_ok, b_ok, feasible))
    return Table(
        kind=Repeated(["grid", "marker"], np.repeat([0, 1], [n, len(labels)])),
        label=Repeated(["", *labels], np.concatenate([np.zeros(n, np.intp), 1 + np.arange(len(labels))])),
        vbar2=Repeated(np.concatenate([g2, m2]), np.concatenate([np.arange(n) // grid, marks])),
        vbar3=Repeated(np.concatenate([g3, m3]), np.concatenate([np.arange(n) % grid, marks])),
        p_ok=p_ok,
        B=b,
        B_ok=b_ok,
        feasible=feasible,
        I6=i6,
    )


def cmd_region_scan(args) -> tuple[Table, int]:
    for v in (args.va, args.vb, args.vc):
        if not 0.0 < v < 1.0:
            raise CliError(f"Bloch lengths must be in (0, 1), got {v}", EXIT_VALIDATION)
    if args.grid < 2:
        raise CliError(f"--grid must be at least 2, got {args.grid}", EXIT_VALIDATION)
    return region_scan_rows(args.va, args.vb, args.vc, args.grid), EXIT_OK


# -- evolve -----------------------------------------------------------------


def cmd_evolve(args) -> tuple[Table, int]:
    _, rho0 = _pure_state(args.state, (2,), "evolve")
    for name in ("omega_x", "omega_y", "omega_z", "beta_a", "beta_b", "t0", "t1"):
        if not np.isfinite(getattr(args, name)):
            raise CliError(f"--{name.replace('_', '-')} must be finite", EXIT_VALIDATION)
    if args.steps < 1:
        raise CliError("--steps must be positive", EXIT_VALIDATION)
    h = dynamics.ExchangeHamiltonian(args.omega_x, args.omega_y, args.omega_z, args.beta_a, args.beta_b)
    hmv = dynamics.hamiltonian(h)
    ts = np.linspace(args.t0, args.t1, args.steps)
    out = np.empty((8, ts.size))
    for k, t in enumerate(ts):
        rho_t = dynamics.evolve(rho0, hmv, float(t))
        tensor = rho_t.correlation_tensor()
        out[:3, k] = states.bloch_slice(tensor, 0)
        out[3:6, k] = states.bloch_slice(tensor, 1)
        # evolve is unitary, so rho_t is as pure as rho0: no purity gate
        out[6:, k] = entanglement._length_entropy(float(np.linalg.norm(out[:3, k]))), rho_t.purity()
    names = ("ax", "ay", "az", "bx", "by", "bz", "entropy", "purity")
    return Table(t=ts, **dict(zip(names, out))), EXIT_OK


# -- chsh and bell ----------------------------------------------------------


def cmd_chsh(args) -> tuple[Table, int]:
    _, rho = _pure_state(args.state, (2,), "chsh")
    value, setting = entanglement.chsh_maximize(rho)
    out = {"chsh_max": value}
    out.update((f"{name}{comp}", x) for name in "qrst" for comp, x in zip("xyz", getattr(setting, name)))
    return _quantities(out), EXIT_OK


def cmd_bell(args) -> tuple[Table, int]:
    labels, coeffs = zip(*sorted(states.bell(args.which).mv.terms().items()))
    coeffs = np.array(coeffs, dtype=complex)
    return Table(term=list(labels), re=coeffs.real, im=coeffs.imag), EXIT_OK


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
        want = oracle.partial_trace_matrix(ma, keep, n)
        errs.append(float(np.abs(oracle.to_matrix(reduced) - want).max()))
    h = a + a.reverse()
    t = float(rng.uniform(-1.0, 1.0))
    want = oracle.expm_minus_i(oracle.to_matrix(h), t)
    errs.append(float(np.abs(oracle.to_matrix(exp_i(h, t)) - want).max()))
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


def cmd_verify(args) -> tuple[Table, int]:
    if args.samples < 1:
        raise CliError(f"--samples must be positive, got {args.samples}", EXIT_VALIDATION)
    rng = np.random.default_rng(args.seed)
    algebra = [verify_algebra_once(1 + k % 3, rng) for k in range(args.samples)]
    tangle: list[float] = []
    while len(tangle) < args.samples:
        err = verify_tangle_once(rng)
        if err is not None:
            tangle.append(err)
    names = ["algebra_oracle", "i6_vs_hyperdeterminant"]
    runs = [(algebra, tolerances.VERIFY_ALGEBRA_TOL), (tangle, tolerances.VERIFY_TANGLE_TOL)]
    passes = np.array([sum(err < tol for err in errors) for errors, tol in runs])
    samples = np.array([len(algebra), len(tangle)])
    for name, p, n in zip(names, passes, samples):
        print(f"{name}: {p}/{n} pass", file=sys.stderr)
    failures = samples - passes
    max_error = np.array([max(algebra), max(tangle)], dtype=float)
    table = Table(campaign=names, samples=samples, passes=passes, failures=failures, max_error=max_error)
    return table, EXIT_VALIDATION if failures.any() else EXIT_OK


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

    def command(name: str, func, help: str, columns: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help, epilog=f"CSV columns (stable): {columns}")
        p.set_defaults(func=func)
        return p

    p = command(
        "invariants",
        cmd_invariants,
        "local-unitary invariants of a state file",
        "quantity,value.  B (cancelling down to 1e-9..1e-6 on a pure state) and the "
        "angles end in rounding noise: the solver fixes the angles to about 1e-12 "
        "absolute where the Jacobian J of the vector sums is well conditioned, near "
        "W only to about 2 rho / sigma_min(J), rho the residual (1.1e-4 at 1e-5 from W).",
    )
    p.add_argument("--state", required=True, help="JSON state file")

    p = command(
        "region-scan",
        cmd_region_scan,
        "(vbar2, vbar3) feasibility scan",
        "kind,label,vbar2,vbar3,p_ok,B,B_ok,feasible,I6",
    )
    p.add_argument("--va", type=float, required=True)
    p.add_argument("--vb", type=float, required=True)
    p.add_argument("--vc", type=float, required=True)
    p.add_argument("--grid", type=int, default=201, help="grid resolution per axis")

    p = command(
        "evolve",
        cmd_evolve,
        "exchange-Hamiltonian trajectory of a 2-qubit state",
        "t,ax,ay,az,bx,by,bz,entropy,purity",
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

    p = command("chsh", cmd_chsh, "maximised CHSH value of a 2-qubit state", "quantity,value")
    p.add_argument("--state", required=True)

    p = command("bell", cmd_bell, "blade expansion of a Bell state", "term,re,im")
    p.add_argument("--which", required=True, choices=("phi+", "phi-", "psi+", "psi-"))

    p = command(
        "verify",
        cmd_verify,
        "randomised oracle-equivalence campaigns",
        "campaign,samples,passes,failures,max_error",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        table, code = args.func(args)
        emit(args, table)
        return code
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code if isinstance(e, CliError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
