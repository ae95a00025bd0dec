import argparse
import csv
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msta import cli, invariants, oracle, tolerances
from msta.cli import main, region_scan_rows

from conftest import block_rows, save_state, table_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    save_state(path, amps)
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    save_state(path, amps)
    return str(path)


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    save_state(path, np.array([0, 1, -1, 0]) / np.sqrt(2))
    return str(path)


def values_of(rows):
    return {r["quantity"]: float(r["value"]) for r in rows}


def test_invariants_ghz(capsys, ghz_file):
    code, out = run_cli(capsys, "invariants", "--state", ghz_file)
    assert code == 0
    vals = values_of(rows_from_csv(out))
    assert abs(vals["three_tangle_sq_oracle"] - 1.0) < 1e-9
    assert vals["v_a"] < 1e-9 and vals["v_b"] < 1e-9 and vals["v_c"] < 1e-9
    assert vals["degenerate"] == 1.0


def test_invariants_w(capsys, w_file):
    code, out = run_cli(capsys, "invariants", "--state", w_file)
    assert code == 0
    vals = values_of(rows_from_csv(out))
    assert abs(vals["v_a"] - 1 / 3) < 1e-9
    assert abs(vals["I6"]) < 1e-9
    assert abs(vals["i6_minus_oracle"]) < 1e-8
    assert vals["feasible"] == 1.0
    assert "angles[0].phi_ab" in vals


def test_invariants_random_consistency(capsys, tmp_path, rng):
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    z /= np.linalg.norm(z)
    path = tmp_path / "random.json"
    save_state(path, z)
    code, out = run_cli(capsys, "invariants", "--state", str(path))
    assert code == 0
    vals = values_of(rows_from_csv(out))
    assert abs(vals["i6_minus_oracle"]) < 1e-8


def test_invariants_json_mode(capsys, w_file):
    code, out = run_cli(capsys, "invariants", "--state", w_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "invariants"
    assert any(r["quantity"] == "I6" for r in doc["rows"])


def _decimal_2q_measures(amps):
    """Concurrence and entropy of a two-qubit state at 40 digits: the
    amplitudes normalised in Decimal, the reduced state's eigenvalue
    (1 - sqrt(1 - C^2)) / 2 with C = 2 |psi00 psi11 - psi01 psi10|."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = [(decimal.Decimal(z.real), decimal.Decimal(z.imag)) for z in amps]
        norm = sum(a * a + b * b for a, b in d).sqrt()
        (a0, b0), (a1, b1), (a2, b2), (a3, b3) = [(a / norm, b / norm) for a, b in d]
        re, im = a0 * a3 - b0 * b3 - a1 * a2 + b1 * b2, a0 * b3 + b0 * a3 - a1 * b2 - b1 * a2
        c = 2 * (re * re + im * im).sqrt()
        lam = (1 - (1 - c * c).sqrt()) / 2
        return c, -(lam * lam.ln() + (1 - lam) * (1 - lam).ln()) / decimal.Decimal(2).ln()


def test_two_qubit_concurrence_and_entropy_hold_near_a_product_state(capsys, tmp_path):
    # 1e-7 from |00>: from the Pauli coefficients 1 - v^2 is rounding, and
    # the concurrence was 17 % off; the amplitudes give both to rounding
    rng = np.random.default_rng(3)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = np.array([1.0, 0, 0, 0]) + 1e-7 * z / np.linalg.norm(z)
    path = tmp_path / "near00.json"
    save_state(path, psi / np.linalg.norm(psi))
    code, out = run_cli(capsys, "invariants", "--state", str(path))
    assert code == 0
    vals = values_of(rows_from_csv(out))
    amps = [complex(re, im) for re, im in json.loads(path.read_text())["amplitudes"]]
    c, entropy = _decimal_2q_measures(amps)
    assert c > 1e-9
    assert abs(decimal.Decimal(vals["concurrence"]) - c) <= decimal.Decimal(1e-10) * c
    assert abs(decimal.Decimal(vals["entropy"]) - entropy) <= decimal.Decimal(1e-10) * entropy


def test_invariants_solver_failure_names_its_cause(capsys, tmp_path):
    # 1e-3 from |000>: the invariants pass `feasibility`, but `solve` finds
    # no angle set, so the table ends at B and the exit code says why
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    psi += 1e-3 * oracle.random_statevector(3, np.random.default_rng(99))
    path = tmp_path / "near000.json"
    save_state(path, psi / np.linalg.norm(psi))
    code = main(["invariants", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    vals = values_of(rows_from_csv(captured.out))
    names = ["v_a", "v_b", "v_c", "three_tangle_sq_oracle", "degenerate", "vbar2", "vbar3"]
    assert list(vals) == names + ["I2", "I3", "I4", "I5", "I6", "i6_minus_oracle", "feasible", "B"]
    assert vals["feasible"] == 1.0 and vals["degenerate"] == 0.0
    assert captured.err == "error: the invariants are feasible, but the solver found no angle set\n"


def test_invariants_rejects_one_qubit(capsys, tmp_path):
    path = tmp_path / "one.json"
    save_state(path, np.array([1.0, 0.0]))
    code, _ = run_cli(capsys, "invariants", "--state", str(path))
    assert code == 2


def test_missing_file_is_io_error(capsys):
    code, _ = run_cli(capsys, "invariants", "--state", "/nonexistent.json")
    assert code == 4


def test_malformed_norm_is_validation_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    with open(path, "w") as f:
        json.dump({"n_qubits": 2, "amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}, f)
    code, _ = run_cli(capsys, "invariants", "--state", str(path))
    assert code == 2


def test_chsh_singlet(capsys, singlet_file):
    code, out = run_cli(capsys, "chsh", "--state", singlet_file)
    assert code == 0
    vals = values_of(rows_from_csv(out))
    assert abs(vals["chsh_max"] - 2.828427) < 1e-5


def test_chsh_singlet_prints_no_negative_zero(capsys, tmp_path):
    # CI's singlet.json and its grep for a -0.0 cell
    s = 2 ** -0.5
    path = tmp_path / "singlet.json"
    path.write_text(json.dumps({"n_qubits": 2, "amplitudes": [[0, 0], [s, 0], [-s, 0], [0, 0]]}))
    code, out = run_cli(capsys, "chsh", "--state", str(path))
    assert code == 0
    assert not re.search(r"-0\.0(,|$)", out, re.MULTILINE), out


def test_chsh_of_a_pure_state_is_its_closed_maximum(capsys, tmp_path):
    # CI's generic2.json: chsh_max within 1e-10 of 2 sqrt(1 + C^2), C the
    # concurrence row of invariants on the same file
    path = ci_state(tmp_path, "generic2")
    code, out = run_cli(capsys, "invariants", "--state", path)
    assert code == 0
    c = values_of(rows_from_csv(out))["concurrence"]
    code, out = run_cli(capsys, "chsh", "--state", path)
    assert code == 0
    gap = values_of(rows_from_csv(out))["chsh_max"] - 2 * math.sqrt(1 + c**2)
    assert abs(gap) <= 1e-10, gap


def test_bell_expansion(capsys):
    code, out = run_cli(capsys, "bell", "--which", "phi+")
    assert code == 0
    rows = rows_from_csv(out)
    terms = {r["term"]: float(r["re"]) for r in rows}
    assert terms == {"II": 0.25, "XX": 0.25, "YY": -0.25, "ZZ": 0.25}


def test_evolve_entropy_period(capsys, tmp_path):
    path = tmp_path / "00.json"
    save_state(path, np.array([1.0, 0, 0, 0]))
    omega_x, omega_y = 1.3, 0.5
    omega_minus = (omega_x - omega_y) / 2
    period = np.pi / omega_minus
    code, out = run_cli(
        capsys,
        "evolve",
        "--state",
        str(path),
        "--omega-x",
        str(omega_x),
        "--omega-y",
        str(omega_y),
        "--t0",
        "0",
        "--t1",
        str(2 * period),
        "--steps",
        "9",
    )
    assert code == 0
    rows = rows_from_csv(out)
    entropies = [float(r["entropy"]) for r in rows]
    # entropy returns to zero after one period (rows 0, 4, 8 at 0, T, 2T)
    assert entropies[0] < 1e-9
    assert entropies[4] < 1e-9
    assert entropies[8] < 1e-9
    assert max(entropies) > 0.1
    assert all(abs(float(r["purity"]) - 1.0) < 1e-9 for r in rows)


def test_evolve_bell_constant(capsys, singlet_file):
    code, out = run_cli(
        capsys,
        "evolve",
        "--state",
        singlet_file,
        "--omega-x",
        "1",
        "--omega-y",
        "1",
        "--omega-z",
        "1",
        "--steps",
        "7",
    )
    assert code == 0
    rows = rows_from_csv(out)
    assert all(abs(float(r["entropy"]) - 1.0) < 1e-9 for r in rows)
    for comp in ("ax", "ay", "az", "bx", "by", "bz"):
        assert all(abs(float(r[comp])) < 1e-9 for r in rows)


def test_evolve_matches_product_closed_form(capsys, tmp_path):
    from msta.dynamics import ProductEvolution, product_evolution

    theta = 1.1
    m = np.array([0, 0, 1.0])
    n = np.array([np.sin(theta), 0, np.cos(theta)])
    amps = np.kron([1.0, 0.0], [np.cos(theta / 2), np.sin(theta / 2)])
    path = tmp_path / "prod.json"
    save_state(path, amps)
    omega, t1 = 0.9, 3.0
    code, out = run_cli(
        capsys,
        "evolve",
        "--state",
        str(path),
        "--omega-x",
        str(omega),
        "--omega-y",
        str(omega),
        "--omega-z",
        str(omega),
        "--t0",
        "0",
        "--t1",
        str(t1),
        "--steps",
        "4",
    )
    assert code == 0
    rows = rows_from_csv(out)
    pe = ProductEvolution.from_axes(m, n)
    for r in rows:
        _, ra, rb = product_evolution(pe, omega, float(r["t"]))
        got = np.array([float(r["ax"]), float(r["ay"]), float(r["az"])])
        assert np.abs(got - ra.bloch_vector()).max() < 1e-9


def test_region_scan_markers_and_shape(capsys):
    code, out = run_cli(
        capsys,
        "region-scan",
        "--va",
        "0.333333333333",
        "--vb",
        "0.333333333333",
        "--vc",
        "0.333333333333",
        "--grid",
        "21",
    )
    assert code == 0
    rows = rows_from_csv(out)
    markers = {r["label"]: r for r in rows if r["kind"] == "marker"}
    v = 1 / 3
    assert abs(float(markers["A_seed"]["vbar2"]) - v**3) < 1e-6
    assert abs(float(markers["B_min_tangle"]["vbar2"]) + v**3) < 1e-6
    assert abs(float(markers["C_max_tangle"]["vbar2"]) - v**2) < 1e-6
    assert abs(float(markers["C_max_tangle"]["vbar3"]) - v**4) < 1e-6
    for m in markers.values():
        assert m["feasible"] == "1"
        assert abs(float(m["B"])) < 1e-9
    grid_rows = [r for r in rows if r["kind"] == "grid"]
    assert len(grid_rows) == 21 * 21
    assert any(r["feasible"] == "1" for r in grid_rows)


def test_region_scan_marker_b_switches_at_third():
    # below v = 1/3 the minimum-tangle marker is the negative seed,
    # above it the zero-3-tangle point
    rows_lo = table_rows(region_scan_rows(0.1, 0.1, 0.1, 3))
    b_lo = [r for r in rows_lo if r["label"] == "B_min_tangle"][0]
    assert abs(float(b_lo["vbar2"]) + 0.1**3) < 1e-12
    rows_hi = table_rows(region_scan_rows(2 / 3, 2 / 3, 2 / 3, 3))
    b_hi = [r for r in rows_hi if r["label"] == "B_min_tangle"][0]
    assert float(b_hi["vbar2"]) != pytest.approx(-((2 / 3) ** 3))
    assert abs(float(b_hi["I6"])) < 1e-9


def test_region_scan_range_validation(capsys):
    code, _ = run_cli(capsys, "region-scan", "--va", "0", "--vb", "0.5", "--vc", "0.5")
    assert code == 2


def test_region_scan_rejects_small_grid(capsys):
    for grid in ("0", "1", "-3"):
        code, out = run_cli(capsys, "region-scan", "--va", "0.3", "--vb", "0.3", "--vc", "0.3", "--grid", grid)
        assert code == 2
        assert out == ""


def test_verify_rejects_non_positive_samples(capsys):
    for samples in ("0", "-1"):
        code, out = run_cli(capsys, "verify", "--samples", samples)
        assert code == 2
        assert out == ""


def test_non_finite_state_is_validation_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    with open(path, "w") as f:
        json.dump({"n_qubits": 2, "amplitudes": [[float("nan"), 0], [0, 0], [0, 0], [0, 0]]}, f)
    code, _ = run_cli(capsys, "invariants", "--state", str(path))
    assert code == 2


def test_region_scan_feasible_points_are_solvable():
    # scan-wide consistency: the solver closes the sums at every grid point
    # flagged feasible; infeasible points fail the probability or B test by
    # construction of the flag
    from msta.invariants import InvariantSet3Q, expansion_probabilities
    from msta.vectorsum import solve, vector_lengths

    for vs in ((1 / 3, 1 / 3, 1 / 3), (0.25, 0.4, 0.55)):
        rows = table_rows(region_scan_rows(*vs, grid=9))
        n_checked = 0
        for r in rows:
            if r["kind"] != "grid" or not r["feasible"]:
                continue
            inv = InvariantSet3Q(*vs, float(r["vbar2"]), float(r["vbar3"]))
            sols = solve(vector_lengths(expansion_probabilities(inv)))
            assert sols, f"no solution at feasible point {r}"
            n_checked += 1
        assert n_checked > 3


def test_verify_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "--seed", "7", "--samples", "25", "--format", "json")
    code2, out2 = run_cli(capsys, "verify", "--seed", "7", "--samples", "25", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    for row in doc["rows"]:
        assert row["failures"] == 0


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "bell.csv"
    code, _ = run_cli(capsys, "bell", "--which", "psi-", "--out", str(out_path))
    assert code == 0
    rows = rows_from_csv(out_path.read_text())
    assert {r["term"] for r in rows} == {"II", "XX", "YY", "ZZ"}


def test_csv_is_rfc4180(capsys, w_file):
    code, out = run_cli(capsys, "invariants", "--state", w_file)
    assert code == 0
    # parses cleanly and round-trips through the csv module
    rows = rows_from_csv(out)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["quantity", "value"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert buf.getvalue() == out


@pytest.mark.parametrize("vs", [("0.5", "0.76", "0.76"), ("0.1", "0.9", "0.9")])
def test_region_scan_refuses_impossible_lengths(capsys, vs):
    # no pure state has these Bloch lengths: v_a + v_b + v_c > 1 + 2 v_min
    va, vb, vc = vs
    code = main(["region-scan", "--va", va, "--vb", vb, "--vc", vc, "--grid", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "polygon inequality" in captured.err


def test_output_contract(capsys, w_file, singlet_file, tmp_path):
    """CSV header, JSON command and JSON params (in order) of every
    subcommand."""
    zero = tmp_path / "00.json"
    save_state(zero, np.array([1.0, 0, 0, 0]))
    cases = [
        (["invariants", "--state", w_file], "quantity,value", [("state", w_file)]),
        (
            ["region-scan", "--va", "0.25", "--vb", "0.4", "--vc", "0.55", "--grid", "5"],
            "kind,label,vbar2,vbar3,p_ok,B,B_ok,feasible,I6",
            [("va", 0.25), ("vb", 0.4), ("vc", 0.55), ("grid", 5)],
        ),
        (
            ["evolve", "--state", str(zero), "--omega-x", "1.3", "--beta-b", "0.2", "--t1", "2", "--steps", "3"],
            "t,ax,ay,az,bx,by,bz,entropy,purity",
            [
                ("state", str(zero)),
                ("omega_x", 1.3),
                ("omega_y", 0.0),
                ("omega_z", 0.0),
                ("beta_a", 0.0),
                ("beta_b", 0.2),
                ("t0", 0.0),
                ("t1", 2.0),
                ("steps", 3),
            ],
        ),
        (["chsh", "--state", singlet_file], "quantity,value", [("state", singlet_file)]),
        (["bell", "--which", "phi+"], "term,re,im", [("which", "phi+")]),
        (
            ["verify", "--seed", "3", "--samples", "4"],
            "campaign,samples,passes,failures,max_error",
            [("seed", 3), ("samples", 4)],
        ),
    ]
    for argv, header, params in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == header
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "params", "rows"]
        assert doc["command"] == argv[0]
        assert list(doc["params"].items()) == params


def test_real_state_prints_no_negative_zero(capsys, tmp_path):
    # a real-amplitude state's solver roots sit on the {0, pi} lattice;
    # their zero angles print as 0.0, as those of W and product states do
    amps = np.random.default_rng(2026).standard_normal(8)
    path = tmp_path / "real.json"
    save_state(path, amps / np.linalg.norm(amps))
    code, out = run_cli(capsys, "invariants", "--state", str(path))
    assert code == 0
    angles = [r["value"] for r in rows_from_csv(out) if r["quantity"].startswith("angles")]
    assert "0.0" in angles
    assert "-0.0" not in angles


FORMAT_EDGES = [0.0, -0.0, 1.0, 1e-5, 123456789012.0, 1e12, 1.5e13, 1e16, 1e17, 5e-324, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("x", FORMAT_EDGES)
def test_float_cells_edges(x):
    assert block_rows(cli._cells(np.array([x, -x, 0.5]))) == [repr(float(f"{v:.12g}")) for v in (x, -x, 0.5)]


@given(st.lists(st.floats(), max_size=40))
def test_float_cells_equal_repr_of_12_digits(xs):
    # one column chunk, element for element against the per-value reference
    assert block_rows(cli._cells(np.array(xs, dtype=float))) == [repr(float(f"{x:.12g}")) for x in xs]


def _reference_values(col):
    """A numeric column's printed values, one value at a time: floats at 12
    significant digits, ints as ints."""
    if col.dtype.kind == "f":
        return [_fmt(x) for x in col.tolist()]
    return [int(x) for x in col.tolist()]


# -0.0 next to 0.0, a quiet NaN beside two with other payloads, subnormals
# and the 1e11..1e16 range where the %.12g text takes an exponent
_NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float).tolist()
REPEATED_EDGES = np.array(
    [0.0, -0.0, np.nan, *_NAN_PAYLOADS, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
    + [s * 10.0**k for k in range(11, 17) for s in (1, -1)]
    + [123456789012.0, 1.5e13, 0.5, 1 / 3]
)
REPEATED_COLUMNS = [
    np.repeat(REPEATED_EDGES, 3),
    np.tile(REPEATED_EDGES, 3),
    np.random.default_rng(18).permutation(np.repeat(REPEATED_EDGES, 4)),
    np.tile(REPEATED_EDGES, 4)[::3],  # strided
    np.array([3, -2, 0, 3, 2**62, -(2**63), 2**63 - 1, 0, -2]),
    np.array([1, 0, 0, 1, -128, 127, 0, 1], dtype=np.int8),
    (np.arange(12) % 3 == 0).view(np.int8),
]


@pytest.mark.parametrize("col", REPEATED_COLUMNS)
def test_repeated_number_cells_equal_per_value_reference(col):
    # each distinct value is formatted once; every cell must still equal
    # its own value's formatting, -0.0 and 0.0 apart
    values = _reference_values(col)
    assert block_rows(cli._cells(col)) == list(map(repr, values))
    assert block_rows(cli._cells(col, json.dumps)) == list(map(json.dumps, values))


@given(
    st.lists(st.floats(), min_size=1, max_size=5).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=60)),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=60)
    ),
)
def test_cells_with_duplicates_equal_per_value_reference(xs, ks):
    # drawn from a small pool, so most values repeat
    for col in (np.array(xs, dtype=float), np.array(ks, dtype=np.int64)):
        assert block_rows(cli._cells(col)) == list(map(repr, _reference_values(col)))


@pytest.mark.parametrize(
    "col",
    [
        np.random.default_rng(21).standard_normal(50),  # all distinct: formatted as it is
        np.repeat(np.random.default_rng(21).standard_normal(10), 5),
        np.arange(-20, 30, dtype=np.int64),
        np.arange(50, dtype=np.int64) % 7,
        np.array([0.0, -0.0, 5e-324, 1e16, np.nan, np.inf]),
    ],
)
def test_distinct_and_repeated_cells_equal_number_cells(col):
    assert block_rows(cli._cells(col)) == list(map(repr, _reference_values(col)))


def test_emit_across_chunks_equals_per_row_reference(capsys):
    # each chunk holds a different set of distinct values, some shared
    n = 2 * cli._CHUNK_ROWS + 100
    chunk = np.arange(n) // cli._CHUNK_ROWS
    pools = [np.array([0.1, -0.0, 1e16]), np.array([0.0, 1e16, np.nan, -0.0]), np.array([-np.inf, 0.1])]
    x = np.array([pools[c][i % len(pools[c])] for i, c in enumerate(chunk)])
    k = (chunk * 3 + np.arange(n) % 2).astype(np.int64) - 2
    flag = (np.arange(n) % 5 == chunk).view(np.int8)
    label = [("", "a,b", "%s")[c] for c in chunk]
    table = cli.Table(label=label, x=x, k=k, flag=flag)
    rows = [
        {"label": s, "x": _fmt(a), "k": int(b), "flag": int(f)}
        for s, a, b, f in zip(label, x.tolist(), k.tolist(), flag.tolist())
    ]
    cli.emit(argparse.Namespace(format="csv", out=None), table)
    assert capsys.readouterr().out == _reference_csv(rows)
    cli.emit(argparse.Namespace(command="t", format="json", out=None), table)
    assert capsys.readouterr().out == json.dumps({"command": "t", "params": {}, "rows": rows}) + "\n"


def test_json_rows_equal_cells_read_back(capsys):
    # every float edge, ints, and strings that CSV quotes or JSON escapes,
    # against json.dumps of the CSV cells read back as Python values
    xs = np.array(FORMAT_EDGES + [-x for x in FORMAT_EDGES])
    labels = ["", "a,b", 'say "hi"', "100%", "%s", "line\nbreak", "\u00e9\u2014"]
    labels = (labels * len(xs))[: len(xs)]
    table = cli.Table(label=labels, x=xs, k=np.arange(len(xs)) - 3)
    args = argparse.Namespace(command="t", format="json", out=None, va=0.5)
    cli.emit(args, table)
    rows = [{"label": s, "x": float(c), "k": int(k) - 3} for s, c, k in zip(labels, block_rows(cli._cells(xs)), range(len(xs)))]
    assert capsys.readouterr().out == json.dumps({"command": "t", "params": {"va": 0.5}, "rows": rows}) + "\n"
    cli.emit(args, cli.Table(x=np.empty(0)))
    assert capsys.readouterr().out == json.dumps({"command": "t", "params": {"va": 0.5}, "rows": []}) + "\n"


def _fmt(x):
    return float(f"{x:.12g}")


def _reference_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _reference_flags(inv):
    """p_ok, B, B_ok and feasible of an array invariant set, from the
    probabilities and B directly rather than through `invariants.feasibility`."""
    p_ok = invariants.expansion_probabilities(inv).min(axis=0) >= -tolerances.FEASIBILITY_SLACK
    b_vals = invariants.B_function(inv)
    b_ok = b_vals <= tolerances.FEASIBILITY_SLACK
    return p_ok, b_vals, b_ok, p_ok & b_ok


def _reference_scan_rows(va, vb, vc, grid):
    """Region-scan rows as dicts, one grid row at a time: the row path the
    column table replaced, kept as the output reference."""

    def rows(kind, labels, v2, v3):
        inv = invariants.InvariantSet3Q(va, vb, vc, v2, v3)
        p_ok, b_vals, b_ok, feasible = _reference_flags(inv)
        i6 = invariants.sudbery(inv).i6.tolist()
        cols = zip(labels, v2.tolist(), v3.tolist(), *(a.tolist() for a in (p_ok, b_vals, b_ok, feasible)), i6)
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
            for label, x2, x3, p, b, bo, f, i in cols
        ]

    labels, m2, m3 = zip(*cli._markers(va, vb, vc))
    m2, m3 = np.array(m2), np.array(m3)
    coarse = np.linspace(-1.0, 1.0, 41)
    c2, c3 = np.repeat(coarse, coarse.size), np.tile(coarse, coarse.size)
    feasible = _reference_flags(invariants.InvariantSet3Q(va, vb, vc, c2, c3))[-1]
    pts2 = np.concatenate([m2, c2[feasible]])
    pts3 = np.concatenate([m3, c3[feasible]])
    lo2, hi2, lo3, hi3 = pts2.min(), pts2.max(), pts3.min(), pts3.max()
    pad2 = 0.1 * max(hi2 - lo2, tolerances.SCAN_PAD_FLOOR)
    pad3 = 0.1 * max(hi3 - lo3, tolerances.SCAN_PAD_FLOOR)
    g3 = np.linspace(lo3 - pad3, hi3 + pad3, grid)
    out = []
    for v2 in np.linspace(lo2 - pad2, hi2 + pad2, grid):
        out += rows("grid", [""] * grid, np.full(grid, v2), g3)
    return out + rows("marker", labels, m2, m3)


@pytest.mark.parametrize(
    "vs, grid",
    [
        (("0.333", "0.333", "0.333"), 21),
        (("0.5", "0.6", "0.7"), 21),
        (("0.2", "0.3", "0.6"), 21),
        (("0.1", "0.1", "0.1"), 21),  # the negative-seed marker
        (("0.5", "0.6", "0.7"), 91),  # 8284 rows: more than one formatting chunk
        (("0.333", "0.333", "0.333"), 201),  # the README scan: 40 404 rows, five chunks
    ],
)
def test_region_scan_output_equals_row_path(capsys, vs, grid):
    va, vb, vc = map(float, vs)
    rows = _reference_scan_rows(va, vb, vc, grid)
    params = {"va": va, "vb": vb, "vc": vc, "grid": grid}
    doc = json.dumps({"command": "region-scan", "params": params, "rows": rows}) + "\n"
    argv = ["region-scan", "--va", vs[0], "--vb", vs[1], "--vc", vs[2], "--grid", str(grid)]
    assert run_cli(capsys, *argv) == (0, _reference_csv(rows))
    assert run_cli(capsys, *argv, "--format", "json") == (0, doc)


def test_region_scan_rows_write_through(tmp_path):
    table = region_scan_rows(1 / 3, 1 / 3, 1 / 3, 5)
    seed = next(r for r in table if r["label"] == "A_seed")
    before = seed["I6"]
    seed["I6"] += 1e-6
    out = tmp_path / "scan.csv"
    cli.emit(argparse.Namespace(format="csv", out=str(out)), table)
    written = next(line for line in out.read_text().splitlines() if ",A_seed," in line)
    assert float(written.split(",")[-1]) == _fmt(before + 1e-6)
    assert _fmt(before + 1e-6) != _fmt(before)


# -- table-driven number cells ----------------------------------------------


def _percent_cells(xs):
    return [repr(float(f"{x:.12g}")) for x in np.asarray(xs, dtype=float).tolist()]


def _cells_and_declined(monkeypatch, xs):
    """`_cells` of a float column, and the values its table path left to
    the per-value %-path."""
    declined = []
    percent = cli._percent_cell
    monkeypatch.setattr(cli, "_percent_cell", lambda x: declined.append(float(x)) or percent(x))
    return block_rows(cli._cells(np.asarray(xs, dtype=float))), declined


def test_fixed_cells_cover_every_layout(monkeypatch):
    # one value per (E = -11..10, significant digits 1..12, sign), each a
    # 12-digit decimal, so that none lies near a half
    xs = [
        sign * float(("123456789123"[: sig - 1] + "7").ljust(12, "0") + f"e{e - 11}")
        for e in range(-11, 11)
        for sig in range(1, 13)
        for sign in (1.0, -1.0)
    ]
    cells, declined = _cells_and_declined(monkeypatch, xs)
    assert cells == _percent_cells(xs)
    assert len(set(cells)) == 528
    assert declined == []


@pytest.mark.parametrize("k", range(-12, 12))
def test_fixed_cells_carry_into_the_exponent(monkeypatch, k):
    # 9.9999999999995 10^k rounds up to 10^(k + 1) at 12 digits; its
    # neighbours and 9.99999999999949 10^k round down
    x = float(f"9.9999999999995e{k}")
    xs = [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), float(f"9.99999999999949e{k}"), 10.0**k]
    xs += [-v for v in xs]
    cells, declined = _cells_and_declined(monkeypatch, xs)
    assert cells == _percent_cells(xs)
    if -11 <= k <= 9:
        assert declined == []
    else:  # below 1e-11, or at 1e11 after the carry: no layout
        assert declined


@pytest.mark.parametrize("e", [-11, -7, -5, -4, -1, 0, 3, 10])
def test_fixed_cells_decline_values_near_a_half(monkeypatch, e):
    # mantissas just above 1e11, where a double is at most 2.2e-5 apart in
    # units of the 12th digit: within 5e-5 of a half a value is declined,
    # at 3e-4 and beyond it is not
    near = [f"100000000012.{f}e{e - 11}" for f in ("5", "50005", "49995")]
    clear = [f"100000000012.{f}e{e - 11}" for f in ("5003", "4997", "501", "499", "6", "1", "9")]
    xs = [sign * float(s) for s in near + clear for sign in (1.0, -1.0)]
    cells, declined = _cells_and_declined(monkeypatch, xs)
    assert cells == _percent_cells(xs)
    assert sorted(declined) == sorted(xs[: 2 * len(near)])


def test_fixed_cells_at_the_domain_edges():
    xs = []
    for edge in (1e-11, 1e11):
        down = up = edge
        for _ in range(4):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            xs += [down, up]
        xs.append(edge)
    xs += [-x for x in xs]
    assert block_rows(cli._cells(np.array(xs))) == _percent_cells(xs)


def _seeded_column(rng, n):
    """n floats: random bit patterns, signed log-uniform magnitudes over
    1e-13..1e13, and values within 2e-4 of a 12-digit half."""
    k = n // 3
    bits = rng.integers(0, 2**64, k, dtype=np.uint64).view(float)
    spread = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-13.0, 13.0, k)
    m, e = rng.integers(10**11, 10**12, n - 2 * k), rng.integers(-11, 11, n - 2 * k)
    halves = (m + 0.5 + rng.uniform(-2e-4, 2e-4, m.size)) * 10.0 ** (e - 11.0)
    return np.concatenate([bits, spread, halves])


@settings(deadline=None)
@given(st.lists(st.floats(), max_size=20_000), st.integers(0, 20_000), st.integers(0, 2**32 - 1))
def test_long_float_columns_equal_repr_of_12_digits(xs, n, seed):
    # hypothesis draws short lists, so a seeded column fills the chunk up to
    # n values, far past one formatting chunk where n is large
    rng = np.random.default_rng(seed)
    col = rng.permutation(np.concatenate([np.array(xs, dtype=float), _seeded_column(rng, max(0, n - len(xs)))]))
    assert block_rows(cli._cells(col)) == _percent_cells(col)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_byte_cells_equal_per_value_reference(dtype):
    col = np.random.default_rng(8).permutation(np.arange(256, dtype=np.uint8).repeat(3)).view(dtype)
    for part in (col, col[::5], col[:0]):
        assert block_rows(cli._cells(part)) == list(map(str, part.tolist()))
        assert block_rows(cli._cells(part, json.dumps)) == list(map(json.dumps, part.tolist()))


def test_bool_column_is_written_as_0_and_1(capsys):
    table = cli.Table(flag=np.array([True, False]), x=np.array([0.5, -1.0]))
    cli.emit(argparse.Namespace(format="csv", out=None), table)
    assert capsys.readouterr().out == "flag,x\n1,0.5\n0,-1.0\n"
    cli.emit(argparse.Namespace(command="t", format="json", out=None), table)
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [{"flag": 1, "x": 0.5}, {"flag": 0, "x": -1.0}]


def test_region_scan_emit_equals_csv_writer_of_per_value_cells(capsys):
    # the README triple at grid 91: 8284 rows, across a chunk boundary
    table = region_scan_rows(0.333, 0.333, 0.333, 91)
    assert len(table) == 8284 > cli._CHUNK_ROWS
    cli.emit(argparse.Namespace(format="csv", out=None), table)
    columns = [col if isinstance(col, list) else col.tolist() for col in table.columns.values()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(zip(*([repr(_fmt(x)) if isinstance(x, float) else x for x in col] for col in columns)))
    assert capsys.readouterr().out == buf.getvalue()


# -- repeated columns ---------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_rejects_columns_of_different_lengths(capsys, monkeypatch, fmt):
    # a short column once wrote a CSV short of rows and half a JSON document
    with pytest.raises(ValueError, match="equal length"):
        cli.Table(a=np.arange(3), b=np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="one or more"):
        cli.Table()

    def short_column(args):
        return cli.Table(term=["XX", "YY", "ZZ"], re=np.array([0.5, 1.5])), cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_bell", short_column)
    code = main(["bell", "--which", "phi+", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert "equal length" in err


def test_repeated_column_is_read_only():
    table = region_scan_rows(1 / 3, 1 / 3, 1 / 3, 5)
    before = {name: col.tolist() for name, col in table.columns.items()}
    seed = next(r for r in table if r["label"] == "A_seed")
    grid_row = next(iter(table))
    for row, name, value in ((seed, "vbar2", 0.0), (seed, "label", "x"), (grid_row, "kind", "marker")):
        with pytest.raises(TypeError):
            row[name] = value
    assert {name: col.tolist() for name, col in table.columns.items()} == before


# -0.0 apart from 0.0, NaN, infinities, and strings that CSV quotes or JSON escapes
_REPEATED_FLOATS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, 1e16, -2.5e-7])
_REPEATED_STRINGS = ["", "a,b", 'say "hi"', "100%", "%s", "line\nbreak", "é—", "grid"]


def test_repeated_cells_equal_the_per_row_expansion(capsys):
    rng = np.random.default_rng(30)
    n = 2 * cli._CHUNK_ROWS + 100  # codes cross two chunk boundaries
    x = cli.Repeated(_REPEATED_FLOATS, rng.integers(0, len(_REPEATED_FLOATS), n))
    s = cli.Repeated(_REPEATED_STRINGS, rng.integers(0, len(_REPEATED_STRINGS), n))
    assert len(x) == len(s) == n
    xs, ss = x.tolist(), s.tolist()
    assert all(type(v) is float for v in xs) and ss == [_REPEATED_STRINGS[c] for c in s.codes]
    # the values' block, formatted once, taken row by row by the codes
    assert block_rows(cli._cells(x.values).take(x.codes, 0)) == [repr(_fmt(v)) for v in xs]
    assert block_rows(cli._cells(x.values, json.dumps).take(x.codes, 0)) == [json.dumps(_fmt(v)) for v in xs]
    assert block_rows(cli._cells(s.values).take(s.codes, 0)) == list(map(cli._csv_field, ss))
    assert block_rows(cli._cells(s.values, json.dumps).take(s.codes, 0)) == list(map(json.dumps, ss))
    table = cli.Table(label=s, x=x, k=np.arange(n))
    rows = [{"label": a, "x": _fmt(b), "k": k} for k, (a, b) in enumerate(zip(ss, xs))]
    cli.emit(argparse.Namespace(format="csv", out=None), table)
    assert capsys.readouterr().out == _reference_csv(rows)
    cli.emit(argparse.Namespace(command="t", format="json", out=None), table)
    assert capsys.readouterr().out == json.dumps({"command": "t", "params": {}, "rows": rows}) + "\n"


@pytest.mark.parametrize("code", [-1, 3])
def test_repeated_codes_outside_the_values_raise(code):
    # numpy indexing would wrap -1 to the last value and write it silently
    codes = np.array([0, 1, code, 2])
    for values in (np.array([0.5, 1.5, 2.5]), ["a", "b", "c"]):
        with pytest.raises(ValueError, match="codes"):
            cli.Table(x=cli.Repeated(values, codes), k=np.arange(4))


# strings that CSV quotes or JSON escapes, control characters, and 2-, 3-
# and 4-byte UTF-8: none may lose or gain a byte to the 0xFF pad
_PAD_STRINGS = ["", "a,b", 'say "hi"', "line\nbreak", "\x00", "\x7f", "\u00e9\u2014", "\U0001f600"]


def test_pad_byte_never_reaches_the_output(capsys, tmp_path):
    n = 2 * len(_PAD_STRINGS)
    text = _PAD_STRINGS * 2
    repeated = cli.Repeated(_PAD_STRINGS[::-1], np.arange(n) * 3 % len(_PAD_STRINGS))
    k = np.resize(np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64), n)
    x = np.resize(np.array([np.nan, np.inf, -np.inf, -0.0, 0.5]), n)
    table = cli.Table(text=text, repeated=repeated, k=k, x=x)
    rows = [list(r) for r in zip(text, repeated.tolist(), k.tolist(), map(_fmt, x.tolist()))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(rows)
    doc = json.dumps({"command": "t", "params": {}, "rows": [dict(zip(table.columns, r)) for r in rows]})
    for fmt, want in (("csv", buf.getvalue()), ("json", doc)):
        cli.emit(argparse.Namespace(command="t", format=fmt, out=None), table)
        assert capsys.readouterr().out == want + "\n" * (fmt == "json")
        cli.emit(argparse.Namespace(command="t", format=fmt, out=str(tmp_path / fmt)), table)
        assert (tmp_path / fmt).read_bytes() == want.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_region_scan_emit_never_sorts(capsys, monkeypatch, fmt):
    # repetition is stated by region_scan_rows, not found by np.unique
    table = region_scan_rows(0.333, 0.333, 0.333, 91)
    cli.emit(argparse.Namespace(command="region-scan", format=fmt, out=None), table)
    want = capsys.readouterr().out

    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    cli.emit(argparse.Namespace(command="region-scan", format=fmt, out=None), table)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_repeated_values_are_formatted_once_per_emit(tmp_path, monkeypatch, fmt):
    # the README scan spans five chunks: vbar2's and vbar3's values reach
    # _fixed_cells once per emit, B and I6 once per chunk
    table = region_scan_rows(0.333, 0.333, 0.333, 201)
    chunks = -(-len(table) // cli._CHUNK_ROWS)
    assert chunks == 5
    calls = []
    fixed = cli._fixed_cells
    monkeypatch.setattr(cli, "_fixed_cells", lambda col, *args: calls.append(col) or fixed(col, *args))
    cli.emit(argparse.Namespace(command="region-scan", format=fmt, out=str(tmp_path / "scan")), table)
    for name in ("vbar2", "vbar3"):
        values = table.columns[name].values
        assert sum(len(col) == len(values) and np.array_equal(col, values) for col in calls) == 1, name
    assert len(calls) == 2 + 2 * chunks


# -- region-scan against its references -----------------------------------


@pytest.mark.parametrize("vs", [(0.333, 0.333, 0.333), (0.45, 0.7, 0.72)])  # three markers, then two
@pytest.mark.parametrize("grid", [2, 3, 201])
def test_region_scan_values_equal_the_float_path_bit_for_bit(vs, grid):
    # whatever shapes the scan evaluates, each row holds the bits that the
    # existence rule and I6 give its (vbar2, vbar3) as two Python floats
    table = region_scan_rows(*vs, grid)
    n = grid * grid
    labels = table.columns["label"].tolist()[n:]
    assert labels == ["A_seed", "B_min_tangle", "C_max_tangle"][: len(labels)]
    assert len(labels) == (3 if vs[0] == 0.333 else 2)
    picks = range(n) if n < 100 else np.random.default_rng(grid).choice(n, 300, replace=False).tolist()
    rows = table_rows(table)
    for i in [*picks, *range(n, len(table))]:
        row = rows[i]
        inv = invariants.InvariantSet3Q(*vs, float(row["vbar2"]), float(row["vbar3"]))
        report = invariants.feasibility(inv)
        assert type(report.B) is float
        want = (int(report.p_ok), report.B, int(report.B_ok), int(report.feasible), invariants.sudbery(inv).i6)
        got = (int(row["p_ok"]), row["B"], int(row["B_ok"]), int(row["feasible"]), row["I6"])
        assert np.array(got).tobytes() == np.array(want).tobytes(), (i, got, want)


@pytest.mark.parametrize("vs, grid", [(("0.333", "0.333", "0.333"), 201), (("0.45", "0.7", "0.72"), 57)])
def test_region_scan_files_equal_the_reference_writers(tmp_path, vs, grid):
    # CI's byte checks of --out: the CSV against the stdlib csv writer fed
    # repr(float('%.12g' % x)) per float, the JSON against json.dump of rows
    # built through .tolist(), each float as float('%.12g' % x)
    argv = ["region-scan", "--va", vs[0], "--vb", vs[1], "--vc", vs[2], "--grid", str(grid)]
    assert main([*argv, "--out", str(tmp_path / "scan.csv")]) == 0
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "scan.json")]) == 0
    va, vb, vc = map(float, vs)
    t = region_scan_rows(va, vb, vc, grid)
    cols = [c if isinstance(c, list) else c.tolist() for c in t.columns.values()]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(t.columns)
    w.writerows(zip(*([repr(float("%.12g" % x)) if isinstance(x, float) else x for x in c] for c in cols)))
    assert (tmp_path / "scan.csv").read_bytes() == buf.getvalue().encode()
    rows = [dict(zip(t.columns, r)) for r in zip(*([float("%.12g" % x) if isinstance(x, float) else x for x in c] for c in cols))]
    doc = {"command": "region-scan", "params": {"va": va, "vb": vb, "vc": vc, "grid": grid}, "rows": rows}
    assert (tmp_path / "scan.json").read_bytes() == json.dumps(doc).encode()


def test_vanishing_scan_has_one_feasible_seed(capsys):
    # CI's vanish.csv: v_a v_b = 1e-12 falls below VANISHING_V, the
    # existence rule's vanishing-vector branch
    code, out = run_cli(capsys, "region-scan", "--va", "1e-6", "--vb", "1e-6", "--vc", "0.5", "--grid", "41")
    assert code == 0
    seed = [r for r in rows_from_csv(out) if r["label"] == "A_seed"]
    assert len(seed) == 1 and seed[0]["feasible"] == "1", seed


@pytest.mark.parametrize("vs, grid", [(("0.333", "0.333", "0.333"), 201), (("1e-6", "1e-6", "0.5"), 41)])
def test_region_scan_feasible_is_p_ok_and_b_ok(capsys, vs, grid):
    # CI's check on the README scan and the vanishing scan: the flags of
    # one rule, invariants.feasibility, on every row
    argv = ["region-scan", "--va", vs[0], "--vb", vs[1], "--vc", vs[2], "--grid", str(grid)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    bad = [r for r in rows_from_csv(out) if r["feasible"] != str(int(r["p_ok"] == r["B_ok"] == "1"))]
    assert not bad, bad[:3]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_region_scan_stdout_equals_the_out_file(tmp_path, fmt):
    # the README scan in its own process: stdout carries the bytes of
    # --out, and a JSON document on stdout ends with a newline
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "msta.cli", "region-scan", "--va", "0.333", "--vb", "0.333", "--vc", "0.333"]
    argv += ["--grid", "201", "--format", fmt]
    out = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    subprocess.run([*argv, "--out", str(tmp_path / "scan")], check=True, env=env)
    assert out == (tmp_path / "scan").read_bytes() + b"\n" * (fmt == "json")


def ci_state(tmp_path, name):
    """CI's state files, written as its inline commands write them."""
    if name == "00":
        amps = [[1, 0], [0, 0], [0, 0], [0, 0]]
    elif name == "real3":
        a = [0.2, -0.35, 0.3, 0.45, -0.25, 0.4, 0.15, -0.3]
        s = sum(x * x for x in a) ** 0.5
        amps = [[x / s, 0] for x in a]
    else:
        a = {
            "generic3": [0.2 + 0.1j, 0.3, -0.1 + 0.25j, 0.4, 0.15 - 0.2j, 0.35, 0.3 + 0.1j, -0.25],
            "generic2": [0.3 + 0.2j, -0.5 + 0.1j, 0.4, 0.2 - 0.6j],
            "near00": [1, 1e-7 * (0.3 + 0.4j), 1e-7 * (-0.5 + 0.2j), 1e-7 * (0.6 - 0.1j)],
        }[name]
        s = sum(abs(z) ** 2 for z in a) ** 0.5
        amps = [[complex(z).real / s, complex(z).imag / s] for z in a]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"n_qubits": len(amps).bit_length() - 1, "amplitudes": amps}))
    return str(path)


def csv_dict(out):
    """CI's reading of a two-column table: dict(csv.reader(...))."""
    return dict(csv.reader(io.StringIO(out)))


def test_generic3_has_the_pinned_conjugate_pair(capsys, tmp_path):
    # CI's generic3.json: feasible with exactly two solutions, the second the
    # negation of the first (modulo 2 pi, within 1e-9), both equal to the
    # pinned angles within 1e-9
    code, out = run_cli(capsys, "invariants", "--state", ci_state(tmp_path, "generic3"))
    assert code == 0
    rows = csv_dict(out)
    assert float(rows["feasible"]) == 1.0, rows["feasible"]
    sols = sorted({k.split(".")[0] for k in rows if k.startswith("angles[")})
    assert sols == ["angles[0]", "angles[1]"], sols
    names = [k.split(".", 1)[1] for k in rows if k.startswith("angles[0].")]
    assert len(names) == 6, names

    def off(x):
        return abs((x + math.pi) % (2 * math.pi) - math.pi)

    bad = [n for n in names if not off(float(rows["angles[0]." + n]) + float(rows["angles[1]." + n])) <= 1e-9]
    assert not bad, bad
    want = (-3.119483966193844, -1.8775459770761032, -3.135070117637298, -1.8931321285195573, -3.1339233219085747, -1.891985332790834)
    pinned = ("phi_ab", "phi_ab_prime", "phi_ac", "phi_ac_prime", "phi_bc", "phi_bc_prime")
    bad = [
        (i, n, rows["angles[%d].%s" % (i, n)], w)
        for i, sign in ((0, 1.0), (1, -1.0))
        for n, w in zip(pinned, want)
        if not off(float(rows["angles[%d].%s" % (i, n)]) - sign * w) <= 1e-9
    ]
    assert not bad, bad


def test_generic2_rows_are_v_concurrence_and_entropy(capsys, tmp_path):
    # CI's generic2.json: rows v, concurrence and entropy, v^2 + C^2 within
    # 1e-10 of 1 and the entropy in [0, 1]
    code, out = run_cli(capsys, "invariants", "--state", ci_state(tmp_path, "generic2"))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    names = [r[0] for r in rows]
    assert names == ["v", "concurrence", "entropy"], names
    v, c, s = (float(r[1]) for r in rows)
    assert abs(v * v + c * c - 1.0) <= 1e-10, v * v + c * c - 1.0
    assert 0.0 <= s <= 1.0, s


def test_near00_concurrence_is_twice_the_amplitude_determinant(capsys, tmp_path):
    # CI's near00.json, 1e-7 from |00>: the concurrence within 1e-9 relative
    # of 2 |psi00 psi11 - psi01 psi10| from the file's amplitudes
    path = ci_state(tmp_path, "near00")
    code, out = run_cli(capsys, "invariants", "--state", path)
    assert code == 0
    p = [complex(re, im) for re, im in json.loads(Path(path).read_text())["amplitudes"]]
    want = 2 * abs(p[0] * p[3] - p[1] * p[2])
    got = float(dict(list(csv.reader(io.StringIO(out)))[1:])["concurrence"])
    assert abs(got - want) <= 1e-9 * want, (got, want)


def test_verify_at_the_ci_seed_exits_0(capsys):
    # CI's msta verify --seed 42 --samples 50
    code, _ = run_cli(capsys, "verify", "--seed", "42", "--samples", "50")
    assert code == 0


@pytest.mark.parametrize(
    "text, message",
    [
        # an integer beyond the float range was an OverflowError traceback, exit 1
        ('{"n_qubits": 1, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400), "int too large to convert to float"),
        # read as 2 qubits
        ('{"n_qubits": 2.7, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "n_qubits must be an integer in 1..12, got 2.7"),
        # read as the amplitudes 1 and 0
        ('{"n_qubits": 1, "amplitudes": [[true, 0], [false, 0]]}', "each amplitude must be a pair [re, im] of numbers"),
        # failed with the bare "negative shift count"
        ('{"n_qubits": -1, "amplitudes": [[1, 0]]}', "n_qubits must be an integer in 1..12, got -1"),
    ],
    ids=["integer_beyond_float_range", "fractional_n_qubits", "bool_amplitudes", "negative_n_qubits"],
)
def test_malformed_state_file_exits_2_with_one_error_line(capsys, tmp_path, text, message):
    path = tmp_path / "state.json"
    path.write_text(text)
    for command in ("invariants", "chsh", "evolve"):
        code = main([command, "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: malformed state file {path}: {message}\n"


def test_real3_prints_one_lattice_solution(capsys, tmp_path):
    # CI's real3.json: feasible with one solution, every angle printed as
    # 0.0 or 3.14159265359
    code, out = run_cli(capsys, "invariants", "--state", ci_state(tmp_path, "real3"))
    assert code == 0
    rows = csv_dict(out)
    assert float(rows["feasible"]) == 1.0 and "angles[0].phi_ab" in rows, sorted(rows)
    sols = {k.split(".")[0] for k in rows if k.startswith("angles[")}
    assert sols == {"angles[0]"}, sols
    bad = {k: v for k, v in rows.items() if k.startswith("angles[") and v not in ("0.0", "3.14159265359")}
    assert not bad, bad


@pytest.mark.parametrize("name", ["generic3", "real3"])
def test_invariants_output_does_not_depend_on_the_hash_seed(capsys, tmp_path, name):
    # CI repeats both 3-qubit runs under PYTHONHASHSEED 0 and 1 and compares
    # the bytes; here against the in-process run
    path = ci_state(tmp_path, name)
    code, out = run_cli(capsys, "invariants", "--state", path)
    assert code == 0
    src = str(Path(cli.__file__).parents[1])
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "msta.cli", "invariants", "--state", path]
        assert subprocess.run(argv, capture_output=True, check=True, env=env).stdout == out.encode()


def test_invariants_on_a_state_file_makes_no_dense_square(capsys, tmp_path, dense_squares):
    # the state built from the file's amplitudes is certified pure, so the
    # purity gates of invariants_2q and invariants_3q read its bound
    path = tmp_path / "generic2.json"
    save_state(path, oracle.random_statevector(2, np.random.default_rng(5)))
    for state in (ci_state(tmp_path, "generic3"), ci_state(tmp_path, "real3"), str(path)):
        code, _ = run_cli(capsys, "invariants", "--state", state)
        assert code == 0
    assert dense_squares == []


# CI's two 2000-step runs: 00.json, a product start where the entropy's
# 1 - v cancels to rounding, and generic2.json with all five couplings
CI_EVOLVE_RUNS = {
    "00": ["--omega-x", "1.3", "--omega-y", "0.5"],
    "generic2": ["--omega-x", "1.3", "--omega-y", "0.5", "--omega-z", "-0.7", "--beta-a", "0.4", "--beta-b", "-0.9"],
}


@pytest.mark.parametrize("name", sorted(CI_EVOLVE_RUNS))
def test_evolve_2000_steps_stay_pure(capsys, tmp_path, name):
    # exactly 2000 rows, every purity within 1e-12 of 1 and every entropy
    # in [0, 1]
    code, out = run_cli(capsys, "evolve", "--state", ci_state(tmp_path, name), *CI_EVOLVE_RUNS[name], "--steps", "2000")
    assert code == 0
    rows = rows_from_csv(out)
    assert len(rows) == 2000, len(rows)
    bad = [r for r in rows if not (abs(float(r["purity"]) - 1.0) <= 1e-12 and 0.0 <= float(r["entropy"]) <= 1.0)]
    assert not bad, bad[:3]


def test_evolve_json_params(capsys, tmp_path, monkeypatch):
    # CI's --steps 3 --format json on 00.json, named as CI names it: the
    # command, then every param in order
    monkeypatch.chdir(tmp_path)
    ci_state(tmp_path, "00")
    code, out = run_cli(capsys, "evolve", "--state", "00.json", "--omega-x", "1.3", "--steps", "3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["command"] == "evolve", d
    want = [
        ("state", "00.json"),
        ("omega_x", 1.3),
        ("omega_y", 0.0),
        ("omega_z", 0.0),
        ("beta_a", 0.0),
        ("beta_b", 0.0),
        ("t0", 0.0),
        ("t1", 6.283185307179586),
        ("steps", 3),
    ]
    assert list(d["params"].items()) == want, d["params"]
