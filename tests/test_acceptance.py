"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

from msta import oracle, states
from msta.cli import region_scan_rows, verify_algebra_once
from msta.dynamics import (
    ExchangeHamiltonian,
    ProductEvolution,
    eigensystem_2q,
    evolve,
    hamiltonian,
    min_bloch_length,
    product_evolution,
)
from msta.entanglement import chsh_maximize, entanglement_entropy, partial_trace
from msta.invariants import (
    InvariantSet3Q,
    expansion_probabilities,
    invariants_3q,
    negative_seed_probabilities,
    sudbery,
    three_tangle_oracle,
    zero_tangle_point,
)
from msta.states import (
    DensityOperator,
    ProductState,
    bell,
    bloch_slice,
    product_state,
    projector_sphere,
    pure_state_from_amplitudes,
    sphere_state,
    w_state,
)
from msta.vectorsum import reconstruct, residual, solve, special_state, vector_lengths

from conftest import negated, table_rows


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_oracle_isomorphism():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    pairs_per_n = 1000
    for n in (1, 2, 3, 4):
        for _ in range(pairs_per_n):
            worst = max(worst, verify_algebra_once(n, rng))
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-10 and elapsed < 60.0,
        f"{pairs_per_n} pairs per N in 1..4, max error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_chsh_tsirelson():
    rng = np.random.default_rng(1002)
    t0 = time.time()
    target = 2.0 * np.sqrt(2.0)
    worst_bell = 0.0
    for which in ("psi-", "phi+", "phi-", "psi+"):
        val, _ = chsh_maximize(bell(which))
        worst_bell = max(worst_bell, abs(val - target))
    worst_product = 0.0
    for _ in range(100):
        axes = rng.standard_normal((2, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=2))
        rho = product_state(ProductState(tuple(map(tuple, axes)), signs))
        val, _ = chsh_maximize(rho)
        worst_product = max(worst_product, val)
    elapsed = time.time() - t0
    report(
        2,
        worst_bell < 1e-6 and worst_product <= 2.0 + 1e-6 and elapsed < 30.0,
        f"Bell gap {worst_bell:.2e}, product max {worst_product:.9f}, {elapsed:.1f}s",
    )


def test_criterion_3_entropy():
    rng = np.random.default_rng(1003)
    c = ProductState.computational
    sph = projector_sphere(c("00"), c("11"))
    worst = 0.0
    for _ in range(500):
        theta = float(rng.uniform(0.0, np.pi))
        phi = float(rng.uniform(-np.pi, np.pi))
        rho = sphere_state(sph, theta, phi)
        closed = entanglement_entropy(rho)
        measured = oracle.oracle_entropy(oracle.to_matrix(partial_trace(rho, [0]).mv))
        worst = max(worst, abs(closed - measured))
    s_max = entanglement_entropy(sphere_state(sph, np.pi / 2, 0.37))
    report(
        3,
        worst < 1e-9 and abs(s_max - 1.0) < 1e-12,
        f"closed form vs oracle max err {worst:.3e}, S(pi/2) - 1 = {s_max - 1:.2e}",
    )


def test_criterion_4_dynamics():
    rng = np.random.default_rng(1004)
    worst_evolve = 0.0
    for _ in range(200):
        h = ExchangeHamiltonian(*(float(x) for x in rng.uniform(-1.5, 1.5, size=5)))
        hmv = hamiltonian(h)
        psi = oracle.random_statevector(2, rng)
        rho0 = pure_state_from_amplitudes(psi)
        t = float(rng.uniform(-3.0, 3.0))
        got = oracle.to_matrix(evolve(rho0, hmv, t).mv)
        u = oracle.expm_minus_i(oracle.to_matrix(hmv), t)
        want = u @ oracle.statevector_density(psi) @ u.conj().T
        worst_evolve = max(worst_evolve, np.abs(got - want).max())

    worst_energy = 0.0
    for _ in range(50):
        h = ExchangeHamiltonian(*(float(x) for x in rng.uniform(-1.5, 1.5, size=5)))
        pairs = eigensystem_2q(h)
        formulas = sorted(
            [
                (h.omega_z + 2 * h.omega00) / 4,
                (h.omega_z - 2 * h.omega00) / 4,
                (-h.omega_z + 2 * h.omega01) / 4,
                (-h.omega_z - 2 * h.omega01) / 4,
            ]
        )
        got = sorted(e for _, e in pairs)
        worst_energy = max(worst_energy, np.abs(np.array(got) - formulas).max())
        w, _ = oracle.jacobi_eigh(oracle.to_matrix(hamiltonian(h)))
        worst_energy = max(worst_energy, np.abs(np.array(got) - w).max())

    worst_product = 0.0
    for _ in range(50):
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        omega = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.0, 8.0))
        pe = ProductEvolution.from_axes(m, n)
        full, _, _ = product_evolution(pe, omega, t)
        direct = evolve(
            product_state(ProductState((tuple(m), tuple(n)), (1, 1))),
            hamiltonian(ExchangeHamiltonian.isotropic(omega)),
            t,
        )
        worst_product = max(worst_product, (full.mv - direct.mv).max_abs())

    endpoints_exact = min_bloch_length(0.0) == 1.0 and min_bloch_length(np.pi) == 0.0
    worst_min = 0.0
    ts = np.linspace(0.0, 2.0 * np.pi, 200001)
    for psi_angle in rng.uniform(0.1, np.pi - 0.1, size=8):
        pe = ProductEvolution.from_axes(
            [0.0, 0.0, 1.0], [np.sin(psi_angle), 0.0, np.cos(psi_angle)]
        )
        lengths = np.sqrt(
            pe.p_len**2
            + (pe.q_len * np.cos(ts)) ** 2
            + (pe.p_len * pe.q_len * np.sin(ts)) ** 2
        )
        worst_min = max(worst_min, abs(min_bloch_length(float(psi_angle)) - lengths.min()))

    ok = (
        worst_evolve < 1e-9
        and worst_energy < 1e-9
        and worst_product < 1e-9
        and endpoints_exact
        and worst_min < 1e-6
    )
    report(
        4,
        ok,
        f"evolve {worst_evolve:.2e}, energies {worst_energy:.2e}, "
        f"product form {worst_product:.2e}, min-length {worst_min:.2e}",
    )


def test_criterion_5_i6_formula_validation():
    rng = np.random.default_rng(1005)
    t0 = time.time()
    worst = 0.0
    checked = 0
    while checked < 10_000:
        psi = oracle.random_statevector(3, rng)
        rho = DensityOperator(oracle.from_matrix(oracle.statevector_density(psi)))
        t = rho.correlation_tensor()
        if min(np.linalg.norm(bloch_slice(t, q)) for q in range(3)) <= 0.05:
            continue
        inv = invariants_3q(rho)
        worst = max(worst, abs(sudbery(inv).i6 - three_tangle_oracle(psi)))
        checked += 1
    elapsed = time.time() - t0
    report(
        5,
        worst < 1e-8 and elapsed < 300.0,
        f"10^4 samples, max |I6 - tau^2| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_6_special_states():
    errs = []
    inv, rho = special_state("seed", 1.0, 1.0, 1.0)
    errs.append((rho.mv - product_state(ProductState.computational("000")).mv).max_abs())
    errs.append(abs(sudbery(inv).i6))
    inv, rho = special_state("negative_seed", 1 / 3, 1 / 3, 1 / 3)
    errs.append((rho.mv - w_state().mv).max_abs())
    errs.append(abs(sudbery(inv).i6))
    ghz_amps = np.zeros(8)
    ghz_amps[0] = ghz_amps[7] = 1 / np.sqrt(2)
    errs.append(abs(three_tangle_oracle(ghz_amps) - 1.0))
    for v in (0.2, 0.5, 0.8):
        inv, rho = special_state("max_tangle", v, v, v)
        errs.append(abs(inv.vbar2 - v * v))
        errs.append(abs(inv.vbar3 - v**4))
        got = invariants_3q(rho)
        errs.append(abs(got.vbar2 - v * v))
        errs.append(abs(got.vbar3 - v**4))
        errs.append(abs(sudbery(got).i6 - (1.0 - v * v) ** 2))
    worst = max(errs)
    report(6, worst < 1e-9, f"max deviation {worst:.3e}")


def test_criterion_7_solver_round_trip():
    rng = np.random.default_rng(1007)
    t0 = time.time()
    n_trips = 1000
    failures = 0
    worst_inv = 0.0
    worst_conj = 0.0
    done = 0
    while done < n_trips:
        psi = oracle.random_statevector(3, rng)
        rho = DensityOperator(oracle.from_matrix(oracle.statevector_density(psi)))
        try:
            inv = invariants_3q(rho)
        except ValueError:
            continue
        done += 1
        lengths = vector_lengths(expansion_probabilities(inv))
        sols = solve(lengths)
        if not sols:
            failures += 1
            continue
        for s in sols:
            worst_conj = max(
                worst_conj, np.abs(residual(lengths, negated(s).free())).max()
            )
        rec = reconstruct(inv, sols[0])
        got = invariants_3q(rec)
        worst_inv = max(
            worst_inv,
            abs(got.v_a - inv.v_a),
            abs(got.v_b - inv.v_b),
            abs(got.v_c - inv.v_c),
            abs(got.vbar2 - inv.vbar2),
            abs(got.vbar3 - inv.vbar3),
            abs(sudbery(got).i6 - sudbery(inv).i6),
        )
    elapsed = time.time() - t0
    ok = failures == 0 and worst_inv < 1e-8 and worst_conj < 1e-11 and elapsed < 600.0
    report(
        7,
        ok,
        f"{n_trips} round trips, {failures} solver failures, "
        f"max invariant error {worst_inv:.3e}, conjugate residual {worst_conj:.3e}, "
        f"{elapsed:.1f}s",
    )


def _dilate(mask):
    """3x3 dilation: gaps thinner than one cell are below grid resolution."""
    mask = np.asarray(mask, dtype=bool)
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    out[1:, 1:] |= mask[:-1, :-1]
    out[1:, :-1] |= mask[:-1, 1:]
    out[:-1, 1:] |= mask[1:, :-1]
    out[:-1, :-1] |= mask[1:, 1:]
    return out


def _components(mask, connect8=False):
    """Number of connected components of True cells in a 2D boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(mask)
    if connect8:
        steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    count = 0
    for i0 in range(mask.shape[0]):
        for j0 in range(mask.shape[1]):
            if not mask[i0, j0] or seen[i0, j0]:
                continue
            count += 1
            stack = [(i0, j0)]
            seen[i0, j0] = True
            while stack:
                i, j = stack.pop()
                for di, dj in steps:
                    ni, nj = i + di, j + dj
                    if (
                        0 <= ni < mask.shape[0]
                        and 0 <= nj < mask.shape[1]
                        and mask[ni, nj]
                        and not seen[ni, nj]
                    ):
                        seen[ni, nj] = True
                        stack.append((ni, nj))
    return count


def test_criterion_8_region_scan():
    grid = 41
    region_ok = True
    details = []
    for v in (0.1, 1.0 / 3.0, 2.0 / 3.0):
        rows = table_rows(region_scan_rows(v, v, v, grid))
        grid_rows = [r for r in rows if r["kind"] == "grid"]
        feasible = np.array([bool(r["feasible"]) for r in grid_rows]).reshape(grid, grid)
        n_feasible = int(feasible.sum())
        # the region pinches to cusps at its corner states, so tails thinner
        # than one cell fragment under centre sampling: close by one cell,
        # then the region must be a single component with no holes
        comp_in = _components(_dilate(feasible))
        padded = np.pad(~feasible, 1, constant_values=True)
        comp_out = _components(padded, connect8=True)
        markers = {r["label"]: r for r in rows if r["kind"] == "marker"}
        marker_b = max(abs(float(m["B"])) for m in markers.values())
        markers_feasible = all(m["feasible"] == 1 for m in markers.values())
        ok = (
            n_feasible > 0
            and comp_in == 1
            and comp_out == 1
            and marker_b <= 1e-9
            and markers_feasible
            and {"A_seed", "B_min_tangle", "C_max_tangle"} <= set(markers)
        )
        region_ok = region_ok and ok
        details.append(f"v={v:.3g}: {n_feasible} cells, |B|max {marker_b:.1e}")

    # sign rule across the 10x10x10 grid, restricted to the physical region
    sign_ok = True
    vs = np.linspace(0.05, 0.95, 10)
    for va in vs:
        for vb in vs:
            for vc in vs:
                vsum = va + vb + vc
                if 1.0 + 2.0 * min(va, vb, vc) < vsum:
                    continue  # no state exists at all
                ns = min(negative_seed_probabilities(va, vb, vc).values()) >= -1e-12
                if ns != (vsum <= 1.0 + 1e-9):
                    sign_ok = False
                try:
                    v2, v3 = zero_tangle_point(va, vb, vc)
                    probs = expansion_probabilities(InvariantSet3Q(va, vb, vc, v2, v3))
                    zt = probs.min() >= -1e-12
                except ValueError:
                    zt = False
                if zt != (vsum >= 1.0 - 1e-9):
                    sign_ok = False
    report(8, region_ok and sign_ok, "; ".join(details) + f"; sign rule {sign_ok}")
