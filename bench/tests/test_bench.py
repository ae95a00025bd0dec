"""Self-tests of the benchmark: tiny runs, tracing, and checks that bite.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from msta import cli, dynamics, states, vectorsum  # noqa: E402
from msta.algebra import Multivector  # noqa: E402


def tiny(name, tmp_path):
    return {
        "roundtrip3q": lambda: workloads.Roundtrip3Q(pool=24),
        "dense_states": lambda: workloads.DenseStates(sizes=(2, 3, 4), pool_rounds=2),
        "trajectory2q": lambda: workloads.Trajectory2Q(steps=3, pool=24),
        "region_scan": lambda: workloads.RegionScan(tmp_path, grid=5, pool=3),
    }[name]()


def tiny_pass(name, tmp_path, tracer=None, seed=3):
    wl = tiny(name, tmp_path)
    tracer = tracer if tracer is not None else spans.NullTracer()
    return wl, run.run_pass(wl, wl.make_inputs(seed), 0.0, [tracer]).passes[0]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_every_check(name, tmp_path):
    wl, p = tiny_pass(name, tmp_path)
    assert p.attempted == wl.count_ops
    assert p.failed == 0, p.errors
    assert p.worst and 0.0 <= p.max_err() <= 1.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_runs_agree(name, tmp_path):
    _, plain = tiny_pass(name, tmp_path)
    _, traced = tiny_pass(name, tmp_path, spans.Tracer(count_ops=10))
    assert traced.attempted == plain.attempted
    assert traced.failed == plain.failed == 0
    assert traced.worst == plain.worst


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_spans_partition_each_op(name, tmp_path):
    tracer = spans.Tracer(count_ops=10)
    tiny_pass(name, tmp_path, tracer)
    bounds = {op: (t0, t1) for op, t0, t1 in tracer.ops}
    for op, in_op, _, _, t0, t1 in tracer.spans:
        if in_op:
            assert bounds[op][0] <= t0 <= t1 <= bounds[op][1]
        else:  # a check span follows its op
            assert bounds[op][1] <= t0 <= t1
    assert min(tracer.self_times().values()) >= 0.0
    in_op = sum(t1 - t0 for _, inside, _, _, t0, t1 in tracer.spans if inside) * 1e3
    op_ms = sum(t1 - t0 for _, t0, t1 in tracer.ops) * 1e3
    assert in_op + tracer.metrics()["bench.self_ms"] == pytest.approx(op_ms, rel=1e-9)


class _SlowCheck(workloads.Workload):
    """An op that returns at once and a check that sleeps."""

    count_ops = 4

    def make_inputs(self, seed):
        return [seed]

    def op(self, tr, inp):
        return inp

    def check(self, tr, inp, out):
        time.sleep(0.02)
        return [("same", abs(out - inp), 0.0)]


def test_checks_and_probes_stay_out_of_the_op_time():
    result = run.run_pass(_SlowCheck(), [1], 0.0, [spans.NullTracer()])
    p = result.passes[0]
    assert p.attempted == 4 and p.failed == 0
    assert p.busy_s < 0.01 < 0.08 <= result.wall_s
    assert result.probes and math.fsum(result.probes) >= run.PROBE_SHARE * p.busy_s


def test_traced_run_alternates_rotations(tmp_path):
    wl = tiny("trajectory2q", tmp_path)
    tracer = spans.Tracer(count_ops=wl.count_ops)
    result = run.run_pass(wl, wl.make_inputs(3), 0.0, [spans.NullTracer(), tracer])
    plain, traced = result.passes
    assert plain.attempted == traced.attempted == len(tracer.ops) >= wl.count_ops
    assert plain.failed == traced.failed == 0


def test_counts_repeat_exactly(tmp_path):
    runs = []
    for _ in range(2):
        tracer = spans.Tracer(count_ops=4)
        tiny_pass("roundtrip3q", tmp_path, tracer)
        runs.append(dict(tracer.counts))
    assert runs[0] == runs[1]
    assert runs[0]["vectorsum.solve.solutions"] >= 4


def test_every_per_layer_metric_is_measured_on_some_workload(tmp_path):
    seen = set()
    for name in run.WORKLOADS:
        tracer = spans.Tracer(count_ops=10)
        _, p = tiny_pass(name, tmp_path, tracer)
        seen |= {k for k, v in run.trace_metrics(name, tracer, p, p).items() if v != 0.0}
    # the tiny dense run stops at four qubits; the size tag stands for any size
    seen = {re.sub(r"\.n\d+\.", ".n*.", k) for k in seen}
    missing = [m for m, _ in run.PER_LAYER if re.sub(r"\.n\d+\.", ".n*.", m) not in seen]
    # a passing run has no empty solve; the overhead is 0 when a pass
    # is compared with itself
    assert missing == ["vectorsum.solve.empty", "bench.trace_overhead_frac"]


def _perturbed(rho, generator):
    """rho rotated by a small non-local unitary: still a pure state."""
    rotor = states.Rotor.from_generator(Multivector(rho.n_qubits, {generator: 1.0}), 1e-3)
    return states.apply_rotor(rotor, rho)


def _fake_scan_rows(original):
    def fake(*args):
        rows = original(*args)
        seed = next(r for r in rows if r["label"] == "A_seed")
        seed["I6"] += 1e-6
        return rows

    return fake


def _inject(name, monkeypatch):
    if name == "roundtrip3q":
        original = vectorsum.reconstruct
        monkeypatch.setattr(vectorsum, "reconstruct", lambda *a: _perturbed(original(*a), "XXX"))
    elif name == "dense_states":
        original = states.pure_state_from_amplitudes

        def fake(*a):
            rho = original(*a)
            return _perturbed(rho, "XY" + "I" * (rho.n_qubits - 2))

        monkeypatch.setattr(states, "pure_state_from_amplitudes", fake)
    elif name == "trajectory2q":
        original = dynamics.evolve
        monkeypatch.setattr(dynamics, "evolve", lambda *a: _perturbed(original(*a), "XY"))
    else:
        monkeypatch.setattr(cli, "region_scan_rows", _fake_scan_rows(cli.region_scan_rows))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_perturbed_layer_fails_every_op(name, tmp_path, monkeypatch):
    _inject(name, monkeypatch)
    _, p = tiny_pass(name, tmp_path)
    assert p.failed == p.attempted > 0
    assert p.max_err() > 1.0


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["bench/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "trajectory2q", "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(declared)
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roundtrip3q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
