"""Benchmark for msta: four closed-loop workloads timed end to end.

Usage, from the repository root:

    python3 bench/run.py --workload roundtrip3q --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

One process runs one workload as a closed loop: a single caller issues the
next op when the previous one returns, with no think time, single-threaded
and with BLAS pinned to one thread.  Inputs come from ``--seed`` and are
generated before timing starts.  Only an op's user calls are timed; its
outputs are then checked untimed, and an op that raises or misses a check
counts as failed.  A fixed probe job, run between ops for a tenth of the
op time, measures the host's speed, and the gated throughput is scaled by
it (`host_probe`).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rotations of the workload for ``--seconds`` and
reports the per-layer metrics of the traced ops with the tracing
overhead.  The last line of stdout is one JSON object {correct, attempted,
failed, metrics}; the lines before it name each metric with its unit, the
environment and the worst error of each check.  The exit code is 0 when every op passed,
1 when any failed, and 2 when the tree holds no msta sources to measure.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process or its children
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("roundtrip3q", "dense_states", "trajectory2q", "region_scan")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_RUNS = 9
SETUP_PROBES = 4  # host probes before each set-up interpreter
P90_MIN_OPS = 100  # op_p90_ms needs at least ten samples beyond p90
PROBE_SHARE = 0.1  # host probes run for this share of the op time
# the reference host speed: host_probe takes this long on it.  A round
# figure within its 6.5-11 ms on the 2-vCPU Xeon guest the benchmark was
# written on; it only sets the scale of the normalised metrics
PROBE_REF_S = 0.007

# the JSON line carries END_TO_END; the wall-clock throughput and the op
# latency percentiles are printed only, because contention from other
# tenants of the host moves them more than any bound the benchmark may
# set (see README.md)
END_TO_END = [
    ("setup_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
REPORTED = END_TO_END + [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")]

_LAYER_STATS = [
    ("vectorsum.solve", ("calls", "busy_ms", "p50_ms", "p90_ms")),
    ("vectorsum.reconstruct", ("busy_ms", "p50_ms")),
    ("invariants.invariants_3q", ("calls", "busy_ms", "p50_ms")),
    ("states.pure_state_from_amplitudes", ("busy_ms", "n4.p50_ms", "n5.p50_ms", "n6.p50_ms", "n2.p50_ms")),
    ("states.product_state", ("p50_ms",)),
    ("algebra.mul_dense", ("busy_ms", "n4.p50_ms", "n5.p50_ms", "n6.p50_ms")),
    ("dynamics.evolve", ("calls", "busy_ms", "p50_ms")),
    ("dynamics.product_evolution", ("busy_ms",)),
    ("entanglement.partial_trace", ("busy_ms",)),
    ("entanglement.entanglement_entropy", ("busy_ms",)),
    ("oracle.from_matrix", ("busy_ms", "n6.p50_ms")),
    ("oracle.oracle_entropy", ("busy_ms",)),
    ("cli.region_scan", ("busy_ms", "p50_ms")),
]
_COUNTS = [
    ("vectorsum.solve.solutions", "count"),
    ("vectorsum.solve.empty", "count"),
    ("algebra.mul_dense.pair_products", "count"),
    ("algebra.mul_dense.bytes_computed", "B"),
    ("cli.region_scan.rows", "count"),
    ("cli.region_scan.bytes_out", "B"),
]
PER_LAYER = (
    [(f"{layer}.{stat}", "count" if stat == "calls" else "ms") for layer, stats in _LAYER_STATS for stat in stats]
    + _COUNTS
    + [
        ("bench.self_ms", "ms"),
        ("bench.trace_overhead_frac", "frac"),
    ]
    + [(f"check.{w}.max_err", "tol_frac") for w in WORKLOADS]
)


_probe_rng = np.random.default_rng(0)
_PROBE_H = _probe_rng.standard_normal((4, 4)) + 1j * _probe_rng.standard_normal((4, 4))
_PROBE_H = _PROBE_H + _PROBE_H.conj().T
_PROBE_KEYS = _probe_rng.integers(0, 256, size=64)
_PROBE_COEFFS = _probe_rng.standard_normal(64) + 1j * _probe_rng.standard_normal(64)


def host_probe() -> float:
    """Duration of a fixed job in the same mix as msta's work: many calls
    into numpy on small arrays (an eigensolve, a matrix exponential, key
    sorting and merging), float formatting, dict stores and an interpreted
    sum.  The job never calls msta, so no change to msta moves it."""
    t0 = perf_counter()
    acc = 0.0
    seen = {}
    keys, coeffs = _PROBE_KEYS, _PROBE_COEFFS
    for i in range(80):
        w, v = np.linalg.eigh(_PROBE_H)
        u = (v * np.exp(-1j * w * (i * 0.01))) @ v.conj().T
        uu = np.kron(u, u)
        order = np.argsort(keys ^ i, kind="stable")
        uniq, inv = np.unique(keys[order], return_inverse=True)
        merged = np.bincount(inv, weights=coeffs.real[order], minlength=len(uniq))
        picked = merged[np.searchsorted(uniq, keys[:8])]
        acc += float(np.abs(uu).sum()) + float(picked.sum()) + float(np.einsum("i,i->", coeffs, coeffs.conj()).real)
        seen[f"{acc:.6g}"] = i
        acc = sum(x * 1e-9 for x in range(40)) + acc * 1e-3
    return perf_counter() - t0


@dataclass
class Pass:
    """Outcome of the ops one tracer saw in a closed loop."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    worst: dict[str, tuple[float, float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Ops per second of timed op time (checks and probes excluded)."""
        busy = self.busy_s
        return self.attempted / busy if busy > 0 else 0.0

    def max_err(self) -> float:
        """Worst check error as a fraction of its tolerance (>1 failed)."""
        return max((err / tol for err, tol in self.worst.values()), default=0.0)


@dataclass
class Run:
    """One closed loop: a `Pass` per tracer and the host probe durations."""

    passes: list[Pass]
    probes: list[float]
    wall_s: float

    @property
    def probe_mean_s(self) -> float:
        return statistics.fmean(self.probes) if self.probes else 0.0


def _judge(checks, worst) -> bool:
    ok = True
    for name, err, tol in checks:
        err = float(err)
        if not err <= tol:
            ok = False
            err = math.inf if math.isnan(err) else err
        if name not in worst or err > worst[name][0]:
            worst[name] = (err, tol)
    return ok


def run_pass(wl, inputs, seconds: float, tracers) -> Run:
    """Run ops in whole rotations of input kinds, the tracers taking turns
    by rotation, until ``seconds`` of wall time have passed and every
    tracer has seen at least ``wl.count_ops`` ops (``seconds=0`` stops as
    soon as they have).  Each op is timed, then checked untimed; between
    ops the host probe runs until it has taken `PROBE_SHARE` of the op
    time so far."""
    passes = [Pass() for _ in tracers]
    probes: list[float] = []
    busy = probed = 0.0
    start = perf_counter()
    i = 0
    while True:
        k = (i // wl.round_ops) % len(tracers)
        tracer, out, inp = tracers[k], passes[k], inputs[i % len(inputs)]
        ok, error = False, None
        tracer.begin_op()
        t0 = perf_counter()
        try:
            result = wl.op(tracer, inp)
        except Exception as e:  # any failure of the code under test is a failed op
            error = f"op {i}: {type(e).__name__}: {e}"
        t1 = perf_counter()
        tracer.end_op(t0, t1)
        if error is None:
            try:
                ok = _judge(wl.check(tracer, inp, result), out.worst)
            except Exception as e:
                error = f"op {i} check: {type(e).__name__}: {e}"
        if error is not None:
            out.errors.append(error)
        out.latencies.append(t1 - t0)
        out.failed += not ok
        busy += t1 - t0
        while probed < PROBE_SHARE * busy:
            probes.append(host_probe())
            probed += probes[-1]
        i += 1
        if (
            i % (wl.round_ops * len(tracers)) == 0
            and min(p.attempted for p in passes) >= wl.count_ops
            and perf_counter() - start >= seconds
        ):
            break
    return Run(passes, probes, perf_counter() - start)


def measure_setup(runs: int) -> tuple[float, list[float]]:
    """Time to import msta and msta.cli in fresh interpreters, scaled to
    the reference host speed.

    An import does the same work every time; only the host's speed
    changes it.  Host probes run just before each interpreter starts, and
    each import time is scaled by `PROBE_REF_S` over their mean.  Returns
    the median scaled time and the raw import times."""
    script = "import time; t = time.perf_counter(); import msta, msta.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        return float(done.stdout)

    once()  # fills the bytecode cache, which users have after their first run
    raw, scaled = [], []
    for _ in range(runs):
        speed = statistics.fmean(host_probe() for _ in range(SETUP_PROBES))
        raw.append(once())
        scaled.append(raw[-1] * PROBE_REF_S / speed)
    return statistics.median(scaled), raw


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "roundtrip3q":
        return workloads.Roundtrip3Q()
    if name == "dense_states":
        return workloads.DenseStates()
    if name == "trajectory2q":
        return workloads.Trajectory2Q()
    return workloads.RegionScan(workdir)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, ops: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "msta").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def _line(workload: str, name: str, value, unit: str, note: str = "") -> None:
    print(f"{workload:<13} {name:<44} {value:>16.6g} {unit:<9} {note}".rstrip())


def _report_checks(name: str, passes: list[Pass]) -> None:
    worst: dict[str, tuple[float, float]] = {}
    for p in passes:
        for check, (err, tol) in p.worst.items():
            if check not in worst or err > worst[check][0]:
                worst[check] = (err, tol)
        for msg in p.errors[:5]:
            print(f"error {name} {msg}", file=sys.stderr)
    for check, (err, tol) in sorted(worst.items()):
        print(f"check {name} {check}: worst {err:.3e} (tol {tol:.0e})")


def trace_metrics(workload: str, tracer, plain: Pass, traced: Pass) -> dict[str, float]:
    """Every statistic of the traced ops, plus each `PER_LAYER` metric;
    a layer the workload never calls reads 0."""
    computed = tracer.metrics()
    computed["bench.trace_overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0
    for w in WORKLOADS:
        computed[f"check.{w}.max_err"] = max(plain.max_err(), traced.max_err()) if w == workload else 0.0
    for m, _ in PER_LAYER:
        computed[m] = float(computed.get(m, 0.0))
    return computed


def _report_shares(name: str, tracer, computed: dict[str, float]) -> None:
    op_ms = math.fsum(t1 - t0 for _, t0, t1 in tracer.ops) * 1e3
    busy: dict[tuple[bool, str], float] = {}
    for _, in_op, layer, _, t0, t1 in tracer.spans:
        busy[in_op, layer] = busy.get((in_op, layer), 0.0) + (t1 - t0) * 1e3
    for (in_op, layer), ms in sorted(busy.items(), key=lambda kv: (not kv[0][0], -kv[1])):
        where = "of op time" if in_op else "of op time, spent in checks outside the op"
        print(f"share {name} {layer}: {ms / op_ms:.1%} {where}")
    print(f"share {name} bench.self: {computed['bench.self_ms'] / op_ms:.1%} of op time")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    setup_s, setup_raw = measure_setup(SETUP_RUNS) if not args.trace else (None, [])

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        wl = make_workload(args.workload, Path(workdir))
        inputs = wl.make_inputs(args.seed)
        null = spans.NullTracer()
        for inp in inputs[: wl.round_ops]:  # warm-up, one untimed rotation
            wl.check(null, inp, wl.op(null, inp))
        host_probe()  # warm-up of the probe, untimed
        # a traced run alternates untraced and traced rotations, so both
        # see the same phases of the host
        tracers = [null, spans.Tracer(wl.count_ops)] if args.trace else [null]
        run = run_pass(wl, inputs, args.seconds, tracers)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    name = args.workload
    passes = run.passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("env " + json.dumps(environment(args, attempted)))
    _report_checks(name, passes)
    _line(name, "fail_frac", failed / attempted, "frac", f"({failed}/{attempted} ops failed)")

    if args.trace:
        computed = trace_metrics(name, tracers[1], passes[0], passes[1])
        metrics = {m: {"value": computed[m], "unit": u} for m, u in PER_LAYER}
        _report_shares(name, tracers[1], computed)
    else:
        plain = passes[0]
        n = plain.attempted
        values = {
            "setup_s": setup_s,
            "norm_ops_per_s": plain.ops_per_s * (run.probe_mean_s / PROBE_REF_S) ** wl.host_elasticity,
            "ops_per_s": plain.ops_per_s,
            "op_p50_ms": spans.percentile_ms(plain.latencies, 50),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"(median of {SETUP_RUNS} fresh interpreters, scaled by the host probe; "
            f"raw median {statistics.median(setup_raw):.4f} s, fastest {min(setup_raw):.4f} s)",
            "norm_ops_per_s": f"(host probe {run.probe_mean_s * 1e3:.3f} ms over {len(run.probes)} probes; "
            f"reference {PROBE_REF_S * 1e3:g} ms, elasticity {wl.host_elasticity:g})",
            "ops_per_s": f"({n} ops in {plain.busy_s:.2f} s of op time, {run.wall_s:.2f} s wall)",
            "op_p50_ms": f"({n} samples)",
        }
        if n >= P90_MIN_OPS:
            values["op_p90_ms"] = spans.percentile_ms(plain.latencies, 90)
            notes["op_p90_ms"] = f"({n} samples)"
        else:
            notes["op_p90_ms"] = f"not reported: {n} samples < {P90_MIN_OPS}"
        for m, u in REPORTED:
            if m in values:
                _line(name, m, values[m], u, notes.get(m, ""))
            else:
                print(f"{name:<13} {m:<44} {notes[m]}")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; a combined summary at the end."""
    attempted = failed = 0
    metrics = {}
    worst_code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {w} exited with code {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{m}": v for m, v in result["metrics"].items()})
        worst_code = max(worst_code, done.returncode)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return worst_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (SRC / "msta" / "__init__.py").is_file():
        print(f"error: no msta sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
