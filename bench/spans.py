"""Span and counter recording around the benchmark's calls into msta.

A traced run wraps each call the benchmark makes into a public msta
function in a span named ``<module>.<function>``, optionally tagged with
the qubit count of its input.  Spans are two levels deep: one op span per
unit of user work, and the layer spans directly inside it.  The untimed
check that follows each op records its reference calls as layer spans
outside any op span.  Calls that msta makes internally are not traced, so
a layer span includes all nested library work (``vectorsum.reconstruct``
includes its state construction).

Spans and counters stay in memory and are reduced to metrics when the run
ends.  The untraced run uses `NullTracer`, whose `call` only forwards.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from typing import Callable

import numpy as np


def percentile_ms(seconds: list[float], q: float) -> float:
    """The q-th percentile (linear interpolation) of durations, in ms."""
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


class NullTracer:
    """Forwards calls without recording anything (the untraced run)."""

    def begin_op(self) -> None:
        pass

    def end_op(self, start: float, end: float) -> None:
        pass

    def call(self, name: str, fn: Callable, *args, size: int | None = None):
        return fn(*args)

    def count(self, name: str, value: int) -> None:
        pass


class Tracer(NullTracer):
    """Records layer spans, op spans and counters.

    Ops are numbered in the order this tracer sees them.  Counters are kept
    only for the first ``count_ops`` of them, so a count covers the same
    fixed prefix of inputs whatever the run length and repeats exactly for
    a given seed.  A span records whether it lies inside the op (``True``)
    or in the check after it.
    """

    def __init__(self, count_ops: int):
        self.count_ops = count_ops
        self.spans: list[tuple[int, bool, str, int | None, float, float]] = []
        self.ops: list[tuple[int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._op = -1
        self._in_op = False

    def begin_op(self) -> None:
        self._op += 1
        self._in_op = True

    def end_op(self, start: float, end: float) -> None:
        self.ops.append((self._op, start, end))
        self._in_op = False

    def call(self, name: str, fn: Callable, *args, size: int | None = None):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self._op, self._in_op, name, size, t0, perf_counter()))

    def count(self, name: str, value: int) -> None:
        if self._op < self.count_ops:
            self.counts[name] += int(value)

    def self_times(self) -> dict[int, float]:
        """Op index -> op duration minus the time its layer spans cover."""
        child: dict[int, float] = defaultdict(float)
        for op, in_op, _, _, t0, t1 in self.spans:
            if in_op:
                child[op] += t1 - t0
        return {op: (t1 - t0) - child[op] for op, t0, t1 in self.ops}

    def metrics(self) -> dict[str, float]:
        """Every statistic the recorded spans and counters support.

        Per span name: ``calls``, ``busy_ms`` (sum of durations), ``p50_ms``
        and ``p90_ms``; per span name and qubit count: ``n<k>.p50_ms`` and
        ``n<k>.busy_ms``; counters by their own name; ``bench.self_ms``
        summed over ops.
        """
        durs: dict[str, list[float]] = defaultdict(list)
        for _, _, name, size, t0, t1 in self.spans:
            durs[name].append(t1 - t0)
            if size is not None:
                durs[f"{name}.n{size}"].append(t1 - t0)
        out: dict[str, float] = {}
        for name, ds in durs.items():
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.busy_ms"] = math.fsum(ds) * 1e3
            out[f"{name}.p50_ms"] = percentile_ms(ds, 50)
            out[f"{name}.p90_ms"] = percentile_ms(ds, 90)
        out.update(self.counts)
        out["bench.self_ms"] = math.fsum(self.self_times().values()) * 1e3
        return out
