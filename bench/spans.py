"""Spans for the traced run, and the per-layer metrics drawn from them.

A span is recorded around each call the benchmark makes into a
mellinium layer, and around each call the program makes back into a
callable the benchmark handed it (an integrand, or a function returned
by the convolution algebra). Spans live in memory as
``[name, parent, op, t0, t1, points]`` and are written out when the run
ends. The untraced run uses ``NullTracer``, whose hooks call straight
through, so both runs perform the same operations.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

import numpy as np

# names of spans recorded around callables the program calls back
INTEGRAND = "integrand"
KERNEL = "strip_algebra.kernel"
PRIMITIVE = "strip_algebra.primitive"
_CALLBACKS = (INTEGRAND, KERNEL, PRIMITIVE)

# (name, unit, better), reported per attempted op on every workload
PER_LAYER = (
    ("mellin_core.forward_mellin.calls", "count/op", "lower"),
    ("mellin_core.forward_mellin.busy_ms", "ms/op", "lower"),
    ("mellin_core.forward_mellin.self_ms", "ms/op", "lower"),
    ("mellin_core.hankel_mellin.busy_ms", "ms/op", "lower"),
    ("mellin_core.hankel_mellin.self_ms", "ms/op", "lower"),
    ("mellin_core.inverse_mellin.busy_ms", "ms/op", "lower"),
    ("mellin_core.f_points", "count/op", "lower"),
    ("mellin_core.f_calls", "count/op", "lower"),
    ("mellin_core.f_eval_ms", "ms/op", "lower"),
    ("mellin_core.estimates", "count/op", "higher"),
    ("mellin_core.estimate_misses", "count/op", "lower"),
    ("mellin_core.errors", "count/op", "lower"),
    ("strip_algebra.convolve.build_ms", "ms/op", "lower"),
    ("strip_algebra.kernel.eval_ms", "ms/op", "lower"),
    ("strip_algebra.kernel.points", "count/op", "lower"),
    ("strip_algebra.apply_rule.busy_ms", "ms/op", "lower"),
    ("strip_algebra.parseval_pair.busy_ms", "ms/op", "lower"),
    ("strip_algebra.parseval_pair.f_calls", "count/op", "lower"),
    ("strip_algebra.primitive.eval_ms", "ms/op", "lower"),
    ("operator_calculus.key_identity_check.busy_ms", "ms/op", "lower"),
    ("operator_calculus.spectral_zeta.busy_ms", "ms/op", "lower"),
    ("operator_calculus.spectral_eta.busy_ms", "ms/op", "lower"),
    ("applications.zeta_value.busy_ms", "ms/op", "lower"),
    ("applications.eta_value.busy_ms", "ms/op", "lower"),
    ("applications.gamma_reflection.busy_ms", "ms/op", "lower"),
    ("applications.greens_function.busy_ms", "ms/op", "lower"),
    ("asymptotics.residue_asymptotics.busy_ms", "ms/op", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.run_ms", "ms/op", "lower"),
    ("cli.startup_ms", "ms/op", "lower"),
    ("cli.records", "count/op", "higher"),
    ("cli.bytes", "count/op", "lower"),
)
PER_PROCESS = {"cli.import_ms"}  # the rest are per attempted op

_BUSY = {
    "mellin_core.forward_mellin",
    "mellin_core.hankel_mellin",
    "mellin_core.inverse_mellin",
    "strip_algebra.apply_rule",
    "strip_algebra.parseval_pair",
    "operator_calculus.key_identity_check",
    "operator_calculus.spectral_zeta",
    "operator_calculus.spectral_eta",
    "applications.zeta_value",
    "applications.eta_value",
    "applications.gamma_reflection",
    "applications.greens_function",
    "asymptotics.residue_asymptotics",
}
_CONVOLVE = {
    "strip_algebra.mult_convolve",
    "strip_algebra.star_convolve",
    "strip_algebra.convolution_exp",
}


class NullTracer:
    """Calls straight through; the untraced run uses it."""

    def begin_op(self, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def fn(self, f, name: str = INTEGRAND):
        return f

    def wrap(self, name: str, fn):
        return fn


class Tracer(NullTracer):
    """Records a span around every call; spans of one op share its id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._op, time.perf_counter(), 0.0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, points=None) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        span[5] = points
        self._stack.pop()

    def begin_op(self, kind: str) -> None:
        self._op += 1
        self._open("op:" + kind)

    def end_op(self) -> None:
        self._close(self._stack[0])

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def fn(self, f, name: str = INTEGRAND):
        """The MellinFunction f with its eval wrapped in a span."""
        return dataclasses.replace(f, eval=self.wrap(name, f.eval))

    def wrap(self, name: str, fn):
        def traced(x):
            idx = self._open(name)
            try:
                return fn(x)
            finally:
                self._close(idx, int(np.size(x)))

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, op, t0, t1, points in self.spans:
                fh.write(json.dumps([name, parent, op, t0, t1, points]) + "\n")


def layer_metrics(spans, attempted: int, counts: dict) -> dict:
    """Per-layer metrics, from spans and the run's counters.

    Self time is a span's duration minus the time its child spans cover.
    Integrand work counts the callback spans whose parent is a call into
    mellin_core: the points the transform kernel asked for.
    """
    child = [0.0] * len(spans)
    for name, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    points: dict = defaultdict(int)
    f_calls = f_points = pv_calls = 0
    f_ms = 0.0
    for i, (name, parent, _, t0, t1, pts) in enumerate(spans):
        d = t1 - t0
        busy[name] += d
        own[name] += d - child[i]
        calls[name] += 1
        if name in _CALLBACKS and parent >= 0:
            points[name] += pts
            pname = spans[parent][0]
            if pname.startswith("mellin_core."):
                f_calls += 1
                f_points += pts
                f_ms += d
            elif pname == "strip_algebra.parseval_pair":
                pv_calls += 1
    out = {name + ".busy_ms": busy[name] * 1e3 for name in _BUSY}
    out.update(
        {
            "mellin_core.forward_mellin.calls": calls["mellin_core.forward_mellin"],
            "mellin_core.forward_mellin.self_ms": own["mellin_core.forward_mellin"] * 1e3,
            "mellin_core.hankel_mellin.self_ms": own["mellin_core.hankel_mellin"] * 1e3,
            "mellin_core.f_points": f_points,
            "mellin_core.f_calls": f_calls,
            "mellin_core.f_eval_ms": f_ms * 1e3,
            "strip_algebra.convolve.build_ms": sum(busy[n] for n in _CONVOLVE) * 1e3,
            "strip_algebra.kernel.eval_ms": busy[KERNEL] * 1e3,
            "strip_algebra.kernel.points": points[KERNEL],
            "strip_algebra.parseval_pair.f_calls": pv_calls,
            "strip_algebra.primitive.eval_ms": busy[PRIMITIVE] * 1e3,
            "cli.run_ms": busy["cli.run"] * 1e3,
            "cli.startup_ms": (busy["cli.process"] - busy["cli.run"]) * 1e3,
        }
    )
    out.update(counts)
    return {
        name: {"value": out.get(name, 0) / (1 if name in PER_PROCESS else attempted), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
