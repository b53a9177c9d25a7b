"""Ops and the timed loop that runs whole rounds of them."""

from __future__ import annotations

import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# (rtol, atol) for a value against its reference; README.md derives both.
TOL_DIRECT = (1e-8, 1e-10)  # one quadrature, or a closed form the engine sums
TOL_ALGEBRA = (1e-6, 1e-8)  # grid convolutions, stencils, nested quadratures


@dataclass
class Op:
    """One benchmark operation.

    ``run(tracer)`` makes the calls into mellinium and returns their
    output; ``expect()`` computes the reference once, before timing;
    ``check(output, reference, tally)`` says whether the output is right
    and may add to the tally. ``fault`` names a known fault the op
    exhibits on every run; ``heavy`` keeps it out of the warm-up.
    """

    kind: str
    run: Callable
    expect: Callable
    check: Callable
    fault: str = ""
    heavy: bool = False
    reference: object = field(default=None, repr=False)


@dataclass
class Measured:
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    unexpected: Counter = field(default_factory=Counter)
    tally: Counter = field(default_factory=Counter)


def execute(op: Op, tracer, tally: Counter, errors: tuple) -> tuple[bool, float]:
    """Run and check one op; returns (passed, wall seconds of the run)."""
    tracer.begin_op(op.kind)
    t0 = time.perf_counter()
    try:
        out = op.run(tracer)
    except errors:
        dt = time.perf_counter() - t0
        tracer.end_op()
        tally["mellin_core.errors"] += 1
        return False, dt
    dt = time.perf_counter() - t0
    tracer.end_op()
    return bool(op.check(out, op.reference, tally)), dt


def measure(ops: list[Op], seconds: float, tracer, errors: tuple = (), children: bool = False) -> Measured:
    """Run whole rounds of ops until at least ``seconds`` have passed.

    Every round is the same list, so the failed share of attempted ops
    does not depend on how many rounds fit. CPU time is the process's
    own, plus its waited-for children when ``children`` is set.
    """
    m = Measured()
    c0 = _cpu_s(children)
    t0 = time.perf_counter()
    while True:
        for op in ops:
            ok, dt = execute(op, tracer, m.tally, errors)
            m.attempted += 1
            if ok:
                m.latencies_s.append(dt)
            else:
                m.failed += 1
                if not op.fault:
                    m.unexpected[op.kind] += 1
        if time.perf_counter() - t0 >= seconds:
            break
    m.wall_s = time.perf_counter() - t0
    m.cpu_s = _cpu_s(children) - c0
    return m


def _cpu_s(children: bool) -> float:
    """User plus system CPU seconds of this process, and its children if asked."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if children else (resource.RUSAGE_SELF,)
    return sum(r.ru_utime + r.ru_stime for r in map(resource.getrusage, who))
