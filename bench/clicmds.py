"""The ``cli`` workload: ``python -m mellinium.cli`` as users run it.

A round is a seeded list of single commands and sweeps, run once and
then again in the same order, so every argv repeats within a run and its
output can be held to byte identity. One CLI process runs at a time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import subprocess
import sys

import numpy as np

import reference as ref
from ops import TOL_ALGEBRA, TOL_DIRECT, Op
from reference import close


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """The same argv through ``mellinium.cli.run`` in this process."""
    from mellinium import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def parse_records(text: str, fmt: str) -> list[tuple[bool, complex | None]]:
    """(skipped, value) for each record of JSON Lines or CSV output."""
    if fmt == "csv":
        rows = csv.DictReader(io.StringIO(text))
        return [
            (row["skipped"] == "true", complex(float(row["value_re"]), float(row["value_im"])) if row["value_re"] else None)
            for row in rows
        ]
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        value = rec["value"]
        out.append((rec["skipped"], None if value is None else complex(value[0], value[1])))
    return out


def _op(kind, argv, fmt, expect, tol, seen, env, tracing) -> Op:
    cmd = [sys.executable, "-m", "mellinium.cli", *argv]

    def run(tr):
        proc = tr.call("cli.process", subprocess.run, cmd, capture_output=True, env=env)
        inproc = tr.call("cli.run", run_in_process, argv) if tracing else None
        return proc, inproc

    def check(out, expected, tally):
        proc, inproc = out
        if proc.returncode != 0:
            return False
        text = proc.stdout.decode()
        records = parse_records(text, fmt)
        tally["cli.records"] += len(records)
        tally["cli.bytes"] += len(proc.stdout)
        same = seen.setdefault(tuple(argv), proc.stdout) == proc.stdout
        if inproc is not None:
            same = same and inproc == (0, text)
        return (
            same
            and len(records) == len(expected)
            and all(
                not skipped and (want is None or (value is not None and close(value, want, *tol)))
                for (skipped, value), want in zip(records, expected)
            )
        )

    return Op(kind, run, expect, check)


def _a(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _grid(start: float, stop: float, count: int, im: float = 0.0) -> tuple[str, list[complex]]:
    spec = f"{start!r}:{stop!r}:{count}" + (f",{im!r}" if im else "")
    return spec, [complex(re, im) for re in np.linspace(start, stop, count)]


def cli_round(seed: int, env: dict, tracing: bool) -> list[Op]:
    rng = random.Random(seed)
    u = rng.uniform
    seen: dict = {}
    ops: list[Op] = []

    def add(kind, argv, expect, tol=TOL_DIRECT, fmt="jsonl"):
        ops.append(_op(kind, argv, fmt, expect, tol, seen, env, tracing))

    def spectrum(d):
        values = sorted(round(u(0.5, 5.0), 6) for _ in range(d))
        return values, ",".join(repr(v) for v in values)

    # single commands
    beta, a = u(0.5, 3.0), complex(u(0.5, 4.0), u(-5.0, 5.0))
    add("transform", ["transform", "--fn", "exp_decay", f"--beta={beta!r}", f"--alpha={_a(a)}", "--norm", "gamma"],
        lambda beta=beta, a=a: [ref.exp_transform(a, beta, "gamma")])
    a = complex(u(0.3, 3.0), u(-5.0, 5.0))
    add("transform", ["transform", "--fn", "fermi", f"--alpha={_a(a)}", "--norm", "gamma"], lambda a=a: [ref.eta(a)])
    a = complex(u(1.2, 4.0), u(-5.0, 5.0))
    add("zeta", ["zeta", f"--alpha={_a(a)}"], lambda a=a: [ref.zeta(a)])
    a = complex(u(0.1, 0.9), u(-3.0, 3.0))
    add("zeta", ["zeta", f"--alpha={_a(a)}", "--route", "hankel"], lambda a=a: [ref.zeta(a)])
    a = complex(u(0.3, 3.0), u(-5.0, 5.0))
    add("eta", ["eta", f"--alpha={_a(a)}"], lambda a=a: [ref.eta(a)])
    s, s_arg = spectrum(3)
    a = complex(u(0.2, 2.0), u(-2.0, 2.0))
    add("det", ["det", f"--spectrum={s_arg}", f"--alpha={_a(a)}"], lambda s=s, a=a: [ref.det_power(s, a)])
    add("power", ["power", f"--spectrum={s_arg}", f"--alpha={_a(a)}"], lambda s=s, a=a: [ref.eigen_power(e, a) for e in s])
    add("log", ["log", f"--spectrum={s_arg}"], lambda s=s: [ref.neg_log(e) for e in s], TOL_ALGEBRA)
    n, r = int(u(3, 6)), u(0.5, 2.0)
    add("greens", ["greens", f"--n={n}", f"--distance={r!r}", "--route", "quadrature"], lambda n=n, r=r: [ref.greens(n, r)])
    beta, x, c = u(0.5, 2.0), u(0.2, 3.0), u(0.5, 2.0)
    add("invert", ["invert", "--fn", "exp_decay", f"--beta={beta!r}", f"--x={x!r}", f"--c={c!r}"],
        lambda beta=beta, x=x: [ref.exp_decay(x, beta)])
    x, m = u(0.05, 0.5), int(u(3, 7))
    add("asymptotic", ["asymptotic", "--fn", "exp_decay", f"--x={x!r}", f"--terms={m}"], lambda x=x, m=m: [ref.exp_taylor(x, m)])
    # the pole map of 1/(e^x - 1): exponents -1, 0, 1, 3, 5 in ascending order
    add("asymptotic", ["asymptotic", "--fn", "bose", "--terms=5"],
        lambda: [ref.bose_series_coefficient(e) for e in (-1, 0, 1, 3, 5)])
    add("strip", ["strip", "--fn", "bose"], lambda: [None])
    b1, b2, a = u(0.5, 2.0), u(0.5, 2.0), complex(u(1.0, 3.0), u(-1.0, 1.0))
    add("convolve",
        ["convolve", "--kind", "mult", "--fn", "exp_decay", "--fn2", "exp_decay", f"--beta={b1!r}", f"--beta2={b2!r}",
         f"--alpha={_a(a)}"],
        lambda a=a, b1=b1, b2=b2: [ref.exp_product_transform(a, b1, b2)], TOL_ALGEBRA)
    a = complex(u(0.4, 0.6), u(-0.5, 0.5))
    add("reflection", ["reflection", f"--alpha={_a(a)}"], lambda a=a: [ref.reflection(a)], TOL_ALGEBRA)
    s = sorted(round(u(1.0, 3.0), 6) for _ in range(2))
    add("key-check", ["key-check", f"--spectrum={','.join(repr(v) for v in s)}", "--alpha=2"],
        lambda s=s: [ref.conv_exp_transform(s, 2.0, 12)], TOL_ALGEBRA)

    # sweeps, through the CLI's thread pool
    spec, grid = _grid(u(0.1, 0.2), u(0.8, 0.9), 16)
    add("sweep.zeta", ["sweep", "zeta", "--route", "hankel", f"--alpha-grid={spec}"], lambda g=grid: [ref.zeta(a) for a in g])
    spec, grid = _grid(u(0.3, 0.5), u(2.0, 3.0), 16, u(2.0, 5.0))
    add("sweep.eta", ["sweep", "eta", f"--alpha-grid={spec}"], lambda g=grid: [ref.eta(a) for a in g])
    spec, grid = _grid(u(1.2, 1.5), u(3.0, 4.0), 16)
    add("sweep.transform", ["sweep", "transform", "--fn", "bose", "--norm", "gamma", f"--alpha-grid={spec}", "--format", "csv"],
        lambda g=grid: [ref.zeta(a) for a in g], fmt="csv")
    s, s_arg = spectrum(2)
    spec, grid = _grid(u(0.2, 0.5), u(1.5, 2.5), 32)
    add("sweep.det", ["sweep", "det", f"--spectrum={s_arg}", f"--alpha-grid={spec}"], lambda s=s, g=grid: [ref.det_power(s, a) for a in g])
    spec, grid = _grid(u(0.2, 0.3), u(0.7, 0.8), 8)
    add("sweep.reflection", ["sweep", "reflection", f"--alpha-grid={spec}"], lambda g=grid: [ref.reflection(a) for a in g], TOL_ALGEBRA)
    s = sorted(round(u(1.0, 3.0), 6) for _ in range(2))
    add("sweep.key-check", ["sweep", "key-check", f"--spectrum={','.join(repr(v) for v in s)}", "--alpha-grid=1:2:2"],
        lambda s=s: [ref.conv_exp_transform(s, a, 12) for a in (1.0, 2.0)], TOL_ALGEBRA)
    b1, b2 = u(0.5, 2.0), u(0.5, 2.0)
    spec, grid = _grid(u(0.25, 0.35), u(0.65, 0.75), 8)
    add("sweep.convolve",
        ["sweep", "convolve", "--kind", "star", "--fn", "exp_decay", "--fn2", "exp_decay", f"--beta={b1!r}", f"--beta2={b2!r}",
         f"--alpha-grid={spec}", "--format", "csv"],
        lambda g=grid, b1=b1, b2=b2: [ref.exp_star_transform(a, b1, b2) for a in g], TOL_ALGEBRA, fmt="csv")
    return ops + ops
