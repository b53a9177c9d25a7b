"""Acceptance gate: fifteen numbered criteria, one verdict line each.

Every test prints "criterion NN <name>: PASS/FAIL (<metric>)" on the
live terminal before asserting, so a full run always shows the whole
scoreboard even under output capture.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import scipy.linalg
from scipy.special import gamma as sc_gamma

from mellinium import (
    Derivative,
    EulerDerivative,
    FundamentalStrip,
    HankelContourSpec,
    HeatKernelProblem,
    LogMultiply,
    Normalization,
    OperatorSpec,
    PowerShift,
    PowerSubstitute,
    Primitive,
    Scale,
    TransformedPair,
    anomaly_phase,
    apply_rule,
    complex_power,
    convolution_exp,
    eta_value,
    forward_mellin,
    functional_determinant,
    functional_log,
    greens_function,
    inverse_mellin,
    involution,
    key_identity_check,
    mult_convolve,
    residue_asymptotics,
    resolvent,
    spectral_zeta,
    star_convolve,
    zeta_value,
)

from conftest import make_exp, make_self_involutive
from oracles import zeta_from_eta

GAMMA_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5 + 1.0j, 3.0)


def report(capsys, num: int, name: str, ok: bool, metric: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({metric})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(1e-300, abs(want))


def exp_pair() -> TransformedPair:
    return TransformedPair(
        function_side=make_exp(1.0),
        transform_side=lambda a: complex(sc_gamma(a)),
        strip=FundamentalStrip(0.0, math.inf),
        label="exp",
    )


def test_criterion_01_gamma_reproduction(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in GAMMA_ALPHAS:
        got = forward_mellin(make_exp(1.0), alpha).value
        worst = max(worst, rel_err(got, complex(sc_gamma(alpha))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(capsys, 1, "gamma reproduction", ok, f"rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_scaling_family(capsys):
    worst = 0.0
    for beta in (0.5, 2.0, 10.0):
        for alpha in GAMMA_ALPHAS:
            got = forward_mellin(make_exp(beta), alpha).value
            want = complex(sc_gamma(alpha)) / complex(beta) ** alpha
            worst = max(worst, rel_err(got, want))
    ok = worst <= 1e-8
    report(capsys, 2, "scaling family", ok, f"rel {worst:.2e}")


def test_criterion_03_rule_table(capsys):
    interior = (0.6, 1.1, 1.7, 2.3, 2.9)
    cases = (
        (Scale(2.0), interior),
        (PowerShift(0.5), interior),
        (PowerSubstitute(2.0), interior),
        (LogMultiply(1), interior),
        (EulerDerivative(1), interior),
        (Derivative(1), (1.6, 2.1, 2.7, 3.2, 3.8)),
        (Primitive(1), (-0.8, -0.65, -0.5, -0.35, -0.2)),
    )
    worst = 0.0
    for rule, alphas in cases:
        pair = apply_rule(rule, exp_pair())
        for alpha in alphas:
            got = forward_mellin(pair.function_side, alpha).value
            worst = max(worst, rel_err(got, complex(pair.transform_side(alpha))))
    ok = worst <= 1e-7
    report(capsys, 3, "rule table", ok, f"7 kinds x 5 alphas, rel {worst:.2e}")


def test_criterion_04_inversion_round_trip(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        got, _ = inverse_mellin(lambda a: complex(sc_gamma(a)), 1.0, x)
        worst = max(worst, abs(got - math.exp(-x)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    report(capsys, 4, "inversion round trip", ok, f"abs {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_convolution_homomorphism(capsys):
    worst = 0.0
    from mellinium import bose_function

    pairs = (
        (make_exp(1.0), make_exp(2.0), 1.5, "mult"),
        (make_exp(1.0), bose_function(), 1.5, "mult"),
        (make_exp(1.0), make_exp(1.0), 0.5, "star"),
    )
    for f, h, alpha, kind in pairs:
        if kind == "mult":
            conv = mult_convolve(f, h)
            want = forward_mellin(f, alpha).value * forward_mellin(h, alpha).value
        else:
            conv = star_convolve(f, h)
            want = (
                forward_mellin(f, alpha).value
                * forward_mellin(h, 1.0 - alpha).value
            )
        got = forward_mellin(conv, alpha).value
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    f = make_self_involutive()
    conv = mult_convolve(f, involution(f))
    for alpha in (-1.0, 0.5, 2.0):
        lhs = abs(forward_mellin(conv, alpha).value)
        rhs = abs(forward_mellin(f, alpha).value) ** 2
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    ok = worst <= 1e-6
    report(capsys, 5, "convolution homomorphism", ok, f"worst gap {worst:.2e}")


def test_criterion_06_gamma_reflection(capsys):
    from mellinium import gamma_reflection

    worst = 0.0
    for alpha in (0.25, 0.5, 0.9):
        lhs, _ = gamma_reflection(alpha)
        want = math.pi / math.sin(math.pi * alpha)
        worst = max(worst, rel_err(lhs, want))
    ok = worst <= 1e-6
    report(capsys, 6, "gamma reflection", ok, f"rel {worst:.2e}")


def test_criterion_07_zeta_both_routes(capsys):
    real_err = max(
        rel_err(zeta_value(2.0).value, math.pi**2 / 6.0),
        rel_err(zeta_value(4.0).value, math.pi**4 / 90.0),
    )
    hankel_err = abs(zeta_value(0.5, "hankel").value - zeta_from_eta(0.5))
    radii = [
        zeta_value(0.5, "hankel", contour=HankelContourSpec(radius=r)).value
        for r in (0.3, 0.5, 0.8)
    ]
    spread = max(abs(a - b) for a in radii for b in radii)
    ok = real_err <= 1e-8 and hankel_err <= 1e-6 and spread <= 1e-7
    report(
        capsys,
        7,
        "zeta both routes",
        ok,
        f"realline {real_err:.2e}, hankel {hankel_err:.2e}, radius spread {spread:.2e}",
    )


def test_criterion_08_eta(capsys):
    special = max(
        abs(eta_value(1.0).value - math.log(2.0)),
        abs(eta_value(2.0).value - math.pi**2 / 12.0),
    )
    consistency = 0.0
    for alpha in (0.25, 0.5, 1.5, 2.5, 3.0):
        route = "hankel" if alpha <= 1.0 else "realline"
        want = (1.0 - 2.0 ** (1.0 - alpha)) * zeta_value(alpha, route).value
        consistency = max(consistency, abs(eta_value(alpha).value - want))
    ok = special <= 1e-8 and consistency <= 1e-7
    report(
        capsys, 8, "eta", ok, f"special {special:.2e}, consistency {consistency:.2e}"
    )


def test_criterion_09_greens_function(capsys):
    g3 = greens_function(HeatKernelProblem(3, (0.0,), (1.0,))).value
    g2 = greens_function(HeatKernelProblem(2, (0.0,), (math.e,))).value
    closed5 = greens_function(HeatKernelProblem(5, (0.0,), (1.0,))).value
    quad5 = greens_function(HeatKernelProblem(5, (0.0,), (1.0,)), route="quadrature").value
    ratio = greens_function(HeatKernelProblem(5, (0.0,), (2.0,))).value / closed5
    route_gap = abs(quad5 - closed5)
    ok = (
        abs(g3 - 1.0) <= 1e-12
        and abs(g2 + 2.0) <= 1e-12
        and route_gap <= 1e-8
        and ratio == 2.0 ** (2 - 5)
    )
    report(
        capsys,
        9,
        "greens function",
        ok,
        f"n=3 {abs(g3 - 1.0):.1e}, n=2 {abs(g2 + 2.0):.1e}, "
        f"routes {route_gap:.2e}, scaling exact {ratio == 0.125}",
    )


def test_criterion_10_operator_layer(capsys):
    rng = np.random.default_rng(20260819)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a @ a.conj().T + 4.0 * np.eye(4)
    op = OperatorSpec.from_matrix(h)
    alpha = 1.3
    eigs, vecs = np.linalg.eigh(h)
    powered = np.array(
        [
            forward_mellin(
                make_exp(float(e)), alpha, normalization=Normalization.gamma()
            ).value
            for e in eigs
        ]
    )
    oracle_gap = np.abs(
        complex_power(op, alpha) - (vecs * powered) @ vecs.conj().T
    ).max()
    resolvent_same = np.array_equal(resolvent(op, 0.0, alpha), complex_power(op, alpha))
    log_gap = np.abs(functional_log(op)[0] + scipy.linalg.logm(h)).max()
    dt_gap = 0.0
    for d in (2, 3, 4, 5):
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        opd = OperatorSpec.from_matrix(b @ b.conj().T + 4.0 * np.eye(d))
        m, _ = functional_log(opd)
        lhs = complex(np.linalg.det(scipy.linalg.expm(m)))
        rhs = cmath.exp(complex(np.trace(m)))
        dt_gap = max(dt_gap, abs(lhs - rhs) / max(1.0, abs(rhs)))
    det_gap = abs(functional_determinant(OperatorSpec.from_matrix(np.diag([2.0, 3.0])), 1.0) - 1.0 / 6.0)
    ok = (
        oracle_gap <= 1e-8
        and resolvent_same
        and log_gap <= 1e-6
        and dt_gap <= 1e-10
        and det_gap <= 1e-12
    )
    report(
        capsys,
        10,
        "operator layer",
        ok,
        f"power {oracle_gap:.2e}, log {log_gap:.2e}, det-exp-trace {dt_gap:.2e}, "
        f"det(2,3) {det_gap:.2e}",
    )


def test_criterion_11_spectral_zeta_routes(capsys):
    op = OperatorSpec.from_spectrum(tuple(float(k) for k in range(1, 201)))
    worst = 0.0
    for alpha in (2.0, 3.0):
        direct = spectral_zeta(op, alpha, "direct").value
        through = spectral_zeta(op, alpha, "heat_trace_mellin").value
        worst = max(worst, rel_err(through, direct))
    ok = worst <= 1e-8
    report(capsys, 11, "spectral zeta routes", ok, f"rel {worst:.2e}")


def test_criterion_12_key_identity(capsys):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    within = True
    for spectrum, alpha in (((1.0,), 2.0), ((2.0,), 1.0), ((1.0, 2.0), 2.0)):
        op = OperatorSpec.from_spectrum(spectrum)
        lhs, rhs, bound = key_identity_check(op, alpha)
        dev = abs(lhs - rhs)
        within = within and dev <= bound
        worst_ratio = max(worst_ratio, dev / bound)
    elapsed = time.perf_counter() - t0
    ok = within and elapsed < 60.0
    report(
        capsys,
        12,
        "key identity",
        ok,
        f"worst dev/bound {worst_ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_13_asymptotics(capsys):
    taylor = 0.0
    for n in range(6):
        got = residue_asymptotics(
            lambda z: complex(sc_gamma(z)), poles=(-float(n),), x=1.0
        )
        taylor = max(taylor, abs(got - (-1.0) ** n / math.factorial(n)))

    def bose_transform(z):
        return complex(mp.gamma(z) * mp.zeta(z))

    x = 0.01
    endpoint = abs(
        residue_asymptotics(bose_transform, poles=(1.0, 0.0, -1.0), x=x)
        - 1.0 / math.expm1(x)
    )
    ok = taylor <= 1e-10 and endpoint <= x**2
    report(
        capsys,
        13,
        "asymptotics",
        ok,
        f"taylor {taylor:.2e}, endpoint {endpoint:.2e} vs {x**2:.0e}",
    )


def test_criterion_14_anomaly(capsys):
    rng = np.random.default_rng(31)
    exact = True
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        v = anomaly_phase(a @ a.T + 3.0 * np.eye(3), b @ b.T + 3.0 * np.eye(3), 0.6)
        exact = exact and v == 1
    z = cmath.exp(2j * math.pi / 3)
    alpha = 0.3
    winding_gap = abs(
        anomaly_phase([[z]], [[z]], alpha) - cmath.exp(-2j * math.pi * alpha)
    )
    ok = exact and winding_gap <= 1e-12
    report(
        capsys,
        14,
        "anomaly",
        ok,
        f"real PD exact {exact}, winding gap {winding_gap:.2e}",
    )


SWEEP_SUITE = (
    ("sweep", "transform", "--fn", "exp_decay", "--beta", "2",
     "--alpha-grid", "0:2:5", "--norm", "gamma"),
    ("sweep", "convolve", "--fn", "exp_decay", "--fn2", "exp_decay",
     "--kind", "mult", "--alpha-grid", "0.6:1.4:3"),
    ("sweep", "zeta", "--alpha-grid", "1.5:3:4"),
    ("sweep", "zeta", "--route", "hankel", "--alpha-grid", "0.25:0.75:3"),
    ("sweep", "eta", "--alpha-grid", "0.5:2:4"),
    ("sweep", "det", "--spectrum", "2,3", "--alpha-grid", "0.5:1.5:3"),
    ("sweep", "power", "--spectrum", "2,3", "--alpha-grid", "0.5:1:2"),
    ("sweep", "resolvent", "--spectrum", "2,3", "--z=-1,0",
     "--alpha-grid", "0.5:1:2"),
    ("sweep", "reflection", "--alpha-grid", "0.25:0.75:3"),
    ("sweep", "key-check", "--spectrum", "1", "--terms", "6",
     "--rel-tol", "1e-8", "--abs-tol", "1e-10", "--alpha-grid", "1:2:2"),
)


def run_sweep_suite() -> bytes:
    chunks = []
    for argv in SWEEP_SUITE:
        proc = subprocess.run(
            [sys.executable, "-m", "mellinium.cli", *argv],
            capture_output=True,
            check=True,
        )
        chunks.append(proc.stdout)
    return b"".join(chunks)


def test_criterion_15_cli_determinism(capsys):
    first = run_sweep_suite()
    second = run_sweep_suite()
    n_records = first.count(b"\n")
    ok = first == second and n_records > 0
    report(
        capsys,
        15,
        "cli determinism",
        ok,
        f"{n_records} records byte-identical" if ok else "outputs differ",
    )
