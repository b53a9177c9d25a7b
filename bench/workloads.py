"""The in-process workloads, ``points`` and ``algebra``, as seeded op rounds.

A round is a fixed list of ops. The seed draws each op's inputs (alpha,
scale parameters, spectra) from a range fixed per op class, so the mix
of classes, and so the kind of work, is the same for every seed. Ranges
stay clear of the regions where the engine is known to fail; the known
faults F1-F3 are kept as fixed ops instead, with inputs that do not
depend on the seed.

Each op has a ``run`` (the calls into mellinium, through the tracer), an
``expect`` (the reference, from ``reference``, computed once before
timing) and a ``check`` (output against reference).
"""

from __future__ import annotations

import math
import random

import numpy as np

import mellinium as M
from ops import TOL_ALGEBRA, TOL_DIRECT, Op
from spans import KERNEL, PRIMITIVE


class _LazyReference:
    """The reference module, imported on first use.

    It loads mpmath; deferring the import keeps it out of set-up time.
    """

    def __getattr__(self, name):
        import reference

        return getattr(reference, name)


ref = _LazyReference()

PROBE_GRID = np.geomspace(1e-6, 1e6, 61)
SAMPLE_GRID = np.geomspace(1e-3, 1e2, 2048)
SAMPLE_CHECK_STRIDE = 64  # every 64th sample is checked against mpmath


# -- inputs handed to the program ------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(z):
    """Complex Gamma by the Lanczos approximation (g = 7, 9 terms), vectorized.

    The transform handed to inverse_mellin, residue_asymptotics and the
    base TransformedPair; numpy only, so no mellinium code computes it.
    """
    zz = np.asarray(z, dtype=complex)
    refl = zz.real < 0.5
    w = np.where(refl, 1.0 - zz, zz) - 1.0
    acc = np.full(w.shape, _LANCZOS[0], dtype=complex)
    for i, c in enumerate(_LANCZOS[1:], 1):
        acc = acc + c / (w + i)
    t = w + _LANCZOS_G + 0.5
    g = math.sqrt(2.0 * math.pi) * np.exp((w + 0.5) * np.log(t) - t) * acc
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(refl, math.pi / (np.sin(math.pi * zz) * g), g)
    return complex(out) if np.ndim(z) == 0 else out


def exp_fn(beta: float) -> M.MellinFunction:
    def ev(x):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-beta * np.asarray(x))

    return M.MellinFunction(ev, 0.0, math.inf, label=f"exp({beta:.3g})")


def power_log_fn(eps: float, k: int) -> M.MellinFunction:
    """x^eps (-log x)^k on (0, 1], zero beyond; strip <-eps, inf>."""

    def ev(x):
        arr = np.asarray(x, dtype=float)
        xc = np.clip(arr, 1e-300, 1.0)
        with np.errstate(under="ignore"):
            return np.where(arr <= 1.0, xc**eps * (-np.log(xc)) ** k, 0.0)

    return M.MellinFunction(ev, -eps, math.inf, label=f"power_log({eps:.3g},{k})")


def heat_kernel_fn(n: int, r: float) -> M.MellinFunction:
    """e^(-pi r^2 / g) g^(-n/2); strip <-inf, n/2>."""
    a = math.pi * r * r

    def ev(g):
        arr = np.asarray(g, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = np.exp(-a / arr) * arr ** (-0.5 * n)
        return np.where(np.isfinite(out), out, 0.0)

    return M.MellinFunction(ev, -math.inf, 0.5 * n, label=f"heat_kernel({n},{r:.3g})")


# -- checks -----------------------------------------------------------------


def _estimate(value, err, expected, tally) -> None:
    tally["mellin_core.estimates"] += 1
    if abs(complex(value) - complex(expected)) > err:
        tally["mellin_core.estimate_misses"] += 1


def check_tv(tol):
    """A TransformValue against its reference; its estimate is tallied."""

    def check(tv, expected, tally):
        _estimate(tv.value, tv.abs_error_estimate, expected, tally)
        return ref.close(tv.value, expected, *tol)

    return check


def check_values(tol):
    """A value, or a tuple of values, against references of the same shape."""

    def check(out, expected, tally):
        outs = out if isinstance(out, tuple) else (out,)
        exps = expected if isinstance(expected, tuple) else (expected,)
        return all(ref.close(o, e, *tol) for o, e in zip(outs, exps, strict=True))

    return check


def check_inverse(out, expected, tally):
    value, err = out
    _estimate(value, err, expected, tally)
    return ref.close(value, expected, *TOL_DIRECT)


def check_strip(strip, expected, tally):
    """Inferred edges within the fit tolerance plus margin of the true ones."""
    return all(
        (math.isinf(got) and got == want) or (math.isfinite(want) and abs(got - want) <= 0.3)
        for got, want in ((strip.a, expected[0]), (strip.b, expected[1]))
    )


# -- points -----------------------------------------------------------------


def _transform_op(kind, f, alpha, norm, expect, fault=""):
    def run(tr):
        return tr.call("mellin_core.forward_mellin", M.forward_mellin, tr.fn(f), alpha, norm)

    return Op(kind, run, expect, check_tv(TOL_DIRECT), fault=fault)


def _norm(kind: str, p: float = 0.0):
    if kind == "gamma":
        return M.Normalization.gamma()
    if kind == "gamma_p":
        return M.Normalization.gamma_p(p)
    return M.Normalization.haar()


def points_round(seed: int) -> list[Op]:
    rng = random.Random(seed)
    u = rng.uniform
    ops: list[Op] = []
    bose = M.bose_function()
    fermi = M.fermi_function()

    def exp_op(alpha, norm, p=0.0):
        beta = u(0.5, 3.0)
        ops.append(
            _transform_op(
                f"transform.exp.{norm}",
                exp_fn(beta),
                alpha,
                _norm(norm, p),
                lambda: ref.exp_transform(alpha, beta, norm, p),
            )
        )

    for _ in range(6):
        exp_op(complex(u(0.5, 4.0)), "haar")
    for _ in range(6):
        exp_op(complex(u(0.5, 4.0), u(-8.0, 8.0)), "gamma")
    for p in (0.5, 1.5, 0.5, 1.5):
        exp_op(complex(u(0.3, 3.0)), "gamma_p", p)
    for _ in range(4):  # near the left edge: the window widens into many panels
        exp_op(complex(u(0.045, 0.055), u(-1.0, 1.0)), "haar")
    for _ in range(3):
        exp_op(complex(u(6.0, 14.0), u(-3.0, 3.0)), "gamma")

    gamma = M.Normalization.gamma()
    fermi_alphas = [complex(u(0.2, 4.0)) for _ in range(3)]
    fermi_alphas += [complex(u(0.5, 3.0), u(-6.0, 6.0)) for _ in range(3)]
    fermi_alphas += [complex(u(0.08, 0.1))]
    for alpha in fermi_alphas:
        ops.append(_transform_op("transform.fermi", fermi, alpha, gamma, lambda a=alpha: ref.eta(a)))
    bose_alphas = [complex(u(1.2, 4.0)) for _ in range(3)]
    bose_alphas += [complex(u(1.5, 4.0), u(-6.0, 6.0)) for _ in range(3)]
    bose_alphas += [complex(u(1.045, 1.055)) for _ in range(2)]
    for alpha in bose_alphas:
        ops.append(_transform_op("transform.bose", bose, alpha, gamma, lambda a=alpha: ref.zeta(a)))

    haar = M.Normalization.haar()
    for i in range(6):
        eps, k = u(0.2, 1.0), i % 3
        alpha = complex(u(-eps + 0.1, 3.0), u(-3.0, 3.0))
        ops.append(
            _transform_op(
                "transform.power_log",
                power_log_fn(eps, k),
                alpha,
                haar,
                lambda a=alpha, e=eps, kk=k: ref.power_log_transform(a, e, kk),
            )
        )
    for n in (3, 4, 5, 3):
        r = u(0.5, 2.0)
        alpha = complex(u(-2.0, 0.5 * n - 0.2), u(-2.0, 2.0))
        ops.append(
            _transform_op(
                "transform.heat_kernel",
                heat_kernel_fn(n, r),
                alpha,
                haar,
                lambda a=alpha, nn=n, rr=r: ref.heat_kernel_transform(a, nn, rr),
            )
        )

    def hankel_op(alpha):
        def run(tr):
            return tr.call("mellin_core.hankel_mellin", M.hankel_mellin, tr.fn(bose), alpha)

        ops.append(Op("hankel.bose", run, lambda: ref.zeta(alpha), check_tv(TOL_DIRECT)))

    for _ in range(4):
        hankel_op(complex(u(0.1, 0.9), u(-3.0, 3.0)))
    for pole in (2.0, 3.0):  # inside the pole window: the continuation circle
        hankel_op(complex(pole + u(-0.015, 0.015)))

    for _ in range(3):
        c, x = u(0.5, 2.0), u(0.2, 3.0)

        def run(tr, c=c, x=x):
            return tr.call("mellin_core.inverse_mellin", M.inverse_mellin, gamma_fn, c, x)

        ops.append(Op("inverse.gamma", run, lambda x=x: ref.exp_decay(x), check_inverse))

    for alpha in (complex(u(1.2, 5.0)), complex(u(1.5, 4.0), u(-5.0, 5.0))):

        def run(tr, a=alpha):
            return tr.call("applications.zeta_value", M.zeta_value, a)

        ops.append(Op("zeta_value", run, lambda a=alpha: ref.zeta(a), check_values(TOL_DIRECT)))
    for alpha in (complex(u(0.2, 3.0)), complex(u(0.5, 3.0), u(-5.0, 5.0))):

        def run(tr, a=alpha):
            return tr.call("applications.eta_value", M.eta_value, a)

        ops.append(Op("eta_value", run, lambda a=alpha: ref.eta(a), check_values(TOL_DIRECT)))

    for i in range(3):
        spectrum = sorted(u(0.5, 5.0) for _ in range(2 + i))
        op = M.OperatorSpec.from_spectrum(spectrum)
        alpha = complex(u(0.3, 3.0), u(-2.0, 2.0))

        def run_zeta(tr, op=op, a=alpha):
            return tr.call("operator_calculus.spectral_zeta", M.spectral_zeta, op, a, "mellin")

        def run_eta(tr, op=op, a=alpha):
            return tr.call("operator_calculus.spectral_eta", M.spectral_eta, op, a)

        ops.append(
            Op("spectral_zeta", run_zeta, lambda s=spectrum, a=alpha: ref.spectral_zeta(s, a), check_values(TOL_DIRECT))
        )
        ops.append(
            Op("spectral_eta", run_eta, lambda s=spectrum, a=alpha: ref.spectral_eta(s, a), check_values(TOL_DIRECT))
        )

    for n in (3, 4, 5):
        r = u(0.5, 2.0)
        problem = M.HeatKernelProblem(n, (0.0, 0.0), (r, 0.0))

        def run(tr, p=problem):
            return tr.call("applications.greens_function", M.greens_function, p, "quadrature")

        ops.append(Op("greens_function", run, lambda n=n, r=r: ref.greens(n, r), check_values(TOL_DIRECT)))

    for m in (3, 5):
        x = u(0.05, 0.5)
        poles = [complex(-j) for j in range(m)]

        def run(tr, x=x, poles=poles):
            return tr.call("asymptotics.residue_asymptotics", M.residue_asymptotics, gamma_fn, poles, x)

        ops.append(Op("residue_asymptotics", run, lambda x=x, m=m: ref.exp_taylor(x, m), check_values(TOL_DIRECT)))

    eps = u(0.2, 1.0)
    for f, strip in (
        (exp_fn(u(0.5, 3.0)), (0.0, math.inf)),
        (fermi, (0.0, math.inf)),
        (power_log_fn(eps, 1), (-eps, math.inf)),
    ):

        def run(tr, f=f):
            return tr.call("mellin_core.infer_strip", M.infer_strip, tr.fn(f), PROBE_GRID)

        ops.append(Op("infer_strip", run, lambda s=strip: s, check_strip))

    # Known faults, fixed inputs: each fails on every run today.
    ops.append(
        _transform_op("fault.F1", exp_fn(1.0), 20.0 + 0j, haar, lambda: ref.exp_transform(20.0), fault="F1")
    )

    def run_f2(tr):
        return tr.call("applications.eta_value", M.eta_value, 0.5 + 30j)

    ops.append(Op("fault.F2", run_f2, lambda: ref.eta(0.5 + 30j), check_values(TOL_DIRECT), fault="F2"))
    ops.append(_transform_op("fault.F3", bose, 1.01 + 0j, gamma, lambda: ref.zeta(1.01), fault="F3"))
    return ops


# -- algebra ----------------------------------------------------------------


def window(a: float, b: float, alpha: complex) -> M.QuadratureConfig:
    """The default config, its window widened so the tails at alpha clear abs_tol.

    forward_mellin widens its own window by this rule; a convolution grid
    must span the same window, so the convolution ops build theirs from it,
    as gamma_reflection and the CLI's convolve do.
    """
    cfg = M.DEFAULT_CONFIG
    need = -math.log(cfg.abs_tol) + 9.0
    lo, hi = cfg.truncation_bounds
    if math.isfinite(a):
        lo = max(min(lo, -need / max(alpha.real - a, 0.02)), -2400.0)
    if math.isfinite(b):
        hi = min(max(hi, need / max(b - alpha.real, 0.02)), 2400.0)
    return M.QuadratureConfig(cfg.rel_tol, cfg.abs_tol, cfg.max_levels, (lo, hi))


def _base_pair() -> M.TransformedPair:
    return M.TransformedPair(exp_fn(1.0), gamma_fn, M.FundamentalStrip(0.0, math.inf), label="exp")


# rule kind -> (rule factory, seeded parameter, test alpha range given the parameter)
_RULES = {
    "Scale": (M.Scale, lambda u: u(0.5, 3.0), lambda p: (0.5, 3.0)),
    "PowerShift": (M.PowerShift, lambda u: u(-0.5, 1.5), lambda p: (0.5 - p, 3.0)),
    "PowerSubstitute": (M.PowerSubstitute, lambda u: u(0.5, 2.0), lambda p: (0.5, 3.0)),
    "LogMultiply": (M.LogMultiply, lambda u: int(u(1, 3)), lambda p: (0.5, 3.0)),
    "EulerDerivative": (M.EulerDerivative, lambda u: int(u(1, 3)), lambda p: (0.5, 3.0)),
    "Derivative": (M.Derivative, lambda u: int(u(1, 3)), lambda p: (p + 0.5, p + 3.0)),
    "Primitive": (M.Primitive, lambda u: 1, lambda p: (-0.8, -0.2)),
}


def _rule_op(kind, param, alpha, xs, base):
    rule = _RULES[kind][0](param)
    span = PRIMITIVE if kind == "Primitive" else "strip_algebra.rule_function"

    def run(tr):
        pair = tr.call("strip_algebra.apply_rule", M.apply_rule, rule, base)
        f = tr.wrap(span, pair.function_side.eval)
        return (complex(pair.transform_side(alpha)),) + tuple(complex(f(x)) for x in xs)

    def expect():
        return (ref.rule_transform(kind, param, alpha),) + tuple(ref.rule_function(kind, param, x) for x in xs)

    return Op(f"apply_rule.{kind}", run, expect, check_values(TOL_ALGEBRA), heavy=kind == "Primitive")


def algebra_round(seed: int) -> list[Op]:
    rng = random.Random(seed)
    u = rng.uniform
    ops: list[Op] = []

    def conv_op(kind, build, f, h, alpha, expect):
        strip = (0.0, 1.0) if build is M.star_convolve else (0.0, math.inf)
        cfg = window(*strip, alpha)

        def run(tr):
            conv = tr.call(f"strip_algebra.{build.__name__}", build, tr.fn(f), tr.fn(h), cfg)
            return tr.call("mellin_core.forward_mellin", M.forward_mellin, tr.fn(conv, KERNEL), alpha, cfg=cfg)

        ops.append(Op(kind, run, expect, check_tv(TOL_ALGEBRA)))

    for _ in range(12):
        b1, b2 = u(0.5, 2.0), u(0.5, 2.0)
        alpha = complex(u(1.0, 3.0), u(-1.0, 1.0))
        conv_op(
            "mult_convolve.exp_exp",
            M.mult_convolve,
            exp_fn(b1),
            exp_fn(b2),
            alpha,
            lambda a=alpha, b1=b1, b2=b2: ref.exp_product_transform(a, b1, b2),
        )
    for _ in range(4):
        b = u(0.5, 2.0)
        alpha = complex(u(1.0, 3.0), u(-1.0, 1.0))
        conv_op(
            "mult_convolve.exp_fermi",
            M.mult_convolve,
            exp_fn(b),
            M.fermi_function(),
            alpha,
            lambda a=alpha, b=b: ref.exp_fermi_transform(a, b),
        )
    for _ in range(8):
        b1, b2 = u(0.5, 2.0), u(0.5, 2.0)
        alpha = complex(u(0.4, 0.6), u(-0.5, 0.5))
        conv_op(
            "star_convolve.exp_exp",
            M.star_convolve,
            exp_fn(b1),
            exp_fn(b2),
            alpha,
            lambda a=alpha, b1=b1, b2=b2: ref.exp_star_transform(a, b1, b2),
        )

    for _ in range(2):
        alpha = complex(u(0.4, 0.6), u(-0.5, 0.5))

        def run(tr, a=alpha):
            return tr.call("applications.gamma_reflection", M.gamma_reflection, a)

        r = lambda a=alpha: (ref.reflection(a), ref.reflection(a))
        ops.append(Op("gamma_reflection", run, r, check_values(TOL_ALGEBRA), heavy=True))

    terms = 12
    for d in (1, 2, 3):
        spectrum = sorted(u(1.0, 3.0) for _ in range(d))
        op = M.OperatorSpec.from_spectrum(spectrum)
        alpha = complex(1.0 + (d % 2))

        def run_ce(tr, op=op, a=alpha):
            ce = tr.call("strip_algebra.convolution_exp", M.convolution_exp, tr.fn(op.heat_trace()), terms)
            return tr.call("mellin_core.forward_mellin", M.forward_mellin, tr.fn(ce, KERNEL), a)

        ops.append(
            Op(
                "convolution_exp",
                run_ce,
                lambda s=spectrum, a=alpha: ref.conv_exp_transform(s, a, terms),
                check_tv(TOL_ALGEBRA),
                heavy=True,
            )
        )
        for a in (1.0 + 0j, 2.0 + 0j):

            def run_key(tr, op=op, a=a):
                return tr.call("operator_calculus.key_identity_check", M.key_identity_check, op, a, terms)

            def check_key(out, expected, tally):
                lhs, rhs, bound = out
                return (
                    ref.close(lhs, expected[0], *TOL_DIRECT)
                    and ref.close(rhs, expected[1], *TOL_ALGEBRA)
                    and abs(lhs - rhs) <= bound
                )

            ops.append(
                Op(
                    "key_identity_check",
                    run_key,
                    lambda s=spectrum, a=a: (ref.key_lhs(s, a), ref.conv_exp_transform(s, a, terms)),
                    check_key,
                    heavy=True,
                )
            )

    # The convolution of e^(-beta x) with a three-term heat trace, sampled
    # on more points than one evaluation chunk holds: the largest arrays
    # any op builds, so peak memory does not depend on the seed.
    beta = u(0.5, 2.0)
    spectrum = sorted(u(1.0, 3.0) for _ in range(3))
    heat = M.OperatorSpec.from_spectrum(spectrum).heat_trace()

    def run_sample(tr):
        conv = tr.call("strip_algebra.mult_convolve", M.mult_convolve, tr.fn(exp_fn(beta)), tr.fn(heat))
        return tuple(tr.wrap(KERNEL, conv.eval)(SAMPLE_GRID)[::SAMPLE_CHECK_STRIDE])

    ops.append(
        Op(
            "mult_convolve.sample",
            run_sample,
            lambda: tuple(
                ref.exp_heat_trace_convolution(x, beta, spectrum) for x in SAMPLE_GRID[::SAMPLE_CHECK_STRIDE]
            ),
            check_values(TOL_ALGEBRA),
            heavy=True,
        )
    )

    # Four of each light rule: with as many cheap ops below the convolution
    # ops as dear ones above, the median op is a mult convolution.
    base = _base_pair()
    for kind, (_, draw, span) in _RULES.items():
        for _ in range(1 if kind == "Primitive" else 4):
            param = draw(u)
            alpha = complex(u(*span(param)), u(-1.0, 1.0))
            ops.append(_rule_op(kind, param, alpha, (u(0.2, 0.7), u(1.5, 3.0)), base))

    b1, b2 = u(0.5, 2.0), u(0.5, 2.0)
    alpha = complex(u(1.2, 1.6))
    c = alpha.real * u(0.4, 0.6)
    g, h = exp_fn(b1), exp_fn(b2)

    def run_parseval(tr):
        return tr.call("strip_algebra.parseval_pair", M.parseval_pair, tr.fn(g), tr.fn(h), alpha, c)

    def expect_parseval():
        value = ref.parseval_exp(alpha, b1, b2)
        return value, value

    ops.append(Op("parseval_pair", run_parseval, expect_parseval, check_values(TOL_ALGEBRA), heavy=True))
    return ops
