"""Rule table, convolutions, Parseval pairing, involution, conv-exp."""

from __future__ import annotations

import cmath
import dataclasses
import math
import random

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as sc_gamma

from mellinium import (
    AnalyticityFailure,
    Derivative,
    DivergentStage,
    EmptyResultStrip,
    EmptyStripIntersection,
    EulerDerivative,
    FundamentalStrip,
    LogMultiply,
    MellinFunction,
    MelliniumError,
    OperatorSpec,
    PowerShift,
    PowerSubstitute,
    Primitive,
    QuadratureDivergence,
    Scale,
    SideConditionViolation,
    SlowContourDecay,
    StripViolation,
    TransformedPair,
    apply_rule,
    bose_function,
    convolution_exp,
    forward_mellin,
    gamma_reflection,
    involution,
    mult_convolve,
    parseval_pair,
    star_convolve,
)

from mellinium.mellin_core import DEFAULT_CONFIG, _widened_config
from mellinium.strip_algebra import _product

from conftest import make_exp, make_power_cutoff, make_self_involutive
from oracles import zeta_from_eta


def exp_pair() -> TransformedPair:
    """e^(-x) with its closed transform, the base pair for rule tests."""
    return TransformedPair(
        function_side=make_exp(1.0),
        transform_side=lambda a: complex(sc_gamma(a)),
        strip=FundamentalStrip(0.0, math.inf),
        label="exp",
    )


def two_path_error(pair: TransformedPair, alphas) -> float:
    """Worst relative gap between quadrature and the claimed transform."""
    worst = 0.0
    for alpha in alphas:
        got = forward_mellin(pair.function_side, alpha).value
        want = complex(pair.transform_side(alpha))
        worst = max(worst, abs(got - want) / max(1e-300, abs(want)))
    return worst


class TestTransformedPair:
    def test_spot_check_accepts_true_pair(self):
        exp_pair()

    def test_spot_check_rejects_wrong_claim(self):
        with pytest.raises(AnalyticityFailure):
            TransformedPair(
                function_side=make_exp(1.0),
                transform_side=lambda a: complex(sc_gamma(a)) * 1.01,
                strip=FundamentalStrip(0.0, math.inf),
            )


class TestRuleTable:
    ALPHAS = (0.6, 1.1, 1.7, 2.3, 2.9)

    def test_scale(self):
        out = apply_rule(Scale(2.0), exp_pair())
        assert out.strip.a == 0.0 and out.strip.b == math.inf
        assert two_path_error(out, self.ALPHAS) < 1e-7
        # closed form: Gamma(alpha) 2^-alpha
        assert out.transform_side(1.5) == pytest.approx(
            complex(sc_gamma(1.5)) * 2.0**-1.5
        )

    def test_scale_requires_positive_factor(self):
        with pytest.raises(SideConditionViolation):
            apply_rule(Scale(-1.0), exp_pair())

    def test_primitive_of_a_strip_right_of_one_is_empty(self):
        # <a - n, min(b, 1) - n> is empty once a >= 1
        pair = TransformedPair(
            make_exp(1.0), lambda a: complex(sc_gamma(a)), FundamentalStrip(1.5, math.inf), verify=False
        )
        with pytest.raises(EmptyResultStrip):
            apply_rule(Primitive(1), pair)

    def test_euler_derivative_order_beyond_the_stencils(self):
        with pytest.raises(SideConditionViolation):
            apply_rule(EulerDerivative(5), exp_pair())

    def test_power_shift(self):
        out = apply_rule(PowerShift(0.5), exp_pair())
        # x^0.5 e^(-x): strip shifts left boundary to -0.5
        assert out.strip.a == -0.5
        assert two_path_error(out, self.ALPHAS) < 1e-7

    def test_power_substitute(self):
        out = apply_rule(PowerSubstitute(2.0), exp_pair())
        assert two_path_error(out, self.ALPHAS) < 1e-7
        # M[e^(-x^2); alpha] = Gamma(alpha/2)/2
        assert out.transform_side(1.0) == pytest.approx(
            complex(sc_gamma(0.5)) / 2.0
        )

    def test_power_substitute_negative_exponent(self):
        out = apply_rule(PowerSubstitute(-1.0), exp_pair())
        # e^(-1/x) has strip <-inf, 0>
        assert out.strip.a == -math.inf and out.strip.b == 0.0
        assert two_path_error(out, (-2.9, -2.3, -1.7, -1.1, -0.6)) < 1e-7

    def test_log_multiply(self):
        out = apply_rule(LogMultiply(1), exp_pair())
        assert two_path_error(out, self.ALPHAS) < 1e-7
        # d/da Gamma at 2: Gamma'(2) = Gamma(2) psi(2) = 1 - gamma_E... use
        # a central difference of the base transform as reference
        h = 1e-6
        want = (complex(sc_gamma(2.0 + h)) - complex(sc_gamma(2.0 - h))) / (2 * h)
        assert out.transform_side(2.0) == pytest.approx(want, rel=1e-8)

    def test_euler_derivative(self):
        out = apply_rule(EulerDerivative(1), exp_pair())
        assert two_path_error(out, self.ALPHAS) < 1e-6
        # (x d/dx) e^(-x) = -x e^(-x); transform -Gamma(alpha + 1)
        assert out.transform_side(1.5) == pytest.approx(
            -complex(sc_gamma(2.5)), rel=1e-12
        )

    def test_derivative(self):
        out = apply_rule(Derivative(1), exp_pair())
        # f' = -e^(-x): transform -Gamma(alpha - 1)... times the rule's
        # factor; verify numerically instead of pinning the closed form.
        assert two_path_error(out, (1.6, 2.1, 2.7, 3.2, 3.8)) < 1e-6

    def test_primitive(self):
        out = apply_rule(Primitive(1), exp_pair())
        # I_1(x) = 1 - e^(-x), strip <-1, 0>
        assert two_path_error(out, (-0.8, -0.65, -0.5, -0.35, -0.2)) < 1e-7

    def test_primitive_order_two(self):
        out = apply_rule(Primitive(2), exp_pair())
        assert two_path_error(out, (-1.8, -1.65, -1.5, -1.35, -1.2)) < 1e-7

    def test_rule_validation(self):
        with pytest.raises(SideConditionViolation):
            apply_rule(LogMultiply(0), exp_pair())
        with pytest.raises(SideConditionViolation):
            apply_rule(PowerSubstitute(0.0), exp_pair())


class TestConvolution:
    def test_mult_convolve_two_path(self):
        f, h = make_exp(1.0), make_exp(2.0)
        conv = mult_convolve(f, h)
        for alpha in (0.7, 1.5, 2.5):
            got = forward_mellin(conv, alpha).value
            want = (
                forward_mellin(f, alpha).value * forward_mellin(h, alpha).value
            )
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_mult_convolve_exact_value(self):
        # (e^-x * e^-x)(x) = x e^-x multiplicatively convolved... check
        # the transform instead: Gamma(alpha)^2 at alpha = 1.5
        conv = mult_convolve(make_exp(1.0), make_exp(1.0))
        got = forward_mellin(conv, 1.5).value
        assert got == pytest.approx(complex(sc_gamma(1.5)) ** 2, rel=1e-8)

    def test_mult_strip_is_intersection(self):
        conv = mult_convolve(make_exp(1.0), bose_function())
        assert conv.strip.a == 1.0
        assert conv.strip.b == math.inf

    def test_star_convolve_reflection_identity(self):
        star = star_convolve(make_exp(1.0), make_exp(1.0))
        assert (star.strip.a, star.strip.b) == (0.0, 1.0)
        got = forward_mellin(star, 0.5).value
        # Gamma(1/2)^2 = pi
        assert got == pytest.approx(math.pi, rel=1e-7)

    def test_transform_past_the_grid_raises(self):
        # at Re(alpha) = 0.75 on <0, 1> the transform window reaches
        # t = 146, far past the default +-40 grid; the uncovered tail must
        # raise instead of returning a value 1e-4 off with a 1e-11 estimate
        star = star_convolve(make_exp(1.0), make_exp(2.0))
        with pytest.raises(MelliniumError):
            forward_mellin(star, 0.75 - 1.0j)

    def test_star_side_condition(self):
        # a_f + a_h >= 1 makes the star integral diverge pointwise
        with pytest.raises(SideConditionViolation):
            star_convolve(bose_function(), bose_function())

    def test_empty_intersection(self):
        left = MellinFunction(make_exp(1.0).eval, 3.0, math.inf)
        right = MellinFunction(make_exp(1.0).eval, 0.0, 2.0)
        with pytest.raises(EmptyStripIntersection):
            mult_convolve(left, right)


class TestInvolution:
    def test_self_involutive_fixed_point(self):
        f = make_self_involutive()
        fstar = involution(f)
        xs = np.geomspace(0.2, 5.0, 11)
        assert np.allclose(fstar.eval(xs), f.eval(xs), rtol=1e-12)

    def test_transform_identity(self):
        # M[f*; alpha] = conj(M[f; 1 - conj(alpha)])
        f = make_exp(1.0)
        fstar = involution(f)
        for alpha in (0.3, 0.5 + 0.4j, 0.8):
            lhs = forward_mellin(fstar, alpha).value
            rhs = forward_mellin(f, 1.0 - np.conj(alpha)).value.conjugate()
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_plancherel_modulus(self):
        f = make_self_involutive()
        conv = mult_convolve(f, involution(f))
        for alpha in (-1.0, 0.5, 2.0):
            lhs = abs(forward_mellin(conv, alpha).value)
            rhs = abs(forward_mellin(f, alpha).value) ** 2
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, rhs)


class TestGridSpan:
    def test_involution_of_a_grid_function_raises(self):
        # the involution keeps the grid's span (mirrored); without it the
        # window ran past the grid and the value came back 9.9e-5 off
        # against an estimate of 4.4e-11
        star = star_convolve(make_exp(1.0), make_exp(2.0))
        with pytest.raises(MelliniumError):
            forward_mellin(involution(star), 0.25 - 1.0j)

    def test_derived_functions_carry_the_span(self):
        f = make_self_involutive()
        conv = mult_convolve(f, f)
        t0, t1 = conv.grid_span
        pair = TransformedPair(
            conv, lambda a: forward_mellin(f, a).value ** 2, conv.strip, verify=False
        )
        c, r = 3.0, -2.0
        scaled = apply_rule(Scale(c), pair).function_side
        assert scaled.grid_span == (t0 - math.log(c), t1 - math.log(c))
        assert apply_rule(PowerSubstitute(r), pair).function_side.grid_span == (t1 / r, t0 / r)
        assert apply_rule(PowerShift(0.5), pair).function_side.grid_span == (t0, t1)
        assert involution(conv).grid_span == (-t1, -t0)
        assert dataclasses.replace(conv, label="copy").grid_span == (t0, t1)

    def test_parseval_product_carries_the_span(self):
        g = mult_convolve(make_exp(1.0), make_exp(2.0))
        h = make_exp(1.0)
        assert _product(g, h).grid_span == g.grid_span
        assert _product(h, g).grid_span == g.grid_span
        scaled = dataclasses.replace(g, grid_span=(-30.0, 50.0))
        assert _product(g, scaled).grid_span == (-30.0, 40.0)
        assert _product(h, h).grid_span is None

    def test_parseval_product_past_the_grid_raises(self):
        # without the span the window ran past the grid: the transform at
        # 0.3 came back 4.9e-5 off against an estimate of 4.1e-14
        g = mult_convolve(make_exp(1.0), make_exp(2.0))
        with pytest.raises(QuadratureDivergence):
            forward_mellin(_product(g, make_exp(1.0)), 0.3)


class TestPointMass:
    @pytest.mark.parametrize(
        "build",
        [involution, lambda f: mult_convolve(f, make_exp(1.0))],
        ids=["involution", "mult_convolve"],
    )
    def test_atom_rejected(self, build):
        f = dataclasses.replace(make_exp(1.0), atom_weight=1.0)
        with pytest.raises(ValueError, match="point mass"):
            build(f)


class TestParseval:
    def test_exponential_pair(self):
        lhs, rhs = parseval_pair(make_exp(1.0), make_exp(1.0), 2.0, 1.0)
        assert lhs == pytest.approx(0.25, abs=1e-9)
        assert rhs == pytest.approx(0.25, abs=1e-9)

    def test_bose_pair(self):
        lhs, rhs = parseval_pair(make_exp(1.0), bose_function(), 3.0, 1.5)
        want = 2.0 * (zeta_from_eta(3.0).real - 1.0)
        assert lhs == pytest.approx(want, rel=1e-9)
        assert rhs == pytest.approx(want, rel=1e-9)

    def test_unit_alpha(self):
        lhs, rhs = parseval_pair(make_exp(1.0), make_exp(1.0), 1.0, 0.5)
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert rhs == pytest.approx(0.5, abs=1e-9)

    def test_line_outside_strip(self):
        with pytest.raises(StripViolation):
            parseval_pair(make_exp(1.0), make_exp(1.0), 2.0, -1.0)

    def test_alpha_minus_c_outside_h_strip(self):
        with pytest.raises(StripViolation, match="outside h strip"):
            parseval_pair(make_exp(1.0), make_exp(1.0), 0.2, 0.5)

    def test_slow_decay_on_the_line_raises(self):
        # x^(1/2) on (0, 1]: both transforms fall off only like 1/t
        p = make_power_cutoff(0.5, 0)
        with pytest.raises(SlowContourDecay):
            parseval_pair(p, p, 0.2, 0.1)


def counted(f: MellinFunction) -> tuple[MellinFunction, list[int]]:
    """f with an eval that records the size of every call it gets."""
    sizes: list[int] = []

    def ev(x):
        sizes.append(int(np.size(x)))
        return f.eval(x)

    return dataclasses.replace(f, eval=ev), sizes


class TestBatchedQuadrature:
    """The quadrature integrates many intervals as rows of one refinement."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_primitive_batch_matches_pointwise(self, n):
        prim = apply_rule(Primitive(n), exp_pair()).function_side
        xs = np.geomspace(1e-3, 40.0, 50)
        batch = prim(xs)
        assert [complex(v) for v in batch] == [complex(prim(x)) for x in xs]

    def test_parseval_evaluations(self):
        g, calls = counted(make_exp(1.0))
        lhs, rhs = parseval_pair(g, make_exp(1.0), 2.0, 1.0)
        assert rhs == pytest.approx(0.25, abs=1e-9)
        assert len(calls) <= 900
        assert max(calls) <= 2_000_000

    def test_primitive_evaluations(self):
        base = exp_pair()
        f, calls = counted(base.function_side)
        apply_rule(Primitive(1), dataclasses.replace(base, function_side=f, verify=False))
        assert 0 < len(calls) <= 2150
        assert max(calls) <= 2_000_000


class TestConvolutionExp:
    def test_zero_terms_is_identity_atom(self):
        ce = convolution_exp(make_exp(1.0), 0)
        assert ce.atom_weight == 1.0
        assert forward_mellin(ce, 1.7).value == pytest.approx(1.0)

    def test_transform_values(self):
        ce = convolution_exp(make_exp(1.0), 12)
        got = forward_mellin(ce, 2.0).value
        assert abs(got - math.exp(-1.0)) < 1e-8
        got = forward_mellin(ce, 1.5).value
        assert abs(got - math.exp(-math.gamma(1.5))) < 1e-8

    def test_negative_terms_rejected(self):
        with pytest.raises(SideConditionViolation):
            convolution_exp(make_exp(1.0), -1)

    def test_divergent_stage_guard(self):
        # transform magnitude 5 at the probe point: stages grow like
        # 5^n and cross the guard threshold before 12 terms.
        def ev(x):
            arr = np.atleast_1d(np.asarray(x, dtype=complex))
            with np.errstate(over="ignore", under="ignore"):
                out = 5.0 * np.exp(-arr)
            out = np.where(np.isfinite(out), out, 0.0)
            return out if np.ndim(x) else out[0]

        big = MellinFunction(ev, 0.0, math.inf, label="5exp")
        with pytest.raises(DivergentStage):
            convolution_exp(big, 12)


class TestGridArithmetic:
    """Grid builders do only the arithmetic their inputs need."""

    def test_real_h_gives_real_weights(self):
        h = OperatorSpec.from_spectrum((1.0, 2.0)).heat_trace()
        h_complex = MellinFunction(lambda x: h.eval(x) + 0j, 0.0, math.inf, label="complex")
        real, cplx = convolution_exp(h, 12), convolution_exp(h_complex, 12)
        assert real._kernel_sum.weights.dtype == np.float64
        assert cplx._kernel_sum.weights.dtype == np.complex128
        xs = np.geomspace(1e-3, 40.0, 30)
        a, b = real.eval(xs), cplx.eval(xs)
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b))
        for alpha in (1.0, 1.5 + 0.3j, 2.0, 3.0 - 1.0j):
            got = forward_mellin(real, alpha).value
            want = forward_mellin(cplx, alpha).value
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_underflowed_factor_sums_to_fsum(self):
        # e^-x underflows to exactly 0 past t = log 745, so a large share
        # of the grid weights is 0; the sum over the others must equal the
        # sum over every grid point
        h = make_exp(2.0)
        conv = mult_convolve(make_exp(1.0), h)
        ks = conv._kernel_sum
        assert np.mean(ks.weights == 0) > 0.3
        for x in (1e-3, 0.2, 1.0, 3.7, 25.0):
            terms = [
                w * complex(h.eval(x * math.exp(-t)))
                for w, t in zip(ks.weights.tolist(), ks.tau.tolist())
            ]
            want = complex(math.fsum(v.real for v in terms), math.fsum(v.imag for v in terms))
            size = math.fsum(abs(v) for v in terms)
            assert abs(complex(conv.eval(x)) - want) <= 1e-14 * size


def pointwise(f: MellinFunction) -> MellinFunction:
    """f as a plain function: replace drops the kernel sum, so its
    transform is a quadrature of the pointwise values."""
    return dataclasses.replace(f, eval=lambda x: f.eval(x))


# each grid builder, with three alpha inside its strip
BUILDERS = {
    "mult": (lambda: mult_convolve(make_exp(1.0), make_exp(2.0)), (1.0, 1.5 + 0.5j, 2.5)),
    "star": (
        # on <0, 1> the window of every alpha reaches past +-40: the grid
        # spans the widest of the three
        lambda: star_convolve(
            make_exp(1.0), make_exp(2.0), _widened_config(DEFAULT_CONFIG, 0.0, 1.0, 0.3)
        ),
        (0.3, 0.5 - 0.4j, 0.6),
    ),
    "conv_exp": (
        lambda: convolution_exp(OperatorSpec.from_spectrum((1.0, 2.0)).heat_trace(), 12),
        (1.0, 1.5 + 0.3j, 2.0),
    ),
    "conv_exp_one_term": (lambda: convolution_exp(make_exp(1.0), 1), (0.7, 1.5, 2.5 - 1.0j)),
    "nested": (
        lambda: mult_convolve(mult_convolve(make_exp(1.0), make_exp(2.0)), make_exp(1.0)),
        (1.0, 1.5 - 0.5j, 2.5),
    ),
}


class TestExactTransform:
    """Grid-built functions: the kernel's transform times a weight sum."""

    @pytest.mark.parametrize("name", ["mult", "star", "conv_exp"])
    def test_eval_does_not_depend_on_the_call(self, name):
        f = BUILDERS[name][0]()
        xs = np.geomspace(0.01, 50.0, 40)
        batch = f(xs)
        assert [complex(v) for v in batch] == [complex(f(x)) for x in xs]

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_routes_agree(self, name):
        build, alphas = BUILDERS[name]
        f = build()
        plain = pointwise(f)
        assert f._kernel_sum is not None and plain._kernel_sum is None
        for alpha in alphas:
            exact = forward_mellin(f, alpha)
            quad = forward_mellin(plain, alpha)
            gap = abs(exact.value - quad.value)
            assert gap <= exact.abs_error_estimate + quad.abs_error_estimate

    def test_replaced_eval_is_transformed_afresh(self):
        conv = mult_convolve(make_exp(1.0), make_exp(2.0))
        double = dataclasses.replace(conv, eval=lambda x: 2.0 * conv.eval(x))
        once = forward_mellin(conv, 1.5)
        twice = forward_mellin(double, 1.5)
        assert abs(twice.value - 2.0 * once.value) <= (
            twice.abs_error_estimate + 2.0 * once.abs_error_estimate
        )

    def test_grid_built_kernel(self):
        # the kernel is itself a convolution: its transform is exact too
        inner = mult_convolve(make_exp(1.0), make_exp(2.0))
        outer = mult_convolve(make_exp(1.0), inner)
        for alpha in (0.7, 1.5 + 0.5j, 2.5):
            tv = forward_mellin(outer, alpha)
            want = complex(mp.gamma(alpha) ** 3 * mp.mpf(2) ** (-alpha))
            assert abs(tv.value - want) <= tv.abs_error_estimate

    def test_grid_wider_than_the_window(self):
        # a grid built for alpha = 0.03 reaches t = 1220, where e^(2 t)
        # overflows and the weights have underflowed to 0: such terms are
        # left out, not summed as 0 * inf
        conv = mult_convolve(
            make_exp(1.0), make_exp(2.0), _widened_config(DEFAULT_CONFIG, 0.0, math.inf, 0.03)
        )
        tv = forward_mellin(conv, 2.0)
        assert abs(tv.value - 0.25) <= tv.abs_error_estimate

    @pytest.mark.parametrize("kind", ["mult", "star"])
    def test_estimate_bounds_true_error(self, kind):
        # 120 convolutions of two exponentials, Re(alpha) at least 0.2
        # from the strip edges, each on the grid its window needs
        rng = random.Random(61 if kind == "mult" else 62)
        misses = []
        for _ in range(120):
            b1, b2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            if kind == "mult":
                alpha = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
                build, strip = mult_convolve, (0.0, math.inf)
                want = mp.gamma(alpha) ** 2 * mp.mpf(b1 * b2) ** (-alpha)
            else:
                alpha = complex(rng.uniform(0.2, 0.8), rng.uniform(-2.0, 2.0))
                build, strip = star_convolve, (0.0, 1.0)
                want = (
                    mp.gamma(alpha) * mp.gamma(1 - alpha)
                    * mp.mpf(b1) ** (-alpha) * mp.mpf(b2) ** (alpha - 1)
                )
            cfg = _widened_config(DEFAULT_CONFIG, *strip, alpha)
            tv = forward_mellin(build(make_exp(b1), make_exp(b2), cfg), alpha, cfg=cfg)
            if not abs(tv.value - complex(want)) <= tv.abs_error_estimate:
                misses.append(alpha)
        assert misses == []

    @pytest.mark.parametrize(
        "case",
        [
            ("mult", 0.05),
            ("mult", 0.05 - 3.0j),
            ("star", 0.05 + 1.0j),
            ("star", 0.95 - 1.0j),
            ("reflection", 0.97 + 3.0j),
        ],
    )
    def test_near_edge_is_finite_or_raises(self, case):
        kind, alpha = case
        try:
            if kind == "reflection":
                value, _ = gamma_reflection(alpha)
            else:
                strip = (0.0, math.inf) if kind == "mult" else (0.0, 1.0)
                cfg = _widened_config(DEFAULT_CONFIG, *strip, alpha)
                build = mult_convolve if kind == "mult" else star_convolve
                tv = forward_mellin(build(make_exp(1.3), make_exp(0.7), cfg), alpha, cfg=cfg)
                value = tv.value
                assert math.isfinite(tv.abs_error_estimate)
        except MelliniumError:
            return
        assert cmath.isfinite(value)
