"""Core transform layer: strips, normalizations, quadrature, inversion."""

from __future__ import annotations

import math
import pickle
import random

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from mellinium import (
    DEFAULT_CONFIG,
    ContourDependence,
    ConvergenceDomain,
    FundamentalStrip,
    GammaPole,
    HankelContourSpec,
    InconsistentDeclaration,
    InsufficientDecay,
    MellinFunction,
    MelliniumError,
    Normalization,
    NormalizationPole,
    OperatorSpec,
    Primitive,
    QuadratureConfig,
    QuadratureDivergence,
    SlowContourDecay,
    StripViolation,
    TransformedPair,
    apply_rule,
    bose_function,
    fermi_function,
    forward_mellin,
    hankel_mellin,
    infer_strip,
    inverse_mellin,
)
from mellinium import mellin_core
from mellinium.applications import CORPUS
from mellinium.mellin_core import (
    _BLOCK_POINTS,
    _CONTINUATION_POINTS,
    DEFAULT_CONFIG,
    _gamma,
    _haar_transforms,
    _rgamma,
    _stage_nodes,
    _tanh_sinh,
    _ts_nodes,
)

from conftest import make_exp, make_rational
from oracles import zeta_from_eta


class TestFundamentalStrip:
    def test_orders_and_midpoint(self):
        s = FundamentalStrip(-1.0, 2.0)
        assert s.contains(0.5) and s.contains(-0.5 + 3j)
        assert not s.contains(2.0) and not s.contains(-1.0)
        assert s.midpoint() == 0.5

    def test_half_infinite_midpoint_is_unit_shift(self):
        assert FundamentalStrip(0.0, math.inf).midpoint() == 1.0
        assert FundamentalStrip(-math.inf, 1.5).midpoint() == 0.5

    def test_doubly_infinite_midpoint(self):
        assert FundamentalStrip(-math.inf, math.inf).midpoint() == 0.0

    def test_empty_strip_rejected(self):
        with pytest.raises(ValueError):
            FundamentalStrip(2.0, 1.0)
        with pytest.raises(ValueError):
            FundamentalStrip(1.0, 1.0)

    @pytest.mark.parametrize(
        "a, b", [(-50.0, -49.99999999999999), (-5e-324, 0.0), (-math.inf, -1.7976931348623157e308)]
    )
    def test_strip_without_a_float_rejected(self, a, b):
        with pytest.raises(ValueError):
            FundamentalStrip(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (-50.0, -49.99999999999998),
            (-1e-323, 0.0),
            (-5e-324, 5e-324),
            (1e308, 1.7e308),
            (-1.7e308, 1.7e308),
            (-math.inf, -1e300),
            (-math.inf, 1e300),
            (-1e300, math.inf),
            (1e300, math.inf),
        ],
    )
    def test_midpoint_is_interior(self, a, b):
        s = FundamentalStrip(a, b)
        assert s.contains(s.midpoint())

    def test_float_empty_intersection_is_none(self):
        s = FundamentalStrip(-50.0, 0.0)
        assert s.intersect(FundamentalStrip(-60.0, -49.99999999999999)) is None
        assert s.intersect(FundamentalStrip(-5e-324, 1.0)) is None

    def test_intersect(self):
        a = FundamentalStrip(0.0, 3.0)
        b = FundamentalStrip(1.0, math.inf)
        both = a.intersect(b)
        assert both.a == 1.0 and both.b == 3.0
        assert a.intersect(FundamentalStrip(5.0, 6.0)) is None


class TestNormalization:
    def test_names(self):
        assert Normalization.haar().name() == "haar"
        assert Normalization.gamma().name() == "gamma"
        assert Normalization.gamma_p(0.5).name() == "gamma-p:0.5"
        assert Normalization.gamma_contour().name() == "gamma-contour"
        assert Normalization.gamma_eta().name() == "gamma-eta"

    def test_multipliers(self):
        a = 1.7
        assert Normalization.haar().multiplier(a) == 1.0
        assert Normalization.gamma().multiplier(a) == pytest.approx(
            1.0 / math.gamma(a)
        )
        assert Normalization.gamma_p(2.0).multiplier(a) == pytest.approx(
            1.0 / math.gamma(a + 2.0)
        )
        eta_mult = Normalization.gamma_eta().multiplier(a)
        assert eta_mult == pytest.approx((1.0 - 2.0 ** (1.0 - a)) / math.gamma(a))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Normalization("lebesgue")

    def test_transform_at_a_multiplier_pole(self):
        # gamma-contour multiplies by Gamma(1 - alpha), a pole at alpha = 2
        with pytest.raises(NormalizationPole):
            forward_mellin(make_exp(1.0), 2.0, Normalization.gamma_contour())


def _random_points(seed: int, re: tuple[float, float], im: float, n: int) -> list[complex]:
    rng = random.Random(seed)
    return [complex(rng.uniform(*re), rng.uniform(-im, im)) for _ in range(n)]


class TestGamma:
    # (Re range, |Im| bound): the right half-plane, large Re, the
    # reflection's half-plane and large |Im|
    REGIONS = [((0.05, 4.0), 8.0), ((6.0, 14.0), 3.0), ((-13.0, 1.0), 8.0), ((0.3, 3.0), 30.0)]

    @pytest.mark.parametrize("re, im", REGIONS)
    def test_against_mpmath(self, re, im):
        zs = _random_points(17, re, im, 400)
        want = [complex(mp.gamma(mp.mpc(z))) for z in zs]
        rwant = [complex(mp.rgamma(mp.mpc(z))) for z in zs]
        arr = _gamma(np.array(zs))
        for z, w, rw, a in zip(zs, want, rwant, arr):
            assert abs(_gamma(z) - w) <= 3e-14 * abs(w)
            assert abs(a - w) <= 3e-14 * abs(w)
            assert abs(_rgamma(z) - rw) <= 3e-14 * abs(rw)

    def test_real_arguments(self):
        rng = random.Random(5)
        for x in [rng.uniform(-12.5, 25.0) for _ in range(400)] + [0.5, 1.0, 2.0, -0.5]:
            want = mp.gamma(x)
            assert abs(_gamma(x) - float(want)) <= 1e-15 * abs(float(want))
            assert _gamma(complex(x)) == _gamma(x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (1, 1)])
    def test_array_keeps_shape_and_dtype(self, shape, dtype):
        z = np.linspace(0.3, 6.2, math.prod(shape)).reshape(shape).astype(dtype)
        out = _gamma(z)
        assert out.shape == shape and out.dtype == dtype
        want = np.array([float(mp.gamma(float(v.real))) for v in z.ravel()]).reshape(shape)
        assert np.allclose(out, want, rtol=1e-6 if dtype in (np.float32, np.complex64) else 1e-14)

    @pytest.mark.parametrize("n", [0, -1, -2])
    def test_poles(self, n):
        # 1/Gamma is entire: exactly 0 at the poles; Gamma itself raises
        assert _rgamma(n) == 0 and _rgamma(complex(n)) == 0
        for norm in (Normalization.gamma(), Normalization.gamma_eta()):
            assert norm.multiplier(n) == 0
        assert Normalization.gamma_p(1.0).multiplier(n - 1.0) == 0
        for z in (n, float(n), complex(n), np.array([1.5, n])):
            with pytest.raises(GammaPole):
                _gamma(z)
        with pytest.raises(NormalizationPole):
            Normalization.gamma_contour().multiplier(1 - n)

    def test_near_a_pole(self):
        # near a pole Gamma is finite and large, and 1/Gamma small but not 0
        for z in (-1.0 + 1e-12, -2.0 + 1e-9j):
            assert 0 < abs(_rgamma(z)) < 1e-8
            assert np.isfinite(_gamma(z)) and abs(_gamma(z)) > 1e8

    def test_large_imaginary_part(self):
        # sin(pi z) alone overflows past |Im z| = 226; the results do not
        for z in (0.2 + 300j, 0.2 - 300j, -3.5 + 400j):
            want, rwant = complex(mp.gamma(z)), complex(mp.rgamma(z))
            assert abs(_gamma(z) - want) <= 1e-12 * abs(want)
            assert abs(_gamma(np.array([z]))[0] - want) <= 1e-12 * abs(want)
            assert abs(_rgamma(z) - rwant) <= 1e-12 * abs(rwant)


@pytest.mark.parametrize("z", [200.0, 200 + 0j, 200 + 1j, np.array([1.5, 200.0]), np.array([200 + 1j])])
def test_gamma_past_the_float_range_raises(z):
    # the scalar path, and an array through it, name the overflow
    with pytest.raises(ConvergenceDomain):
        _gamma(z)


# 1/Gamma(z + p) as each reciprocal-Gamma route takes it, with its p
RECIPROCALS = {
    "rgamma": (_rgamma, 0.0),
    "gamma": (Normalization.gamma().multiplier, 0.0),
    "gamma_p": (Normalization.gamma_p(0.25).multiplier, 0.25),
    "gamma_eta": (Normalization.gamma_eta().multiplier, 0.0),
}


@pytest.mark.parametrize("route", RECIPROCALS)
@pytest.mark.parametrize("z", [-200.5, -200.5 + 1j, -1030.5, -2000.5, -2000.5 + 1j])
def test_reciprocal_gamma_past_the_float_range_raises(route, z):
    # Gamma(-200.5) is below the smallest float, so 1/Gamma overflows;
    # past -1023 so does gamma-eta's 2^(1 - z)
    reciprocal, p = RECIPROCALS[route]
    with pytest.raises(ConvergenceDomain):
        reciprocal(z)
    # while its zeros stay exact however far left
    assert reciprocal(-200.0 - p) == 0
    assert reciprocal(-1030.0 - p) == 0


def test_gamma_eta_multiplier_past_the_float_range_raises():
    # 1/Gamma(-170.5) is near the largest float, and 2^171.5 takes the
    # product past it
    with pytest.raises(ConvergenceDomain):
        Normalization.gamma_eta().multiplier(-170.5)


class TestQuadratureConfig:
    def test_validation(self):
        nan, inf = math.nan, math.inf
        bad = [
            {"rel_tol": -1.0},
            {"truncation_bounds": (3.0, -3.0)},
            {"max_levels": 0},
            # a nan passes a "<= 0" test, and a nan tolerance freezes no row
            {"rel_tol": nan},
            {"abs_tol": nan},
            {"rel_tol": inf},
            {"abs_tol": inf},
            {"truncation_bounds": (-inf, inf)},
            {"truncation_bounds": (nan, 40.0)},
            {"truncation_bounds": (-40.0, nan)},
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                QuadratureConfig(**kwargs)

    def test_defaults(self):
        assert DEFAULT_CONFIG.rel_tol == 1e-10
        assert DEFAULT_CONFIG.truncation_bounds == (-40.0, 40.0)


class TestForwardMellin:
    def test_requires_a_mellin_function(self):
        for call in (forward_mellin, hankel_mellin):
            with pytest.raises(TypeError, match="MellinFunction"):
                call(lambda x: np.exp(-x), 1.0)

    def test_eval_must_keep_the_shape(self):
        # a number broadcast over the nodes would make the call fail later,
        # as a tanh-sinh divergence that names the wrong cause
        const = MellinFunction(lambda x: 1.0, 0.0, 1.0, label="const")
        for call in (forward_mellin, hankel_mellin):
            with pytest.raises(ValueError, match="eval of const gave shape"):
                call(const, 0.5)
        # Primitive's inner integrand: the spot check of the result
        # evaluates its function side
        pair = TransformedPair(const, lambda a: 1.0 / a, const.strip, verify=False)
        with pytest.raises(ValueError, match="eval of const gave shape"):
            apply_rule(Primitive(1), pair)

    def test_gamma_values(self):
        f = make_exp(1.0)
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            tv = forward_mellin(f, alpha)
            assert tv.value == pytest.approx(math.gamma(alpha), rel=1e-10)
            assert tv.abs_error_estimate < 1e-9

    def test_complex_alpha(self):
        import cmath

        f = make_exp(1.0)
        # Gamma(2 + i) by the recursion from Gamma(i) times i(1 + i):
        # |Gamma(i)|^2 = pi / sinh(pi) fixes the reference through the
        # reflection and recursion formulas; use scipy's gamma as an
        # independent implementation instead of spelling that out.
        from scipy.special import gamma as sc_gamma

        alpha = 2.0 + 1.0j
        tv = forward_mellin(f, alpha)
        assert abs(tv.value - complex(sc_gamma(alpha))) < 1e-10 * abs(tv.value)
        assert cmath.isclose(tv.alpha, alpha)

    def test_scaling_family(self):
        for beta in (0.5, 2.0, 10.0):
            f = make_exp(beta)
            for alpha in (0.5, 1.5, 2.5):
                tv = forward_mellin(f, alpha)
                want = math.gamma(alpha) * beta**-alpha
                assert tv.value == pytest.approx(want, rel=1e-9)

    def test_normalized_value(self):
        f = make_exp(2.0)
        tv = forward_mellin(f, 1.5, normalization=Normalization.gamma())
        assert tv.value == pytest.approx(2.0**-1.5, rel=1e-9)
        assert tv.normalization.name() == "gamma"

    def test_strip_violation(self):
        f = make_exp(1.0)
        with pytest.raises(StripViolation):
            forward_mellin(f, -0.5)
        with pytest.raises(StripViolation):
            forward_mellin(f, 0.0)

    def test_edge_alpha_auto_widens(self):
        # close to the left edge the integrand decays like e^(0.05 t);
        # the default +-40 window would leave a 1e-2 tail, so the
        # config must widen automatically when none is supplied.
        f = make_exp(1.0)
        tv = forward_mellin(f, 0.05)
        assert tv.value == pytest.approx(math.gamma(0.05), rel=1e-8)

    def test_explicit_config_is_widened_too(self):
        # the config's truncation bounds are a minimum window: an explicit
        # config is widened by the same rule as the default one
        tv = forward_mellin(make_exp(1.0), 0.05, cfg=DEFAULT_CONFIG)
        assert tv.value == pytest.approx(math.gamma(0.05), rel=1e-9)

    @pytest.mark.parametrize("kind", ["haar", "gamma"])
    def test_estimate_bounds_true_error(self, kind):
        # the roundoff floor scales with the integrand's absolute mass, so
        # it stays honest when the terms cancel (complex alpha, 1/Gamma)
        rng = random.Random(23)
        for _ in range(60):
            beta = rng.uniform(0.5, 3.0)
            if kind == "haar":
                alpha = complex(rng.uniform(0.5, 4.0))
                want = mp.gamma(alpha) * mp.power(beta, -alpha)
            else:
                alpha = complex(rng.uniform(0.5, 4.0), rng.uniform(-8.0, 8.0))
                want = mp.power(beta, -mp.mpc(alpha))
            tv = forward_mellin(make_exp(beta), alpha, Normalization(kind))
            assert abs(tv.value - complex(want)) <= tv.abs_error_estimate

    def test_atom_contributes_constant(self):
        zero = MellinFunction(
            lambda x: np.zeros(np.shape(x)), 0.0, math.inf, atom_weight=2.5
        )
        tv = forward_mellin(zero, 1.3)
        assert tv.value == pytest.approx(2.5)


def _reciprocal_power(p: float) -> MellinFunction:
    """(1 + x)^-p, strip <0, p>, transform B(alpha, p - alpha)."""
    return MellinFunction(lambda x: (1.0 + np.asarray(x)) ** -p, 0.0, p, label=f"recip^{p:g}")


_EDGE_OFFSETS = (0.005, 0.01, 0.02, 0.03, 0.05)


def _calibration_cases():
    """(function, alpha, normalization, mpmath reference) near strip edges and at large Re(alpha)."""
    cases = []
    for d in _EDGE_OFFSETS:
        cases.append((make_exp(1.0), d, None, lambda a: mp.gamma(a)))
        for p in (1.0, 0.5):
            # at 1/2 the window's float-range cut counts x itself: x^-1/2
            # alone would keep the window up to t = 1400, where e^t overflows
            for alpha in (d, p - d):
                cases.append((_reciprocal_power(p), alpha, None, lambda a, p=p: mp.beta(a, p - a)))
    for d in _EDGE_OFFSETS + (0.04,):
        cases.append((bose_function(), 1.0 + d, Normalization.gamma(), lambda a: mp.zeta(a)))
    for alpha in (20.0, 40.0, 60.0, 60.0 + 3.0j, 100.0):
        cases.append((make_exp(1.0), alpha, None, lambda a: mp.gamma(a)))
    return cases


class TestCalibration:
    """Each case is within its estimate of mpmath, or raises."""

    @pytest.mark.parametrize("case", _calibration_cases(), ids=lambda c: f"{c[0].label}@{c[1]}")
    def test_within_estimate_or_raises(self, case):
        f, alpha, norm, ref = case
        try:
            tv = forward_mellin(f, alpha, norm)
        except MelliniumError:
            return
        with mp.workdps(30):
            want = complex(ref(mp.mpc(alpha)))
        assert abs(tv.value - want) <= tv.abs_error_estimate

    @pytest.mark.parametrize("alpha", [20.0, 60.0 + 3.0j, 100.0])
    def test_large_alpha_is_computed(self, alpha):
        # the window stops where e^(alpha t) would overflow; past it
        # e^(-x) is exactly 0, and the tail check sees nothing cut
        tv = forward_mellin(make_exp(1.0), alpha)
        assert abs(tv.value - complex(mp.gamma(alpha))) <= tv.abs_error_estimate

    @pytest.mark.parametrize("alpha", [0.96, 0.97])
    def test_float_range_is_not_left(self, alpha):
        # the widened right edge, 36.6 / (1 - alpha), lies past t = 709,
        # where e^t overflows; the window stops at t = 700 instead
        tv = forward_mellin(_reciprocal_power(1.0), alpha)
        assert abs(tv.value - math.pi / math.sin(math.pi * alpha)) <= tv.abs_error_estimate


class TestInferStrip:
    GRID = np.geomspace(1e-6, 1e6, 61)

    def test_exponential_reaches_infinite_order(self):
        est = infer_strip(make_exp(1.0), self.GRID)
        assert abs(est.a) < 0.1
        assert est.b == math.inf

    def test_bose_left_order(self):
        est = infer_strip(bose_function(), self.GRID)
        assert est.a == pytest.approx(1.0, abs=0.1)
        assert est.b == math.inf

    def test_rational_two_sided(self):
        est = infer_strip(make_rational(), self.GRID)
        assert est.a == pytest.approx(-1.0, abs=0.1)
        assert est.b == pytest.approx(2.0, abs=0.1)

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError):
            infer_strip(make_exp(1.0), np.geomspace(1e-2, 1e2, 21))

    def test_inconsistent_declaration(self):
        wrong = MellinFunction(make_rational().eval, -3.0, 2.0)
        with pytest.raises(InconsistentDeclaration):
            infer_strip(wrong, self.GRID)

    def test_faster_than_any_power(self):
        # slopes beyond +-35 read as infinite orders, at either edge
        est = infer_strip(lambda x: np.minimum(x, 1.0) ** 50, self.GRID)
        assert est.a == -math.inf and est.b == pytest.approx(0.0, abs=0.1)
        est = infer_strip(lambda x: 1.0 / (1.0 + x**50), self.GRID)
        assert est.a == pytest.approx(0.0, abs=0.1) and est.b == math.inf

    @pytest.mark.parametrize(
        "f, a, b",
        [(make_exp(1.0), 0.0, 5.0), (make_rational(), -1.0, math.inf)],
        ids=["finite-declared-infinite-fitted", "infinite-declared-finite-fitted"],
    )
    def test_finite_and_infinite_orders_disagree(self, f, a, b):
        with pytest.raises(InconsistentDeclaration):
            infer_strip(MellinFunction(f.eval, a, b), self.GRID)

    def test_insufficient_decay(self):
        def osc(x):
            arr = np.atleast_1d(np.asarray(x, dtype=float))
            out = 1.0 + 0.9 * np.sin(3.0 * np.log(arr))
            return out if np.ndim(x) else out[0]

        with pytest.raises(InsufficientDecay):
            infer_strip(osc, self.GRID)
        with pytest.raises(InsufficientDecay, match="not finite"):
            infer_strip(lambda x: np.where(x < 1e-5, np.nan, np.exp(-x)), self.GRID)
        # only the two probes nearest 0 are nonzero
        with pytest.raises(InsufficientDecay, match="too few"):
            infer_strip(lambda x: np.where(x <= self.GRID[1], 1.0, 0.0), self.GRID)
        # orders 0.03 at 0 and 0.08 at infinity: the margins cross
        with pytest.raises(InsufficientDecay, match="collapsed"):
            infer_strip(lambda x: np.where(x < 1.0, x**-0.03, x**-0.08), self.GRID)

    def test_growth_at_both_ends(self):
        # x^2 + x^-2 fits the empty strip <2, -2>
        with pytest.raises(InsufficientDecay, match="a=2, b=-2"):
            infer_strip(lambda x: x**2 + x**-2.0, self.GRID)


class TestInverseMellin:
    def test_exponential_round_trip(self):
        def transform(alpha):
            import scipy.special as sp

            return complex(sp.gamma(alpha))

        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            val, err = inverse_mellin(transform, c=1.0, x=x)
            assert abs(val - math.exp(-x)) < 1e-8
            assert err < 1e-6

    # transform, the function it inverts to, and lines inside its strip
    PAIRS = {
        "gamma": (sp.gamma, lambda x: math.exp(-x), (0.2, 0.5, 1.0, 1.5, 2.5)),
        "csc": (lambda a: np.pi / np.sin(np.pi * a), lambda x: 1.0 / (1.0 + x), (0.2, 0.5, 0.8)),
        "gamma_squared": (
            lambda a: sp.gamma(a) ** 2,
            lambda x: 2.0 * sp.k0(2.0 * math.sqrt(x)),
            (0.5, 1.0, 2.0),
        ),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    def test_estimate_bounds_error(self, pair):
        transform, f, lines = self.PAIRS[pair]
        for c in lines:
            for x in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
                val, err = inverse_mellin(transform, c, x)
                assert abs(val - f(x)) <= err, (c, x)

    def test_positive_x_required(self):
        with pytest.raises(ValueError):
            inverse_mellin(lambda a: 1.0 / (a + 1.0) ** 3, c=1.0, x=-1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_finite_x_required(self, x):
        with pytest.raises(ValueError, match="must be positive and finite"):
            inverse_mellin(lambda a: 1.0 / (a + 1.0) ** 3, c=1.0, x=x)

    def test_slow_decay_on_the_line_raises(self):
        # |1/(1 + it)| is still 1/64 at the end of the scan
        with pytest.raises(SlowContourDecay):
            inverse_mellin(lambda a: 1.0 / a, 1.0, 2.0)

    @pytest.mark.parametrize(
        "pole, message",
        [(1.0, r"not finite inside \[-32, 0\]$"), (1.0 + 0.3j, r"failed to converge on \[0, 32\] ")],
    )
    def test_failure_names_the_half_line(self, pole, message):
        # a pole on the line, and one next to it: the error names the
        # half-line in t, not the interval the kernel maps it to
        with pytest.raises(QuadratureDivergence, match=message):
            inverse_mellin(lambda a: _gamma(a) / (a - pole), 1.0, 2.0)


class TestHankelMellin:
    def test_matches_alternating_series_oracle(self):
        tv = hankel_mellin(bose_function(), 0.5)
        assert abs(tv.value - zeta_from_eta(0.5)) < 1e-10
        assert not tv.continued

    def test_radius_independence(self):
        f = bose_function()
        vals = [
            hankel_mellin(f, 0.5, HankelContourSpec(radius=r)).value
            for r in (0.25, 0.5, 1.0)
        ]
        assert max(abs(v - vals[0]) for v in vals) < 1e-9

    def test_integer_alpha_is_continued(self):
        tv = hankel_mellin(bose_function(), 2.0)
        assert tv.continued
        assert tv.value == pytest.approx(math.pi**2 / 6.0, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.985, 1.9935, 2.0004, 2.009, 2.015, 2.985, 3.002, 3.0149])
    def test_continuation_estimate_bounds_error(self, alpha):
        # the 8-point circle mean near alpha = 2 carries an aliasing error
        # about as large as the estimate it used to report
        tv = hankel_mellin(bose_function(), alpha)
        assert tv.continued
        err = abs(tv.value - complex(mp.zeta(alpha)))
        assert err <= tv.abs_error_estimate
        assert err <= 1e-13 * abs(complex(mp.zeta(alpha)))

    def test_pole_at_one(self):
        with pytest.raises(NormalizationPole):
            hankel_mellin(bose_function(), 1.0)

    @pytest.mark.parametrize("alpha, points", [(0.5 + 1j, 1), (2.005, _CONTINUATION_POINTS)])
    def test_one_kernel_call_per_value(self, alpha, points, monkeypatch):
        # the contour, its half-radius check and, for a continued value,
        # every point of its circle are rows of one kernel call: per alpha
        # the rays' panels [log r, 0], [0, t1] and [log(r/2), 0], and an
        # arc per radius
        calls = []

        def spy(g, lo, hi, *rest):
            calls.append(len(lo))
            return _tanh_sinh(g, lo, hi, *rest)

        monkeypatch.setattr(mellin_core, "_tanh_sinh", spy)
        tv = hankel_mellin(bose_function(), alpha)
        assert calls == [(3 + 2) * points]
        assert tv.continued == (points > 1)
        assert abs(tv.value - complex(mp.zeta(alpha))) <= tv.abs_error_estimate

    def test_undecayed_ray_raises(self):
        # e^(-x/10) has decayed long before the window's end x = e^40
        tv = hankel_mellin(make_exp(0.1), 0.5 + 0.5j)
        assert abs(tv.value - 10.0 ** (0.5 + 0.5j)) <= tv.abs_error_estimate
        # (1 + x)^(-0.6) x^(alpha - 1), declared to decay faster than any
        # power, is still about 2e-2 there
        with pytest.raises(QuadratureDivergence):
            hankel_mellin(_slow_power(), 0.5 + 0.5j)

    @pytest.mark.parametrize("alpha", [math.nan, complex(0.5, math.inf)])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha is .*, not finite"):
            hankel_mellin(bose_function(), alpha)

    def test_contour_spec_validation(self):
        for radius in (0.0, 40.0):
            with pytest.raises(ValueError):
                HankelContourSpec(radius=radius)

    @pytest.mark.parametrize("radius", [1e-8, 1e-4, 0.03, 0.5, 2.0])
    @pytest.mark.parametrize("alpha", [0.25 + 1j, 0.7 - 2.5j, 0.1 + 3j, -1.5 + 2j, -3.2 - 0.5j, 2.5 + 5j])
    def test_estimate_bounds_error(self, alpha, radius):
        tv = hankel_mellin(bose_function(), alpha, HankelContourSpec(radius))
        assert abs(tv.value - complex(mp.zeta(alpha))) <= tv.abs_error_estimate

    def test_rays_evaluate_f_on_the_axis(self):
        # the rays lie on the positive axis, so f sees real x there and
        # complex z only on the arc
        bose = bose_function()
        seen = []

        def ev(z):
            seen.append(np.asarray(z))
            return bose.eval(z)

        f = MellinFunction(ev, bose.order_at_zero, bose.order_at_infinity)
        assert hankel_mellin(f, 0.5).value == hankel_mellin(bose, 0.5).value
        rays = [z for z in seen if z.dtype == float]
        arcs = [z for z in seen if z.dtype == complex]
        assert len(rays) + len(arcs) == len(seen) and rays and arcs
        # the rays of radius 0.5 and of the halved check contour, out to the
        # window's end, up to rounding
        assert all(np.allclose(np.clip(x, 0.25, math.exp(40.0)), x) for x in rays)
        assert all((np.isclose(np.abs(z), 0.5) | np.isclose(np.abs(z), 0.25)).all() for z in arcs)

    def test_radius_check_flags_contour_dependence(self):
        # smooth in (x, y) but not holomorphic: the conjugate factor
        # makes the contour integral depend on the arc radius, which
        # the half-radius cross-check must flag.
        def ev(z):
            arr = np.atleast_1d(np.asarray(z, dtype=complex))
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                out = np.exp(-arr) * (
                    1.0 + 0.5j * np.conj(arr) / (1.0 + np.abs(arr) ** 2)
                )
                out = np.where(np.isfinite(out), out, 0.0)
            return out if np.ndim(z) else out[0]

        bad = MellinFunction(ev, 0.0, math.inf, label="nonanalytic")
        with pytest.raises(ContourDependence):
            hankel_mellin(bad, 0.5)

    @pytest.mark.parametrize("alpha", [0.5, -0.5 + 1j, 2.005])
    @pytest.mark.parametrize(
        "f, rates",
        [
            (make_exp(0.3), (0.3,)),
            (make_exp(0.1), (0.1,)),
            (OperatorSpec.from_spectrum([0.3, 1.1]).heat_trace(), (0.3, 1.1)),
            (OperatorSpec.from_spectrum([0.05, 2.0]).heat_trace(), (0.05, 2.0)),
        ],
        ids=lambda v: getattr(v, "label", None),
    )
    def test_slow_exponentials_continue(self, f, rates, alpha):
        # e^(-0.05 x) is still 0.14 at x = 40, far inside the window's
        # end x = e^40. The transform is Gamma(alpha) sum_i e_i^(-alpha),
        # and the contour normalization keeps sum_i e_i^(-alpha), left of
        # the strip and near the multiplier pole at 2 alike
        tv = hankel_mellin(f, alpha)
        with mp.workdps(30):
            want = complex(sum(mp.power(e, -alpha) for e in rates))
        assert abs(tv.value - want) <= tv.abs_error_estimate

    def test_ray_past_one_is_shared_by_both_radii(self, monkeypatch):
        # for r < 1 the rays of r and of the check loop of radius r / 2
        # split at x = 1, and their common part [0, t1] in log x is one
        # row per alpha of the ring, not one per radius
        rows = []

        def spy(g, lo, hi, *rest):
            rows.extend(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()))
            return _tanh_sinh(g, lo, hi, *rest)

        monkeypatch.setattr(mellin_core, "_tanh_sinh", spy)
        tv = hankel_mellin(bose_function(), 2.005)
        assert tv.continued
        r = math.log(0.5)
        for span in ((r, 0.0), (r - math.log(2.0), 0.0), (0.0, 40.0), (0.0, 2.0 * math.pi)):
            want = _CONTINUATION_POINTS * (2 if span[1] == 2.0 * math.pi else 1)
            assert rows.count(span) == want
        assert len(rows) == 5 * _CONTINUATION_POINTS


def _slow_power() -> MellinFunction:
    """(1 + x)^(-0.6) declared with order_at_infinity = inf, which it is not."""

    def ev(x):
        return (1.0 + np.asarray(x)) ** -0.6

    return MellinFunction(ev, 0.0, math.inf, label="slow-power")


class TestWindowSegments:
    @pytest.mark.parametrize("window", [(0.5, 3.0), (-3.0, -0.5), (0.0, 3.0), (2.0, 130.0)])
    def test_one_sided_window_is_covered(self, window):
        # a window on one side of 0 splits at its own end: its panels
        # cover it exactly, the other half empty
        lo, hi, _, uses = mellin_core._window_segments((window,))
        live = hi > lo
        assert lo[live].min() == window[0] and hi[live].max() == window[1]
        assert np.sum(hi[live] - lo[live]) == pytest.approx(window[1] - window[0], rel=1e-15)
        assert uses.all() and np.all(lo[1:] == hi[:-1])

    def test_straddling_window_splits_at_zero(self):
        lo, hi, side, _ = mellin_core._window_segments(((-40.0, 40.0),))
        assert lo.tolist() == [-40.0, 0.0] and hi.tolist() == [0.0, 40.0] and side.tolist() == [0, 1]


def real_exp(beta: float = 1.0, atom_weight: complex = 0.0) -> MellinFunction:
    """e^(-beta x) with float values, strip <0, inf>."""

    def ev(x):
        with np.errstate(under="ignore"):
            return np.exp(-beta * np.asarray(x, dtype=float))

    return MellinFunction(ev, 0.0, math.inf, label=f"real-exp({beta:g})", atom_weight=atom_weight)


class TestConjugateFold:
    """_haar_transforms integrates an alpha and its conjugate once for a real f."""

    @staticmethod
    def singles(f, alphas):
        """Each alpha's (value, estimate) from a call of its own, pickled."""
        return [pickle.dumps(tuple(a[0] for a in _haar_transforms(f, [al]))) for al in alphas]

    @staticmethod
    def batched(f, alphas):
        return [pickle.dumps(pair) for pair in zip(*_haar_transforms(f, alphas))]

    @staticmethod
    def alphas(f):
        a = f.order_at_zero
        return [a + 1.2 + 0.7j, a + 1.2 - 0.7j, a + 2.5 - 3.1j, a + 2.5 + 3.1j, complex(a + 0.9)]

    @pytest.mark.parametrize(
        "f",
        [
            bose_function(),
            fermi_function(),
            OperatorSpec.from_spectrum((1.3, 2.1, 2.7)).heat_trace(),
            real_exp(),
            CORPUS["power_log"].build(eps=0.5, k=1),
        ],
        ids=lambda f: f.label,
    )
    def test_folded_values_are_the_single_calls(self, f):
        alphas = self.alphas(f)
        assert self.batched(f, alphas) == self.singles(f, alphas)
        # a repeat takes the first's integral too
        assert self.batched(f, alphas + alphas[:2]) == self.singles(f, alphas + alphas[:2])

    def test_complex_valued_f_is_not_folded(self):
        f = MellinFunction(lambda x: np.exp(-(1.0 + 0.5j) * x), 0.0, math.inf, label="cexp")
        alphas = self.alphas(f)
        assert self.batched(f, alphas) == self.singles(f, alphas)
        values, _ = _haar_transforms(f, alphas)
        # Gamma(a) / (1 + i/2)^a is no conjugate pair
        assert abs(values[1] - np.conj(values[0])) > 1e-3 * abs(values[0])

    def test_complex_atom_is_not_conjugated(self):
        atom = 0.3 + 0.2j
        f = real_exp(atom_weight=atom)
        alphas = self.alphas(f)
        assert self.batched(f, alphas) == self.singles(f, alphas)
        values, _ = _haar_transforms(f, alphas[:2])
        assert values[1] - atom == pytest.approx(np.conj(values[0] - atom), rel=1e-15)

    def test_complex_values_inside_the_window_raise(self):
        # real at the window ends, complex between 1/2 and 2
        def ev(x):
            x = np.asarray(x, dtype=float)
            out = np.exp(-x)
            return out + 0j if np.any((x > 0.5) & (x < 2.0)) else out

        f = MellinFunction(ev, 0.0, math.inf, label="sometimes-complex")
        with pytest.raises(ValueError, match="eval of sometimes-complex gave complex128 values"):
            _haar_transforms(f, [1.5 + 1j, 1.5 - 1j])
        # with no conjugate to fold nothing is assumed
        values, _ = _haar_transforms(f, [1.5 + 1j, 2.5 - 1j])
        assert values[0] == pytest.approx(complex(mp.gamma(1.5 + 1j)), rel=1e-10)

    def test_coinciding_panels_are_integrated_once(self, monkeypatch):
        # 1.5 and 2.5 have the window (-40, 40), 0.5 a left half of two
        # panels and the same right half: seven panels, four distinct
        f = real_exp()
        alphas = [1.5 + 1j, 2.5 - 0.5j, 0.5 + 2j]
        seen, evals = [], f.eval
        monkeypatch.setattr(f, "eval", lambda x: seen.append(np.array(x)) or evals(x))
        segments, integrals = [], mellin_core._segment_integrals

        def spy(f, lo, hi, *args):
            segments.append(list(zip(lo.tolist(), hi.tolist())))
            return integrals(f, lo, hi, *args)

        monkeypatch.setattr(mellin_core, "_segment_integrals", spy)
        batched = self.batched(f, alphas)
        (panels,) = segments
        assert len(panels) == len(set(panels)) == 4
        # after the window ends, one call per stage: the first holds each
        # distinct panel's 257 ladder nodes once
        nodes = _stage_nodes(0, 5)[0].size
        assert seen[1].size == 4 * nodes
        for x in seen[1:]:
            blocks = x.reshape(-1, nodes if x.size % nodes == 0 else x.size)
            assert len({b.tobytes() for b in blocks}) == len(blocks)
        assert batched == self.singles(f, alphas)

    def test_conjugate_pairs_cost_the_rows_of_their_firsts(self, monkeypatch):
        rows, kernel = [], mellin_core._tanh_sinh

        def spy(g, lo, hi, *args):
            rows.append(np.size(lo))
            return kernel(g, lo, hi, *args)

        monkeypatch.setattr(mellin_core, "_tanh_sinh", spy)
        firsts = [1.1 + 0.2 * k + (0.5 + 0.3 * k) * 1j for k in range(8)]
        f = real_exp()
        _haar_transforms(f, firsts)
        _haar_transforms(f, [a for al in firsts for a in (al, al.conjugate())])
        assert rows[0] == rows[1] > 0


class TestTanhSinh:
    @staticmethod
    def peaks(centers):
        """Rows of 1/(1e-2 + (x - c)^2), with the sizes of the calls g gets."""
        sizes = []

        def g(x, rows):
            sizes.append(x.size)
            c = np.repeat(centers[rows], x.size // rows.size)
            return 1.0 / (1e-2 + (x - c) ** 2)

        return g, sizes

    def test_block_split_matches_one_row_calls(self):
        centers = np.linspace(-0.5, 0.5, 20_000)
        g, sizes = self.peaks(centers)
        n = centers.size
        vals, errs = _tanh_sinh(g, np.full(n, -1.0), np.full(n, 1.0))
        # a level of more than _BLOCK_POINTS nodes went to g in blocks of rows
        assert max(sizes) == _BLOCK_POINTS and len(sizes) > 9
        for i in range(0, n, 997):
            one, _ = self.peaks(centers[i : i + 1])
            v, e = _tanh_sinh(one, [-1.0], [1.0])
            assert (v[0], e[0]) == (vals[i], errs[i])

    @staticmethod
    def freezing_level(fn, cfg=DEFAULT_CONFIG):
        """The first level from 2 on at which tanh-sinh on [-1, 1] meets cfg's tolerance, level by level."""
        total = 0.0
        for level in range(cfg.max_levels + 1):
            t, w = _ts_nodes(level)
            part = np.add.reduce(fn(t) * w) * (2.0**-level if level else 1.0)
            last, total = total, part if level == 0 else total / 2.0 + part
            if level >= 2 and abs(total - last) <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                return level
        return None

    def test_stages_give_the_values_of_levels(self):
        # rows of a / (1 + (x - c)^2 / eps) freezing at each level from 2 to 9
        # (the first below abs_tol at once): a call too large for the first
        # stage's ladder runs one level per stage, a one-row call levels 0-5
        # in its first, and each row's value and estimate are the same bytes
        # either way
        amp = np.array([1e-13, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        eps = np.array([1.0, 1e3, 5.0, 0.3, 0.05, 0.01, 0.003, 6e-4])
        peak = lambda x, a, e: a / (1.0 + (x - 0.1) ** 2 / e)
        levels = [self.freezing_level(lambda x, a=a, e=e: peak(x, a, e)) for a, e in zip(amp, eps)]
        assert levels == list(range(2, 10))
        n = _BLOCK_POINTS // _stage_nodes(0, 5)[0].size + 1
        a_rows, e_rows = np.resize(amp, n), np.resize(eps, n)
        sizes = []

        def g(x, r):
            sizes.append(x.size)
            k = x.size // r.size
            return peak(x, np.repeat(a_rows[r], k), np.repeat(e_rows[r], k))

        vals, errs = _tanh_sinh(g, np.full(n, -1.0), np.full(n, 1.0))
        assert sizes[0] == n * _ts_nodes(0)[0].size
        for i, (a, e) in enumerate(zip(amp, eps)):
            sizes.clear()
            (v,), (est,) = _tanh_sinh(lambda x, r: sizes.append(x.size) or peak(x, a, e), [-1.0], [1.0])
            assert sizes == [257] + [_ts_nodes(k)[0].size for k in range(6, levels[i] + 1)]
            assert pickle.dumps((v, est)) == pickle.dumps((vals[i], errs[i]))

    @staticmethod
    def poisoned(level, fn):
        """fn with nan at the inner nodes (|t| < 1/2) of one level on [-1, 1]."""
        t = _ts_nodes(level)[0]
        bad = t[np.abs(t) < 0.5]

        def g(x, rows):
            return np.where(np.isin(x, bad), math.nan, fn(x))

        return g

    def test_nan_past_the_freezing_level_is_not_checked(self):
        # the row freezes at level 3; the first stage evaluates level 5's
        # nodes as well, but a level the row never reached cannot fail it
        fn = lambda x: 1.0 / (1.0 + (x - 0.1) ** 2 / 1e3)
        assert self.freezing_level(fn) == 3
        clean = _tanh_sinh(lambda x, rows: fn(x), [-1.0], [1.0])
        got = _tanh_sinh(self.poisoned(5, fn), [-1.0], [1.0])
        assert pickle.dumps(got) == pickle.dumps(clean)

    def test_nan_at_a_reached_level_raises(self):
        fn = lambda x: 1.0 / (1.0 + (x - 0.1) ** 2 / 1e3)
        with pytest.raises(QuadratureDivergence, match=r"integrand not finite inside \[-1, 1\]") as info:
            _tanh_sinh(self.poisoned(2, fn), [-1.0], [1.0])
        assert info.value.row == 0
        # the row named is the one whose nodes are bad, not the first
        with pytest.raises(QuadratureDivergence, match=r"inside \[-1, 1\]") as info:
            _tanh_sinh(self.poisoned(2, fn), [2.0, -1.0], [3.0, 1.0])
        assert info.value.row == 1

    def test_max_levels_exit(self):
        g, _ = self.peaks(np.zeros(1))
        exact = 20.0 * math.atan(10.0)
        # unsettled after max_levels but within 50 tolerances: the value
        # comes back with its estimate
        cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-300, max_levels=5)
        (v,), (e,) = _tanh_sinh(g, [-1.0], [1.0], cfg)
        assert abs(v - exact) <= e < 0.2
        # further off: the interval is named
        cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-300, max_levels=5)
        with pytest.raises(QuadratureDivergence, match=r"\[-1, 1\]"):
            _tanh_sinh(g, [-1.0], [1.0], cfg)
