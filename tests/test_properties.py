"""Invariant checks on the closed-form layers, driven by hypothesis."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinium import (
    AsymptoticSeries,
    EulerDerivative,
    FundamentalStrip,
    Normalization,
    PowerShift,
    PowerSubstitute,
    Scale,
    SingularExpansion,
    anomaly_phase,
    apply_rule,
    asymptotic_from_singular,
    involution,
    singular_from_asymptotic,
)

from conftest import make_exp

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
small_int = st.integers(min_value=0, max_value=5)
coeff = st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False
).filter(lambda c: abs(c) > 1e-6)


def strips():
    # a strip must hold a float strictly inside
    return st.tuples(finite, finite).filter(lambda ab: math.nextafter(ab[0], math.inf) < ab[1]).map(
        lambda ab: FundamentalStrip(*ab)
    )


class TestStripAlgebra:
    @given(strips(), strips())
    def test_intersect_symmetric_and_contained(self, s1, s2):
        inter = s1.intersect(s2)
        other = s2.intersect(s1)
        if inter is None:
            assert other is None
            return
        assert (inter.a, inter.b) == (other.a, other.b)
        assert inter.a >= s1.a and inter.b <= s1.b
        assert inter.a >= s2.a and inter.b <= s2.b
        assert s1.contains(inter.midpoint())
        assert s2.contains(inter.midpoint())

    @given(strips())
    def test_midpoint_is_interior(self, s):
        assert s.contains(s.midpoint())

    @given(strips())
    def test_self_intersection_is_identity(self, s):
        inter = s.intersect(s)
        assert (inter.a, inter.b) == (s.a, s.b)

    @given(finite)
    def test_degenerate_strip_rejected(self, a):
        with pytest.raises(ValueError):
            FundamentalStrip(a, a)


class TestNormalization:
    @given(st.floats(min_value=0.1, max_value=10.0), st.floats(-3.0, 3.0))
    def test_gamma_p_at_zero_matches_gamma(self, re, im):
        alpha = complex(re, im)
        lhs = Normalization.gamma_p(0.0).multiplier(alpha)
        rhs = Normalization.gamma().multiplier(alpha)
        assert cmath.isclose(lhs, rhs, rel_tol=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_gamma_eta_factor(self, re):
        alpha = complex(re)
        lhs = Normalization.gamma_eta().multiplier(alpha)
        rhs = (1.0 - 2.0 ** (1.0 - alpha)) * Normalization.gamma().multiplier(alpha)
        assert cmath.isclose(lhs, rhs, rel_tol=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0), st.floats(-3.0, 3.0))
    def test_haar_is_unity(self, re, im):
        assert Normalization.haar().multiplier(complex(re, im)) == 1.0

    @given(st.floats(min_value=-5.0, max_value=5.0).filter(lambda p: abs(p) > 1e-3))
    def test_gamma_p_name_embeds_parameter(self, p):
        assert Normalization.gamma_p(p).name() == f"gamma-p:{p:g}"


def exp_pair():
    from mellinium import TransformedPair
    from scipy.special import gamma as sgamma

    return TransformedPair(
        make_exp(1.0),
        lambda al: complex(sgamma(complex(al))),
        FundamentalStrip(0.0, math.inf),
        label="exp",
    )


class TestRuleTransformMaps:
    """Transform-side maps are exact closed forms; check them pointwise."""

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.2, max_value=4.0),
    )
    def test_scale(self, c, alpha):
        pair = apply_rule(Scale(c), exp_pair())
        want = c ** (-alpha) * math.gamma(alpha)
        assert cmath.isclose(pair.transform_side(alpha), want, rel_tol=1e-12)
        assert (pair.strip.a, pair.strip.b) == (0.0, math.inf)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.2, max_value=4.0),
    )
    def test_power_shift(self, d, alpha):
        pair = apply_rule(PowerShift(d), exp_pair())
        assert (pair.strip.a, pair.strip.b) == (-d, math.inf)
        if alpha + d > 0.05:
            want = math.gamma(alpha + d)
            assert cmath.isclose(pair.transform_side(alpha), want, rel_tol=1e-12)

    @settings(max_examples=40)
    @given(
        # below r ~ 0.5 the substituted function decays too slowly for the
        # construction-time spot check's truncation window, which raises
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=0.2, max_value=4.0),
    )
    def test_power_substitute(self, r, alpha):
        pair = apply_rule(PowerSubstitute(r), exp_pair())
        assert (pair.strip.a, pair.strip.b) == (0.0, math.inf)
        want = math.gamma(alpha / r) / r
        assert cmath.isclose(pair.transform_side(alpha), want, rel_tol=1e-10)

    @given(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.2, max_value=4.0),
    )
    def test_euler_derivative(self, n, alpha):
        pair = apply_rule(EulerDerivative(n), exp_pair())
        want = (-alpha) ** n * math.gamma(alpha)
        assert cmath.isclose(pair.transform_side(alpha), want, rel_tol=1e-12)


class TestInvolution:
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_data_level_definition(self, x):
        g = involution(make_exp(1.0))
        want = math.exp(-1.0 / x) / x
        assert math.isclose(float(np.real(g.eval(x))), want, rel_tol=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_twice_is_identity_on_data(self, x):
        twice = involution(involution(make_exp(1.0)))
        assert math.isclose(float(np.real(twice.eval(x))), math.exp(-x), rel_tol=1e-12)

    @given(st.tuples(finite, finite).filter(lambda ab: ab[0] < ab[1]))
    def test_strip_reflects_through_half(self, ab):
        from mellinium import MellinFunction

        a, b = ab
        f = MellinFunction(lambda xs: xs, a, b)
        g = involution(f)
        assert (g.order_at_zero, g.order_at_infinity) == (1.0 - b, 1.0 - a)
        gg = involution(g)
        # double reflection recovers the orders up to the rounding of 1-(1-x)
        assert math.isclose(gg.order_at_zero, a, rel_tol=0.0, abs_tol=1e-12)
        assert math.isclose(gg.order_at_infinity, b, rel_tol=0.0, abs_tol=1e-12)


def term_lists():
    exponents = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
    term = st.tuples(exponents, small_int, coeff)
    return st.lists(term, min_size=1, max_size=6, unique_by=lambda t: t[0]).map(tuple)


class TestExpansionRoundTrip:
    @settings(max_examples=60)
    @given(term_lists(), st.sampled_from(["zero", "infinity"]))
    def test_round_trip_recovers_terms(self, terms, side):
        series = AsymptoticSeries(terms=terms, remainder_order=99.0, side=side)
        back = asymptotic_from_singular(singular_from_asymptotic(series))
        assert back.side == side
        key = lambda t: complex(t[0]).real
        rev = side == "infinity"
        want = sorted(terms, key=key, reverse=rev)
        assert len(back.terms) == len(want)
        for (e1, k1, c1), (e2, k2, c2) in zip(back.terms, want):
            assert complex(e1) == complex(e2)
            assert k1 == k2
            assert cmath.isclose(c1, c2, rel_tol=1e-12)

    @settings(max_examples=60)
    @given(term_lists(), st.sampled_from(["zero", "infinity"]))
    def test_pole_side_round_trip(self, terms, side):
        expansion = SingularExpansion(terms=terms, side=side)
        back = singular_from_asymptotic(asymptotic_from_singular(expansion))
        got = {complex(e): (k, c) for e, k, c in back.terms}
        for e, k, c in terms:
            k2, c2 = got[complex(e)]
            assert k2 == k
            assert cmath.isclose(c2, c, rel_tol=1e-12)


class TestAnomalyPhase:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_unit_modulus_for_real_alpha(self, seed):
        rng = np.random.default_rng(seed)
        for alpha in (0.3, 1.7, -0.6):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h1 = a @ a.conj().T + 4.0 * np.eye(3)
            h2 = b @ b.conj().T + 4.0 * np.eye(3)
            phase = anomaly_phase(h1, h2, alpha)
            assert abs(abs(phase) - 1.0) < 1e-12


class TestFloatFormatting:
    @given(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
    )
    def test_seventeen_digits_round_trip(self, x):
        assert float("%.17g" % x) == x
