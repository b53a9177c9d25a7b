"""Singular expansions, endpoint series, residue summation."""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import pytest
from scipy.special import gamma as sc_gamma

from mellinium import (
    AsymptoticSeries,
    ResidueInstability,
    SingularExpansion,
    asymptotic_from_singular,
    residue_asymptotics,
    singular_from_asymptotic,
)


def gamma_poles(count: int) -> SingularExpansion:
    """Principal parts of Gamma: simple pole at -m, residue (-1)^m/m!."""
    terms = tuple(
        (complex(-m), 0, complex((-1.0) ** m / math.factorial(m)))
        for m in range(count)
    )
    return SingularExpansion(terms=terms, side="zero")


class TestTermValidation:
    def test_negative_log_power_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticSeries(terms=((1.0, -1, 1.0),), remainder_order=2.0)
        with pytest.raises(ValueError):
            SingularExpansion(terms=((0.0, -2, 1.0),))

    def test_side_checked(self):
        with pytest.raises(ValueError):
            AsymptoticSeries(terms=(), remainder_order=0.0, side="left")


class TestPoleSeriesMaps:
    def test_taylor_coefficients_from_gamma_poles(self):
        series = asymptotic_from_singular(gamma_poles(6))
        assert len(series.terms) == 6
        for e, k, c in series.terms:
            m = int(round(e.real))
            assert k == 0
            assert abs(c - (-1.0) ** m / math.factorial(m)) < 1e-15

    def test_round_trip_identity(self):
        sing = gamma_poles(6)
        back = singular_from_asymptotic(asymptotic_from_singular(sing))
        for (p1, k1, a1), (p2, k2, a2) in zip(sing.terms, back.terms):
            assert p1 == p2 and k1 == k2
            assert abs(a1 - a2) == 0.0

    def test_log_terms_map_to_higher_order_poles(self):
        # x^0.5 (log x)^1 at 0+ pairs with a double pole at -0.5
        series = AsymptoticSeries(
            terms=((0.5, 1, -1.0),), remainder_order=1.5, side="zero"
        )
        sing = singular_from_asymptotic(series)
        (pole, order, coeff) = sing.terms[0]
        assert pole == pytest.approx(-0.5)
        assert order == 1
        # coefficient carries (-1)^k k!
        assert coeff == pytest.approx(1.0)

    def test_infinity_side_flips_signs(self):
        series = AsymptoticSeries(
            terms=((-2.0, 0, 3.0),), remainder_order=-3.0, side="infinity"
        )
        sing = singular_from_asymptotic(series)
        pole, order, coeff = sing.terms[0]
        assert pole == pytest.approx(2.0)
        assert coeff == pytest.approx(-3.0)
        back = asymptotic_from_singular(sing)
        assert back.terms[0][2] == pytest.approx(3.0)

    def test_max_terms_truncates_after_sorting(self):
        series = asymptotic_from_singular(gamma_poles(6), max_terms=3)
        assert len(series.terms) == 3
        exps = [t[0].real for t in series.terms]
        assert exps == sorted(exps)
        assert series.remainder_order == pytest.approx(3.0)


class TestResidueAsymptotics:
    def test_exponential_partial_sum(self):
        # residues of Gamma(alpha) x^-alpha at 0..-3 give the Taylor
        # partial sum of e^-x through the cubic term
        def transform(z):
            return complex(sc_gamma(z))

        x = 0.1
        val = residue_asymptotics(transform, poles=(0.0, -1.0, -2.0, -3.0), x=x)
        want = 1.0 - x + x**2 / 2.0 - x**3 / 6.0
        assert abs(val - want) < 1e-10

    def test_bose_endpoint_expansion(self):
        def transform(z):
            return complex(mp.gamma(z) * mp.zeta(z))

        for x in (0.01, 0.05):
            val = residue_asymptotics(transform, poles=(1.0, 0.0, -1.0), x=x)
            direct = 1.0 / math.expm1(x)
            assert abs(val - direct) <= x**2

    def test_infinity_side_sign(self):
        # at infinity the residue sum enters with the opposite sign;
        # for 1/(1+x) the transform pi/sin(pi a) has a pole at 1 with
        # residue -1, giving f ~ +1/x as x -> inf.
        def transform(z):
            return math.pi / cmath.sin(math.pi * complex(z))

        val = residue_asymptotics(transform, poles=(1.0,), x=50.0, side="infinity")
        assert val == pytest.approx(1.0 / 50.0, rel=1e-10)

    def test_instability_detected(self):
        # a second pole inside the radius-rho circle but outside the
        # half-radius circle moves the estimate between radii.
        def transform(z):
            z = complex(z)
            return 1.0 / ((z - 1.0) * (z - 1.2))

        with pytest.raises(ResidueInstability):
            residue_asymptotics(transform, poles=(1.0,), x=0.5)

    def test_repeated_pole_rejected(self):
        # listed twice, the residue at 0 would be added twice: 1.8 for 0.8
        def transform(z):
            return complex(sc_gamma(z))

        with pytest.raises(ValueError, match=r"pole 0j is listed twice"):
            residue_asymptotics(transform, poles=(0.0, 0.0, -1.0), x=0.2)
        with pytest.raises(ValueError, match=r"pole \(-1\+0j\) is listed twice"):
            residue_asymptotics(transform, poles=(0.0, -1.0, -1 + 0j), x=0.2)

    def test_positive_x_required(self):
        with pytest.raises(ValueError):
            residue_asymptotics(lambda z: 1.0 / z, poles=(0.0,), x=0.0)

    @pytest.mark.parametrize(
        "poles, x, message",
        [((0.0,), math.nan, "x must be positive and finite"), ((0.0,), math.inf, "x must be positive and finite"),
         ((0.0, math.nan), 0.2, r"poles entry 1 is \(nan")],
    )
    def test_non_finite_input_refused(self, poles, x, message):
        # a residue sum at such a point or pole is nan, not a value
        with pytest.raises(ValueError, match=message):
            residue_asymptotics(lambda z: 1.0 / z, poles=poles, x=x)
