"""Physics-flavored closed loops: distributions, Green's functions, zeta."""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from mellinium import (
    CoincidentPoints,
    DivergentRoute,
    HeatKernelProblem,
    Normalization,
    PoleAtOne,
    StripViolation,
    bose_function,
    eta_value,
    fermi_function,
    forward_mellin,
    gamma_p_extension,
    gamma_reflection,
    greens_function,
    hankel_mellin,
    subtracted_exponential_transform,
    zeta_value,
)

from oracles import alternating_eta, zeta_from_eta


class TestDistributions:
    def test_bose_values_and_strip(self):
        f = bose_function()
        assert f.eval(1.0) == pytest.approx(1.0 / math.expm1(1.0))
        assert f.eval(1e-8) == pytest.approx(1e8, rel=1e-6)
        assert (f.order_at_zero, f.order_at_infinity) == (1.0, math.inf)

    def test_bose_complex_argument(self):
        z = 0.5 + 0.2j
        got = complex(bose_function().eval(z))
        want = 1.0 / (np.exp(z) - 1.0)
        assert abs(got - want) < 1e-14

    def test_fermi_values_and_strip(self):
        f = fermi_function()
        assert f.eval(1.0) == pytest.approx(1.0 / (math.e + 1.0))
        assert f.eval(1e-9) == pytest.approx(0.5, rel=1e-8)
        assert (f.order_at_zero, f.order_at_infinity) == (0.0, math.inf)

    def test_fermi_complex_argument(self):
        z = 0.5 + 0.5j
        got = complex(fermi_function().eval(z))
        assert abs(got - 1.0 / (np.exp(z) + 1.0)) < 1e-15
        assert abs(got.imag) > 0.1

    @pytest.mark.parametrize("alpha", [0.5 + 1.0j, -0.5 + 0.3j, -1.7, 2.5])
    def test_fermi_hankel_continues_eta(self, alpha):
        # the contour normalization turns the Fermi transform into the
        # alternating zeta, left of the strip <0, inf) too; the circle
        # needs the function at complex z, so a dropped imaginary part
        # would show as contour dependence
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            tv = hankel_mellin(fermi_function(), alpha)
        err = abs(tv.value - complex(mp.altzeta(alpha)))
        assert err <= tv.abs_error_estimate

    def test_overflow_tails_are_zero(self):
        assert bose_function().eval(1e4) == 0.0 or bose_function().eval(1e4) < 1e-300
        assert fermi_function().eval(1e4) == 0.0 or fermi_function().eval(1e4) < 1e-300


class TestGreensFunction:
    def test_three_dimensions_unit_distance(self):
        p = HeatKernelProblem(n=3, x_a=(0.0, 0.0, 0.0), x_a_prime=(1.0, 0.0, 0.0))
        assert greens_function(p, route="closed") == pytest.approx(1.0)
        assert greens_function(p, route="quadrature") == pytest.approx(1.0, abs=1e-9)

    def test_two_dimensions_log(self):
        p = HeatKernelProblem(n=2, x_a=(0.0, 0.0), x_a_prime=(math.e, 0.0))
        assert greens_function(p, route="closed") == pytest.approx(-2.0)

    def test_five_dimensions_routes_agree(self):
        p = HeatKernelProblem(n=5, x_a=(0.0,) * 5, x_a_prime=(1.3,) + (0.0,) * 4)
        closed = greens_function(p, route="closed")
        quad = greens_function(p, route="quadrature")
        assert abs(quad - closed) < 1e-8 * abs(closed)

    def test_doubling_scaling_law(self):
        for n in (3, 4, 5, 7):
            near = HeatKernelProblem(n=n, x_a=(0.0,) * n, x_a_prime=(0.7,) + (0.0,) * (n - 1))
            far = HeatKernelProblem(n=n, x_a=(0.0,) * n, x_a_prime=(1.4,) + (0.0,) * (n - 1))
            ratio = greens_function(far, route="closed") / greens_function(
                near, route="closed"
            )
            assert ratio == 2.0 ** (2 - n)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            HeatKernelProblem(n=3, x_a=(1.0, 0.0, 0.0), x_a_prime=(1.0, 0.0, 0.0))

    def test_low_dimension_quadrature_diverges(self):
        p = HeatKernelProblem(n=2, x_a=(0.0, 0.0), x_a_prime=(1.0, 0.0))
        with pytest.raises(DivergentRoute):
            greens_function(p, route="quadrature")

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            HeatKernelProblem(n=0, x_a=(), x_a_prime=())
        with pytest.raises(ValueError):
            HeatKernelProblem(n=2, x_a=(0.0,), x_a_prime=(1.0, 0.0))


class TestZetaRoutes:
    def test_realline_even_values(self):
        assert zeta_value(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-10)
        assert zeta_value(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-10)

    def test_realline_matches_series_oracle(self):
        for alpha in (1.5, 2.5, 3.0):
            assert zeta_value(alpha) == pytest.approx(
                zeta_from_eta(alpha).real, rel=1e-9
            )

    def test_hankel_left_of_strip(self):
        got = zeta_value(0.5, route="hankel")
        assert abs(got - zeta_from_eta(0.5)) < 1e-9

    def test_pole_at_one(self):
        with pytest.raises(PoleAtOne):
            zeta_value(1.0)
        with pytest.raises(PoleAtOne):
            zeta_value(1.0 + 1e-14j, route="hankel")

    def test_realline_needs_convergent_strip(self):
        with pytest.raises(StripViolation):
            zeta_value(0.5, route="realline")

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            zeta_value(2.0, route="borel")

    def test_hankel_needs_positive_real_part(self):
        with pytest.raises(StripViolation):
            zeta_value(-0.5 + 1j, route="hankel")


class TestEta:
    def test_special_values(self):
        assert eta_value(1.0) == pytest.approx(math.log(2.0), rel=1e-10)
        assert eta_value(2.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-10)

    def test_matches_alternating_oracle(self):
        for alpha in (0.25, 0.75, 1.5, 3.0):
            assert eta_value(alpha) == pytest.approx(
                alternating_eta(alpha).real, rel=1e-9
            )

    def test_eta_zeta_consistency(self):
        # eta(alpha) = (1 - 2^(1-alpha)) zeta(alpha) across the strip,
        # with zeta from the route that converges at each point
        for alpha in (0.25, 0.5, 1.5, 2.0, 3.0):
            route = "realline" if alpha > 1.0 else "hankel"
            lhs = eta_value(alpha)
            rhs = (1.0 - 2.0 ** (1.0 - alpha)) * zeta_value(alpha, route=route)
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))

    def test_gamma_eta_normalization_recovers_eta_from_bose(self):
        # the gamma-eta multiplier (1 - 2^(1-a))/Gamma(a) turns the
        # plain bose transform Gamma(a) zeta(a) into eta(a) directly
        for alpha in (1.5, 2.0, 3.0):
            tv = forward_mellin(
                bose_function(), alpha, normalization=Normalization.gamma_eta()
            )
            assert tv.value == pytest.approx(
                alternating_eta(alpha).real, rel=1e-8
            )


class TestGammaReflection:
    def test_reflection_values(self):
        for alpha in (0.25, 0.5, 0.9):
            lhs, rhs = gamma_reflection(alpha)
            assert rhs == pytest.approx(math.pi / math.sin(math.pi * alpha))
            assert abs(lhs - rhs) < 1e-7 * abs(rhs)

    def test_alpha_outside_open_interval(self):
        with pytest.raises(StripViolation):
            gamma_reflection(1.0)


class TestSubtractedExponential:
    def test_matches_closed_form(self):
        # Gamma(alpha) (beta^-alpha - 1), including alpha < 0 where the
        # subtraction is what makes the integral converge
        for beta, alpha in ((2.0, 0.5), (0.5, 1.25), (3.0, -0.5)):
            got = subtracted_exponential_transform(beta, alpha)
            want = math.gamma(alpha) * (beta**-alpha - 1.0)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_alpha_limit(self):
        got = subtracted_exponential_transform(3.0, 0.0)
        assert got == pytest.approx(-math.log(3.0), rel=1e-10)

    def test_beta_one_vanishes(self):
        assert abs(subtracted_exponential_transform(1.0, 0.7)) < 1e-12


class TestGammaPExtension:
    def test_pure_power_recovered_left_of_zero(self):
        for beta, alpha, p in ((2.0, -0.5, 1.0), (0.5, -1.5, 2.0), (3.0, 0.5, 1.0)):
            got = gamma_p_extension(beta, alpha, p)
            assert got == pytest.approx(beta**-alpha, rel=1e-9)

    def test_alpha_left_of_extended_strip(self):
        with pytest.raises(StripViolation):
            gamma_p_extension(2.0, -1.5, 1.0)
