"""Physics-flavored closed loops: distributions, Green's functions, zeta."""

from __future__ import annotations

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from mellinium import (
    CoincidentPoints,
    ConvergenceDomain,
    DivergentRoute,
    HeatKernelProblem,
    Normalization,
    OperatorSpec,
    PoleAtOne,
    StripViolation,
    bose_function,
    eta_value,
    fermi_function,
    forward_mellin,
    functional_log,
    gamma_p_extension,
    gamma_reflection,
    greens_function,
    hankel_mellin,
    spectral_eta,
    spectral_zeta,
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
        # near z = 0, where e^z - 1 as written cancels eight digits
        zs = 1e-8 * np.exp(1j * np.linspace(0.1, 6.2, 7))
        with mp.workdps(30):
            want = np.array([complex(1 / mp.expm1(mp.mpc(z))) for z in zs])
        assert np.all(np.abs(bose_function().eval(zs) - want) <= 1e-15 * np.abs(want))
        # either side of Re z = 40, and past e^x's overflow, where the value underflows
        zs = np.array([39.5 + 1j, 40.5 + 1j, 710 + 1e-300j, 800 + 1j, 800 + 0j])
        with mp.workdps(30):
            want = np.array([complex(1 / mp.expm1(mp.mpc(z))) for z in zs])
        got = bose_function().eval(zs)
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want) + 1e-320)

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
        assert greens_function(p, route="closed").value == pytest.approx(1.0)
        assert greens_function(p, route="quadrature").value == pytest.approx(1.0, abs=1e-9)

    def test_two_dimensions_log(self):
        p = HeatKernelProblem(n=2, x_a=(0.0, 0.0), x_a_prime=(math.e, 0.0))
        assert greens_function(p, route="closed").value == pytest.approx(-2.0)

    def test_five_dimensions_routes_agree(self):
        p = HeatKernelProblem(n=5, x_a=(0.0,) * 5, x_a_prime=(1.3,) + (0.0,) * 4)
        closed = greens_function(p, route="closed").value
        quad = greens_function(p, route="quadrature").value
        assert abs(quad - closed) < 1e-8 * abs(closed)

    def test_doubling_scaling_law(self):
        for n in (3, 4, 5, 7):
            near = HeatKernelProblem(n=n, x_a=(0.0,) * n, x_a_prime=(0.7,) + (0.0,) * (n - 1))
            far = HeatKernelProblem(n=n, x_a=(0.0,) * n, x_a_prime=(1.4,) + (0.0,) * (n - 1))
            ratio = greens_function(far, route="closed").value / greens_function(
                near, route="closed"
            ).value
            assert ratio == 2.0 ** (2 - n)

    def test_distance_past_the_square_root_of_the_float_range(self):
        # |dx|^2 overflows past 1.3e154, and the closed forms do not need it;
        # a floating-point warning is an error in this suite
        far3 = HeatKernelProblem(n=3, x_a=(0.0,), x_a_prime=(1e200,))
        assert greens_function(far3).value == pytest.approx(1e-200, rel=1e-15)
        far2 = HeatKernelProblem(n=2, x_a=(0.0, 0.0), x_a_prime=(1e300, 0.0))
        assert greens_function(far2).value == -2.0 * math.log(1e300)
        assert HeatKernelProblem(2, (0.0, 0.0), (3 * 2.0**600, 4 * 2.0**600)).separation() == 5 * 2.0**600

    def test_coordinate_difference_past_the_float_range(self):
        # |dx| = 2e308 itself overflows; the closed forms do not, and a
        # floating-point warning is an error in this suite
        problem = HeatKernelProblem(n=2, x_a=(-1e308,), x_a_prime=(1e308,))
        assert problem.separation() == math.inf
        want = -2.0 * mp.log(mp.mpf(2) * mp.mpf(1e308))
        assert greens_function(problem).value == pytest.approx(float(want), rel=1e-15)
        diagonal = HeatKernelProblem(n=2, x_a=(-1.5e308, 1.5e308), x_a_prime=(1.5e308, -1.5e308))
        want = -2.0 * mp.log(mp.sqrt(2) * mp.mpf(3) * mp.mpf(1e308))
        assert greens_function(diagonal).value == pytest.approx(float(want), rel=1e-15)
        # n = 3: 1 / |dx| = 5e-309, a subnormal float
        far3 = HeatKernelProblem(n=3, x_a=(-1e308,), x_a_prime=(1e308,))
        want = 1 / (mp.mpf(2) * mp.mpf(1e308))
        assert greens_function(far3).value == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize(
        "n, r",
        [(n, r) for n in (3, 4, 5, 6, 8) for r in (1e-3, 1.0, 56.2, 1e3, 3.16e3, 1e200, 1e-100)]
        # r^(2 - n) underflows, and overflows, where the value is a normal float;
        # at n = 200 the closed form's pi^(1 - n/2) is 3.8e-15 off at r = 1
        + [(200, 100.0), (8, 3.2e-52), (200, 1.0)],
    )
    def test_quadrature_route_against_mpmath(self, n, r):
        # both routes scale a unit-separation value by r^(2 - n); where the
        # value leaves the float range they raise
        with mp.workdps(30):
            power = mp.mpf(r) ** (2 - n)
            want = mp.pi ** (1 - mp.mpf(n) / 2) * mp.gamma(mp.mpf(n) / 2 - 1) * power
        problem = HeatKernelProblem(n, (0.0,), (r,))
        for route in ("closed", "quadrature"):
            if want > sys.float_info.max:
                with pytest.raises(ConvergenceDomain):
                    greens_function(problem, route=route)
                continue
            tv = greens_function(problem, route=route)
            error = abs(tv.value - want)
            assert error <= tv.abs_error_estimate
            if want >= sys.float_info.min:
                assert error <= 1e-13 * want

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
        with pytest.raises(ValueError, match="x_a' entry 0 is nan"):
            HeatKernelProblem(n=3, x_a=(0.0,), x_a_prime=(math.nan,))
        with pytest.raises(ValueError, match="x_a entry 1 is inf"):
            HeatKernelProblem(n=3, x_a=(0.0, math.inf), x_a_prime=(1.0, 0.0))

    def test_unknown_route(self):
        p = HeatKernelProblem(n=3, x_a=(0.0,), x_a_prime=(1.0,))
        with pytest.raises(ValueError, match="unknown route"):
            greens_function(p, route="borel")


class TestZetaRoutes:
    def test_realline_even_values(self):
        assert zeta_value(2.0).value == pytest.approx(math.pi**2 / 6.0, rel=1e-10)
        assert zeta_value(4.0).value == pytest.approx(math.pi**4 / 90.0, rel=1e-10)

    def test_realline_matches_series_oracle(self):
        for alpha in (1.5, 2.5, 3.0):
            assert zeta_value(alpha).value == pytest.approx(
                zeta_from_eta(alpha).real, rel=1e-9
            )

    def test_hankel_left_of_strip(self):
        got = zeta_value(0.5, route="hankel").value
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
        assert eta_value(1.0).value == pytest.approx(math.log(2.0), rel=1e-10)
        assert eta_value(2.0).value == pytest.approx(math.pi**2 / 12.0, rel=1e-10)

    def test_matches_alternating_oracle(self):
        for alpha in (0.25, 0.75, 1.5, 3.0):
            assert eta_value(alpha).value == pytest.approx(
                alternating_eta(alpha).real, rel=1e-9
            )

    def test_eta_zeta_consistency(self):
        # eta(alpha) = (1 - 2^(1-alpha)) zeta(alpha) across the strip,
        # with zeta from the route that converges at each point
        for alpha in (0.25, 0.5, 1.5, 2.0, 3.0):
            route = "realline" if alpha > 1.0 else "hankel"
            lhs = eta_value(alpha).value
            rhs = (1.0 - 2.0 ** (1.0 - alpha)) * zeta_value(alpha, route=route).value
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
            got = subtracted_exponential_transform(beta, alpha).value
            want = math.gamma(alpha) * (beta**-alpha - 1.0)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_alpha_limit(self):
        got = subtracted_exponential_transform(3.0, 0.0).value
        assert got == pytest.approx(-math.log(3.0), rel=1e-10)

    def test_beta_one_vanishes(self):
        assert abs(subtracted_exponential_transform(1.0, 0.7).value) < 1e-12

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError, match="beta"):
            subtracted_exponential_transform(0.0, 0.5)


class TestGammaPExtension:
    def test_pure_power_recovered_left_of_zero(self):
        for beta, alpha, p in ((2.0, -0.5, 1.0), (0.5, -1.5, 2.0), (3.0, 0.5, 1.0)):
            got = gamma_p_extension(beta, alpha, p).value
            assert got == pytest.approx(beta**-alpha, rel=1e-9)

    def test_alpha_left_of_extended_strip(self):
        with pytest.raises(StripViolation):
            gamma_p_extension(2.0, -1.5, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="beta"):
            gamma_p_extension(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="weight exponent"):
            gamma_p_extension(2.0, 0.5, -1.0)


def _within_estimate(tv, want):
    assert abs(tv.value - complex(want)) <= tv.abs_error_estimate


SPECTRUM = (0.7, 1.9, 3.3)


class TestCalibration:
    """Every public route's own estimate bounds its true error against mpmath."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mp.workdps(30):
            yield

    @pytest.mark.parametrize(
        "route, alpha",
        [("realline", a) for a in (1.5, 2.0, 3 + 2j, 4 - 5j, 1.2 + 0.3j)]
        + [("hankel", a) for a in (0.3, 0.5 + 1j, 0.05 + 0.5j, 2.5, 0.7 - 2j)],
    )
    def test_zeta(self, route, alpha):
        _within_estimate(zeta_value(alpha, route), mp.zeta(alpha))

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 2 + 3j, 0.5 + 5j, 3.5])
    def test_eta(self, alpha):
        _within_estimate(eta_value(alpha), mp.altzeta(alpha))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("r", [0.7, 1.3])
    def test_greens_quadrature(self, n, r):
        half = mp.mpf(n) / 2
        want = mp.pi ** (1 - half) * mp.gamma(half - 1) * mp.mpf(r) ** (2 - n)
        _within_estimate(greens_function(HeatKernelProblem(n, (0.0,), (r,)), "quadrature"), want)

    @pytest.mark.parametrize("alpha", [0.5 + 0.5j, 2.0, 1.3 - 1.7j])
    def test_spectral_zeta_and_eta(self, alpha):
        op = OperatorSpec.from_spectrum(SPECTRUM)
        powers = [mp.power(e, -mp.mpc(alpha)) for e in SPECTRUM]
        _within_estimate(spectral_zeta(op, alpha, "mellin"), mp.fsum(powers))
        _within_estimate(spectral_eta(op, alpha), mp.fsum((-1) ** i * t for i, t in enumerate(powers)))

    def test_functional_log(self):
        op = OperatorSpec.from_spectrum(SPECTRUM)
        log, est = functional_log(op)
        eigs, vecs = op.eigensystem()
        got = np.diag(vecs.conj().T @ log @ vecs)
        for g, e, bound in zip(got, eigs, est):
            assert abs(g + complex(mp.log(e))) <= bound

    @pytest.mark.parametrize("beta, alpha", [(3.0, 0.5), (0.5, -0.5 + 1j), (2.0, 1.5 - 2j), (3.0, 0.0)])
    def test_subtracted_exponential(self, beta, alpha):
        a = mp.mpc(alpha)
        want = -mp.log(beta) if alpha == 0 else mp.gamma(a) * (mp.power(beta, -a) - 1)
        _within_estimate(subtracted_exponential_transform(beta, alpha), want)

    @pytest.mark.parametrize("beta, alpha, p", [(2.0, -0.5, 1.0), (0.7, 0.3 + 1j, 0.5), (1.5, -1.2 + 0.5j, 2.0)])
    def test_gamma_p_extension(self, beta, alpha, p):
        _within_estimate(gamma_p_extension(beta, alpha, p), mp.power(beta, -mp.mpc(alpha)))
