"""Operator layer: powers, resolvents, logs, determinants, zeta routes."""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from mellinium import (
    ConvergenceDomain,
    Normalization,
    NotPositiveDefinite,
    OperatorSpec,
    PhaseConvention,
    QuadratureConfig,
    QuadratureDivergence,
    Regulator,
    SpectrumCollision,
    ZeroDeterminant,
    anomaly_phase,
    complex_power,
    forward_mellin,
    functional_determinant,
    functional_log,
    hankel_mellin,
    key_identity_check,
    resolvent,
    spectral_eta,
    spectral_zeta,
)


from mellinium import mellin_core
from mellinium.operator_calculus import _exp_sum
from mellinium.strip_algebra import convolution_exp

from conftest import make_exp
from oracles import spectrum_zeta_direct


def random_hpd(rng, d: int, shift: float = 4.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T + shift * np.eye(d)


class TestOperatorSpec:
    def test_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            OperatorSpec()
        with pytest.raises(ValueError):
            OperatorSpec(matrix=np.eye(2), spectrum=(1.0,))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            OperatorSpec(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            OperatorSpec(matrix=np.diag([1.0, -2.0]))
        with pytest.raises(NotPositiveDefinite):
            OperatorSpec.from_spectrum((1.0, 0.0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"matrix": np.ones((2, 3))}, "square"),
            ({"spectrum": ()}, "nonempty"),
            ({"spectrum": (1.0, math.nan)}, "spectrum entry 1 is nan"),
            ({"spectrum": (math.inf, 1.0)}, "spectrum entry 0 is inf"),
            ({"matrix": np.diag([1.0, math.nan])}, r"matrix entry \(1, 1\)"),
            ({"matrix": np.diag([math.inf, 1.0])}, r"matrix entry \(0, 0\)"),
        ],
        ids=["non-square", "empty", "nan-eigenvalue", "inf-eigenvalue", "nan-entry", "inf-entry"],
    )
    def test_malformed_input_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            OperatorSpec(**kwargs)

    def test_spectrum_materializes_diagonal(self):
        op = OperatorSpec.from_spectrum((2.0, 3.0))
        assert np.allclose(op.as_matrix(), np.diag([2.0, 3.0]))
        assert op.dimension == 2

    def test_heat_trace_function(self):
        op = OperatorSpec.from_spectrum((1.0, 2.0))
        ht = op.heat_trace()
        g = 0.7
        assert ht.eval(g) == pytest.approx(math.exp(-g) + math.exp(-2 * g))
        assert ht.order_at_zero == 0.0


class TestHeatTrace:
    SPECTRUM = (0.3, 0.45, 0.8, 1.0, 1.25, 1.7, 2.0, 2.6, 3.1, 4.4, 5.0, 7.5)

    def test_matches_fsum(self):
        ht = OperatorSpec.from_spectrum(self.SPECTRUM).heat_trace()
        gs = np.geomspace(1e-3, 30.0, 25)
        got = ht.eval(gs)
        for g, v in zip(gs.tolist(), got.tolist()):
            want = math.fsum(math.exp(-e * g) for e in self.SPECTRUM)
            assert abs(v - want) <= 4e-16 * want

    def test_complex_argument(self):
        ht = OperatorSpec.from_spectrum(self.SPECTRUM).heat_trace()
        z = 0.4 - 0.7j
        terms = [cmath.exp(-e * z) for e in self.SPECTRUM]
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            got = complex(ht.eval(z))
        assert abs(got - want) <= 1e-15 * sum(abs(t) for t in terms)

    def test_shapes_are_kept(self):
        ht = OperatorSpec.from_spectrum(self.SPECTRUM).heat_trace()
        scalar = ht.eval(0.5)
        assert np.ndim(scalar) == 0
        grid = np.linspace(0.1, 3.0, 12).reshape(3, 4)
        out = ht.eval(grid)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert out[1, 2] == ht.eval(grid[1, 2])
        assert ht.eval(grid.astype(complex)).shape == (3, 4)

    @staticmethod
    def plain_exp_sum(eigs, coeffs, g):
        """sum_k coeffs[k] e^(-eigs[k] g), one np.exp per eigenvalue on every point."""
        out = np.zeros_like(g)
        with np.errstate(all="ignore"):
            for lam, c in zip(eigs.tolist(), coeffs.tolist()):
                term = np.exp(g * -lam)
                out = out + (term * c if c != 1.0 else term)
        return out

    @pytest.mark.parametrize("signs", [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0)], ids=["trace", "alternating"])
    def test_skipped_points_give_the_same_bytes(self, signs):
        # exp is skipped where Re g > 746 / min(eigs), in calls with enough such
        # points; the points straddle that cut, the subnormal band of exp
        # (exponents -745.13 to -708.4) and its edge, and the non-finite inputs
        eigs, coeffs = np.array([1.3, 2.1, 2.7]), np.array(signs)
        cut = 746.0 / 1.3
        edges = [cut, 745.13 / 1.3, 745.14 / 1.3, 708.4 / 1.3, 740.0 / 1.3]
        near = [np.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
        specials = [0.0, -0.0, 1e-300, 0.7, 30.0, 1e3, 1e300, -1.0, -600.0, math.nan, math.inf, -math.inf]
        reals = np.array(edges + near + specials)
        # 427 points, 400 of them past the cut: enough to be skipped
        points = np.concatenate([reals, np.linspace(cut, 4.0 * cut, 400)])
        imags = np.array([0.0, -0.0, 1.3, -2.0, 1e300, 1e307, math.inf, -math.inf, math.nan])
        grid = np.empty((points.size, imags.size), dtype=complex)
        grid.real, grid.imag = points[:, None], imags[None, :]
        heat = _exp_sum(eigs, coeffs, "sum")
        for g in (reals, points, points.reshape(7, -1), grid, grid[:27]):
            got = heat.eval(g)
            assert got.dtype == g.dtype and got.shape == g.shape
            assert got.tobytes() == self.plain_exp_sum(eigs, coeffs, g).tobytes()

    @pytest.mark.parametrize("alpha", [0.5 + 1.0j, -0.5 + 0.3j, -1.7, 2.5, 2.005, 3.0])
    def test_hankel_continues_the_zeta(self, alpha):
        # left of the strip <0, inf) the contour transform of the heat
        # trace is still sum e^-alpha; its circle evaluates the trace at
        # complex g, so a dropped imaginary part shows as contour dependence.
        # At 2.005 and 3.0 the value is a circle mean around the
        # multiplier pole.
        spectrum = (1.5, 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            tv = hankel_mellin(OperatorSpec.from_spectrum(spectrum).heat_trace(), alpha)
        assert tv.continued == (alpha in (2.005, 3.0))
        err = abs(tv.value - spectrum_zeta_direct(spectrum, alpha))
        assert err <= tv.abs_error_estimate


class TestComplexPower:
    def test_per_eigenvalue_mellin_oracle(self):
        rng = np.random.default_rng(20260819)
        h = random_hpd(rng, 4)
        op = OperatorSpec.from_matrix(h)
        alpha = 1.3
        eigs, vecs = np.linalg.eigh(h)
        # oracle: each eigenvalue through the scaled-exponential
        # transform with the Gamma normalization gives e^-alpha
        powered = np.array(
            [
                forward_mellin(
                    make_exp(float(e)), alpha, normalization=Normalization.gamma()
                ).value
                for e in eigs
            ]
        )
        want = (vecs * powered) @ vecs.conj().T
        got = complex_power(op, alpha)
        assert np.abs(got - want).max() < 1e-8

    def test_winding_multiplies_phase(self):
        op = OperatorSpec.from_spectrum((2.0,))
        alpha = 0.4
        base = complex_power(op, alpha)[0, 0]
        turned = complex_power(op, alpha, PhaseConvention(winding=1))[0, 0]
        assert turned == pytest.approx(base * cmath.exp(-2j * math.pi * alpha))

    def test_overflowing_power_raises(self):
        # 0.001^-200 overflows; rebuilding the matrix from it turned every
        # entry, 2^-200 included, into nan
        op = OperatorSpec.from_spectrum((0.001, 2.0))
        with pytest.raises(ConvergenceDomain):
            complex_power(op, 200)
        with pytest.raises(ConvergenceDomain):
            spectral_zeta(op, 200, route="direct")


class TestResolvent:
    def test_zero_shift_equals_complex_power(self):
        rng = np.random.default_rng(7)
        op = OperatorSpec.from_matrix(random_hpd(rng, 3))
        alpha = 0.8 + 0.3j
        assert np.array_equal(resolvent(op, 0.0, alpha), complex_power(op, alpha))

    def test_shifted_value(self):
        op = OperatorSpec.from_spectrum((2.0, 3.0))
        out = resolvent(op, -1.0, 0.5)
        assert out[0, 0] == pytest.approx(3.0**-0.5)
        assert out[1, 1] == pytest.approx(4.0**-0.5)

    def test_spectrum_collision(self):
        op = OperatorSpec.from_spectrum((2.0, 3.0))
        with pytest.raises(SpectrumCollision):
            resolvent(op, 2.0, 0.5)

    def test_left_half_plane_rejected(self):
        op = OperatorSpec.from_spectrum((2.0,))
        with pytest.raises(ConvergenceDomain):
            resolvent(op, 5.0, 0.5)


class TestFunctionalLog:
    def test_matches_matrix_log(self):
        rng = np.random.default_rng(11)
        h = random_hpd(rng, 4)
        op = OperatorSpec.from_matrix(h)
        got, _ = functional_log(op)
        want = -scipy.linalg.logm(h)
        assert np.abs(got - want).max() < 1e-6

    def test_diagonal_values(self):
        op = OperatorSpec.from_spectrum((2.0, 3.0))
        got, _ = functional_log(op)
        assert got[0, 0] == pytest.approx(-math.log(2.0), abs=1e-7)
        assert got[1, 1] == pytest.approx(-math.log(3.0), abs=1e-7)

    def test_estimate_bounds_error_on_random_operators(self):
        # dense operators with eigenvalues 0.05-80, read back on their
        # eigenvectors as the CLI reads them
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            h = (q * np.exp(rng.uniform(math.log(0.05), math.log(80.0), d))) @ q.conj().T
            op = OperatorSpec.from_matrix((h + h.conj().T) / 2.0)
            log, est = functional_log(op)
            eigs, vecs = op.eigensystem()
            got = np.diag(vecs.conj().T @ log @ vecs)
            worst = max(worst, float(np.max(np.abs(got + np.log(eigs)) / est)))
            assert est.max() < 1e-8
        assert worst <= 1.0

    def test_values_are_the_logs_of_the_spectrum(self):
        # eigenvalues far outside 0.05-80 as well
        eigs = np.concatenate([[1e-300, 1e-3, 1.0, 7.5, 1e300], np.geomspace(0.05, 80.0, 50)])
        op = OperatorSpec.from_spectrum(eigs)
        log, est = functional_log(op)
        assert np.array_equal(np.diag(log), -np.log(op.spectrum))
        with mpmath.workdps(30):
            for e, got, bound in zip(op.spectrum, np.diag(log), est):
                assert abs(complex(got) + mpmath.log(e)) <= bound


class TestFunctionalDeterminant:
    def test_inverse_determinant_at_unit_alpha(self):
        op = OperatorSpec.from_matrix(np.diag([2.0, 3.0]))
        val = functional_determinant(op, 1.0)
        assert abs(val - 1.0 / 6.0) < 1e-12

    def test_det_exp_equals_exp_trace(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 4, 5):
            op = OperatorSpec.from_matrix(random_hpd(rng, d))
            m, _ = functional_log(op)
            lhs = complex(np.linalg.det(scipy.linalg.expm(m)))
            rhs = cmath.exp(complex(np.trace(m)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            # and the determinant functional agrees with exp(trace log)
            det1 = functional_determinant(op, 1.0)
            assert abs(det1 - rhs) <= 1e-6 * abs(rhs)

    def test_winding_adds_phase(self):
        op = OperatorSpec.from_spectrum((2.0,))
        alpha = 0.3
        base = functional_determinant(op, alpha)
        turned = functional_determinant(op, alpha, PhaseConvention(winding=1))
        assert turned == pytest.approx(base * cmath.exp(2j * math.pi * alpha))

    def test_regulator_cancels_self(self):
        op = OperatorSpec.from_matrix(np.diag([2.0, 5.0]))
        val = functional_determinant(op, 0.7, regulator=Regulator(np.diag([2.0, 5.0])))
        assert val == pytest.approx(1.0)

    @pytest.mark.parametrize("eig", [10.0, 0.1])
    def test_determinant_past_the_float_range(self, eig):
        # det = eig^400 is 1e400 or 1e-400; det^-alpha is a float
        alpha = 0.5 + 0.1j
        val = functional_determinant(OperatorSpec.from_spectrum([eig] * 400), alpha)
        want = cmath.exp(-alpha * 400 * math.log(eig))
        assert abs(val - want) <= 1e-10 * abs(want)

    def test_regulator_past_the_float_range(self):
        op = OperatorSpec.from_spectrum([0.1] * 400)
        val = functional_determinant(op, 0.7, regulator=Regulator(0.1 * np.eye(400)))
        assert abs(val - 1.0) <= 1e-12

    def test_overflowing_value_raises(self):
        # det^-1 = 1e1200
        with pytest.raises(ConvergenceDomain):
            functional_determinant(OperatorSpec.from_spectrum([0.001] * 400), 1.0)

    def test_regulator_shape_checked(self):
        op = OperatorSpec.from_spectrum((2.0,))
        with pytest.raises(ValueError):
            functional_determinant(op, 1.0, regulator=Regulator(np.eye(3)))

    @pytest.mark.parametrize("alpha", [math.nan, complex(1.0, math.inf)])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha is .*, not finite"):
            functional_determinant(OperatorSpec.from_spectrum((2.0, 3.0)), alpha)

    def test_regulator_must_be_finite(self):
        op = OperatorSpec.from_spectrum((2.0, 3.0))
        with pytest.raises(ValueError, match=r"regulator entry \(1, 1\) is \(nan"):
            functional_determinant(op, 1.0, regulator=Regulator(np.diag([1.0, math.nan])))


class TestAnomalyPhase:
    def test_real_pd_pairs_give_unity(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            v = anomaly_phase(a @ a.T + 3 * np.eye(3), b @ b.T + 3 * np.eye(3), 0.6)
            assert v == 1

    def test_phase_wrapping_scalar(self):
        z = cmath.exp(2j * math.pi / 3)
        alpha = 0.3
        v = anomaly_phase([[z]], [[z]], alpha)
        assert v == pytest.approx(cmath.exp(-2j * math.pi * alpha))

    def test_no_wrap_scalar(self):
        v = anomaly_phase([[1 + 1j]], [[1 + 1j]], 0.3)
        assert v == 1

    def test_zero_determinant(self):
        with pytest.raises(ZeroDeterminant):
            anomaly_phase(np.zeros((2, 2)), np.eye(2), 1.0)

    @pytest.mark.parametrize(
        "op1, op2, message",
        [
            (np.eye(2), np.eye(3), "equal shape"),
            (np.ones((2, 3)), np.ones((2, 3)), "equal shape"),
            ([[math.nan]], [[2.0]], "op1 entry"),
            ([[2.0]], [[math.inf]], "op2 entry"),
        ],
        ids=["mismatched", "non-square", "nan-op1", "inf-op2"],
    )
    def test_operands_checked(self, op1, op2, message):
        with pytest.raises(ValueError, match=message):
            anomaly_phase(op1, op2, 1.0)

    def test_unit_modulus(self):
        rng = np.random.default_rng(9)
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = anomaly_phase(m1, m2, 0.37)
        assert abs(abs(v) - 1.0) < 1e-12

    def test_scaled_pair_past_the_float_range(self):
        # det(1e-4 m1) is about 7e-307, near the bottom of the float range
        rng = np.random.default_rng(0)
        m1 = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        m2 = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        assert anomaly_phase(1e-4 * m1, m2, 0.37) == anomaly_phase(m1, m2, 0.37)

    def test_product_past_the_float_range(self):
        # the entries of op1 op2 overflow; a floating-point warning is an
        # error in this suite
        assert anomaly_phase(np.diag([1e200, 1.0]), np.diag([1e200, 1.0]), 0.5) == 1
        assert anomaly_phase(np.diag([1e300, 1e-300]), np.diag([1e300, 1e-300]), 0.5) == 1
        z = cmath.exp(2j * math.pi / 3)
        wrapped = np.diag([1e300 * z, 1.0])
        assert anomaly_phase(wrapped, wrapped, 0.3) == anomaly_phase([[z]], [[z]], 0.3)

    def test_product_det_underflow(self):
        # det(op1 op2) = 1e-400 rounds to 0, but neither operand is singular
        assert anomaly_phase(np.diag([1e-200, 1.0]), np.diag([1e-200, 1.0]), 0.5) == 1
        z = cmath.exp(2j * math.pi / 3)
        wrapped = np.diag([1e-200 * z, 1.0])
        assert anomaly_phase(wrapped, wrapped, 0.3) == anomaly_phase([[z]], [[z]], 0.3)

    def test_singular_operand_raises(self):
        tiny = np.diag([1e-200, 1.0])
        for op1, op2 in ((np.diag([0.0, 1.0]), tiny), (tiny, np.diag([1.0, 0.0]))):
            with pytest.raises(ZeroDeterminant):
                anomaly_phase(op1, op2, 0.5)

    def test_product_out_of_range_raises(self):
        # det(op1 op2) = 1, but the product's entry 1e600 overflows, and
        # scaled to a unit row the entry 1e-300 of op1 underflows
        op1 = np.array([[1e-300, 1e300], [0.0, 1.0]])
        with pytest.raises(ConvergenceDomain, match="det\\(op1 op2\\)"):
            anomaly_phase(op1, np.diag([1.0, 1e300]), 0.5)

    def test_overflowing_phase_raises(self):
        z = cmath.exp(2j * math.pi / 3)
        with pytest.raises(ConvergenceDomain):
            anomaly_phase([[z]], [[z]], 0.3 + 200j)

    def test_alpha_must_be_finite(self):
        with pytest.raises(ValueError, match="alpha is .*, not finite"):
            anomaly_phase(np.eye(2), np.eye(2), math.nan)


class TestSpectralZeta:
    def test_direct_route_sums_powers(self):
        op = OperatorSpec.from_spectrum((1.0, 2.0, 3.0))
        alpha = 1.5 + 0.5j
        got = spectral_zeta(op, alpha).value
        assert got == pytest.approx(spectrum_zeta_direct((1, 2, 3), alpha))

    def test_routes_agree(self):
        op = OperatorSpec.from_spectrum(tuple(range(1, 51)))
        for alpha in (2.0, 3.0):
            direct = spectral_zeta(op, alpha, route="direct").value
            mellin = spectral_zeta(op, alpha, route="heat-trace-mellin").value
            assert abs(direct - mellin) < 1e-9 * abs(direct)

    def test_unknown_route(self):
        op = OperatorSpec.from_spectrum((1.0,))
        with pytest.raises(ValueError):
            spectral_zeta(op, 2.0, route="laplace")

    @staticmethod
    def direct_error(spectrum, alpha):
        """The direct route's value, estimate and error against mpmath at 30 digits."""
        tv = spectral_zeta(OperatorSpec.from_spectrum(spectrum), alpha, "direct")
        with mpmath.workdps(30):
            want = mpmath.fsum(mpmath.power(mpmath.mpf(e), -mpmath.mpc(alpha)) for e in spectrum)
            return tv, float(abs(mpmath.mpc(tv.value) - want)), float(abs(want))

    @pytest.mark.parametrize("spectrum, alpha", [((1e-300,), 1.0), ((1e-300, 3.7, 1e5), 0.9 + 2.5j)])
    def test_direct_estimate_bounds_the_rounding(self, spectrum, alpha):
        # 2.4e-14 and 1.2e-13 off, relative: the exponent alpha log e rounds
        tv, error, size = self.direct_error(spectrum, alpha)
        assert 1e-14 * size < error <= tv.abs_error_estimate <= 1e-11 * size

    def test_direct_estimate_on_random_spectra(self):
        # eigenvalues from 1e-300 to 1e300; powers that leave the float range raise
        rng = np.random.default_rng(30)
        checked = 0
        for _ in range(400):
            spectrum = tuple(10.0 ** rng.uniform(-300, 300, int(rng.integers(1, 7))))
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-5.0, 5.0))
            try:
                tv, error, _ = self.direct_error(spectrum, alpha)
            except ConvergenceDomain:
                continue
            assert error <= tv.abs_error_estimate
            assert np.isfinite(tv.abs_error_estimate)
            checked += 1
        assert checked > 100

    def test_eta_variant(self):
        op = OperatorSpec.from_spectrum((1.0, 2.0, 4.0))
        alpha = 2.0
        want = sum((-1.0) ** (k) * e**-alpha for k, e in enumerate((1.0, 2.0, 4.0)))
        got = spectral_eta(op, alpha).value
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("eig", [1e20, 1e10])
    def test_eta_cross_check_scales_with_the_terms(self, eig):
        # the transform returns 6.8e-214 for 1e-30 and 8.8e-18 for 1e-15,
        # both below an absolute floor of 1e-8
        with pytest.raises(QuadratureDivergence, match="eta routes disagree"):
            spectral_eta(OperatorSpec.from_spectrum((eig,)), 1.5)


class TestKeyIdentity:
    # the acceptance suite runs the full-precision version; these use a
    # looser quadrature config to keep the module suite fast, which is
    # harmless because the asserted gaps sit far above 1e-8.
    CFG = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-10)

    def test_single_eigenvalue(self):
        op = OperatorSpec.from_spectrum((2.0,))
        lhs, rhs, bound = key_identity_check(op, 1.0, cfg=self.CFG)
        assert abs(lhs - math.exp(-0.5)) < 1e-12
        assert abs(lhs - rhs) <= bound

    def test_deviation_shrinks_with_terms(self):
        op = OperatorSpec.from_spectrum((1.0,))
        devs = []
        for terms in (4, 6, 8):
            lhs, rhs, bound = key_identity_check(op, 2.0, terms=terms, cfg=self.CFG)
            devs.append(abs(lhs - rhs))
            assert devs[-1] <= bound
        assert devs[2] < devs[0]

    @pytest.mark.parametrize(
        "spectrum, alpha, terms",
        [((2.0,), 1.0, 12), ((1.3, 2.1, 2.7), 2.0, 6), ((0.7, 1.9), 1.5 - 0.8j, 12), ((1.0,), 2.0, 0)],
    )
    def test_heat_trace_transformed_once(self, monkeypatch, spectrum, alpha, terms):
        # rhs and bound are those of transforming the convolution exponential
        # and the heat trace apart, bit for bit, from one quadrature of the trace
        op = OperatorSpec.from_spectrum(spectrum)
        h = op.heat_trace()
        tv = forward_mellin(convolution_exp(h, terms, self.CFG), alpha, cfg=self.CFG)
        h_alpha = forward_mellin(h, alpha, cfg=self.CFG)
        mag = abs(h_alpha.value)
        truncation = mag ** (terms + 1) / math.factorial(terms + 1) * math.exp(mag)
        bound = truncation + 10.0 * (tv.abs_error_estimate + h_alpha.abs_error_estimate)
        calls, tanh_sinh = [], mellin_core._tanh_sinh
        monkeypatch.setattr(mellin_core, "_tanh_sinh", lambda *a: calls.append(1) or tanh_sinh(*a))
        _, rhs, got = key_identity_check(op, alpha, terms, cfg=self.CFG)
        assert repr((rhs, got)) == repr((tv.value, float(bound)))
        assert len(calls) == 1

    def test_overflowing_lhs_raises(self):
        # zeta = 2^(10 - i pi / log 2) = -1024, so exp(-zeta) overflows
        op = OperatorSpec.from_spectrum((2.0,))
        with pytest.raises(ConvergenceDomain):
            key_identity_check(op, complex(-10.0, math.pi / math.log(2.0)), cfg=self.CFG)
