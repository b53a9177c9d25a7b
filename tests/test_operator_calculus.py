"""Operator layer: powers, resolvents, logs, determinants, zeta routes."""

from __future__ import annotations

import cmath
import math
import warnings

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

from mellinium.operator_calculus import _functional_log

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

    @pytest.mark.parametrize("alpha", [0.5 + 1.0j, -0.5 + 0.3j, -1.7, 2.5])
    def test_hankel_continues_the_zeta(self, alpha):
        # left of the strip <0, inf) the contour transform of the heat
        # trace is still sum e^-alpha; its circle evaluates the trace at
        # complex g, so a dropped imaginary part shows as contour dependence
        spectrum = (1.5, 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            tv = hankel_mellin(OperatorSpec.from_spectrum(spectrum).heat_trace(), alpha)
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
        got = functional_log(op)
        want = -scipy.linalg.logm(h)
        assert np.abs(got - want).max() < 1e-6

    def test_diagonal_values(self):
        op = OperatorSpec.from_spectrum((2.0, 3.0))
        got = functional_log(op)
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
            log, est = _functional_log(op)
            eigs, vecs = op.eigensystem()
            got = np.diag(vecs.conj().T @ log @ vecs)
            worst = max(worst, float(np.max(np.abs(got + np.log(eigs)) / est)))
            assert est.max() < 1e-8
        assert worst <= 1.0


class TestFunctionalDeterminant:
    def test_inverse_determinant_at_unit_alpha(self):
        op = OperatorSpec.from_matrix(np.diag([2.0, 3.0]))
        val = functional_determinant(op, 1.0)
        assert abs(val - 1.0 / 6.0) < 1e-12

    def test_det_exp_equals_exp_trace(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 4, 5):
            op = OperatorSpec.from_matrix(random_hpd(rng, d))
            m = functional_log(op)
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

    def test_overflowing_phase_raises(self):
        z = cmath.exp(2j * math.pi / 3)
        with pytest.raises(ConvergenceDomain):
            anomaly_phase([[z]], [[z]], 0.3 + 200j)


class TestSpectralZeta:
    def test_direct_route_sums_powers(self):
        op = OperatorSpec.from_spectrum((1.0, 2.0, 3.0))
        alpha = 1.5 + 0.5j
        got = spectral_zeta(op, alpha)
        assert got == pytest.approx(spectrum_zeta_direct((1, 2, 3), alpha))

    def test_routes_agree(self):
        op = OperatorSpec.from_spectrum(tuple(range(1, 51)))
        for alpha in (2.0, 3.0):
            direct = spectral_zeta(op, alpha, route="direct")
            mellin = spectral_zeta(op, alpha, route="heat-trace-mellin")
            assert abs(direct - mellin) < 1e-9 * abs(direct)

    def test_unknown_route(self):
        op = OperatorSpec.from_spectrum((1.0,))
        with pytest.raises(ValueError):
            spectral_zeta(op, 2.0, route="laplace")

    def test_eta_variant(self):
        op = OperatorSpec.from_spectrum((1.0, 2.0, 4.0))
        alpha = 2.0
        want = sum((-1.0) ** (k) * e**-alpha for k, e in enumerate((1.0, 2.0, 4.0)))
        got = spectral_eta(op, alpha)
        assert got == pytest.approx(want, rel=1e-9)


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

    def test_overflowing_lhs_raises(self):
        # zeta = 2^(10 - i pi / log 2) = -1024, so exp(-zeta) overflows
        op = OperatorSpec.from_spectrum((2.0,))
        with pytest.raises(ConvergenceDomain):
            key_identity_check(op, complex(-10.0, math.pi / math.log(2.0)), cfg=self.CFG)
