"""Operator powers, zeta traces and regularized determinants.

For a Hermitian positive-definite operator with eigenvalues e_i > 0,

    op^(-alpha)          = U diag(e_i^-alpha) U+
    zeta_op(alpha)       = sum_i e_i^-alpha
                         = 1/Gamma(alpha) int_0^inf Tr(e^-g op) g^(alpha-1) dg
    eta_op(alpha)        = sum_i (-1)^(i+1) e_i^-alpha   (ascending order)
    det_alpha(op)        = exp(alpha Log det op^-1)

with a winding convention (PhaseConvention) selecting the branch of the
complex power: e^-alpha(log e + 2 pi i winding). The heat-trace route
evaluates the zeta sum through the Gamma-normalized Mellin transform of
the heat trace, fundamental strip <0, inf) for finite spectra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceDomain,
    NotPositiveDefinite,
    QuadratureDivergence,
    SpectrumCollision,
    ZeroDeterminant,
)
from .mellin_core import (
    FundamentalStrip,
    MellinFunction,
    Normalization,
    QuadratureConfig,
    TransformValue,
    _EPS,
    _circle,
    _circle_mode,
    _require_finite,
    _wrap_eval,
    forward_mellin,
)
from .strip_algebra import _series, convolution_exp

__all__ = [
    "OperatorSpec",
    "PhaseConvention",
    "Regulator",
    "complex_power",
    "resolvent",
    "spectral_zeta",
    "spectral_eta",
    "functional_log",
    "functional_determinant",
    "anomaly_phase",
    "key_identity_check",
]

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class PhaseConvention:
    """Branch choice for complex powers: winding extra turns of 2 pi."""

    winding: int = 0


@dataclass(frozen=True)
class Regulator:
    """Reference operator whose determinant normalizes the regularized one."""

    matrix: np.ndarray


class OperatorSpec:
    """Hermitian positive-definite operator, as a matrix or a spectrum.

    Exactly one of the two forms backs an instance; both expose an
    eigensystem and a dense matrix (the spectrum materializes as a
    diagonal matrix). Eigenvalues are finite and strictly positive; zero
    is never in the spectrum.
    """

    def __init__(self, *, matrix: np.ndarray | None = None, spectrum=None):
        if (matrix is None) == (spectrum is None):
            raise ValueError("provide exactly one of matrix or spectrum")
        if matrix is not None:
            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("matrix must be square")
            _require_finite(m, "matrix")
            scale = max(1.0, float(np.abs(m).max()))
            if np.abs(m - m.conj().T).max() > _HERMITIAN_TOL * scale:
                raise NotPositiveDefinite("matrix is not Hermitian to tolerance")
            eigs, vecs = np.linalg.eigh(m)
            if eigs.min() <= 0:
                raise NotPositiveDefinite(
                    f"smallest eigenvalue {eigs.min():.3e} is not positive"
                )
            self._matrix = m
            self._eigs = eigs
            self._vecs = vecs
        else:
            s = np.asarray(spectrum, dtype=float)
            if s.ndim != 1 or len(s) == 0:
                raise ValueError("spectrum must be a nonempty 1-d sequence")
            _require_finite(s, "spectrum")
            s = np.sort(s)
            if s[0] <= 0:
                raise NotPositiveDefinite(f"spectrum contains {s[0]:g} <= 0")
            self._matrix = None
            self._eigs = s
            self._vecs = None

    @classmethod
    def from_matrix(cls, matrix) -> "OperatorSpec":
        return cls(matrix=matrix)

    @classmethod
    def from_spectrum(cls, spectrum) -> "OperatorSpec":
        return cls(spectrum=spectrum)

    @property
    def dimension(self) -> int:
        return len(self._eigs)

    @property
    def spectrum(self) -> np.ndarray:
        return self._eigs.copy()

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._vecs is not None:
            return self._eigs.copy(), self._vecs.copy()
        return self._eigs.copy(), np.eye(self.dimension, dtype=complex)

    def as_matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix.copy()
        return np.diag(self._eigs).astype(complex)

    def heat_trace(self) -> MellinFunction:
        """Tr e^(-g op) as a MellinFunction on the strip <0, inf), real or complex g."""
        return _exp_sum(self._eigs, np.ones(self.dimension), f"heat-trace(d={self.dimension})")


# Underflowing exps a call must hold before _exp_sum skips them: the test and
# the masking cost several us a call, an exp below -745 up to about 15 ns. A
# call too small to hold that many (a quadrature level of a few hundred nodes)
# is not even tested, so it costs no more than before.
_SKIP_MIN_EXPS = 1024


def _exp_sum(eigs: np.ndarray, coeffs: np.ndarray, label: str) -> MellinFunction:
    """g -> sum_k coeffs[k] e^(-eigs[k] g) on the strip <0, inf), for real or complex g.

    The heat traces and the corpus's exp_decay are such sums; the rates
    eigs are positive.

    The terms are added one eigenvalue at a time, in order, so no
    len(g) by len(eigs) temporary is built; the result keeps g's shape,
    in float64 or complex128.

    A point with Re g > 746 / min(eigs) is left at exactly 0 without
    calling exp, when a call holds at least _SKIP_MIN_EXPS such exps (a
    grid kernel sum's chunk does): every exponent there is below
    -745.13, where exp gives exactly 0, and underflowing exps cost about
    ten times ordinary ones. The test is ``>``, so a nan stays live and
    comes out nan; the subnormal band (exponents down to -745.13) is
    still computed. A complex point is skipped only while lam Im g stays
    finite for every eigenvalue, since an infinite phase makes exp nan.
    The skip gives the same bytes: a sum of exact zeros is +0.
    """
    lams = eigs.tolist()
    pairs = list(zip(lams, coeffs.tolist()))
    cut, phase_cap = 746.0 / min(lams), 1e300 / max(lams)
    min_dead = _SKIP_MIN_EXPS / len(lams)

    def terms(g):
        # np.zeros, not np.zeros_like: a quarter of the cost on small arrays
        out = np.zeros(g.shape, g.dtype)
        term = np.empty_like(g)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for lam, c in pairs:
                np.multiply(g, -lam, out=term)
                np.exp(term, out=term)
                if c != 1.0:
                    term *= c
                out += term
        return out

    def core(arr):
        g = np.asarray(arr, dtype=np.result_type(arr, np.float64))
        if g.size < min_dead:
            return terms(g)
        dead = g.real > cut
        if np.count_nonzero(dead) < min_dead:
            return terms(g)
        if np.iscomplexobj(g):
            dead &= np.abs(g.imag) <= phase_cap
        live = ~dead
        out = np.zeros(g.shape, g.dtype)
        out[live] = terms(g[live])
        return out

    return MellinFunction(_wrap_eval(core), 0.0, math.inf, label=label)


def _branch_power(values: np.ndarray, alpha: complex, winding: int) -> np.ndarray:
    """values^-alpha on the principal branch shifted by the winding; finite or raises."""
    logs = np.log(values.astype(complex)) + 2j * math.pi * winding
    with np.errstate(over="ignore"):
        powered = np.exp(-complex(alpha) * logs)
    if not np.isfinite(powered).all():
        raise ConvergenceDomain(f"a power x^-alpha at alpha={alpha} leaves the float range")
    return powered


def complex_power(
    op: OperatorSpec, alpha: complex, convention: PhaseConvention | None = None
) -> np.ndarray:
    """op^(-alpha) through the eigensystem, on the chosen branch."""
    conv = convention or PhaseConvention()
    eigs, vecs = op.eigensystem()
    powered = _branch_power(eigs, alpha, conv.winding)
    return (vecs * powered) @ vecs.conj().T


def resolvent(
    op: OperatorSpec,
    z: complex,
    alpha: complex,
    convention: PhaseConvention | None = None,
) -> np.ndarray:
    """(op - z)^(-alpha); the shifted spectrum must stay in Re > 0.

    SpectrumCollision when z is within 1e-12 of an eigenvalue,
    ConvergenceDomain when a shifted eigenvalue leaves the right
    half-plane.
    """
    conv = convention or PhaseConvention()
    eigs, vecs = op.eigensystem()
    shifted = eigs - complex(z)
    if np.abs(shifted).min() < 1e-12:
        raise SpectrumCollision(f"shift z={z} collides with an eigenvalue")
    if shifted.real.min() <= 0:
        raise ConvergenceDomain(
            f"shifted eigenvalue {shifted[shifted.real.argmin()]} leaves Re > 0"
        )
    powered = _branch_power(shifted, alpha, conv.winding)
    return (vecs * powered) @ vecs.conj().T


def spectral_zeta(
    op: OperatorSpec,
    alpha: complex,
    route: str = "direct",
    cfg: QuadratureConfig | None = None,
) -> TransformValue:
    """Operator zeta, by direct summation or the heat-trace Mellin route.

    The direct route sums e_i^-alpha (convergent for any alpha on a
    finite spectrum), with estimate 0 on the whole plane. The Mellin
    route computes the Gamma-normalized transform of the heat trace on
    <0, inf), so it needs Re(alpha) > 0.
    """
    key = route.replace("-", "_").lower()
    if key == "direct":
        value = complex(np.sum(_branch_power(op.spectrum, alpha, 0)))
        strip = FundamentalStrip(-math.inf, math.inf)
        return TransformValue(value, complex(alpha), strip, Normalization.gamma(), 0.0)
    if key in ("heat_trace_mellin", "mellin"):
        return forward_mellin(op.heat_trace(), alpha, Normalization.gamma(), cfg=cfg)
    raise ValueError(f"unknown route {route!r}")


def spectral_eta(
    op: OperatorSpec, alpha: complex, cfg: QuadratureConfig | None = None
) -> TransformValue:
    """Alternating zeta of the spectrum via the alternating heat trace.

    The Mellin value is cross-checked against the direct alternating
    sum; disagreement raises QuadratureDivergence.
    """
    eigs = op.spectrum
    signs = np.array([(-1.0) ** i for i in range(len(eigs))])
    alt = _exp_sum(eigs, signs, f"alt-heat-trace(d={len(eigs)})")
    tv = forward_mellin(alt, alpha, Normalization.gamma(), cfg=cfg)
    direct = complex(np.sum(signs * _branch_power(eigs, alpha, 0)))
    if abs(tv.value - direct) > max(1e-8, 1e-6 * abs(direct)):
        raise QuadratureDivergence(
            f"eta routes disagree: mellin {tv.value} vs direct {direct}"
        )
    return tv


def functional_log(op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """(-log(op), error estimates): the derivative of alpha -> op^(-alpha) at 0.

    The estimates hold one per eigenvalue, in the order of
    op.eigensystem(). On eigenvalue e, -log e is mode 1 of
    e^(-alpha log e) on the circle |alpha| = rho, over rho;
    rho = min(1, 2 / max |log e|) keeps every |alpha log e| <= 2, so 32
    points are exact to rounding. The estimate is the aliasing estimate
    over rho, plus 4 eps times the mean term over rho (the circle sum's
    rounding) and 4 d eps max |log e| (the rounding of rebuilding the
    d x d matrix and reading it back).
    """
    eigs, vecs = op.eigensystem()
    logs = np.log(eigs)
    top = float(np.abs(logs).max())
    rho = 2.0 / max(2.0, top)
    values = np.exp(-np.outer(logs, _circle(0.0, rho, 32)))
    mode, alias = _circle_mode(values, 1)
    mass = np.abs(values).mean(axis=1)
    err = (alias + 4.0 * _EPS * mass) / rho + 4.0 * op.dimension * _EPS * top
    # log e is real, so is every Taylor coefficient of e^(-alpha log e)
    return (vecs * (mode.real / rho)) @ vecs.conj().T, err


def _log_det(matrix: np.ndarray) -> complex:
    """log|det| + i Arg det from LU factors, finite also where det is not."""
    sign, log_abs = np.linalg.slogdet(matrix)
    if sign == 0:
        raise ZeroDeterminant("determinant vanishes: the matrix is singular")
    return complex(log_abs, cmath.phase(sign))


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """m with each row scaled by the power of two that brings its largest part into [0.5, 1)."""
    parts = np.stack([m.real, m.imag])
    _, exponents = np.frexp(np.abs(parts).max(axis=(0, 2)))
    scaled = np.ldexp(parts, -exponents[:, None])
    return scaled[0] + 1j * scaled[1]


def _product_log_det(m1: np.ndarray, m2: np.ndarray) -> complex:
    """_log_det(m1 @ m2) for nonsingular m1 and m2, also where that product leaves the float range.

    Where the raw product overflows, or its det rounds to 0 although
    neither operand's does, the product is formed from m1 with unit rows
    and m2 with unit columns (_unit_rows): its entries stay below 2n,
    and its det gains only a positive factor, so Arg det is unchanged.
    An entry far below the largest of its row may underflow in that
    scaling, which is why the raw product is used wherever it serves.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        product = m1 @ m2
    if np.isfinite(product).all():
        try:
            return _log_det(product)
        except ZeroDeterminant:
            pass
    try:
        return _log_det(_unit_rows(m1) @ _unit_rows(m2.T).T)
    except ZeroDeterminant:
        raise ConvergenceDomain(
            "det(op1 op2) leaves the float range, also with the operands scaled"
        ) from None


def _exp(z: complex) -> complex:
    try:
        return cmath.exp(z)
    except OverflowError:
        raise ConvergenceDomain(f"exp({z}) leaves the float range") from None


def functional_determinant(
    op: OperatorSpec,
    alpha: complex,
    convention: PhaseConvention | None = None,
    regulator: Regulator | None = None,
) -> complex:
    """Determinant raised to the complex power: exp(alpha Log det op^-1).

    With a regulator R the value is the ratio exp(alpha (Log det op^-1 - Log det R^-1));
    for R = op this is 1 for every alpha. The winding adds alpha * 2 pi i per turn.
    Log det is finite for any nonsingular matrix; ConvergenceDomain if the value is not.
    """
    conv = convention or PhaseConvention()
    exponent = 2j * math.pi * conv.winding - _log_det(op.as_matrix())
    if regulator is not None:
        r = np.asarray(regulator.matrix, dtype=complex)
        if r.shape != (op.dimension, op.dimension):
            raise ValueError("regulator shape does not match the operator")
        _require_finite(r, "regulator")
        exponent += _log_det(r)
    return _exp(complex(alpha) * exponent)


def anomaly_phase(
    op1,
    op2,
    alpha: complex,
    convention: PhaseConvention | None = None,
) -> complex:
    """Multiplicative determinant anomaly of a pair of operators.

    Ratio det_alpha(op1) det_alpha(op2) / det_alpha(op1 op2) with
    det_alpha(op) = exp(-alpha Log det op). The modulus parts cancel
    identically, so only the principal-argument discrepancy

        Arg det op1 + Arg det op2 - Arg det(op1 op2)

    survives; it is an integer multiple of 2 pi by construction and is
    snapped to one. Each Arg comes from a log-determinant, so det may pass the float
    range, and so may the entries of op1 op2 (_product_log_det); ConvergenceDomain
    where that product cannot be kept in range. Real positive-definite pairs give
    exactly 1. Accepts scalars or square matrices.
    """
    conv = convention or PhaseConvention()
    m1 = np.atleast_2d(np.asarray(op1, dtype=complex))
    m2 = np.atleast_2d(np.asarray(op2, dtype=complex))
    if m1.shape != m2.shape or m1.shape[0] != m1.shape[1]:
        raise ValueError("operands must be square matrices of equal shape")
    _require_finite(m1, "op1")
    _require_finite(m2, "op2")
    theta = (_log_det(m1) + _log_det(m2) - _product_log_det(m1, m2)).imag
    k = round(theta / (2.0 * math.pi))
    return _exp(-2j * math.pi * complex(alpha) * (k + conv.winding))


def key_identity_check(
    op: OperatorSpec,
    alpha: complex,
    terms: int = 12,
    cfg: QuadratureConfig | None = None,
) -> tuple[complex, complex, float]:
    """Exponential identity between the zeta sum and the convolution algebra.

    lhs = exp(-zeta_op(alpha)) by direct summation; rhs = the Haar
    transform of the truncated convolution exponential of the heat
    trace. The Haar transform of the heat trace is Gamma(alpha) times
    the zeta sum, so the two sides agree where Gamma(alpha) = 1 (the
    pinned points alpha = 1, 2). Returns (lhs, rhs, bound) with bound
    covering series truncation and quadrature error. The heat trace is
    transformed once: rhs is the convolution exponential's transform,
    its atom plus the series in that H(alpha) (strip_algebra._series).
    """
    alpha = complex(alpha)
    lhs = _exp(-spectral_zeta(op, alpha, "direct").value)
    h = op.heat_trace()
    # built for its divergence guard; its transform would transform h again
    ce = convolution_exp(h, terms, cfg)
    h_alpha = forward_mellin(h, alpha, cfg=cfg)
    (p,), (p_err,) = _series(np.array([h_alpha.value]), np.array([h_alpha.abs_error_estimate]), terms)
    mag = abs(h_alpha.value)
    truncation = mag ** (terms + 1) / math.factorial(terms + 1) * math.exp(mag)
    bound = truncation + 10.0 * (p_err + h_alpha.abs_error_estimate)
    return lhs, complex(p + complex(ce.atom_weight)), float(bound)
