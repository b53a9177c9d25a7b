"""Named evaluations built on the transform engine.

Includes the corpus of named functions (CORPUS) with their closed
transforms and pole maps, the free Green's function from the heat
kernel, Riemann zeta and eta values by real-line and contour routes,
the reflection identity through the star convolution, the subtracted
exponential transform, and the weighted extension of the
Gamma-normalized exponential transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    CoincidentPoints,
    ConvergenceDomain,
    DivergentRoute,
    PoleAtOne,
    StripViolation,
)
from .mellin_core import (
    FundamentalStrip,
    HankelContourSpec,
    MellinFunction,
    Normalization,
    QuadratureConfig,
    TransformValue,
    _EPS,
    _gamma,
    _require_finite,
    _wrap_eval,
    forward_mellin,
    hankel_mellin,
)
from .operator_calculus import _exp_sum
from .strip_algebra import star_convolve

__all__ = [
    "CORPUS",
    "CorpusEntry",
    "HeatKernelProblem",
    "bose_function",
    "fermi_function",
    "greens_function",
    "zeta_value",
    "eta_value",
    "gamma_reflection",
    "subtracted_exponential_transform",
    "gamma_p_extension",
]


def bose_function() -> MellinFunction:
    """1 / (e^x - 1) on the strip <1, inf); complex-safe off the axis."""

    def core(arr):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if np.iscomplexobj(arr):
                # e^z - 1 = (expm1(x) cos y - 2 sin^2(y/2)) + i e^x sin y cancels
                # nothing near z = 0; past x = 40, e^-2z is below eps of e^-z and
                # 1/(e^z - 1) is e^-z, also where e^x overflows
                x, y = arr.real, arr.imag
                em1 = (np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2).astype(complex)
                em1.imag = np.exp(x) * np.sin(y)
                return np.where(x > 40.0, np.exp(-arr), 1.0 / em1)
            return 1.0 / np.expm1(arr)

    return MellinFunction(_wrap_eval(core), 1.0, math.inf, label="bose")


def fermi_function() -> MellinFunction:
    """1 / (e^x + 1) on the strip <0, inf); complex-safe off the axis."""

    def core(arr):
        with np.errstate(over="ignore", under="ignore"):
            return 1.0 / (np.exp(arr) + 1.0)

    return MellinFunction(_wrap_eval(core), 0.0, math.inf, label="fermi")


def _exp_function(beta: float) -> MellinFunction:
    """e^(-beta x) on the strip <0, inf): the exponential sum of one term."""
    if beta <= 0:
        raise ValueError("exp_decay needs beta > 0")
    return _exp_sum(np.array([beta], dtype=float), np.ones(1), f"exp-decay({beta:g})")


def _power_log_function(eps: float, k: int) -> MellinFunction:
    """x^eps (-log x)^k on (0, 1], zero beyond; strip <-eps, inf)."""
    if k < 0:
        raise ValueError("power_log needs k >= 0")

    def core(arr):
        out = np.zeros_like(arr)
        mask = (arr > 0.0) & (arr <= 1.0)
        xm = arr[mask]
        with np.errstate(under="ignore", divide="ignore"):
            out[mask] = xm**eps * (-np.log(xm)) ** k
        return out

    return MellinFunction(_wrap_eval(core, float), -eps, math.inf, label=f"power-log({eps:g},{k})")


def _heat_kernel_function(n: int, distance: float) -> MellinFunction:
    """Heat kernel e^(-pi distance^2 / g) g^(-n/2) in g; strip <-inf, n/2)."""
    if n < 1 or distance <= 0:
        raise ValueError("heat_kernel needs n >= 1 and distance > 0")
    a = math.pi * distance * distance

    def core(arr):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            out = np.exp(-a / arr) * arr ** (-0.5 * n)
        return np.where(np.isfinite(out), out, 0.0)

    return MellinFunction(
        _wrap_eval(core, float), -math.inf, 0.5 * n, label=f"heat-kernel({n},{distance:g})"
    )


def _exp_transform(beta: float) -> Callable:
    def T(a):
        return _gamma(a) * np.power(complex(beta), -np.asarray(a, dtype=complex))

    return T


def _power_log_transform(eps: float, k: int) -> Callable:
    fact = float(math.factorial(k))

    def T(a):
        return fact / (np.asarray(a, dtype=complex) + eps) ** (k + 1)

    return T


# Zero-side pole maps as SingularExpansion terms (pole, log order,
# coefficient), at most `terms` of them. Bose: residues of
# Gamma(a) zeta(a) at a = 1, 0, -1, -3, -5 (Bernoulli numbers). Fermi:
# residues of Gamma(a) eta(a) at a = -m, from eta(-m) for m = 0..5.
_BOSE_POLES = (
    (1.0, 0, 1.0),
    (0.0, 0, -0.5),
    (-1.0, 0, 1.0 / 12.0),
    (-3.0, 0, -1.0 / 720.0),
    (-5.0, 0, 1.0 / 30240.0),
)
_ETA_AT_NEG = (0.5, 0.25, 0.0, -0.125, 0.0, 0.25)


def _exp_poles(terms: int, beta: float) -> tuple:
    return tuple(
        (-float(m), 0, (-1.0) ** m * beta**m / float(math.factorial(m)))
        for m in range(terms)
    )


def _fermi_poles(terms: int) -> tuple:
    return tuple(
        (-float(m), 0, _ETA_AT_NEG[m] * (-1.0) ** m / float(math.factorial(m)))
        for m in range(min(terms, len(_ETA_AT_NEG)))
    )


def _power_log_poles(terms: int, eps: float, k: int) -> tuple:
    return ((-eps, k, float(math.factorial(k))),)


@dataclass(frozen=True)
class CorpusEntry:
    """A named corpus function and what is known about it in closed form.

    ``build(**params)`` makes the MellinFunction (ValueError on invalid
    parameters); ``defaults`` names each parameter with its default,
    whose type is the parameter's type. ``transform(**params)`` gives
    the closed Haar transform as a callable, and
    ``poles(terms, **params)`` the zero-side pole map as
    SingularExpansion terms; either is None where none is known.
    """

    build: Callable[..., MellinFunction]
    defaults: dict
    transform: Callable[..., Callable] | None = None
    poles: Callable[..., tuple] | None = None


CORPUS = {
    "exp_decay": CorpusEntry(_exp_function, {"beta": 1.0}, _exp_transform, _exp_poles),
    "bose": CorpusEntry(bose_function, {}, poles=lambda terms: _BOSE_POLES[:terms]),
    "fermi": CorpusEntry(fermi_function, {}, poles=_fermi_poles),
    "power_log": CorpusEntry(
        _power_log_function, {"eps": 0.5, "k": 1}, _power_log_transform, _power_log_poles
    ),
    "heat_kernel": CorpusEntry(_heat_kernel_function, {"n": 3, "distance": 1.0}),
}


@dataclass(frozen=True)
class HeatKernelProblem:
    """Free heat-kernel Green's function problem in n dimensions."""

    n: int
    x_a: tuple[float, ...]
    x_a_prime: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if len(self.x_a) != len(self.x_a_prime):
            raise ValueError("endpoint coordinate lengths differ")
        _require_finite(np.asarray(self.x_a, dtype=float), "x_a")
        _require_finite(np.asarray(self.x_a_prime, dtype=float), "x_a'")
        if self.separation() == 0.0:
            raise CoincidentPoints("x_a and x_a' coincide")

    def separation(self) -> float:
        """|dx|, inf where it is past the float range."""
        s, k = self._separation_parts()
        return k * s

    def _separation_parts(self) -> tuple[float, float]:
        """(s, k) with |dx| = k s and s finite: k = 1, or a power of two where |dx| leaves the float range.

        hypot scales, so a distance past 1e154 does not overflow when
        squared; where the distance itself overflows, s is that of the
        coordinates halved until it does not (halving is exact).
        """
        pairs = [(float(a), float(b)) for a, b in zip(self.x_a, self.x_a_prime)]
        s, k = math.hypot(*(a - b for a, b in pairs)), 1.0
        while not math.isfinite(s):
            k *= 2.0
            s = math.hypot(*(a / k - b / k for a, b in pairs))
        return s, k


def greens_function(
    problem: HeatKernelProblem,
    route: str = "closed",
    cfg: QuadratureConfig | None = None,
) -> TransformValue:
    """Static Green's function from the heat kernel, with a real value.

    Closed form: -2 log|dx| in n = 2, else
    pi^(1 - n/2) Gamma(n/2 - 1) |dx|^(2 - n), with its rounding as
    estimate (0 in n = 2). The
    quadrature route integrates the heat kernel e^(-pi / g) g^(-n/2) of
    unit separation against Haar measure at alpha = 1, which lies inside
    the strip <-inf, n/2> only for n >= 3 (DivergentRoute below that).
    Both routes scale their unit-separation value by |dx|^(2 - n)
    (substitute g = |dx|^2 u), and raise ConvergenceDomain where the
    result leaves the float range. The product is formed from binary
    exponents, so it holds where the power alone underflows or overflows
    (n = 200 at |dx| = 100); its rounding and the unit value's join the
    estimate. Either route reports alpha = 1, that strip and Haar
    normalization.
    """
    n = problem.n
    key = route.replace("-", "_").lower()
    quadrature = key == "quadrature"
    if not quadrature and key not in ("closed", "closed_form"):
        raise ValueError(f"unknown route {route!r}")
    if quadrature and n <= 2:
        raise DivergentRoute(
            f"quadrature route diverges for n = {n}: alpha = 1 is outside <-inf, n/2>"
        )
    # |dx| = k s: the values stay finite where |dx| itself overflows
    s, k = problem._separation_parts()
    tv = TransformValue(0.0, 1.0 + 0j, FundamentalStrip(-math.inf, 0.5 * n), Normalization.haar(), 0.0)
    if n == 2:
        return replace(tv, value=-2.0 * (math.log(s) + math.log(k)))
    if quadrature:
        tv = forward_mellin(_heat_kernel_function(n, 1.0), 1.0, cfg=cfg)
        unit = float(tv.value.real)
        unit_err = tv.abs_error_estimate / abs(unit)
    else:
        unit = math.pi ** (1.0 - 0.5 * n) * _gamma(0.5 * n - 1.0)
        # relative: the float pi's rounding raised to 1 - n/2, the power and
        # the product, and math.gamma's 10 ulps (CPython's stated accuracy)
        unit_err = _EPS * (abs(1.0 - 0.5 * n) + 12.0)
    # |dx|^(2 - n) = (m 2^e)^(2 - n): sum the binary exponents of unit and
    # power as integers, so that only the mantissas' power and product, and
    # the final scaling, round, and the power alone never under- or overflows
    m, e = math.frexp(s)
    e += int(math.log2(k))
    mu, eu = math.frexp(unit)
    try:
        mpow, epow = math.frexp(m ** (2.0 - n))
        value = math.ldexp(mu * mpow, eu + epow + e * (2 - n))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConvergenceDomain(f"|dx|^{2 - n} leaves the float range at |dx| = {k * s:g}")
    err = abs(value) * (unit_err + 4.0 * _EPS) + math.ulp(value)
    return replace(tv, value=value, abs_error_estimate=err)


def zeta_value(
    alpha: complex,
    route: str = "realline",
    cfg: QuadratureConfig | None = None,
    contour: HankelContourSpec | None = None,
) -> TransformValue:
    """Riemann zeta through the Bose distribution, as its route's TransformValue.

    realline: Gamma-normalized transform on <1, inf), needs
    Re(alpha) > 1. hankel: contour-normalized loop transform, valid for
    Re(alpha) > 0 except the pole at 1. PoleAtOne wins over strip
    checks.
    """
    alpha = complex(alpha)
    key = route.replace("-", "_").lower()
    if key == "realline":
        if abs(alpha - 1.0) < 1e-10:
            raise PoleAtOne("zeta has its pole at alpha = 1")
        return forward_mellin(bose_function(), alpha, Normalization.gamma(), cfg=cfg)
    if key == "hankel":
        if abs(alpha - 1.0) < 0.02:
            raise PoleAtOne("zeta has its pole at alpha = 1")
        if alpha.real <= 0:
            raise StripViolation("hankel route requires Re(alpha) > 0")
        return hankel_mellin(bose_function(), alpha, contour=contour, cfg=cfg)
    raise ValueError(f"unknown route {route!r}")


def eta_value(alpha: complex, cfg: QuadratureConfig | None = None) -> TransformValue:
    """Dirichlet eta as the Gamma-normalized Fermi transform on <0, inf)."""
    return forward_mellin(fermi_function(), alpha, Normalization.gamma(), cfg=cfg)


def gamma_reflection(
    alpha: complex, cfg: QuadratureConfig | None = None
) -> tuple[complex, complex]:
    """Both sides of the reflection identity on the strip <0, 1>.

    lhs: Haar transform of the star convolution of two exponentials
    (pointwise 1/(1+x)); rhs: pi / sin(pi alpha).
    """
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 1.0:
        raise StripViolation("reflection identity lives on 0 < Re(alpha) < 1")
    f = _exp_function(1.0)
    # transformed as Gamma(alpha) Gamma(1 - alpha): any grid serves
    conv = star_convolve(f, f, cfg)
    lhs = forward_mellin(conv, alpha, cfg=cfg).value
    rhs = complex(math.pi) / np.sin(math.pi * alpha)
    return lhs, complex(rhs)


def subtracted_exponential_transform(
    beta: float, alpha: complex, cfg: QuadratureConfig | None = None
) -> TransformValue:
    """Haar transform of e^(-beta g) - e^(-g) on the strip <-1, inf).

    The subtraction extends the exponential transform one unit past the
    Gamma pole; at alpha = 0 the value is -log(beta) (removable point,
    handled by plain quadrature since the integrand stays integrable).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")

    def core(arr):
        # e^(-beta g) - e^(-g) = e^(-g) expm1((1 - beta) g) avoids the
        # catastrophic cancellation near 0 that the plain difference
        # suffers once g drops below machine epsilon
        with np.errstate(over="ignore", under="ignore"):
            out = np.exp(-arr) * np.expm1((1.0 - beta) * arr)
            return np.where(np.isfinite(out), out, 0.0)

    f = MellinFunction(_wrap_eval(core, float), -1.0, math.inf, label=f"subtracted-exp({beta:g})")
    return forward_mellin(f, alpha, cfg=cfg)


def gamma_p_extension(
    beta: float, alpha: complex, p: float, cfg: QuadratureConfig | None = None
) -> TransformValue:
    """Weighted extension of the exponential transform to <-p, inf).

    Integrates (beta g)^p e^(-beta g) against Haar measure with the
    1/Gamma(alpha + p) multiplier; equals beta^(-alpha) on the extended
    strip, matching the plain Gamma-normalized value on <0, inf).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if p < 0:
        raise ValueError("weight exponent p must be >= 0")

    def core(arr):
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = (beta * arr) ** p * np.exp(-beta * arr)
        return np.where(np.isfinite(out), out, 0.0)

    f = MellinFunction(_wrap_eval(core, float), -p, math.inf, label=f"gamma-p({p:g}) weight")
    return forward_mellin(f, alpha, Normalization.gamma_p(p), cfg=cfg)
