"""Reference values for the benchmark, computed apart from mellinium.

Every function here uses mpmath at 30 significant digits or a closed
form; none imports mellinium, so a fault in the engine cannot leak into
the numbers it is checked against. Results come back as Python complex
(or float) so the checker compares like with like.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30


def _c(z) -> complex:
    return complex(mp.mpc(z))


def close(value, ref, rtol: float, atol: float) -> bool:
    """True when value is finite and |value - ref| <= atol + rtol |ref|."""
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return False
    return abs(v - complex(ref)) <= atol + rtol * abs(complex(ref))


# -- scalar transforms of the corpus ---------------------------------------


def exp_transform(alpha, beta: float = 1.0, norm: str = "haar", p: float = 0.0) -> complex:
    """M[e^(-beta x); alpha] under haar, gamma or gamma_p(p)."""
    a = mp.mpc(alpha)
    scaled = mp.power(beta, -a)
    if norm == "gamma":
        return _c(scaled)
    if norm == "gamma_p":
        return _c(mp.gamma(a) * scaled / mp.gamma(a + p))
    return _c(mp.gamma(a) * scaled)


def zeta(alpha) -> complex:
    return _c(mp.zeta(mp.mpc(alpha)))


def eta(alpha) -> complex:
    return _c(mp.altzeta(mp.mpc(alpha)))


def power_log_transform(alpha, eps: float, k: int) -> complex:
    """M[x^eps (-log x)^k 1(x <= 1); alpha] = k! / (alpha + eps)^(k+1)."""
    return _c(mp.factorial(k) / mp.power(mp.mpc(alpha) + eps, k + 1))


def heat_kernel_transform(alpha, n: int, r: float) -> complex:
    """M[e^(-pi r^2 / g) g^(-n/2); alpha] = Gamma(n/2 - alpha) (pi r^2)^(alpha - n/2)."""
    a = mp.mpc(alpha)
    half = mp.mpf(n) / 2
    return _c(mp.gamma(half - a) * mp.power(mp.pi * r * r, a - half))


def greens(n: int, r: float) -> float:
    """Free Green's function pi^(1 - n/2) Gamma(n/2 - 1) r^(2 - n), n >= 3."""
    half = mp.mpf(n) / 2
    return float(mp.power(mp.pi, 1 - half) * mp.gamma(half - 1) * mp.power(r, 2 - n))


def reflection(alpha) -> complex:
    """pi / sin(pi alpha) = Gamma(alpha) Gamma(1 - alpha)."""
    return _c(mp.pi / mp.sin(mp.pi * mp.mpc(alpha)))


def exp_product_transform(alpha, beta1: float, beta2: float) -> complex:
    """Gamma(alpha)^2 beta1^-alpha beta2^-alpha: the mult convolution of two exponentials."""
    a = mp.mpc(alpha)
    return _c(mp.gamma(a) ** 2 * mp.power(beta1, -a) * mp.power(beta2, -a))


def exp_star_transform(alpha, beta1: float, beta2: float) -> complex:
    """Gamma(alpha) beta1^-alpha Gamma(1 - alpha) beta2^(alpha - 1): the star convolution."""
    a = mp.mpc(alpha)
    return _c(mp.gamma(a) * mp.power(beta1, -a) * mp.gamma(1 - a) * mp.power(beta2, a - 1))


def exp_fermi_transform(alpha, beta: float) -> complex:
    """Gamma(alpha) beta^-alpha times Gamma(alpha) eta(alpha): exp mult-convolved with fermi."""
    a = mp.mpc(alpha)
    return _c(mp.gamma(a) ** 2 * mp.power(beta, -a) * mp.altzeta(a))


def spectral_zeta(spectrum, alpha) -> complex:
    """sum_i e_i^-alpha."""
    a = mp.mpc(alpha)
    return _c(mp.fsum(mp.power(mp.mpf(e), -a) for e in spectrum))


def spectral_eta(spectrum, alpha) -> complex:
    """sum_i (-1)^i e_i^-alpha over the ascending spectrum."""
    a = mp.mpc(alpha)
    return _c(mp.fsum((-1) ** i * mp.power(mp.mpf(e), -a) for i, e in enumerate(sorted(spectrum))))


def key_lhs(spectrum, alpha) -> complex:
    """exp(-sum_i e_i^-alpha)."""
    return _c(mp.exp(-mp.mpc(spectral_zeta(spectrum, alpha))))


def conv_exp_transform(spectrum, alpha, terms: int) -> complex:
    """sum_{n <= terms} (-H)^n / n! with H = Gamma(alpha) sum_i e_i^-alpha.

    H is the Haar transform of the heat trace, and the n-fold
    multiplicative convolution transforms to H^n.
    """
    a = mp.mpc(alpha)
    h = mp.gamma(a) * mp.fsum(mp.power(mp.mpf(e), -a) for e in spectrum)
    return _c(mp.fsum((-h) ** n / mp.factorial(n) for n in range(terms + 1)))


def exp_decay(x: float, beta: float = 1.0) -> float:
    return float(mp.exp(-beta * mp.mpf(x)))


def exp_taylor(x: float, m: int) -> float:
    """sum_{k < m} (-x)^k / k!, the residue sum of Gamma(alpha) x^-alpha at 0, -1, ..."""
    xx = mp.mpf(x)
    return float(mp.fsum((-xx) ** k / mp.factorial(k) for k in range(m)))


def bose_series_coefficient(exponent: int) -> float:
    """Coefficient of x^exponent in 1/(e^x - 1) = sum_n B_n x^(n-1) / n!."""
    n = exponent + 1
    return float(mp.bernoulli(n) / mp.factorial(n))


# -- the rule table applied to the pair (e^-x, Gamma) ------------------------


def rule_function(kind: str, param: float, x: float) -> float:
    """Function side of a rule applied to e^-x, at the point x."""
    xx = mp.mpf(x)
    e = mp.exp(-xx)
    if kind == "Scale":
        return float(mp.exp(-param * xx))
    if kind == "PowerShift":
        return float(mp.power(xx, param) * e)
    if kind == "PowerSubstitute":
        return float(mp.exp(-mp.power(xx, param)))
    if kind == "LogMultiply":
        return float(mp.log(xx) ** int(param) * e)
    if kind == "EulerDerivative":
        # (x d/dx) e^-x = -x e^-x;  (x d/dx)^2 e^-x = (x^2 - x) e^-x
        return float((-xx if int(param) == 1 else xx * xx - xx) * e)
    if kind == "Derivative":
        return float((-1) ** int(param) * e)
    if kind == "Primitive":
        # repeated integrals from 0: 1 - e^-x, then x - 1 + e^-x
        return float(1 - e if int(param) == 1 else xx - 1 + e)
    raise ValueError(kind)


def rule_transform(kind: str, param: float, alpha) -> complex:
    """Transform side of a rule applied to (e^-x, Gamma), at alpha."""
    a = mp.mpc(alpha)
    if kind == "Scale":
        return _c(mp.power(param, -a) * mp.gamma(a))
    if kind == "PowerShift":
        return _c(mp.gamma(a + param))
    if kind == "PowerSubstitute":
        return _c(mp.gamma(a / param) / abs(param))
    if kind == "LogMultiply":
        return _c(mp.diff(mp.gamma, a, int(param)))
    if kind == "EulerDerivative":
        return _c((-a) ** int(param) * mp.gamma(a))
    if kind in ("Derivative", "Primitive"):
        # (-1)^n (a-1)...(a-n) Gamma(a-n) and (-1)^n Gamma(a+n) / (a...(a+n-1))
        # both reduce to (-1)^n Gamma(a)
        return _c((-1) ** int(param) * mp.gamma(a))
    raise ValueError(kind)


def parseval_exp(alpha, beta1: float, beta2: float) -> complex:
    """int e^(-beta1 x) e^(-beta2 x) x^(alpha-1) dx = Gamma(alpha) (beta1 + beta2)^-alpha."""
    a = mp.mpc(alpha)
    return _c(mp.gamma(a) * mp.power(beta1 + beta2, -a))


def det_power(spectrum, alpha) -> complex:
    """det(op)^-alpha = prod_i e_i^-alpha for a positive spectrum."""
    a = mp.mpc(alpha)
    return _c(mp.exp(-a * mp.fsum(mp.log(mp.mpf(e)) for e in spectrum)))


def eigen_power(e: float, alpha) -> complex:
    """e^-alpha on the principal branch."""
    return _c(mp.power(mp.mpf(e), -mp.mpc(alpha)))


def neg_log(e: float) -> float:
    """-log e, the eigenvalue of the functional logarithm d/dalpha op^-alpha at 0."""
    return float(-mp.log(e))


def exp_heat_trace_convolution(x: float, beta: float, spectrum) -> float:
    """(e^(-beta x) * sum_i e^(-e_i x))(x) = sum_i 2 K_0(2 sqrt(beta e_i x)), mult convolution."""
    xx = mp.mpf(x)
    return float(mp.fsum(2 * mp.besselk(0, 2 * mp.sqrt(beta * e * xx)) for e in spectrum))
