"""Transform rules and multiplicative convolution algebra.

Rules map a (function, transform) pair to the transformed pair together
with the induced fundamental strip:

    Scale(c)           f(cx)        <->  c^-alpha F(alpha)        strip unchanged
    PowerShift(d)      x^d f(x)     <->  F(alpha + d)             strip shifted by -d
    PowerSubstitute(r) f(x^r)       <->  F(alpha/r) / |r|         strip scaled by r
    LogMultiply(n)     (log x)^n f  <->  d^n/dalpha^n F           strip unchanged
    EulerDerivative(n) (x d/dx)^n f <->  (-alpha)^n F(alpha)      strip unchanged
    Derivative(n)      f^(n)        <->  (-1)^n (alpha-1)...(alpha-n) F(alpha-n)
    Primitive(n)       I_n f        <->  (-1)^n F(alpha+n) / (alpha...(alpha+n-1))

where I_n is the n-fold repeated integral from 0 (Cauchy formula). The
multiplicative convolutions are

    (f * h)(x)  = int f(x') h(x/x') dx'/x'     <->  F(alpha) H(alpha)
    (f ** h)(x) = int f(x x') h(x') dx'        <->  F(alpha) H(1 - alpha)

with induced strips the intersection, respectively the intersection of
<a_f, b_f> with the reflection <1-b_h, 1-a_h>. Function sides of
derivative-like rules are realized by 4th-order central stencils in
t = log x; transform sides of LogMultiply by Cauchy-circle quadrature.

The convolutions and the convolution exponential are built on a uniform
grid in t = log x, and each is a finite sum of scaled copies of one
kernel, c0 k(x) + sum_j w_j k(x e^(-t_j)). By the Scale rule its
transform is exactly K(alpha) (c0 + sum_j w_j e^(alpha t_j)), which
forward_mellin uses: only the kernel's own transform is a quadrature.
Functions derived from them (rules, the involution, Parseval's pointwise
product) are transformed by quadrature of their pointwise values, as any
other function, within the grid span they carry (_derived).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    AnalyticityFailure,
    DivergentStage,
    EmptyResultStrip,
    EmptyStripIntersection,
    SideConditionViolation,
    StripViolation,
)
from .mellin_core import (
    DEFAULT_CONFIG,
    FundamentalStrip,
    MellinFunction,
    QuadratureConfig,
    _KernelSum,
    _circle,
    _circle_mode,
    _eval_vector,
    _haar_transforms,
    _line_integral,
    _panels,
    _tanh_sinh,
    _wrap_eval,
    forward_mellin,
)

__all__ = [
    "Scale",
    "PowerShift",
    "PowerSubstitute",
    "LogMultiply",
    "EulerDerivative",
    "Derivative",
    "Primitive",
    "TransformRule",
    "TransformedPair",
    "apply_rule",
    "mult_convolve",
    "star_convolve",
    "involution",
    "parseval_pair",
    "convolution_exp",
]


# ---------------------------------------------------------------------------
# rule parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    c: float


@dataclass(frozen=True)
class PowerShift:
    d: float


@dataclass(frozen=True)
class PowerSubstitute:
    r: float


@dataclass(frozen=True)
class LogMultiply:
    n: int


@dataclass(frozen=True)
class EulerDerivative:
    n: int


@dataclass(frozen=True)
class Derivative:
    n: int


@dataclass(frozen=True)
class Primitive:
    n: int


TransformRule = Union[
    Scale, PowerShift, PowerSubstitute, LogMultiply, EulerDerivative, Derivative, Primitive
]


# ---------------------------------------------------------------------------
# transformed pairs
# ---------------------------------------------------------------------------


def _spot_alphas(strip: FundamentalStrip) -> list[complex]:
    """Three well-interior real points of the strip."""
    a, b = strip.a, strip.b
    if math.isinf(a) and math.isinf(b):
        lo, hi = -1.5, 1.5
    elif math.isinf(a):
        lo, hi = b - 3.0, b - 0.3
    elif math.isinf(b):
        lo, hi = a + 0.3, a + 3.0
    else:
        w = b - a
        lo, hi = a + 0.25 * w, b - 0.25 * w
    mid = 0.5 * (lo + hi)
    return [complex(lo), complex(mid), complex(hi)]


@dataclass
class TransformedPair:
    """A function side and its claimed transform on a common strip.

    Construction spot-checks the claim by quadrature at three interior
    points (loose tolerance, it is a smoke check); a mismatch raises
    AnalyticityFailure because the claimed map is then not the analytic
    continuation of the integral. Pass verify=False to skip.
    """

    function_side: MellinFunction
    transform_side: Callable[[complex], complex]
    strip: FundamentalStrip
    label: str = ""
    verify: bool = True

    def __post_init__(self) -> None:
        if self.verify:
            self._spot_check()

    def _spot_check(self) -> None:
        cfg = replace(DEFAULT_CONFIG, rel_tol=1e-9, abs_tol=1e-11, max_levels=8)
        alphas = _spot_alphas(self.strip)
        quad, _ = _haar_transforms(self.function_side, alphas, cfg)
        for alpha, got in zip(alphas, quad.tolist()):
            claimed = complex(self.transform_side(alpha))
            if abs(got - claimed) > 1e-3 * max(1.0, abs(claimed)):
                raise AnalyticityFailure(
                    f"transform side of {self.label or 'pair'} disagrees with "
                    f"quadrature at alpha={alpha}: {claimed} vs {got}"
                )


# ---------------------------------------------------------------------------
# finite-difference stencils in t = log x
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _stencil(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Central stencil (offsets, coefficients, default step) for d^n/dt^n.

    Coefficients solve the moment system sum_k c_k k^m = n! delta_{mn},
    giving 4th-order accuracy on the symmetric grid. Orders above 4 are
    not supported (stencil depth).
    """
    if not 1 <= n <= 4:
        raise SideConditionViolation(f"derivative order {n} outside supported 1..4")
    p = 2 if n <= 2 else 3
    offs = np.arange(-p, p + 1, dtype=float)
    m = np.arange(len(offs))
    vand = offs[None, :] ** m[:, None]
    rhs = np.zeros(len(offs))
    rhs[n] = math.factorial(n)
    coeffs = np.linalg.solve(vand, rhs)
    h = 1e-2 if n <= 2 else 5e-2
    return offs, coeffs, h


def _dt_derivative(f: MellinFunction, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized t-derivative of F(t) = f(e^t) of order n."""
    offs, coeffs, h = _stencil(n)

    def dF(t: np.ndarray) -> np.ndarray:
        pts = t[..., None] + offs * h
        return f.eval(np.exp(pts)) @ coeffs / h**n

    return dF


# ---------------------------------------------------------------------------
# rule application
# ---------------------------------------------------------------------------


def _require_positive_int(n, rule: str) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise SideConditionViolation(f"{rule} order must be a positive integer, got {n!r}")
    return int(n)


def _check_no_atom(f: MellinFunction, what: str) -> None:
    if f.atom_weight != 0:
        raise ValueError(f"{what} does not support functions carrying a point mass")


def _derived(
    f: MellinFunction, core: Callable, a: float, b: float, tag: str, move=None, other=None
) -> MellinFunction:
    """The function core on <a, b>, made from f's values and labelled tag[f.label].

    A grid-built f is trusted on its grid span only. The result's value
    at e^move(s) is made from f(e^s), so its span is f's moved; with no
    move its value at x is made from f(x), and a product with ``other``
    is trusted where both factors are.
    """
    spans = [g.grid_span for g in (f, other) if g is not None and g.grid_span is not None]
    span = (max(s[0] for s in spans), min(s[1] for s in spans)) if spans else None
    if span is not None and move is not None:
        span = tuple(sorted(map(move, span)))
    return MellinFunction(_wrap_eval(core), a, b, label=f"{tag}[{f.label}]", grid_span=span)


def apply_rule(rule: TransformRule, pair: TransformedPair) -> TransformedPair:
    """Apply a transform rule to a pair, producing the mapped pair.

    Each rule gives the function side's values (core), the transform
    side, the mapped strip <lo, hi>, the change of variable of the grid
    span and the label tag. Raises SideConditionViolation for
    out-of-domain rule parameters and EmptyResultStrip when the mapped
    strip is empty.
    """
    f = pair.function_side
    _check_no_atom(f, "apply_rule")
    T = pair.transform_side
    a, b = pair.strip.a, pair.strip.b
    lo, hi, move = a, b, None

    if isinstance(rule, Scale):
        c = float(rule.c)
        if c <= 0:
            raise SideConditionViolation(f"Scale needs c > 0, got {c}")
        core = lambda xs: f.eval(c * xs)
        new_T = lambda al: c ** (-complex(al)) * complex(T(al))
        move, tag = (lambda s: s - math.log(c)), f"scale({c:g})"

    elif isinstance(rule, PowerShift):
        d = float(rule.d)
        core = lambda xs: xs**d * f.eval(xs)
        new_T = lambda al: complex(T(complex(al) + d))
        lo, hi, tag = a - d, b - d, f"shift({d:g})"

    elif isinstance(rule, PowerSubstitute):
        r = float(rule.r)
        if r == 0:
            raise SideConditionViolation("PowerSubstitute needs r != 0")
        core = lambda xs: f.eval(xs**r)
        new_T = lambda al: complex(T(complex(al) / r)) / abs(r)
        lo, hi = sorted((r * a, r * b))
        move, tag = (lambda s: s / r), f"subst({r:g})"

    elif isinstance(rule, LogMultiply):
        n = _require_positive_int(rule.n, "LogMultiply")
        core = lambda xs: np.log(xs) ** n * f.eval(xs)

        def new_T(al: complex) -> complex:
            al = complex(al)
            dist = min(
                al.real - a if math.isfinite(a) else 1.0,
                b - al.real if math.isfinite(b) else 1.0,
                1.0,
            )
            rho = 0.5 * dist
            # Cauchy derivative on the circle: n-th Fourier mode
            mode, _ = _circle_mode(_eval_vector(T, _circle(al, rho, 32)), n)
            return complex(math.factorial(n) / rho**n * mode)

        tag = f"log^{n}"

    elif isinstance(rule, EulerDerivative):
        n = _require_positive_int(rule.n, "EulerDerivative")
        dF = _dt_derivative(f, n)
        core = lambda xs: dF(np.log(xs))
        new_T = lambda al: (-complex(al)) ** n * complex(T(al))
        tag = f"euler^{n}"

    elif isinstance(rule, Derivative):
        n = _require_positive_int(rule.n, "Derivative")
        # d^n/dx^n = x^-n (E)(E-1)...(E-n+1) with E = x d/dx = d/dt
        poly = np.poly(np.arange(n, dtype=float))  # monic, roots 0..n-1
        ks = np.arange(n, 0, -1)  # degree of each non-constant coefficient
        dFs = {int(k): _dt_derivative(f, int(k)) for k in ks}

        def core(xs: np.ndarray) -> np.ndarray:
            t = np.log(xs)
            acc = np.zeros(t.shape, dtype=complex)
            for coef, k in zip(poly[:-1], ks):
                acc = acc + coef * dFs[int(k)](t)
            # poly[-1] is the z^0 coefficient, zero since 0 is a root
            return acc * xs ** (-float(n))

        def new_T(al: complex) -> complex:
            al = complex(al)
            fac = 1.0 + 0.0j
            for j in range(1, n + 1):
                fac *= al - j
            return (-1.0) ** n * fac * complex(T(al - n))

        lo, hi, tag = a + n, b + n, f"d^{n}"

    elif isinstance(rule, Primitive):
        n = _require_positive_int(rule.n, "Primitive")
        lo, hi = a - n, min(b, 1.0) - n
        if not lo < hi:
            raise EmptyResultStrip(
                f"Primitive({n}) on strip {pair.strip} yields an empty strip"
            )
        # Cauchy repeated integral in log space,
        #   I_n(x) = 1/(n-1)! int_0^x (x-u)^{n-1} f(u) du,  u = e^s.
        # Integrated adaptively per point: a fixed node set cannot track
        # the integrand once x moves the mass across many decades, so the
        # panels of every x are rows of one kernel call, each refined on
        # its own. The absolute floor is kept effectively off so the
        # acceptance is relative; I_n spans hundreds of orders of magnitude
        # over the outer window and must stay relatively accurate throughout.
        icfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-280, max_levels=10)
        fact = float(math.factorial(n - 1))
        rate = max(1.0 - a, 0.02) if math.isfinite(a) else math.inf
        window = max(15.0, 38.0 / rate)

        def core(xs: np.ndarray) -> np.ndarray:
            out = np.zeros(xs.shape, dtype=complex)
            pos = np.flatnonzero(xs > 0.0)
            x = xs.ravel()[pos]
            top = np.log(np.minimum(x, 1e290))
            plo, phi, owner = _panels(np.minimum(top, 0.0) - window, top)

            def gs(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
                s = s.reshape(rows.size, -1)
                u = np.exp(s)
                fu = np.asarray(f.eval(u.ravel())).reshape(s.shape) * u
                if n > 1:
                    fu = fu * (x[owner[rows], None] - u) ** (n - 1)
                return fu

            vals, _ = _tanh_sinh(gs, plo, phi, icfg)
            total = np.zeros(x.size, dtype=complex)
            np.add.at(total, owner, vals)  # panel by panel, in order
            # real and imaginary parts apart: the quotient of a complex
            # scalar by a float
            out.ravel()[pos] = total.real / fact + 1j * (total.imag / fact)
            return out

        def new_T(al: complex) -> complex:
            al = complex(al)
            fac = 1.0 + 0.0j
            for j in range(n):
                fac *= al + j
            return (-1.0) ** n * complex(T(al + n)) / fac

        tag = f"prim^{n}"

    else:
        raise TypeError(f"unknown rule {rule!r}")

    new_f = _derived(f, core, lo, hi, tag, move)
    return TransformedPair(new_f, new_T, new_f.strip, label=new_f.label)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

_GRID_STEP = 0.05


def _log_grid(cfg: QuadratureConfig) -> tuple[np.ndarray, tuple[float, float]]:
    """Uniform grid in t = log x, and the span it covers."""
    # Symmetrized span: the star convolution reflects its argument, so
    # a window widened on one side must be covered on the other as well.
    tb0, tb1 = cfg.truncation_bounds
    t0 = min(tb0, -tb1)
    t1 = max(tb1, -tb0)
    n = int(math.floor((t1 - t0) / _GRID_STEP)) + 1
    return t0 + _GRID_STEP * np.arange(n), (t0, t1)


def _induced_strip(
    f: MellinFunction, h: MellinFunction, star: bool
) -> FundamentalStrip | None:
    """Strip of f * h, or of f ** h when star; None when it is empty."""
    if star:
        return f.strip.intersect(
            FundamentalStrip(1.0 - h.order_at_infinity, 1.0 - h.order_at_zero)
        )
    return f.strip.intersect(h.strip)


def _grid_values(values: Callable[[], np.ndarray]) -> np.ndarray:
    """values() with every non-finite entry set to 0.

    Points past a float's range overflow or underflow, and so may a
    function's values there: floating-point warnings are off, and such
    terms carry no weight.
    """
    with np.errstate(all="ignore"):
        return np.nan_to_num(values(), nan=0.0, posinf=0.0, neginf=0.0)


def _chunked_kernel_sum(
    weights: np.ndarray, grid_factors: np.ndarray, kernel: Callable, xs: np.ndarray
) -> np.ndarray:
    """sum_j weights[j] * kernel(xs[i] * grid_factors[j]), chunked over i.

    Each row is summed by einsum, whose order does not depend on the
    other rows of the chunk, so a point's value does not depend on the
    points it is evaluated with.
    """
    out = np.empty(xs.shape, dtype=complex)
    step = max(1, 250_000 // max(1, len(grid_factors)))
    flat = xs.ravel()
    res = out.ravel()
    for k in range(0, len(flat), step):
        block = flat[k : k + step]
        vals = _grid_values(lambda: kernel(block[:, None] * grid_factors[None, :]))
        res[k : k + step] = np.einsum("ij,j->i", vals, weights)
    return out


def _kernel_sum_function(
    ks: _KernelSum,
    strip: FundamentalStrip,
    label: str,
    span: tuple[float, float],
    atom_weight: complex = 0.0,
) -> MellinFunction:
    """The function c0 k(x) + sum_j w_j k(x e^(-tau_j)) of ks, recording ks.

    Terms of zero weight are dropped here, once: a grid weight that
    underflowed adds exactly 0, since non-finite kernel values are
    zeroed before they meet the weights.
    """
    live = ks.weights != 0
    weights = ks.weights[live]
    with np.errstate(over="ignore"):
        factors = np.exp(-ks.tau[live])
    kernel = ks.kernel.eval

    def core(xs: np.ndarray) -> np.ndarray:
        out = _chunked_kernel_sum(weights, factors, kernel, xs) if weights.size else 0.0
        if ks.c0:
            out = ks.c0 * np.asarray(kernel(xs), dtype=complex) + out
        return out

    f = MellinFunction(
        _wrap_eval(core), strip.a, strip.b, label=label, atom_weight=atom_weight, grid_span=span
    )
    f._kernel_sum = ks
    return f


def mult_convolve(
    f: MellinFunction, h: MellinFunction, cfg: QuadratureConfig | None = None
) -> MellinFunction:
    """Multiplicative convolution (f * h)(x) = int f(x') h(x/x') dx'/x'.

    The first factor is sampled on a uniform grid in log x spanning the
    truncation bounds; the second is evaluated at the shifted arguments,
    so convolving an already-gridded result with a plain kernel never
    nests quadratures. The induced strip is the intersection. The result
    is sum_j w_j h(x e^(-t_j)), so its transform is H(alpha) times
    sum_j w_j e^(alpha t_j), exactly.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_no_atom(f, "mult_convolve")
    _check_no_atom(h, "mult_convolve")
    strip = _induced_strip(f, h, star=False)
    if strip is None:
        raise EmptyStripIntersection(
            f"strips {f.strip} and {h.strip} do not intersect"
        )
    t, span = _log_grid(cfg)
    fw = _grid_values(lambda: f.eval(np.exp(t)) * _GRID_STEP)
    return _kernel_sum_function(
        _KernelSum(h, t, fw, 0.0, f.strip),
        strip,
        f"({f.label or 'f'} * {h.label or 'h'})",
        span,
    )


def star_convolve(
    f: MellinFunction, h: MellinFunction, cfg: QuadratureConfig | None = None
) -> MellinFunction:
    """Star convolution (f ** h)(x) = int_0^inf f(x x') h(x') dx'.

    Transform side F(alpha) H(1 - alpha); the induced strip intersects
    <a_f, b_f> with the reflected <1 - b_h, 1 - a_h>. The pointwise
    integral additionally needs a_f + a_h < 1 < b_f + b_h
    (SideConditionViolation otherwise). The result is
    sum_j w_j f(x e^(t_j)), so its transform is F(alpha) times
    sum_j w_j e^(-alpha t_j), exactly.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_no_atom(f, "star_convolve")
    _check_no_atom(h, "star_convolve")
    if not (f.order_at_zero + h.order_at_zero < 1.0 < f.order_at_infinity + h.order_at_infinity):
        raise SideConditionViolation(
            "star integral diverges pointwise: needs a_f + a_h < 1 < b_f + b_h"
        )
    strip = _induced_strip(f, h, star=True)
    if strip is None:
        raise EmptyStripIntersection(
            f"strip {f.strip} does not meet the reflected strip of {h.strip}"
        )
    t, span = _log_grid(cfg)
    # past t = 709 the factor e^t overflows, and the term is dropped
    hw = _grid_values(lambda: h.eval(np.exp(t)) * np.exp(t) * _GRID_STEP)
    reflected = FundamentalStrip(1.0 - h.order_at_infinity, 1.0 - h.order_at_zero)
    return _kernel_sum_function(
        _KernelSum(f, -t, hw, 0.0, reflected),
        strip,
        f"({f.label or 'f'} ** {h.label or 'h'})",
        span,
    )


def involution(f: MellinFunction) -> MellinFunction:
    """f*(x) = conj(f(1/x)) / x, the unitary involution of the algebra.

    Transform side: M[f*; alpha] = conj(M[f; 1 - conj(alpha)]).
    """
    _check_no_atom(f, "involution")
    return _derived(
        f,
        lambda xs: np.conj(f.eval(1.0 / xs)) / xs,
        1.0 - f.order_at_infinity,
        1.0 - f.order_at_zero,
        "invol",
        lambda t: -t,
    )


def _product(g: MellinFunction, h: MellinFunction) -> MellinFunction:
    """The pointwise product g h, on the sum of the strips' orders."""
    return _derived(
        g,
        lambda xs: g.eval(xs) * h.eval(xs),
        g.order_at_zero + h.order_at_zero,
        g.order_at_infinity + h.order_at_infinity,
        f"times({h.label})",
        other=h,
    )


def parseval_pair(
    g: MellinFunction,
    h: MellinFunction,
    alpha: complex,
    c: float,
    cfg: QuadratureConfig | None = None,
) -> tuple[complex, complex]:
    """Both sides of the Parseval pairing.

    lhs = int_0^inf g(x) h(x) x^(alpha-1) dx, computed directly;
    rhs = 1/(2 pi) int G(c + it) H(alpha - c - it) dt, with both
    transforms evaluated by quadrature on the line. Requires c inside
    g's strip and Re(alpha) - c inside h's strip.
    """
    cfg = cfg or DEFAULT_CONFIG
    alpha = complex(alpha)
    _check_no_atom(g, "parseval_pair")
    _check_no_atom(h, "parseval_pair")
    if not g.strip.contains(complex(c)):
        raise StripViolation(f"line abscissa c={c:g} outside g strip {g.strip}")
    if not h.strip.contains(alpha - c):
        raise StripViolation(
            f"alpha - c = {alpha - c} outside h strip {h.strip}"
        )

    lhs = forward_mellin(_product(g, h), alpha, cfg=cfg).value

    def line_term(ts: np.ndarray) -> np.ndarray:
        # every node of an outer level in one transform call for g and one for h
        gv, _ = _haar_transforms(g, c + 1j * ts, cfg)
        hv, _ = _haar_transforms(h, alpha - c - 1j * ts, cfg)
        # gv * hv rounded as Python rounds a complex product, one real
        # operation at a time (numpy's complex multiply may fuse them)
        re = gv.real * hv.real - gv.imag * hv.imag
        return re + 1j * (gv.real * hv.imag + gv.imag * hv.real)

    # inner transforms leave noise around 1e-12, so the outer refinement
    # cannot be asked for more than that
    ocfg = replace(
        cfg,
        rel_tol=max(cfg.rel_tol, 1e-9),
        abs_tol=max(cfg.abs_tol, 1e-11),
        max_levels=8,
    )
    rhs, _ = _line_integral(line_term, max(cfg.abs_tol, 1e-14), ocfg)
    return complex(lhs), rhs / (2.0 * math.pi)


def convolution_exp(
    h: MellinFunction, terms: int, cfg: QuadratureConfig | None = None
) -> MellinFunction:
    """Truncated convolution exponential sum_{n=0}^{terms} (-1)^n h^{*n} / n!.

    The n = 0 term is the point mass at x = 1 (the *-identity), kept
    symbolic via atom_weight = 1; its transform contribution is the
    constant 1. Stages h^{*n} are built on the uniform log grid by
    direct discrete convolution (the grid is geometric in x), in h's
    dtype: real stages and real weights for a real h, complex ones
    otherwise. A stage whose probe transform exceeds the magnitude
    guard raises DivergentStage.
    The result is 1 (the atom) - h(x) + sum_j w_j h(x e^(-t_j)), so its
    transform is 1 + H(alpha) (-1 + sum_j w_j e^(alpha t_j)), exactly.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_no_atom(h, "convolution_exp")
    if terms < 0:
        raise SideConditionViolation("terms must be >= 0")
    a, b = h.order_at_zero, h.order_at_infinity
    if terms == 0:
        zero = _wrap_eval(lambda xs: np.zeros(xs.shape, dtype=complex))
        return MellinFunction(zero, a, b, label="conv-exp(0 terms)", atom_weight=1.0)

    t, span = _log_grid(cfg)
    n_grid = len(t)
    h_grid = _grid_values(lambda: h.eval(np.exp(t)))
    m = np.arange(-(n_grid - 1), n_grid, dtype=float)
    kernel = _grid_values(lambda: h.eval(np.exp(m * _GRID_STEP)))

    alpha_probe = complex(FundamentalStrip(a, b).midpoint())
    probe_w = np.exp(alpha_probe * t) * _GRID_STEP

    stage = h_grid
    # combined weights: eval(x) = c_1 h(x) + dt * sum_j P[j] h(x e^{-t_j})
    # real for a real h, complex otherwise, like the stages
    combined = np.zeros(n_grid, dtype=np.result_type(h_grid, kernel))
    for n in range(2, terms + 1):
        c_n = (-1.0) ** n / math.factorial(n)
        combined = combined + c_n * stage
        if n < terms:
            # Direct convolution keeps superexponential tails exactly zero in
            # floating point; an FFT product would spray absolute roundoff
            # across the grid, which the probe weights amplify by e^{alpha t}.
            stage = _GRID_STEP * np.convolve(stage, kernel, mode="valid")
            probe = complex(stage @ probe_w)
            if abs(probe) > 1e6:
                raise DivergentStage(
                    f"stage {n + 1} probe transform magnitude {abs(probe):.3e}"
                )
    # with one term there is nothing to sum: eval(x) = -h(x)
    grid = slice(None) if terms > 1 else slice(0)
    return _kernel_sum_function(
        _KernelSum(h, t[grid], combined[grid] * _GRID_STEP, -1.0, h.strip),
        h.strip,
        f"conv-exp({terms} terms)[{h.label}]",
        span,
        atom_weight=1.0,
    )
