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

The convolutions and the convolution exponential fill their transform
slot as the algebra states it, on their factors' transforms:
F(alpha) H(alpha), F(alpha) H(1 - alpha), and
sum_{n=1}^{terms} (-H(alpha))^n / n! plus the point mass. forward_mellin
uses that formula, each factor taken by its own quadrature. Their
pointwise values come from a uniform grid in t = log x, as a finite sum
of scaled copies of one kernel, c0 k(x) + sum_j w_j k(x e^(-t_j)).
Each rule states its transform once, as a lift of transforms: it makes
the pair's new transform side from the claimed one, and the slot of a
rule result or involution from its parent's slot, so these too are
transformed through the factors' transforms. Parseval's pointwise
product, which has no such formula, is transformed by quadrature of its
values, as any other function, within the grid span it carries
(_derived).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

from .errors import (
    AnalyticityFailure,
    ConvergenceDomain,
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
    _BLOCK_POINTS,
    _EPS,
    _cabs,
    _circle,
    _circle_mode,
    _eval_vector,
    _f_values,
    _haar_transforms,
    _line_integral,
    _panels,
    _tanh_sinh,
    _window,
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
    "induced_strip",
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

    Construction spot-checks the claim against the function's transform
    at three interior points (loose tolerance, a smoke check); a mismatch
    raises AnalyticityFailure because the claimed map is then not the
    analytic continuation of the integral. Pass verify=False to skip.
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
    f: MellinFunction, core: Callable, a: float, b: float, tag: str, move=None, other=None, lift=None
) -> MellinFunction:
    """The function core on <a, b>, made from f's values and labelled tag[f.label].

    A grid-built f is trusted on its grid span only. The result's value
    at e^move(s) is made from f(e^s), so its span is f's moved; with no
    move its value at x is made from f(x), and a product with ``other``
    is trusted where both factors are. When f has a transform slot F, the
    result's is alphas, cfg -> lift(F, alphas, cfg).
    """
    spans = [g.grid_span for g in (f, other) if g is not None and g.grid_span is not None]
    span = (max(s[0] for s in spans), min(s[1] for s in spans)) if spans else None
    if span is not None and move is not None:
        span = tuple(sorted(map(move, span)))
    g = MellinFunction(_wrap_eval(core), a, b, label=f"{tag}[{f.label}]", grid_span=span)
    if lift is not None and f._transform is not None:
        g._transform = partial(lift, f._transform)
    return g


def _factor_lift(factor: Callable, arg: Callable) -> Callable:
    """The lift F, alphas, cfg -> factor(alpha) F(arg(alpha)) and its estimates.

    factor(alphas) gives the factor and a bound on its relative rounding;
    the estimate is |factor| e_F plus that rounding and the product's.
    """

    def lift(F: Callable, alphas: np.ndarray, cfg: QuadratureConfig):
        values, ests = F(arg(alphas), cfg)
        fac, rounding = factor(alphas)
        out = fac * values
        return out, np.abs(fac) * ests + (rounding + _EPS) * _cabs(out)

    return lift


def apply_rule(rule: TransformRule, pair: TransformedPair) -> TransformedPair:
    """Apply a transform rule to a pair, producing the mapped pair.

    Each rule gives the function side's values (core), the lift of the
    transform, the mapped strip <lo, hi>, the change of variable of the
    grid span and the label tag. The lift makes the new transform side
    from the claimed one, and the new slot from f's. Raises
    SideConditionViolation for out-of-domain rule parameters and
    EmptyResultStrip when the mapped strip is empty.
    """
    f = pair.function_side
    _check_no_atom(f, "apply_rule")
    a, b = pair.strip.a, pair.strip.b
    lo, hi, move = a, b, None

    if isinstance(rule, Scale):
        c = float(rule.c)
        if c <= 0:
            raise SideConditionViolation(f"Scale needs c > 0, got {c}")
        core = lambda xs: f.eval(c * xs)
        # c^-alpha = e^(-alpha log c), rounded with its exponent
        factor = lambda al: (c**-al, _EPS * (1.0 + np.abs(al) * abs(math.log(c))))
        lift = _factor_lift(factor, lambda al: al)
        move, tag = (lambda s: s - math.log(c)), f"scale({c:g})"

    elif isinstance(rule, PowerShift):
        d = float(rule.d)
        core = lambda xs: xs**d * f.eval(xs)
        lift = _factor_lift(lambda al: (1.0, 0.0), lambda al: al + d)
        lo, hi, tag = a - d, b - d, f"shift({d:g})"

    elif isinstance(rule, PowerSubstitute):
        r = float(rule.r)
        if r == 0:
            raise SideConditionViolation("PowerSubstitute needs r != 0")
        core = lambda xs: f.eval(xs**r)
        lift = _factor_lift(lambda al: (1.0 / abs(r), _EPS), lambda al: al / r)
        lo, hi = sorted((r * a, r * b))
        move, tag = (lambda s: s / r), f"subst({r:g})"

    elif isinstance(rule, LogMultiply):
        n = _require_positive_int(rule.n, "LogMultiply")
        core = lambda xs: np.log(xs) ** n * f.eval(xs)

        def lift(F: Callable, alphas: np.ndarray, cfg: QuadratureConfig):
            # half the distance to the strip's edges, at most 1/2; an infinite edge is no limit
            rho = 0.5 * np.minimum(np.minimum(alphas.real - a, b - alphas.real), 1.0)
            # Cauchy derivative on the circle: n-th Fourier mode
            points = _circle(alphas[..., None], rho[..., None], 32)
            values, ests = (v.reshape(points.shape) for v in F(points.ravel(), cfg))
            mode, alias = _circle_mode(values, n)
            # the points' own estimates, and the mode's rounding: its 32
            # terms' products and their sum, 8 eps |value| each at most
            own = np.mean(ests + 8.0 * _EPS * _cabs(values), axis=-1)
            scale = math.factorial(n) / rho**n
            return scale * mode, scale * (alias + own)

        tag = f"log^{n}"

    elif isinstance(rule, EulerDerivative):
        n = _require_positive_int(rule.n, "EulerDerivative")
        dF = _dt_derivative(f, n)
        core = lambda xs: dF(np.log(xs))
        lift = _factor_lift(lambda al: ((-al) ** n, n * _EPS), lambda al: al)
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

        # (-1)^n (alpha - 1)...(alpha - n): n differences and n products
        factor = lambda al: ((-1.0) ** n * np.prod([al - j for j in range(1, n + 1)], axis=0), 2 * n * _EPS)
        lift = _factor_lift(factor, lambda al: al - n)
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
        # its own. An x with log x < 1 is one cell [min(log x, 0) + reach,
        # log x]. A larger x is cut at s = 0, as a transform's window is,
        # and at 1, 2, 4, ... up to log x - 1: cells [reach, 0], [0, 1],
        # [1, 2], [2, 4], ..., the last ending at log x and at least 1
        # wide, so that a feature of f near u = 1 stays in a narrow cell
        # however large x is. _panels cuts a cell wider than its panel
        # width. The cells before an x's last are the same for every x;
        # for n = 1 the integrand does not depend on x either, and each
        # shared cell is integrated once per call. The absolute floor is
        # kept effectively off so the acceptance is relative; I_n spans
        # hundreds of orders of magnitude over the outer window and must
        # stay relatively accurate throughout.
        icfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-280, max_levels=10)
        fact = float(math.factorial(n - 1))
        # the integrand f(u) u at u << x is the transform's at alpha = 1
        (reach, _), _ = _window(pair.strip, 1.0, DEFAULT_CONFIG)
        # the cuts 0, 1, 2, 4, ..., 512 (log x <= log 1e290 < 1024), and inf;
        # shared cell j is [starts[j], cuts[j]]
        cuts = np.concatenate(([0.0], 2.0 ** np.arange(10), [math.inf]))
        starts = np.concatenate(([reach], cuts[:-1]))

        def core(xs: np.ndarray) -> np.ndarray:
            out = np.zeros(xs.shape, dtype=complex)
            pos = np.flatnonzero(xs > 0.0)
            x = xs.ravel()[pos]
            if not x.size:
                return out
            top = np.log(np.minimum(x, 1e290))
            # the c cuts at or below log x - 1 make c + 1 cells: the shared
            # cells 0..c-1, then x's own, from the last cut to log x
            c = np.searchsorted(cuts, top - 1.0, side="right")
            m = int(c.max())
            lo = np.concatenate((starts[:m], np.where(c > 0, cuts[c - 1], np.minimum(top, 0.0) + reach)))
            hi = np.concatenate((cuts[:m], top))
            # cell j of an x, in order: shared cell j, and last its own
            point = np.repeat(np.arange(x.size), c + 1)
            j = np.arange(point.size) - np.repeat(np.cumsum(c + 1) - c - 1, c + 1)
            cell = np.where(j < c[point], j, m + point)
            if n > 1:
                # (x - u)^(n - 1) depends on x: each x integrates its own copies
                lo, hi, cell = lo[cell], hi[cell], np.arange(cell.size)
            # on the cells of an x < 1, u and x - u are scaled by a power of
            # two near 1/x, which brings the integrals near 1, clear of the
            # floor, and is divided out exactly
            scale = np.ldexp(1.0, np.clip(np.floor(-hi / math.log(2.0)), 0, 1000).astype(int))
            # past x^(n - 1) = 2^1000, x - u alone is scaled by a power of two
            # near 1/x, and divided out n - 1 times, so that the integrand
            # stays in the float range wherever I_n does
            big = (n - 1) * np.log2(x) > 1000.0
            fold = np.ldexp(1.0, np.where(big, -np.floor(np.log2(x)), 0.0).astype(int))
            shrink = scale * fold[point] if big.any() else scale
            plo, phi, owner = _panels(lo, hi)

            def gs(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
                s = s.reshape(rows.size, -1)
                u = np.exp(s)
                own = scale[owner[rows], None]
                fu = _f_values(f, u) * u * own
                if n > 1:
                    fu = fu * ((x[point[owner[rows]], None] - u) * shrink[owner[rows], None]) ** (n - 1)
                return fu

            vals, _ = _tanh_sinh(gs, plo, phi, icfg)
            for _ in range(n):
                vals = vals / scale[owner]
            # panel by panel into cells, then cell by cell into points, in order
            sums = np.zeros(lo.size, dtype=complex)
            np.add.at(sums, owner, vals)
            total = np.zeros(x.size, dtype=complex)
            np.add.at(total, point, sums[cell])
            # real and imaginary parts apart: the quotient of a complex
            # scalar by a float
            re, im = total.real / fact, total.imag / fact
            if big.any():
                # I_n over x^(n - 1) back to I_n, which may leave the float range
                with np.errstate(over="ignore"):
                    for _ in range(n - 1):
                        re[big], im[big] = re[big] / fold[big], im[big] / fold[big]
                over = ~(np.isfinite(re) & np.isfinite(im)) & big
                if over.any():
                    raise ConvergenceDomain(f"Primitive({n}) at x={x[np.argmax(over)]:g} leaves the float range")
            out.ravel()[pos] = re + 1j * im
            return out

        # (-1)^n / (alpha (alpha + 1)...(alpha + n - 1)): n - 1 sums,
        # n - 1 products and the quotient
        factor = lambda al: ((-1.0) ** n / np.prod([al + j for j in range(n)], axis=0), 2 * n * _EPS)
        lift = _factor_lift(factor, lambda al: al + n)
        tag = f"prim^{n}"

    else:
        raise TypeError(f"unknown rule {rule!r}")

    def claim(alphas: np.ndarray, cfg: QuadratureConfig):
        # the claimed transform side at each alpha, with estimate 0
        return _eval_vector(pair.transform_side, alphas), np.zeros(alphas.shape)

    new_f = _derived(f, core, lo, hi, tag, move, lift=lift)
    # a scalar alpha is lifted as a 0-d array, which the claim takes as a scalar
    side = lambda al: complex(lift(claim, np.asarray(al, dtype=complex), DEFAULT_CONFIG)[0])
    return TransformedPair(new_f, side, new_f.strip, label=new_f.label)


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


def induced_strip(
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
        v = values()
        # most arrays are all finite: nan_to_num's passes only where needed
        return v if np.isfinite(v).all() else np.nan_to_num(v, nan=0.0, posinf=0.0, neginf=0.0)


def _product_transform(f: MellinFunction, h: MellinFunction, star: bool) -> Callable:
    """F(alpha) H(alpha), or F(alpha) H(1 - alpha) when star; estimate |F| e_H + |H| e_F + rounding."""

    def transform(alphas: np.ndarray, cfg: QuadratureConfig):
        fv, fe = _haar_transforms(f, alphas, cfg)
        hv, he = _haar_transforms(h, 1.0 - alphas if star else alphas, cfg)
        # each product rounded as Python rounds it, whatever the batch
        value = np.array([a * b for a, b in zip(fv.tolist(), hv.tolist())], dtype=complex)
        return value, _cabs(fv) * he + _cabs(hv) * fe + 4.0 * _EPS * _cabs(value)

    return transform


def _series(hv: np.ndarray, he: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """P(H) = sum_{n=1}^{terms} (-H)^n / n! for each H in hv, with estimate |P'(H)| e_H + rounding."""
    values, ests = [], []
    for H, e in zip(hv.tolist(), he.tolist()):
        term, p, dp, size = 1.0 + 0j, 0j, 0j, 0.0
        for n in range(1, terms + 1):
            dp -= term
            term = term * -H / n
            p += term
            size += n * abs(term)
        values.append(p)
        ests.append(abs(dp) * e + 4.0 * _EPS * size)
    return np.array(values, dtype=complex), np.array(ests)


def _series_transform(h: MellinFunction, terms: int) -> Callable:
    """The transform of convolution_exp(h, terms) without its atom: _series of H(alpha)."""
    return lambda alphas, cfg: _series(*_haar_transforms(h, alphas, cfg), terms)


def _grid_function(
    label: str, strip: FundamentalStrip, span: tuple[float, float], kernel: MellinFunction, tau: np.ndarray,
    weights: Callable[[], np.ndarray], c0: float, transform: Callable, atom: complex = 0.0,
) -> MellinFunction:
    """The function x -> c0 k(x) + sum_j w_j k(x e^(-tau_j)), k the kernel, w = weights().

    A grid discretization of a convolution, for its pointwise values;
    it is transformed through the slot ``transform``, which never reads
    the weights. weights() is called on the first pointwise read and
    kept, and its zero terms are dropped then: a weight that underflowed
    adds exactly 0, since non-finite kernel values are zeroed before
    they meet the weights. A chunk of points holds at most mellin_core's
    _BLOCK_POINTS kernel arguments (at least one point), the cache-sized
    block of every integrand call. Each point is summed by einsum, whose
    order does not depend on the other points of the chunk, so a value
    depends neither on the points it is evaluated with nor on the block.
    """

    @lru_cache(maxsize=1)
    def live() -> tuple[np.ndarray, np.ndarray]:
        w = weights()
        keep = w != 0
        with np.errstate(over="ignore"):
            return w[keep], np.exp(-tau[keep])

    def core(xs: np.ndarray) -> np.ndarray:
        w, factors = live()
        out = np.zeros(xs.shape, dtype=complex)
        flat, res = xs.ravel(), out.ravel()
        step = max(1, _BLOCK_POINTS // max(1, w.size))
        for k in range(0, flat.size if w.size else 0, step):
            block = flat[k : k + step]
            vals = _grid_values(lambda: kernel.eval(block[:, None] * factors[None, :]))
            res[k : k + step] = np.einsum("ij,j->i", vals, w)
        if c0:
            out = c0 * np.asarray(kernel.eval(xs), dtype=complex) + out
        return out

    g = MellinFunction(_wrap_eval(core), strip.a, strip.b, label, atom_weight=atom, grid_span=span)
    g._transform = transform
    return g


def mult_convolve(
    f: MellinFunction, h: MellinFunction, cfg: QuadratureConfig | None = None
) -> MellinFunction:
    """Multiplicative convolution (f * h)(x) = int f(x') h(x/x') dx'/x'.

    Its transform is F(alpha) H(alpha), each factor transformed on its
    own. For pointwise values the first factor is sampled on a uniform
    grid in log x spanning the truncation bounds, and the second is
    evaluated at the shifted arguments, so convolving an already-gridded
    result with a plain kernel never nests quadratures. The induced
    strip is the intersection.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_no_atom(f, "mult_convolve")
    _check_no_atom(h, "mult_convolve")
    strip = induced_strip(f, h, star=False)
    if strip is None:
        raise EmptyStripIntersection(
            f"strips {f.strip} and {h.strip} do not intersect"
        )
    t, span = _log_grid(cfg)
    weights = lambda: _grid_values(lambda: f.eval(np.exp(t)) * _GRID_STEP)
    label = f"({f.label or 'f'} * {h.label or 'h'})"
    return _grid_function(label, strip, span, h, t, weights, 0.0, _product_transform(f, h, star=False))


def star_convolve(
    f: MellinFunction, h: MellinFunction, cfg: QuadratureConfig | None = None
) -> MellinFunction:
    """Star convolution (f ** h)(x) = int_0^inf f(x x') h(x') dx'.

    Transform side F(alpha) H(1 - alpha); the induced strip intersects
    <a_f, b_f> with the reflected <1 - b_h, 1 - a_h>. The pointwise
    integral additionally needs a_f + a_h < 1 < b_f + b_h
    (SideConditionViolation otherwise). Pointwise values are the grid
    sum sum_j w_j f(x e^(t_j)).
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_no_atom(f, "star_convolve")
    _check_no_atom(h, "star_convolve")
    if not (f.order_at_zero + h.order_at_zero < 1.0 < f.order_at_infinity + h.order_at_infinity):
        raise SideConditionViolation(
            "star integral diverges pointwise: needs a_f + a_h < 1 < b_f + b_h"
        )
    strip = induced_strip(f, h, star=True)
    if strip is None:
        raise EmptyStripIntersection(
            f"strip {f.strip} does not meet the reflected strip of {h.strip}"
        )
    t, span = _log_grid(cfg)
    # past t = 709 the factor e^t overflows, and the term is dropped
    weights = lambda: _grid_values(lambda: h.eval(np.exp(t)) * np.exp(t) * _GRID_STEP)
    label = f"({f.label or 'f'} ** {h.label or 'h'})"
    return _grid_function(label, strip, span, f, -t, weights, 0.0, _product_transform(f, h, star=True))


def involution(f: MellinFunction) -> MellinFunction:
    """f*(x) = conj(f(1/x)) / x, the unitary involution of the algebra.

    Transform side: M[f*; alpha] = conj(M[f; 1 - conj(alpha)]), which is
    the result's transform slot when f has one.
    """
    _check_no_atom(f, "involution")

    def lift(F: Callable, alphas: np.ndarray, cfg: QuadratureConfig):
        values, ests = F(1.0 - np.conj(alphas), cfg)
        return np.conj(values), ests

    return _derived(
        f,
        lambda xs: np.conj(f.eval(1.0 / xs)) / xs,
        1.0 - f.order_at_infinity,
        1.0 - f.order_at_zero,
        "invol",
        lambda t: -t,
        lift=lift,
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
    constant 1, and the transform is 1 + sum_{n=1}^{terms} (-H(alpha))^n / n!.
    Pointwise values are -h(x) + sum_j w_j h(x e^(-t_j)) besides the
    atom. The stages h^{*n} behind the weights are built on the uniform
    log grid by direct discrete convolution (the grid is geometric in
    x), in h's dtype: real for a real h, complex otherwise. They are
    built on the first eval and kept; the transform never reads them.
    The guard is checked at construction from h alone: with P the grid
    probe transform of h, stage h^{*k} probes to about P^k, and
    DivergentStage is raised when |P|^k passes 1e6 for some
    2 <= k < terms.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_no_atom(h, "convolution_exp")
    if not isinstance(terms, (int, np.integer)):
        raise SideConditionViolation(f"terms must be an integer, got {terms!r}")
    if terms < 0:
        raise SideConditionViolation("terms must be >= 0")
    a, b = h.order_at_zero, h.order_at_infinity
    if terms == 0:
        zero = _wrap_eval(lambda xs: np.zeros(xs.shape, dtype=complex))
        return MellinFunction(zero, a, b, label="conv-exp(0 terms)", atom_weight=1.0)

    t, span = _log_grid(cfg)
    h_grid = _grid_values(lambda: h.eval(np.exp(t)))
    alpha_probe = complex(h.strip.midpoint())
    probe = abs(complex(h_grid @ (np.exp(alpha_probe * t) * _GRID_STEP)))
    magnitude = probe
    for k in range(2, terms):
        magnitude *= probe
        if magnitude > 1e6:
            raise DivergentStage(
                f"convolution power {k} probe transform magnitude {magnitude:.3e}"
            )

    def weights() -> np.ndarray:
        n_grid = len(t)
        m = np.arange(-(n_grid - 1), n_grid, dtype=float)
        kernel = _grid_values(lambda: h.eval(np.exp(m * _GRID_STEP)))
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
                # across the grid, which a pointwise transform's weight e^{alpha t}
                # amplifies.
                stage = _GRID_STEP * np.convolve(stage, kernel, mode="valid")
        # with one term every combined weight is 0 and eval(x) = -h(x)
        return combined * _GRID_STEP

    label = f"conv-exp({terms} terms)[{h.label}]"
    return _grid_function(label, h.strip, span, h, t, weights, -1.0, _series_transform(h, terms), atom=1.0)
