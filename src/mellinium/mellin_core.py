"""Mellin transforms on fundamental strips.

The Mellin transform of a function f on (0, inf) is

    M[f; alpha] = int_0^inf f(x) x^(alpha - 1) dx,

convergent exactly when alpha lies in the fundamental strip <a, b>
determined by the decay orders of f: f = O(x^-a) as x -> 0+ and
f = O(x^-b) as x -> inf, with a < Re(alpha) < b. Strip endpoints may be
-inf or +inf.

Transforms can be taken against a family of normalized multiplicative
Haar measures. Each normalization is a scalar multiplier m(alpha)
applied to the plain Haar value, so the Haar transform is always the
common core:

    haar           m = 1
    gamma          m = 1 / Gamma(alpha)
    gamma_p        m = 1 / Gamma(alpha + p)
    gamma_contour  m = pi * csc(pi alpha) / (2 pi i Gamma(alpha))
    gamma_eta      m = (1 - 2^(1 - alpha)) / Gamma(alpha)

Gamma and 1/Gamma come from a Lanczos approximation in this module,
with math.gamma for real arguments; 1/Gamma is exactly 0 at the poles
0, -1, -2, ..., so the reciprocal-Gamma multipliers are entire.

The quadrature engine substitutes x = e^t and applies tanh-sinh
quadrature to the two half-windows [t_min, 0] and [0, t_max]. Splitting
at t = 0 keeps any kink at x = 1 (piecewise corpus functions) on an
endpoint, where the double-exponential node clustering absorbs it.
Panels and alpha are rows of one refinement loop: a single kernel
refines every panel of every alpha of a call together and freezes each
row once it meets its own tolerance, so a scalar transform is the
one-alpha case of the many-alpha one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourDependence,
    GammaPole,
    InconsistentDeclaration,
    InsufficientDecay,
    NormalizationPole,
    QuadratureDivergence,
    SlowContourDecay,
    StripViolation,
)

__all__ = [
    "FundamentalStrip",
    "MellinFunction",
    "Normalization",
    "QuadratureConfig",
    "HankelContourSpec",
    "TransformValue",
    "forward_mellin",
    "infer_strip",
    "inverse_mellin",
    "hankel_mellin",
]


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------

# Lanczos approximation with Godfrey's g = 607/128 and 15 coefficients:
#   Gamma(w + 1) = sqrt(2 pi) (w + g + 1/2)^(w + 1/2) e^-(w + g + 1/2)
#                  (c_0 + sum_k c_k / (w + k)),
# good to a few ulp for Re(w + 1) >= 1/2; the reflection formula
# Gamma(z) Gamma(1 - z) = pi / sin(pi z) covers the left half-plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)


def _sinpi(z: complex) -> tuple[complex, float]:
    """sin(pi z) as (s, k) with sin(pi z) = s e^k and k = pi |Im z|.

    Re z is reduced exactly, so s is exactly 0 at the integers; e^k is
    kept apart so that large |Im z| does not overflow.
    """
    n = round(z.real)
    r = math.pi * (z.real - n)
    sin, cos = math.sin(r), math.cos(r)
    if n % 2:
        sin, cos = -sin, -cos
    k = math.pi * abs(z.imag)
    # cosh(pi y) = e^k (1 + e^-2k) / 2, sinh(pi y) = sign(y) e^k (1 - e^-2k) / 2
    cosh = 0.5 * (1.0 + math.exp(-2.0 * k))
    sinh = 0.5 * math.copysign(-math.expm1(-2.0 * k), z.imag)
    return complex(sin * cosh, cos * sinh), k


def _lanczos(z: complex, reciprocal: bool) -> complex:
    """Gamma(z), or 1/Gamma(z) when reciprocal, of a complex scalar.

    t^(w + 1/2) e^-t is formed as one exponential, together with the
    reflection's e^k, so that large |z| does not overflow before the
    result does. The reciprocal is 0 at the poles; Gamma itself raises
    GammaPole there.
    """
    left = z.real < 0.5
    if left:
        # Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
        s, k = _sinpi(z)
        z = 1.0 - z
    w = z - 1.0
    x = _LANCZOS_C[0]
    for j in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[j] / (w + j)
    t = w + (_LANCZOS_G + 0.5)
    e = (w + 0.5) * cmath.log(t) - t
    if not left:
        return cmath.exp(-e) / (_SQRT_2PI * x) if reciprocal else _SQRT_2PI * x * cmath.exp(e)
    if reciprocal:
        return s * _SQRT_2PI * x * cmath.exp(e + k) / math.pi
    if s == 0:
        raise GammaPole(f"Gamma has a pole at z={1.0 - z.real:g}")
    return math.pi * cmath.exp(-e - k) / (_SQRT_2PI * x * s)


def _lanczos_array(z: np.ndarray) -> np.ndarray:
    """Gamma over a complex array: _lanczos vectorized."""
    left = z.real < 0.5
    n = np.round(z.real)
    if np.any(left & (z.imag == 0) & (z.real == n)):
        raise GammaPole("Gamma has a pole at a non-positive integer")
    zz = np.where(left, 1.0 - z, z)
    w = zz - 1.0
    x = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for j in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[j] / (w + j)
    t = w + (_LANCZOS_G + 0.5)
    e = (w + 0.5) * np.log(t) - t
    # sin(pi z) = s e^k as in _sinpi
    r = np.pi * (z.real - n)
    k = np.pi * np.abs(z.imag)
    cosh = 0.5 * (1.0 + np.exp(-2.0 * k))
    sinh = 0.5 * np.copysign(-np.expm1(-2.0 * k), z.imag)
    s = np.where(n % 2 == 0, 1.0, -1.0) * (np.sin(r) * cosh + 1j * np.cos(r) * sinh)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        right = _SQRT_2PI * x * np.exp(e)
        reflected = math.pi * np.exp(-e - k) / (_SQRT_2PI * x * s)
    return np.where(left, reflected, right)


def _gamma_roundoff(z: complex) -> float:
    """Relative rounding error bound of _lanczos at z, either way round.

    The rounding of the exponent (w + 1/2) log t - t dominates; the
    reflection adds that of sin(pi z).
    """
    extra = 4.0
    if z.real < 0.5:
        extra += math.pi * (abs(z.real) + abs(z.imag))
        z = 1.0 - z
    w = z - 1.0
    t = w + (_LANCZOS_G + 0.5)
    return _EPS * (abs(w + 0.5) * abs(cmath.log(t)) + abs(t) + extra)


def _real_gamma(x: float) -> float:
    try:
        return math.gamma(x)
    except ValueError:
        raise GammaPole(f"Gamma has a pole at z={x:g}") from None


def _gamma(z):
    """Gamma of a real or complex scalar or of an array.

    Real values, complex ones with a zero imaginary part included, go to
    math.gamma, which is about ten times more accurate than the Lanczos
    sum; other complex scalars go to a pure-Python Lanczos. An array
    keeps its shape, and its dtype when real or complex. Raises
    GammaPole at 0, -1, -2, ...; 1/Gamma, which is entire, is ``_rgamma``.
    """
    if isinstance(z, (int, float)):
        return _real_gamma(z)
    if np.ndim(z) == 0:
        z = complex(z)
        return complex(_real_gamma(z.real)) if z.imag == 0 else _lanczos(z, False)
    arr = np.asarray(z)
    out = _lanczos_array(arr.astype(complex))
    if arr.dtype.kind == "c":
        return out.astype(arr.dtype, copy=False)
    return out.real.astype(arr.dtype if arr.dtype.kind == "f" else float, copy=False)


def _rgamma(z: complex) -> complex:
    """1/Gamma of a complex scalar: entire, exactly 0 at 0, -1, -2, ...

    Real z goes to math.gamma as in _gamma, inside the range where
    neither Gamma nor its reciprocal overflows.
    """
    z = complex(z)
    if z.imag == 0 and abs(z.real) < 170.0:
        x = z.real
        return 0j if x <= 0 and x == round(x) else complex(1.0 / math.gamma(x))
    return _lanczos(z, True)


def _fmt_edge(v: float) -> str:
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    return f"{v:g}"


def _holds_float(a: float, b: float) -> bool:
    """Whether some float lies strictly between a and b."""
    return math.nextafter(a, math.inf) < b


@dataclass(frozen=True)
class FundamentalStrip:
    """Open vertical strip a < Re(alpha) < b, endpoints possibly infinite."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not _holds_float(self.a, self.b):
            raise ValueError(f"empty strip: no float lies strictly between a={self.a} and b={self.b}")

    def contains(self, alpha: complex) -> bool:
        return self.a < complex(alpha).real < self.b

    def intersect(self, other: "FundamentalStrip") -> "FundamentalStrip | None":
        a = max(self.a, other.a)
        b = min(self.b, other.b)
        if _holds_float(a, b):
            return FundamentalStrip(a, b)
        return None

    def midpoint(self) -> float:
        """A representative interior point, finite even for infinite edges."""
        a = self.a if math.isfinite(self.a) else min(self.b - 2.0, 0.0) if math.isfinite(self.b) else -1.0
        b = self.b if math.isfinite(self.b) else max(self.a + 2.0, 0.0) if math.isfinite(self.a) else 1.0
        m = 0.5 * (a + b)
        if not self.a < m < self.b:
            # the sum overflowed or rounded onto an edge: the float next to a finite edge
            m = math.nextafter(self.a, self.b) if math.isfinite(self.a) else math.nextafter(self.b, self.a)
        return m

    def __str__(self) -> str:
        return f"<{_fmt_edge(self.a)}, {_fmt_edge(self.b)}>"


@dataclass
class MellinFunction:
    """A function on (0, inf) together with its declared decay orders.

    ``eval`` must map a numpy array to an array of the same shape (of
    complex arguments too, for functions used on Hankel contours).
    ``order_at_zero`` is a with f = O(x^-a) at 0+, ``order_at_infinity``
    is b with f = O(x^-b) at infinity, so the fundamental strip is
    <a, b>. ``atom_weight`` carries a point mass at x = 1 (the identity
    of multiplicative convolution) kept symbolic; its transform
    contribution is the constant ``atom_weight``.

    ``grid_span`` is the (t_min, t_max) range in t = log x that a
    sampling grid behind ``eval`` covers, None when there is no grid.
    The convolution builders set it, functions derived from one carry it
    through their change of variable, and forward_mellin never
    integrates beyond it.

    The convolution builders also record how ``eval`` is made: a finite
    sum of scaled copies of one kernel (``_KernelSum``), whose transform
    is exact given the kernel's. The record is not a constructor
    argument, so ``dataclasses.replace`` and every function derived from
    a grid-built one drop it: their ``eval`` is no longer that sum.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    order_at_zero: float
    order_at_infinity: float
    label: str = ""
    atom_weight: complex = 0.0
    grid_span: tuple[float, float] | None = field(default=None, repr=False, compare=False)
    _kernel_sum: _KernelSum | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def strip(self) -> FundamentalStrip:
        return FundamentalStrip(self.order_at_zero, self.order_at_infinity)

    def __call__(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class _KernelSum:
    """eval(x) = c0 k(x) + sum_j w_j k(x e^(-tau_j)), k the kernel.

    By the Scale rule the Haar transform of such a function is exactly
    K(alpha) (c0 + sum_j w_j e^(alpha tau_j)), K the kernel's transform.
    The factor sum discretizes a transform convergent on ``strip``, whose
    edges give the rates at which its terms decay past the grid's ends.
    """

    kernel: MellinFunction
    tau: np.ndarray
    weights: np.ndarray
    c0: float
    strip: FundamentalStrip


@dataclass(frozen=True)
class Normalization:
    """Multiplier m(alpha) applied to the plain Haar transform."""

    kind: str
    p: float = 0.0

    _KINDS = ("haar", "gamma", "gamma_p", "gamma_contour", "gamma_eta")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown normalization kind {self.kind!r}")

    @classmethod
    def haar(cls) -> "Normalization":
        return cls("haar")

    @classmethod
    def gamma(cls) -> "Normalization":
        return cls("gamma")

    @classmethod
    def gamma_p(cls, p: float) -> "Normalization":
        return cls("gamma_p", p=float(p))

    @classmethod
    def gamma_contour(cls) -> "Normalization":
        return cls("gamma_contour")

    @classmethod
    def gamma_eta(cls) -> "Normalization":
        return cls("gamma_eta")

    def multiplier(self, alpha: complex) -> complex:
        alpha = complex(alpha)
        if self.kind == "haar":
            return 1.0 + 0.0j
        if self.kind == "gamma":
            return _rgamma(alpha)
        if self.kind == "gamma_p":
            return _rgamma(alpha + self.p)
        if self.kind == "gamma_contour":
            # pi csc(pi alpha) / (2 pi i Gamma(alpha)) = Gamma(1 - alpha) / (2 pi i)
            # by the reflection identity; the right-hand form avoids csc overflow
            # for large |Im alpha|.
            return _gamma(1.0 - alpha) / (2.0j * math.pi)
        if self.kind == "gamma_eta":
            return (1.0 - 2.0 ** (1.0 - alpha)) * _rgamma(alpha)
        raise AssertionError(self.kind)

    def roundoff(self, alpha: complex, m: complex) -> float:
        """Absolute rounding error bound of m = multiplier(alpha)."""
        if self.kind == "haar":
            return 0.0
        z = 1.0 - alpha if self.kind == "gamma_contour" else alpha + self.p
        err = abs(m) * _gamma_roundoff(complex(z))
        if self.kind == "gamma_eta":
            two = abs(2.0 ** (1.0 - alpha))
            err += abs(_rgamma(alpha)) * _EPS * two * (2.0 + abs(1.0 - alpha))
        return err

    def nearest_pole(self, alpha: complex) -> tuple[float, complex | None]:
        """Distance to the nearest multiplier pole and the pole itself.

        Only the contour normalization has poles (positive integers,
        from Gamma(1 - alpha)); reciprocal-Gamma multipliers are entire.
        """
        if self.kind != "gamma_contour":
            return math.inf, None
        alpha = complex(alpha)
        n = round(alpha.real)
        if n < 1:
            n = 1
        d = abs(alpha - n)
        return d, complex(n)

    def name(self) -> str:
        if self.kind == "gamma_p":
            return f"gamma-p:{self.p:g}"
        return self.kind.replace("_", "-")


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_levels: int = 10
    truncation_bounds: tuple[float, float] = (-40.0, 40.0)

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        lo, hi = self.truncation_bounds
        if not lo < 0.0 < hi:
            raise ValueError(
                f"truncation bounds must straddle 0, got ({lo:g}, {hi:g})"
            )


DEFAULT_CONFIG = QuadratureConfig()


# where the keyhole's rays end: the integrand must have decayed there
_RAY_LENGTH = 40.0


@dataclass(frozen=True)
class HankelContourSpec:
    """Keyhole contour: both sides of the positive axis down to ``radius``, and that circle."""

    radius: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < _RAY_LENGTH:
            raise ValueError(
                f"contour requires 0 < radius < {_RAY_LENGTH:g}, got radius={self.radius}"
            )


@dataclass(frozen=True)
class TransformValue:
    """A single transform evaluation with its provenance-free metadata.

    ``continued`` marks values produced by local analytic continuation
    (circle averaging around a multiplier pole) rather than by direct
    quadrature at alpha itself.
    """

    value: complex
    alpha: complex
    strip: FundamentalStrip
    normalization: Normalization
    abs_error_estimate: float
    continued: bool = False


# ---------------------------------------------------------------------------
# tanh-sinh quadrature on a finite interval
# ---------------------------------------------------------------------------

_TS_UMAX = 4.0


@lru_cache(maxsize=64)
def _ts_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas in (-1, 1) and weights for the nodes new at this level."""
    if level == 0:
        h = 1.0
        k = np.arange(-_TS_UMAX, _TS_UMAX + 0.5)
    else:
        h = 2.0 ** (-level)
        k = np.arange(-_TS_UMAX / h + 1, _TS_UMAX / h, 2.0)
    u = h * k
    s = 0.5 * math.pi * np.sinh(u)
    t = np.tanh(s)
    w = 0.5 * math.pi * np.cosh(u) / np.cosh(s) ** 2
    return t, w


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, rounded as abs() of a Python complex (libm hypot)."""
    return np.hypot(z.real, z.imag)


# Integrand points handed to one call.
_BLOCK_POINTS = 2_000_000
# Up to this many active rows, a level's bookkeeping is cheaper row by row
# in Python than as numpy calls, whose fixed cost dominates on tiny arrays.
_FEW_ROWS = 8


def _level_sums(g, mid, hw, t, w, rows) -> tuple[np.ndarray, np.ndarray]:
    """One level's weighted sum and absolute sum for each of the rows."""
    x = mid + hw * t
    terms = np.asarray(g(x.ravel(), rows)).reshape(x.shape) * w
    return np.add.reduce(terms, axis=1), np.add.reduce(np.abs(terms), axis=1)


def _advance_rows(level, h, sums, sizes, hw, prev, mass, err, cfg, test) -> list[int]:
    """One level's bookkeeping on Python scalars, row by row.

    prev, mass and err are lists, updated in place (prev to the level's
    total); returns the rows that met their tolerance when ``test``. The
    arithmetic is the array form's in _tanh_sinh, one row at a time, so
    the values are the same to the bit.
    """
    done = []
    for i, (s, z, w) in enumerate(zip(sums, sizes, hw)):
        w = w * h
        t = s * w if level == 0 else prev[i] / 2.0 + s * w
        if level:
            err[i] = abs(t - prev[i])
        prev[i] = t
        mass[i] += z * w
        if test and err[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(t)):
            done.append(i)
    return done


def _tanh_sinh(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate k rows at once, row i over [lo[i], hi[i]].

    g(x, rows) gets the nodes of the rows ``rows`` (indices into lo and
    hi) as one flat array of len(rows) equal blocks, block j holding the
    nodes of row rows[j], and returns the integrand at them in the same
    layout. Each row is refined until it meets its own tolerance and is
    then frozen, from level 2 on, so its value and estimate are those it
    would get alone. A level whose active rows hold more than
    _BLOCK_POINTS nodes is handed to g in blocks of rows. Returns (values, error estimates);
    a row with hi <= lo is 0 with estimate 0. Raises
    QuadratureDivergence, naming the row's interval, when the integrand
    is not finite at a node or the level refinement fails to converge.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    value = np.zeros(lo.shape, dtype=complex)
    est = np.zeros(lo.shape)
    # state of the active rows only, compacted as rows are frozen
    active = np.flatnonzero(hi > lo)
    mid = (0.5 * (lo + hi))[active, None]
    hw = (0.5 * (hi - lo))[active, None]
    prev = np.zeros(active.size, dtype=complex)
    err = np.full(active.size, math.inf)
    # The estimate's roundoff floor is 4 eps times hw * h * sum |terms|
    # over the levels summed: it follows the integrand's absolute size
    # however much the terms cancel, and the factor 4 covers the rounding
    # of each term's own evaluation (exp(alpha t) at large |alpha t|).
    mass = np.zeros(active.size)
    with np.errstate(all="ignore"):
        for level in range(cfg.max_levels + 1):
            if not active.size:
                return value, est
            t, w = _ts_nodes(level)
            step = max(1, _BLOCK_POINTS // t.size)
            if active.size <= step:
                sums, sizes = _level_sums(g, mid, hw, t, w, active)
            else:
                parts = [
                    _level_sums(g, mid[j : j + step], hw[j : j + step], t, w, active[j : j + step])
                    for j in range(0, active.size, step)
                ]
                sums, sizes = map(np.concatenate, zip(*parts))
            # a row's size is not finite iff some term is not; max keeps a nan
            if not math.isfinite(np.maximum.reduce(sizes)):
                r = active[np.argmin(np.isfinite(sizes))]
                raise QuadratureDivergence(
                    f"integrand not finite inside [{lo[r]:g}, {hi[r]:g}]"
                )
            h = 2.0 ** (-level) if level else 1.0
            if active.size <= _FEW_ROWS:
                # few rows: the state moves to Python lists for good
                if not isinstance(prev, list):
                    prev, mass, err = prev.tolist(), mass.tolist(), err.tolist()
                done = _advance_rows(
                    level, h, sums.tolist(), sizes.tolist(), hw[:, 0].tolist(),
                    prev, mass, err, cfg, level >= 2,
                )
                if done:
                    for i in done:
                        value[active[i]] = prev[i]
                        est[active[i]] = max(err[i], 4.0 * _EPS * mass[i])
                    keep = [i for i in range(len(prev)) if i not in done]
                    active, mid, hw = active[keep], mid[keep], hw[keep]
                    prev, mass, err = ([a[i] for i in keep] for a in (prev, mass, err))
                continue
            # (sums * hw) * h: scaling by the power of two h is exact
            wh = hw[:, 0] * h
            partial = sums * wh
            total = partial if level == 0 else prev / 2.0 + partial
            mass = mass + sizes * wh
            if level:
                err = _cabs(total - prev)
            if level >= 2:
                done = err <= np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(total))
                if np.count_nonzero(done):
                    rows = active[done]
                    value[rows] = total[done]
                    est[rows] = np.maximum(err[done], 4.0 * _EPS * mass[done])
                    keep = ~done
                    active, mid, hw, total, err, mass = (
                        a[keep] for a in (active, mid, hw, total, err, mass)
                    )
            prev = total
    prev, mass, err = np.array(prev, dtype=complex), np.array(mass), np.array(err)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(prev))
    # close but not fully settled: return with the honest estimate
    unsettled = err > 50.0 * tol
    if unsettled.any():
        i = np.argmax(unsettled)
        raise QuadratureDivergence(
            f"tanh-sinh failed to converge on [{lo[active[i]]:g}, {hi[active[i]]:g}] "
            f"(last delta {err[i]:.3e})"
        )
    value[active] = prev
    est[active] = np.maximum(err, 4.0 * _EPS * mass)
    return value, est


_PANEL_WIDTH = 60.0


def _panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each [lo[i], hi[i]] into panels of width at most _PANEL_WIDTH.

    Wide windows (small strip-edge distances) would otherwise starve the
    level refinement of interior resolution. Returns (panel lo, panel hi,
    owner): interval by interval, each one's panels left to right, with
    the edges np.linspace(lo[i], hi[i], n + 1) would give.
    """
    n = np.maximum(1, np.ceil((hi - lo) / _PANEL_WIDTH)).astype(int)
    if n.max() == 1:
        return lo, hi, np.arange(n.size)
    owner = np.repeat(np.arange(n.size), n)
    j = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    step = ((hi - lo) / n)[owner]
    start = lo[owner]
    right = np.where(j + 1 == n[owner], hi[owner], (j + 1) * step + start)
    return j * step + start, right, owner


@lru_cache(maxsize=256)
def _window_panels(tmin: float, tmax: float, half0: int):
    """Panels of the halves [tmin, 0] and [0, tmax] of one window.

    Returns read-only (panel lo, panel hi, half), half being half0 on the
    left half and half0 + 1 on the right one. Most transforms share the
    default window, so this is cached.
    """
    lo, hi, half = _panels(np.array([tmin, 0.0]), np.array([0.0, tmax]))
    out = (lo, hi, half + half0)
    for a in out:
        a.flags.writeable = False
    return out


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each run of equal keys, and each entry's run number."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new), np.cumsum(new) - 1


def _widened_config(
    cfg: QuadratureConfig, a: float, b: float, alpha: complex
) -> QuadratureConfig:
    """Extend truncation bounds so the edge-rate tails clear abs_tol.

    The integrand decays like e^(-rate |t|) with rate the distance of
    Re(alpha) to the strip edge; the default window is kept whenever it
    is already wide enough.
    """
    re = complex(alpha).real
    tb0, tb1 = cfg.truncation_bounds
    need = -math.log(cfg.abs_tol) + 9.0
    if math.isfinite(a):
        tb0 = min(tb0, -need / max(re - a, 0.02))
    if math.isfinite(b):
        tb1 = max(tb1, need / max(b - re, 0.02))
    tb0 = max(tb0, -2400.0)
    tb1 = min(tb1, 2400.0)
    if (tb0, tb1) == cfg.truncation_bounds:
        return cfg
    return replace(cfg, truncation_bounds=(tb0, tb1))


def _wrap_eval(core: Callable[[np.ndarray], np.ndarray], dtype=None) -> Callable:
    """Lift an array function to one taking a scalar or an array.

    core sees at least a 1-d array (converted to dtype when given); a
    scalar argument gets a scalar back.
    """

    def ev(x):
        out = core(np.atleast_1d(np.asarray(x, dtype=dtype)))
        return out if np.ndim(x) else out[()] if out.ndim == 0 else out[0]

    return ev


def _eval_vector(func: Callable, x: np.ndarray) -> np.ndarray:
    """func on an array, by a scalar loop when func takes scalars only.

    For transform sides and probes; a MellinFunction's eval is called directly.
    """
    arr = np.asarray(x)
    try:
        out = np.asarray(func(arr))
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape)
        return out
    except (TypeError, ValueError):
        flat = np.array([func(xi) for xi in arr.ravel()])
        return flat.reshape(arr.shape)


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def _require_mellin_function(f) -> MellinFunction:
    if not isinstance(f, MellinFunction):
        raise TypeError(
            "expected a MellinFunction (a callable with declared decay orders)"
        )
    return f


def _checked_tail(g_ends, alpha: complex, strip, scale: float, total: complex, window, cfg) -> float:
    """Bound on a transform's tails past the window (t0, t1), checked.

    Past the window the integrand decays at least like e^(-rate |t|),
    rate the distance of Re(alpha) to the strip edge (faster than any
    rate for infinite edges), so the integrand's size g_ends at each end
    over max(rate, 0.05) bounds that side's tail. Raises
    QuadratureDivergence when scale times the bound dwarfs the tolerance
    of the transform ``total``.
    """
    rate_l = alpha.real - strip.a if math.isfinite(strip.a) else 1.0
    rate_r = strip.b - alpha.real if math.isfinite(strip.b) else 1.0
    tail = g_ends[0] / max(rate_l, 0.05) + g_ends[1] / max(rate_r, 0.05)
    if scale * tail > 1e3 * max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        raise QuadratureDivergence(
            f"integrand tail {scale * tail:.3e} fails to decay within the window "
            f"({window[0]:g}, {window[1]:g}) for alpha={alpha}"
        )
    return tail


def _kernel_sum_transforms(
    ks: _KernelSum, alphas: np.ndarray, cfg: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Haar transforms K(alpha) (c0 + S(alpha)) of a kernel sum: (values, estimates).

    S(alpha) = sum_j w_j e^(alpha tau_j) is summed exactly rounded, real
    and imaginary parts apart, over the terms of nonzero weight only, so
    an underflowed weight never meets an overflowed exponential. The
    estimate adds to the kernel's, scaled by |c0 + S|, the rounding of
    the terms and the factor's tail past the grid's ends, bounded as
    _haar_transforms bounds a window's tail. A term that is not finite,
    or a tail that dwarfs the tolerance, raises QuadratureDivergence.
    """
    k_vals, k_errs = _haar_transforms(ks.kernel, alphas, cfg)
    live = ks.weights != 0
    tau, w = ks.tau[live], ks.weights[live]
    if ks.tau.size > 1:
        step = abs(float(ks.tau[1] - ks.tau[0]))
        ends = [ks.tau.argmin(), ks.tau.argmax()]
        t_ends, w_ends = ks.tau[ends], ks.weights[ends] / step
    else:
        t_ends, w_ends = np.zeros(2), np.zeros(2)
    grid = t_ends.tolist()
    values = np.empty(alphas.size, dtype=complex)
    ests = np.empty(alphas.size)
    for i, (alpha, k, k_err) in enumerate(zip(alphas.tolist(), k_vals.tolist(), k_errs.tolist())):
        with np.errstate(all="ignore"):
            terms = w * np.exp(alpha * tau)
            g_ends = _cabs(np.where(w_ends != 0, w_ends * np.exp(alpha * t_ends), 0.0)).tolist()
        size = float(np.add.reduce(_cabs(terms)))
        s = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())) + ks.c0
        total = k * s
        if not (math.isfinite(size) and cmath.isfinite(total)):
            raise QuadratureDivergence(f"kernel-sum terms not finite for alpha={alpha}")
        tail = _checked_tail(g_ends, alpha, ks.strip, abs(k), total, grid, cfg)
        values[i] = total
        ests[i] = abs(s) * k_err + abs(k) * (tail + 4.0 * _EPS * (size + abs(ks.c0)))
    return values, ests


def _haar_transforms(
    f: MellinFunction, alphas, cfg: QuadratureConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Haar transforms of f at many alpha in its strip: (values, estimates).

    A grid-built f that records its kernel sum is transformed exactly
    from its kernel's transforms (_kernel_sum_transforms). For any other
    f, one kernel call integrates every panel of every alpha's window as a
    row. Alpha with the same real part share a window, and f is
    evaluated once per node of a panel however many alpha use it. Each
    value and estimate is forward_mellin's for that alpha alone, before
    the normalization multiplier.
    """
    cfg = cfg or DEFAULT_CONFIG
    alphas = np.asarray(alphas, dtype=complex).ravel()
    if f._kernel_sum is not None:
        total, err = _kernel_sum_transforms(f._kernel_sum, alphas, cfg)
        return total + complex(f.atom_weight), err
    strip = f.strip
    res = sorted(set(alphas.real.tolist()))
    win = np.searchsorted(res, alphas.real)
    windows = [_widened_config(cfg, strip.a, strip.b, r).truncation_bounds for r in res]
    if f.grid_span is not None:
        # past the grid the function is not sampled; the tail check below
        # raises when the part of the window cut off here matters
        g0, g1 = f.grid_span
        windows = [(max(t0, g0), min(t1, g1)) for t0, t1 in windows]
    # the panels of each window's halves [tmin, 0] and [0, tmax]; half is
    # 2 * (window index) + (1 on the right half)
    plo, phi, half = (
        np.concatenate(a)
        for a in zip(*(_window_panels(t0, t1, 2 * w) for w, (t0, t1) in enumerate(windows)))
    )
    # rows panel by panel, each panel's alpha in order: the rows of a
    # panel are a run of the active rows, sharing their nodes
    row_panel, row_of = np.divmod(np.flatnonzero(half[:, None] // 2 == win), alphas.size)
    row_alpha = alphas[row_of, None]
    shared = len(res) < alphas.size

    def f_at(u: np.ndarray) -> np.ndarray:
        fu = np.asarray(f.eval(u.ravel()))
        if fu.shape != (u.size,):
            raise ValueError(f"eval of {f.label or 'f'} gave shape {fu.shape} for {u.size} points")
        return fu.reshape(u.shape)

    def g(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        t = x.reshape(rows.size, -1)
        if shared:
            first, run = _runs(row_panel[rows])
            fx = f_at(np.exp(t[first]))[run]
        else:
            fx = f_at(np.exp(t))
        # rows are sorted and distinct: as many as there are means all of them
        ra = row_alpha if rows.size == row_alpha.shape[0] else row_alpha[rows]
        return fx * np.exp(ra * t)

    vals, errs = _tanh_sinh(g, plo[row_panel], phi[row_panel], cfg)
    # each half's panels summed in order, then left + right
    side = (row_of, half[row_panel] % 2)
    halves = np.zeros((alphas.size, 2), dtype=complex)
    np.add.at(halves, side, vals)
    total = halves[:, 0] + halves[:, 1] + complex(f.atom_weight)
    err = np.zeros((alphas.size, 2))
    np.add.at(err, side, errs)

    ends = np.array(windows).T
    with np.errstate(all="ignore"):
        g_ends = _cabs(f_at(np.exp(ends))[:, win] * np.exp(alphas * ends[:, win]))
    tail = [
        _checked_tail(g, alpha, strip, 1.0, t, windows[j], cfg)
        for g, alpha, t, j in zip(g_ends.T.tolist(), alphas.tolist(), total.tolist(), win.tolist())
    ]
    return total, err[:, 0] + err[:, 1] + tail


def forward_mellin(
    f: MellinFunction,
    alpha: complex,
    normalization: Normalization | None = None,
    cfg: QuadratureConfig | None = None,
) -> TransformValue:
    """Transform f at alpha against the chosen normalized measure.

    alpha must lie inside the fundamental strip declared by f
    (StripViolation otherwise). The integration window in t = log x is
    cfg.truncation_bounds (DEFAULT_CONFIG's when cfg is omitted), always
    widened so that the tails at the declared edge rates clear abs_tol:
    the bounds are the minimum window. A function built on a convolution
    grid caps the window at the grid's span (``grid_span``). A truncation
    tail estimated from the declared decay orders that dwarfs the
    tolerance raises QuadratureDivergence rather than silently returning
    a bad value.

    The functions mult_convolve, star_convolve and convolution_exp return
    are finite sums of scaled copies of one kernel, and are transformed
    exactly: the kernel's transform times a sum of O(grid) weights, with
    no quadrature over the sum itself. The tail of that weight sum past
    the grid is bounded and checked the same way. A function derived
    from one of them (by a rule, the involution or dataclasses.replace)
    takes the quadrature route above.
    """
    f = _require_mellin_function(f)
    alpha = complex(alpha)
    norm = normalization or Normalization.haar()
    strip = f.strip
    if not strip.contains(alpha):
        raise StripViolation(f"alpha={alpha} outside fundamental strip {strip}")
    dpole, pole = norm.nearest_pole(alpha)
    if dpole < 1e-8:
        raise NormalizationPole(f"normalization multiplier has a pole at alpha={pole}")
    (total,), (err,) = _haar_transforms(f, [alpha], cfg)
    total = complex(total)
    m = norm.multiplier(alpha)
    return TransformValue(
        value=complex(m * total),
        alpha=alpha,
        strip=strip,
        normalization=norm,
        abs_error_estimate=abs(m) * float(err) + abs(total) * norm.roundoff(alpha, m),
    )


# ---------------------------------------------------------------------------
# strip inference
# ---------------------------------------------------------------------------

_SLOPE_SUPER = 35.0
_SLOPE_STABLE = 0.3
_EDGE_MARGIN = 0.05
_DECLARED_TOL = 0.25


def _edge_exponent(xs: np.ndarray, vals: np.ndarray, side: str) -> float:
    """Fitted power-law exponent e with |f| ~ x^e at the given edge.

    Returns +inf when f vanishes faster than any power (or is exactly
    zero) at the edge on the zero side; the infinity side mirrors that.
    Raises InsufficientDecay when the local slopes never stabilize.
    """
    if side == "zero":
        order = np.argsort(xs)
    else:
        order = np.argsort(xs)[::-1]
    x_edge = xs[order][:6]
    v_edge = vals[order][:6]
    finite = np.isfinite(v_edge)
    if not finite[:2].all():
        raise InsufficientDecay(f"probe values not finite near the {side} edge")
    if (v_edge[:2] == 0).any():
        # underflow / exact zero at the edge: faster than any power
        return math.inf if side == "zero" else -math.inf
    keep = finite & (v_edge > 0)
    x_edge, v_edge = x_edge[keep][:4], v_edge[keep][:4]
    if len(x_edge) < 3:
        raise InsufficientDecay(f"too few usable probes near the {side} edge")
    lx, lv = np.log(x_edge), np.log(v_edge)
    slopes = np.diff(lv) / np.diff(lx)
    s0 = slopes[0]
    if abs(s0) > _SLOPE_SUPER:
        return math.copysign(math.inf, s0)
    if abs(slopes[0] - slopes[1]) > _SLOPE_STABLE:
        raise InsufficientDecay(
            f"slopes do not stabilize near the {side} edge "
            f"({slopes[0]:.3f} vs {slopes[1]:.3f})"
        )
    return float(s0)


def _check_declared(declared: float, fitted_order: float, side: str) -> None:
    # equal infinities pass; any other infinity is infinitely far off
    if declared != fitted_order and not abs(declared - fitted_order) <= _DECLARED_TOL:
        raise InconsistentDeclaration(
            f"declared order {declared:g} at {side} but fitted {fitted_order:.3f}"
        )


def infer_strip(f, probe_grid: Sequence[float]) -> FundamentalStrip:
    """Fit the fundamental strip from probe evaluations.

    The grid must span at least four decades on each side of 1. When f
    is a MellinFunction its declared orders are checked against the fit
    (InconsistentDeclaration beyond 0.25). The returned strip is pulled
    inward by a small margin on finite edges.
    """
    fn = f.eval if isinstance(f, MellinFunction) else f
    xs = np.asarray(probe_grid, dtype=float)
    if xs.min() > 1e-4 or xs.max() < 1e4:
        raise ValueError(
            "probe grid must span at least four decades on each side of 1"
        )
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        vals = np.abs(_eval_vector(fn, xs)).astype(float)
    e_zero = _edge_exponent(xs, vals, "zero")
    e_inf = _edge_exponent(xs, vals, "inf")
    a_fit = -e_zero  # f ~ x^e at 0 means a = -e
    b_fit = -e_inf
    if not a_fit < b_fit:
        raise InsufficientDecay(
            f"fitted orders give an empty strip (a={a_fit:g}, b={b_fit:g})"
        )
    if isinstance(f, MellinFunction):
        _check_declared(f.order_at_zero, a_fit, "zero")
        _check_declared(f.order_at_infinity, b_fit, "infinity")
    a = a_fit + _EDGE_MARGIN if math.isfinite(a_fit) else a_fit
    b = b_fit - _EDGE_MARGIN if math.isfinite(b_fit) else b_fit
    if not a < b:
        raise InsufficientDecay(f"strip collapsed after margins (a={a:g}, b={b:g})")
    return FundamentalStrip(a, b)


# ---------------------------------------------------------------------------
# circle and line integrals
# ---------------------------------------------------------------------------


def _circle_angles(n: int) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


def _circle(center: complex, rho: float, n: int) -> np.ndarray:
    """The n points center + rho e^(2 pi i j / n), j = 0, ..., n - 1."""
    return center + rho * np.exp(1j * _circle_angles(n))


def _circle_mode(values, k: int):
    """Mode k of values at the n points of _circle, along the last axis: (mode, alias).

    The mode is the n-point trapezoid mean of v e^(-i k theta); over
    rho^k it is the k-th Taylor coefficient. alias, its distance to the
    same rule over the even-indexed points, estimates the aliasing error.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    terms = values * np.exp(-1j * k * _circle_angles(n))
    mode = np.sum(terms, axis=-1) / n
    coarse = np.sum(terms[..., ::2], axis=-1) / (n // 2)
    return mode, np.abs(mode - coarse)


def _line_integral(g, tol: float, cfg: QuadratureConfig) -> tuple[complex, float]:
    """Integral of g(t) over the real line, cut at the first |t| = T where |g| < tol.

    T runs through 1, 2, 4, ... up to max(64, the right truncation
    bound); SlowContourDecay if |g(T)| or |g(-T)| never falls below tol
    there. [-T, 0] and [0, T] are two rows of one kernel call. Returns
    (value, estimate); the discarded tails are the caller's to bound.
    """
    t_cap = max(64.0, cfg.truncation_bounds[1])
    T = 1.0
    while True:
        with np.errstate(all="ignore"):
            m = np.abs(g(np.array([T, -T])))
        if np.all(m < tol):
            break
        T *= 2.0
        if T > t_cap:
            raise SlowContourDecay(f"line integrand never fell below {tol:g} for |t| <= {t_cap:g}")
    vals, errs = _tanh_sinh(lambda t, rows: g(t), [-T, 0.0], [0.0, T], cfg)
    (left, right), (e_left, e_right) = vals.tolist(), errs.tolist()
    return left + right, e_left + e_right


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def inverse_mellin(
    transform: Callable[[complex], complex],
    c: float,
    x: float,
    cfg: QuadratureConfig | None = None,
) -> tuple[complex, float]:
    """Invert along the vertical line Re(alpha) = c at the point x.

        f(x) = 1/(2 pi) int_-inf^inf transform(c + it) x^(-c - it) dt

    The line is truncated where a dyadic scan of the integrand falls
    below abs_tol; SlowContourDecay if that never happens inside the
    scan window. Returns (value, error estimate).
    """
    cfg = cfg or DEFAULT_CONFIG
    if x <= 0:
        raise ValueError("inversion point x must be positive")
    lx = math.log(x)

    def g(t: np.ndarray) -> np.ndarray:
        return _eval_vector(transform, c + 1j * t) * np.exp(-1j * t * lx)

    value, est = _line_integral(g, cfg.abs_tol, cfg)
    scale = x ** (-c) / (2.0 * math.pi)
    # the scan guarantees the discarded tails are below abs_tol pointwise
    err = scale * (est + 2.0 * cfg.abs_tol)
    return complex(scale * value), float(err)


# ---------------------------------------------------------------------------
# Hankel contour transform
# ---------------------------------------------------------------------------

_POLE_WINDOW = 0.02
_CONTINUATION_RADIUS = 0.05
_CONTINUATION_POINTS = 16


def _hankel_direct(
    f: MellinFunction,
    alphas: list[complex],
    contours: list[HankelContourSpec],
    norm: Normalization,
    cfg: QuadratureConfig,
) -> list[tuple[list[complex], list[float]]]:
    """Keyhole-contour evaluations: (values, estimates) per contour and alpha.

    The loop runs in along the positive axis from +inf to the radius r
    above the cut, circles the origin counterclockwise, and returns to
    +inf below the cut. z^(alpha-1) has arg 0 above the cut and 2 pi
    below it, so the loop is (e^(2 pi i alpha) - 1) I_ray + I_arc, I_arc
    the circle's integral and I_ray that of f(x) x^(alpha-1) over
    [r, _RAY_LENGTH], taken in t = log x: in x, the rounding of the nodes
    next to x = r outgrows the estimate at small r. The value is aligned
    with the real-axis transform branch, which shifts the argument by
    -pi, hence the e^(-i pi alpha) factor.

    The ray and the arc of every contour and alpha are rows of one
    kernel call; f is evaluated once per node of a ray, at real x, or of
    an arc, and only the phase z^(alpha-1) is per alpha.
    """
    n = len(alphas)
    # segment q = 2 * (contour index) + (0 ray, 1 arc); row q * n + i is
    # segment q of alphas[i]
    radii = np.repeat([c.radius for c in contours], 2)
    am1 = np.tile(np.asarray(alphas, dtype=complex) - 1.0, 2 * len(contours))[:, None]

    def g(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # the active rows of a segment are a run sharing their nodes
        x = x.reshape(rows.size, -1)
        first, run = _runs(rows // n)
        seg = rows[first] // n
        arc = seg % 2 == 1
        u, ray = x[first], ~arc
        # f dz/du and log z at each segment's nodes: z = e^u on a ray,
        # z = r e^(i u) on an arc
        fz = np.empty(u.shape, dtype=complex)
        logz = np.empty(u.shape, dtype=complex)
        if ray.any():
            xs = np.exp(u[ray])
            fz[ray] = np.asarray(f.eval(xs.ravel())).reshape(xs.shape) * xs
            logz[ray] = u[ray]
        if arc.any():
            r = radii[seg[arc], None]
            z = r * np.exp(1j * u[arc])
            fz[arc] = np.asarray(f.eval(z.ravel())).reshape(z.shape) * (1j * z)
            logz[arc] = np.log(r) + 1j * u[arc]
        return fz[run] * np.exp(am1[rows] * logz[run])

    lo = np.repeat([v for c in contours for v in (math.log(c.radius), 0.0)], n)
    hi = np.tile(np.repeat([math.log(_RAY_LENGTH), 2.0 * math.pi], n), len(contours))
    vals, errs = _tanh_sinh(g, lo, hi, cfg)
    # the ray's integrand at its cutoff bounds its tail, as a window's does
    t_end = math.log(_RAY_LENGTH)
    rays = np.arange(2 * len(contours) * n).reshape(-1, n)[::2].ravel()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ends = _cabs(g(np.full(rays.size, t_end), rays)).reshape(-1, n)
    strip = FundamentalStrip(-math.inf, f.order_at_infinity)
    # the rays enter the loop with the factor e^(2 pi i alpha) - 1
    jumps = [cmath.exp(2j * math.pi * alpha) - 1.0 for alpha in alphas]
    out = []
    for contour, v2, e2, ends_c in zip(
        contours, vals.reshape(-1, 2, n).tolist(), errs.reshape(-1, 2, n).tolist(), ends.tolist()
    ):
        window = (math.log(contour.radius), t_end)
        values, ests = [], []
        for alpha, jump, i_ray, i_arc, e_ray, e_arc, end in zip(alphas, jumps, *v2, *e2, ends_c):
            loop = jump * i_ray + i_arc
            tail = _checked_tail((0.0, end), alpha, strip, abs(jump), loop, window, cfg)
            mult = norm.multiplier(alpha)
            phase = cmath.exp(-1j * math.pi * alpha)
            err = abs(mult * phase) * (abs(jump) * (e_ray + tail) + e_arc)
            values.append(mult * phase * loop)
            ests.append(err + abs(phase * loop) * norm.roundoff(alpha, mult))
        out.append((values, ests))
    return out


def _hankel_values(
    f: MellinFunction,
    alpha: complex,
    contours: list[HankelContourSpec],
    norm: Normalization,
    cfg: QuadratureConfig,
) -> tuple[list[tuple[complex, float]], bool]:
    """Direct evaluations on each contour, or circle averages near a pole.

    Returns [(value, estimate)], one per contour, and whether the values
    are continued (circle averages around a multiplier pole).
    """
    dpole, pole = norm.nearest_pole(alpha)
    if dpole >= _POLE_WINDOW:
        return [(v, e) for (v,), (e,) in _hankel_direct(f, [alpha], contours, norm, cfg)], False
    if pole is not None and abs(pole - 1.0) < 0.5:
        raise NormalizationPole(
            "no continuation across alpha = 1: the multiplier pole meets a "
            "genuine transform pole there"
        )
    # 0 * inf cancellation at the pole: the product of multiplier and loop
    # integral is holomorphic, so its value at alpha is its mean (mode 0)
    # on a small circle around alpha, with the circle rule's aliasing
    # estimate on top of the points' own.
    ring = _circle(alpha, _CONTINUATION_RADIUS, _CONTINUATION_POINTS).tolist()
    out = []
    for vals, errs in _hankel_direct(f, ring, contours, norm, cfg):
        mean, alias = _circle_mode(vals, 0)
        out.append((complex(mean), sum(errs) / len(errs) + float(alias)))
    return out, True


def hankel_mellin(
    f: MellinFunction,
    alpha: complex,
    contour: HankelContourSpec | None = None,
    normalization: Normalization | None = None,
    cfg: QuadratureConfig | None = None,
) -> TransformValue:
    """Mellin transform along a keyhole contour around the positive axis.

    Extends the transform left of the real-axis strip for functions
    analytic in a neighbourhood of the positive axis and of the disc of
    the contour's radius; f is evaluated at real x on the rays and at
    complex z on the circle. The default normalization is the contour
    one. Near positive-integer multiplier poles (n >= 2) the value is
    produced by analytic continuation and tagged ``continued``; near
    alpha = 1 there is no continuation (NormalizationPole). The value is
    checked against the same loop with half the radius
    (ContourDependence on mismatch).
    """
    f = _require_mellin_function(f)
    alpha = complex(alpha)
    contour = contour or HankelContourSpec()
    norm = normalization or Normalization.gamma_contour()
    cfg = cfg or DEFAULT_CONFIG
    # the same loop with the radius halved, in the same kernel call
    contours = [contour, HankelContourSpec(contour.radius / 2.0)]
    ((value, err), (v2, e2)), continued = _hankel_values(f, alpha, contours, norm, cfg)
    drift = abs(value - v2)
    if drift > max(1e-7, 50.0 * (err + e2)):
        raise ContourDependence(
            f"contour value moved by {drift:.3e} when the arc radius was halved"
        )
    return TransformValue(
        value=complex(value),
        alpha=alpha,
        strip=FundamentalStrip(-math.inf, f.order_at_infinity),
        normalization=norm,
        abs_error_estimate=float(max(err, drift)),
        continued=continued,
    )
