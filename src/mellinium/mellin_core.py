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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourDependence,
    ConvergenceDomain,
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
    goes through the scalar path entry by entry and keeps its shape,
    and its dtype when real or complex. Raises
    GammaPole at 0, -1, -2, ..., and ConvergenceDomain where Gamma leaves
    the float range; 1/Gamma, which is entire, is ``_rgamma``.
    """
    try:
        if isinstance(z, (int, float)):
            return _real_gamma(z)
        if np.ndim(z) == 0:
            z = complex(z)
            return complex(_real_gamma(z.real)) if z.imag == 0 else _lanczos(z, False)
    except OverflowError:
        raise ConvergenceDomain(f"Gamma({z}) leaves the float range") from None
    arr = np.asarray(z)
    out = np.array([_gamma(complex(v)) for v in arr.flat], dtype=complex).reshape(arr.shape)
    if arr.dtype.kind == "c":
        return out.astype(arr.dtype, copy=False)
    return out.real.astype(arr.dtype if arr.dtype.kind == "f" else float, copy=False)


def _rgamma(z: complex) -> complex:
    """1/Gamma of a complex scalar: entire, exactly 0 at 0, -1, -2, ...

    Real z goes to math.gamma as in _gamma, inside the range where
    neither Gamma nor its reciprocal overflows. Raises ConvergenceDomain
    where 1/Gamma leaves the float range, as at -200.5.
    """
    z = complex(z)
    if z.imag == 0:
        x = z.real
        if x <= 0 and x == round(x):
            return 0j
        if abs(x) < 170.0:
            return complex(1.0 / math.gamma(x))
    try:
        return _lanczos(z, True)
    except OverflowError:
        raise ConvergenceDomain(f"1/Gamma({z}) leaves the float range") from None


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
    complex arguments too, for functions used on Hankel contours). An
    eval that gives values of a real dtype at some positive x must do so
    at every positive x: the transform of such an f at conj(alpha) is
    taken to be the conjugate of its transform at alpha, and a call that
    relies on that raises ValueError where the values come back complex.
    ``order_at_zero`` is a with f = O(x^-a) at 0+, ``order_at_infinity``
    is b with f = O(x^-b) at infinity, so the fundamental strip is
    <a, b>. ``atom_weight`` carries a point mass at x = 1 (the identity
    of multiplicative convolution) kept symbolic; its transform
    contribution is the constant ``atom_weight``.

    ``grid_span`` is the (t_min, t_max) range in t = log x that a
    sampling grid behind ``eval`` covers, None when there is no grid.
    The convolution builders set it, functions derived from one carry it
    through their change of variable, and the quadrature route's window
    rule cuts the window to it, as it cuts it to the float range.

    ``_transform(alphas, cfg)``, when set, gives the Haar transforms
    (values, estimates) without the atom, as the algebra states them, and
    forward_mellin takes them in place of quadrature: the convolution
    builders set it from their factors' transforms, and apply_rule and
    involution from the parent's, when the parent has one. It is not a
    constructor argument, so ``dataclasses.replace`` drops it: the copy's
    ``eval`` may no longer be that function.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    order_at_zero: float
    order_at_infinity: float
    label: str = ""
    atom_weight: complex = 0.0
    grid_span: tuple[float, float] | None = field(default=None, repr=False, compare=False)
    _transform: Callable | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def strip(self) -> FundamentalStrip:
        return FundamentalStrip(self.order_at_zero, self.order_at_infinity)

    def __call__(self, x):
        return self.eval(x)


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
            # 1/Gamma first: where 2^(1 - alpha) overflows, it is 0 or out of
            # the float range itself
            r = _rgamma(alpha)
            m = (1.0 - 2.0 ** (1.0 - alpha)) * r if r else 0j
            if not cmath.isfinite(m):
                raise ConvergenceDomain(f"gamma-eta multiplier at {alpha} leaves the float range")
            return m
        raise AssertionError(self.kind)

    def roundoff(self, alpha: complex, m: complex) -> float:
        """Absolute rounding error bound of m = multiplier(alpha)."""
        if self.kind == "haar":
            return 0.0
        z = 1.0 - alpha if self.kind == "gamma_contour" else alpha + self.p
        err = abs(m) * _gamma_roundoff(complex(z))
        # where 1/Gamma is not 0, 2^(1 - alpha) is in the float range (multiplier)
        r = _rgamma(alpha) if self.kind == "gamma_eta" else 0
        if r:
            err += abs(r) * _EPS * abs(2.0 ** (1.0 - alpha)) * (2.0 + abs(1.0 - alpha))
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
        if not all(map(math.isfinite, (self.rel_tol, self.abs_tol, *self.truncation_bounds))):
            raise ValueError("tolerances and truncation bounds must be finite")
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

    def __complex__(self) -> complex:
        return complex(self.value)


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


# Integrand points handed to one call, here and in strip_algebra's kernel
# sums: 128 KB per float64 array, so an integrand's temporaries stay in a
# 2 MB L2 cache. Chosen by a sweep over 2^12-2^18 in fresh processes
# (CHANGES.md).
_BLOCK_POINTS = 16_384


# The deepest level of a kernel call's first stage: levels 0.._LADDER, 257
# nodes a row, go to the integrand in one call when the active rows' nodes
# fit in one block (_tanh_sinh). Level 5 is where rows most often freeze
# (196 of 374 rows in a bench points round, 144 of 392 outermost rows in an
# algebra round); a depth of 6 was as fast on points and 13% slower on
# algebra in a prototype (CHANGES.md).
_LADDER = 5


@lru_cache(maxsize=64)
def _stage_nodes(first: int, last: int) -> tuple[np.ndarray, np.ndarray, list[slice], np.ndarray]:
    """The nodes of levels first..last, level after level: (t, w, cuts, h).

    cuts holds each level's slice of t and w, and the column h each
    level's step (1 at level 0, else 2^-level).
    """
    levels = range(first, last + 1)
    t, w = (np.concatenate(a) for a in zip(*map(_ts_nodes, levels)))
    stops = np.cumsum([_ts_nodes(level)[0].size for level in levels]).tolist()
    h = np.array([[2.0**-level if level else 1.0] for level in levels])
    for a in (t, w, h):
        a.flags.writeable = False
    return t, w, [slice(a, b) for a, b in zip([0] + stops[:-1], stops)], h


def _stage_sums(g, span, t, w, cuts, rows, weigh: bool):
    """One stage's weighted sums (levels, rows) and absolute sums (levels, rows, 1 + weigh).

    span holds each row's (mid, half width). The absolute sums are those
    of |terms| and, with ``weigh``, of |terms| x. A level's terms are
    reduced as their own slice of the row, whose pairwise sum is that of
    the level alone; a real integrand's sums stay real.
    """
    x = span[:, :1] + span[:, 1:] * t
    terms = np.asarray(g(x.ravel(), rows)).reshape(x.shape) * w
    size = np.empty((rows.size, 1 + weigh, t.size))
    np.abs(terms, out=size[:, 0])
    if weigh:
        np.multiply(size[:, 0], x, out=size[:, 1])
    sums = np.empty((len(cuts), rows.size), dtype=terms.dtype)
    sizes = np.empty((len(cuts),) + size.shape[:2])
    for j, cut in enumerate(cuts):
        np.add.reduce(terms[:, cut], axis=1, out=sums[j])
        np.add.reduce(size[..., cut], axis=-1, out=sizes[j])
    return sums, sizes


def _estimate(stops, slope):
    """Row estimates: the level difference, or the roundoff floor where larger (see _tanh_sinh).

    stops[i] is row i's [level difference, mass] and, when slope is not
    None, its moment after them.
    """
    est = np.maximum(stops[:, 0], 4.0 * _EPS * stops[:, 1])
    return est if slope is None else np.maximum(est, _EPS * slope * np.abs(stops[:, 2]))


def _row_error(message: str, row) -> QuadratureDivergence:
    """QuadratureDivergence with the failing row's index as ``row``."""
    error = QuadratureDivergence(message)
    error.row = int(row)
    return error


def _tanh_sinh(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    slope: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate k rows at once, row i over [lo[i], hi[i]].

    g(x, rows) gets the nodes of the rows ``rows`` (indices into lo and
    hi) as one flat array of len(rows) equal blocks, block j holding the
    nodes of row rows[j], and returns the integrand at them in the same
    layout. Each row is refined level by level until it meets its own
    tolerance and is then frozen, from level 2 on, so its value and
    estimate are those it would get alone.

    The levels run in stages, one call of g each. The first stage is
    levels 0.._LADDER together when the active rows' nodes fit in one
    _BLOCK_POINTS block, and level 0 alone otherwise; every later stage
    is one level. A stage reduces each level over that level's nodes and
    forms the totals, masses and moments level after level, as a
    one-level stage does, so a row freezes at the first level that meets
    its tolerance, with the same value and estimate, whatever the stages.
    Nodes of levels past a row's freezing level are evaluated in vain
    and never checked: only a level the row reached can raise. A
    one-level stage whose active rows hold more than _BLOCK_POINTS nodes
    is handed to g in blocks of rows; the block is cache-sized (see
    _BLOCK_POINTS), and since rows are independent it changes only how
    they are grouped, never a value.

    ``slope[i]`` (|alpha| for e^(alpha t)) is how fast row i's exponent
    moves with x, for the estimate's floor below; such a row lies on one
    side of x = 0. Returns (values, error estimates); a row with hi <= lo
    is 0 with estimate 0. Raises QuadratureDivergence, naming the row's
    interval and holding the row's index as ``row``, when the integrand
    is not finite at a node of a level the row reached or the level
    refinement fails to converge.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    weigh = slope is not None
    # The estimate's roundoff floor, 4 eps times the mass hw * h * sum |terms| over the
    # levels summed, follows the integrand's size however much the terms cancel (4 covers
    # each term's own rounding). With a slope it is eps slope |moment| where larger, the
    # moment summing |terms| x alike (sum |terms x| on one side of x = 0): the exponent's
    # rounding where the mass lies. A row's level difference, mass and, with a slope,
    # moment are kept together, as [err, mass, moment].
    value = np.zeros(lo.shape, dtype=complex)
    stops = np.zeros(lo.shape + (2 + weigh,))
    # state of the active rows only, compacted as rows are frozen: (mid, half
    # width), the last level's total and [err, mass, moment]
    active = np.flatnonzero(hi > lo)
    span = 0.5 * np.array((lo + hi, hi - lo)).T[active]
    prev = np.zeros(active.size)
    last = np.zeros((active.size, 2 + weigh))
    ladder = _stage_nodes(0, min(_LADDER, cfg.max_levels))
    first = 0
    with np.errstate(all="ignore"):
        while active.size and first <= cfg.max_levels:
            n = active.size
            fits = first == 0 and n * ladder[0].size <= _BLOCK_POINTS
            t, w, cuts, h = ladder if fits else _stage_nodes(first, first)
            step = max(1, _BLOCK_POINTS // t.size)
            if n <= step:
                sums, sizes = _stage_sums(g, span, t, w, cuts, active, weigh)
            else:
                parts = [
                    _stage_sums(g, span[j : j + step], t, w, cuts, active[j : j + step], weigh)
                    for j in range(0, n, step)
                ]
                sums, sizes = (np.concatenate(a, axis=1) for a in zip(*parts))
            k = h.size
            # (sums * hw) * h: scaling by the power of two h is exact
            wh = h * span[:, 1]
            # row 0 is the last total; level 0's total is its partial sum, a
            # later level's its partial sum plus half the total before it
            totals = np.empty((k + 1, n), dtype=complex if "c" in sums.dtype.kind + prev.dtype.kind else float)
            totals[0] = prev
            np.multiply(sums, wh, out=totals[1:])
            by_level = list(totals)
            for j in range(2 - (first > 0), k + 1):
                by_level[j] += by_level[j - 1] / 2.0
            # each level's [err, mass, moment], the masses and moments summed
            # level after level
            levels = np.empty((k, n, 2 + weigh))
            diff = totals[1:] - totals[:-1]
            np.hypot(diff.real, diff.imag, out=levels[..., 0])
            if first == 0:
                levels[0, :, 0] = math.inf
            np.multiply(sizes, wh[:, :, None], out=levels[..., 1:])
            levels[0, :, 1:] += last[:, 1:]
            if k > 1:
                np.add.accumulate(levels[..., 1:], axis=0, out=levels[..., 1:])
            done = levels[..., 0] <= np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(totals[1:]))
            if first < 2:
                done[: 2 - first] = False
            frozen = np.logical_or.reduce(done, axis=0)
            # a row's size is not finite iff some term is not; max keeps a nan
            if not math.isfinite(np.maximum.reduce(sizes, axis=None)):
                # only the levels up to a row's freezing one count
                reached = np.arange(k)[:, None] <= np.where(frozen, done.argmax(axis=0), k)
                bad = ~np.isfinite(sizes[..., 0]) & reached
                if bad.any():
                    r = active[np.argmax(bad[np.argmax(bad.any(axis=1))])]
                    raise _row_error(f"integrand not finite inside [{lo[r]:g}, {hi[r]:g}]", r)
            prev, last = totals[-1], levels[-1]
            if frozen.any():
                # each frozen row at its freezing level, flat in (levels, rows)
                i = frozen.nonzero()[0]
                at = done.argmax(axis=0)[i] * n + i
                rows = active[i]
                value[rows] = totals.ravel()[n + at]
                stops[rows] = levels.reshape(-1, 2 + weigh)[at]
                if frozen.all():
                    return value, _estimate(stops, slope)
                keep = ~frozen
                active, span, prev, last = active[keep], span[keep], prev[keep], last[keep]
            first += k
        err = last[:, 0]
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(prev))
        # close but not fully settled: return with the honest estimate
        unsettled = err > 50.0 * tol
        if unsettled.any():
            i = np.argmax(unsettled)
            raise _row_error(
                f"tanh-sinh failed to converge on [{lo[active[i]]:g}, {hi[active[i]]:g}] "
                f"(last delta {err[i]:.3e})",
                active[i],
            )
        value[active], stops[active] = prev, last
        return value, _estimate(stops, slope)


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
def _window_segments(windows: tuple[tuple[float, float], ...]):
    """The panels of the halves [tmin, 0] and [0, tmax] of windows, each distinct panel once.

    Returns read-only (lo, hi, side, uses): panel s is [lo[s], hi[s]], on
    a left (side[s] 0) or right (1) half, and uses[s, w] says whether
    window w holds it. Panels come in the order they first appear, window
    after window and each half left to right, so a window's panels of a
    half stay in order. Windows of different real parts often share a
    half, whose panels are then integrated once for all their alpha; most
    transforms share the default window, so this is cached.
    """
    t0, t1 = np.array(windows).T
    zero = np.zeros(t0.size)
    # the halves interleaved: [t0, 0] and [0, t1] of each window in turn
    lo, hi, half = _panels(np.stack((t0, zero), axis=1).ravel(), np.stack((zero, t1), axis=1).ravel())
    seen = {}
    seg = np.array([seen.setdefault(key, len(seen)) for key in zip(lo.tolist(), hi.tolist(), (half % 2).tolist())])
    firsts = np.unique(seg, return_index=True)[1]
    uses = np.zeros((firsts.size, t0.size), dtype=bool)
    uses[seg, half // 2] = True
    out = (lo[firsts], hi[firsts], half[firsts] % 2, uses)
    for a in out:
        a.flags.writeable = False
    return out


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each run of equal keys, and each entry's run number."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new), np.cumsum(new) - 1


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


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first entry of ``a`` that is not finite."""
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        at = tuple(int(k) for k in np.unravel_index(bad[0], a.shape))
        raise ValueError(f"{what} entry {at if a.ndim > 1 else at[0]} is {a[at]}, not finite")


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def _require_mellin_function(f) -> MellinFunction:
    if not isinstance(f, MellinFunction):
        raise TypeError("expected a MellinFunction (a callable with declared decay orders)")
    return f


def _window(
    strip: FundamentalStrip, re: float, cfg: QuadratureConfig, span: tuple[float, float] | None = None
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The window (t0, t1) in t = log x at Re(alpha) = re, and its edge rates.

    Past the window the integrand f(e^t) e^(alpha t) decays at least like
    e^(-rate |t|), rate the distance of re to that strip edge (1 for an
    infinite edge). The window is cfg.truncation_bounds, widened so that
    tails at max(rate, 0.02) clear abs_tol, within +-2400; cut to ``span``,
    the t-range of f's grid; and cut to |t| <= 700 / g on each side, g the
    fastest growth there of e^(alpha t) (-re, re) or of f(e^t) ~ x^-a, x^-b
    (|a|, |b|, at least 1 for x itself; none for an edge at 0 or infinite).
    Inside, no factor leaves the float range: the tail bound sees all cut.
    """
    a, b = strip.a, strip.b
    rates = (re - a if math.isfinite(a) else 1.0, b - re if math.isfinite(b) else 1.0)
    need = -math.log(cfg.abs_tol) + 9.0
    t0, t1 = cfg.truncation_bounds
    if math.isfinite(a):
        t0 = min(t0, -need / max(rates[0], 0.02))
    if math.isfinite(b):
        t1 = max(t1, need / max(rates[1], 0.02))
    t0, t1 = max(t0, -2400.0), min(t1, 2400.0)
    t0, t1 = (t0, t1) if span is None else (max(t0, span[0]), min(t1, span[1]))
    g0, g1 = (max(1.0, abs(e)) if math.isfinite(e) and e != 0.0 else 0.0 for e in (a, b))
    g0, g1 = max(g0, -re), max(g1, re)
    t0 = max(t0, -700.0 / g0) if g0 > 0.0 else t0
    t1 = min(t1, 700.0 / g1) if g1 > 0.0 else t1
    return (t0, t1), rates


def _checked_tail(g_ends, rates, alphas, totals, windows, cfg) -> np.ndarray:
    """Bounds on transforms' tails past their windows (t0, t1), checked.

    g_ends[k] is the integrand's size at a window's end k, and over that
    side's edge rate rates[k] (_window's; one at or below 0 bounds
    nothing) it bounds that side's tail; the sides sum. rates and the
    arrays alphas, totals and t0, t1 = windows broadcast to the other
    axes of g_ends. Raises QuadratureDivergence when a bound dwarfs the
    tolerance of its total.
    """
    tail = np.add.reduce(np.divide(g_ends, rates, out=np.full(g_ends.shape, math.inf), where=rates > 0.0), axis=0)
    bad = tail > 1e3 * np.fmax(cfg.abs_tol, cfg.rel_tol * _cabs(totals))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        bound, alpha, t0, t1 = (np.broadcast_to(a, bad.shape)[i] for a in (tail, alphas, *windows))
        raise QuadratureDivergence(
            f"integrand tail {bound:.3e} fails to decay within the window "
            f"({t0:g}, {t1:g}) for alpha={complex(alpha)}"
        )
    return tail


def _f_values(f: MellinFunction, z: np.ndarray, real: bool = False) -> np.ndarray:
    """f.eval at the array z, in z's shape; ValueError when eval does not keep it.

    With ``real``, ValueError also when the values are not of a real dtype.
    """
    fz = np.asarray(f.eval(z.ravel()))
    if fz.shape != (z.size,):
        raise ValueError(f"eval of {f.label or 'f'} gave shape {fz.shape} for {z.size} points")
    if real and fz.dtype.kind not in "biuf":
        raise ValueError(
            f"eval of {f.label or 'f'} gave {fz.dtype} values on the positive axis, real at the window ends"
        )
    return fz.reshape(z.shape)


def _segment_integrals(f: MellinFunction, lo, hi, log_r, row_seg, row_alpha, cfg, slope=None, real=False):
    """Integrals of f(z) z^alpha d(log z) along straight segments in log z: (values, estimates).

    Segment s is u in [lo[s], hi[s]], with log z = u on the positive axis
    (log_r[s] nan, or log_r None for all) and log z = log_r[s] + i u on the
    circle |z| = e^log_r[s].
    Row j is segment row_seg[j] at alpha row_alpha[j], a segment's rows
    consecutive, and all rows go to one kernel call (_tanh_sinh, with
    ``slope``). f is evaluated once per node of a segment however many alpha
    use it, at real x on the axis and at complex z on a circle. With
    ``real`` the segments are all on the axis and f's values there must be
    real (_f_values).
    """
    alpha_col = row_alpha[:, None]
    shared = row_seg.size > lo.size
    on_axis = log_r is None or np.isnan(log_r).all()  # then log z = u is real: no complex copy of the nodes

    def g(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        u = x.reshape(rows.size, -1)
        # rows are sorted and distinct: as many as there are means all of them
        ra = alpha_col if rows.size == alpha_col.shape[0] else alpha_col[rows]
        if on_axis and not shared:
            # one row per segment, all on the axis: no nodes to share
            return _f_values(f, np.exp(u), real) * np.exp(ra * u)
        # the active rows of a segment are a run sharing their nodes
        first, run = _runs(row_seg[rows]) if shared else (slice(None), slice(None))
        v = u[first]
        if on_axis:
            return _f_values(f, np.exp(v), real)[run] * np.exp(ra * u)
        c = log_r[row_seg[rows][first], None]
        arc = ~np.isnan(c[:, 0])
        # on a circle d(log z) = i du
        logz = v.astype(complex)
        logz[arc] = c[arc] + 1j * v[arc]
        fz = np.empty(v.shape, dtype=complex)
        if not arc.all():
            fz[~arc] = _f_values(f, np.exp(v[~arc]))
        if arc.any():
            fz[arc] = 1j * _f_values(f, np.exp(logz[arc]))
        return fz[run] * np.exp(ra * logz[run])

    return _tanh_sinh(g, lo[row_seg], hi[row_seg], cfg, slope)


def _end_sizes(f: MellinFunction, ends, alphas, at) -> tuple[np.ndarray, np.ndarray]:
    """f(e^t) at the window ends t = ends, where tails begin, and |f(e^t) e^(alpha t)| there.

    The sizes are at t = ends[:, at[j]] for alphas[j]; f is evaluated once per end.
    """
    with np.errstate(all="ignore"):
        f_ends = _f_values(f, np.exp(ends))
        return f_ends, _cabs(f_ends[:, at] * np.exp(alphas * ends[:, at]))


def _haar_transforms(
    f: MellinFunction, alphas, cfg: QuadratureConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Haar transforms of f at many alpha in its strip: (values, estimates).

    An f with a transform slot is transformed by the slot
    (``MellinFunction._transform``). For any other f, one kernel call
    integrates every panel of every alpha's window as a row
    (_segment_integrals). Alpha with the same real part share a window,
    and with it f's values at its nodes. Each value and estimate is
    forward_mellin's for that alpha alone, before the normalization
    multiplier.

    Repeated alphas are integrated once. An f whose values at the window
    ends are of a real dtype is taken to be real on the whole positive
    axis (MellinFunction's contract), so that F(conj alpha) = conj F(alpha):
    of an alpha and its conjugate only the first given is integrated, and
    the other takes its value, conjugated, and its estimate. That is bit
    for bit what its own rows would give: exp, products of a real and a
    complex number and sums all commute with conjugation, and |.| freezes
    both rows at one level. The atom is added after. In a call that
    conjugates, the kernel checks the contract at every node and raises
    ValueError where f's values are not real.
    """
    cfg = cfg or DEFAULT_CONFIG
    alphas = np.asarray(alphas, dtype=complex).ravel()
    if f._transform is not None:
        total, err = f._transform(alphas, cfg)
        return total + complex(f.atom_weight), err
    # alpha of one real part share a window
    reals = alphas.real.tolist()
    index = {r: w for w, r in enumerate(sorted(set(reals)))}
    win = np.array([index[r] for r in reals])
    strip = f.strip
    windows, rates = zip(*(_window(strip, r, cfg, f.grid_span) for r in index))
    ends = np.array(windows).T
    f_ends, g_ends = _end_sizes(f, ends, alphas, win)
    real = f_ends.dtype.kind in "biuf"
    # an alpha equal to one before it, or for a real f conjugate to one,
    # takes that one's integral: only the first of each is integrated, and
    # alpha j takes integral back[j]
    rank, lead, back = {}, [], []
    for j, a in enumerate(alphas.tolist()):
        key = (a.real, abs(a.imag)) if real else a
        if key not in rank:
            rank[key] = len(lead)
            lead.append(j)
        back.append(rank[key])
    once = alphas[lead]
    # the alphas that take their conjugate's integral, conjugated; then f
    # must be real at every node
    flip = alphas.imag != once.imag[back]
    conj = bool(flip.any())
    # the distinct panels of the windows' halves; rows panel by panel, each
    # panel's alpha in order
    plo, phi, panel_side, uses = _window_segments(windows)
    row_panel, row_of = uses[:, win[lead]].nonzero()
    vals, errs = _segment_integrals(f, plo, phi, None, row_panel, once[row_of], cfg, np.abs(once)[row_of], conj)
    # each half's panels summed in order, then left + right
    side = (row_of, panel_side[row_panel])
    halves = np.zeros((once.size, 2), dtype=complex)
    np.add.at(halves, side, vals)
    err = np.zeros((once.size, 2))
    np.add.at(err, side, errs)
    total, err = halves[:, 0] + halves[:, 1], err[:, 0] + err[:, 1]
    total, err = total[back], err[back]
    if conj:
        total[flip] = np.conj(total[flip])
    total = total + complex(f.atom_weight)
    tail = _checked_tail(g_ends, np.array(rates).T[:, win], alphas, total, ends[:, win], cfg)
    return total, err + tail


def forward_mellin(
    f: MellinFunction,
    alpha: complex,
    normalization: Normalization | None = None,
    cfg: QuadratureConfig | None = None,
) -> TransformValue:
    """Transform f at alpha against the chosen normalized measure.

    alpha must lie inside the fundamental strip declared by f
    (StripViolation otherwise). One rule (_window) sets the window in
    t = log x: cfg.truncation_bounds (DEFAULT_CONFIG's when cfg is
    omitted) widened so the tails at the declared edge rates clear
    abs_tol, cut to f's ``grid_span`` and to where f(e^t) and e^(alpha t)
    stay in the float range. The tail past it is bounded from the
    integrand at its ends and the edge rates; when that dwarfs the
    tolerance, QuadratureDivergence is raised, not a bad value returned.

    The results of mult_convolve, star_convolve and convolution_exp, and
    rule results and involutions of those, are transformed by the
    algebra's formula on their factors' transforms, each taken as above,
    so their sampling grid plays no part (``MellinFunction._transform``).
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
    value, err = _normalized(norm, alpha, complex(total), float(err))
    return TransformValue(complex(value), alpha, strip, norm, err)


def _normalized(norm: Normalization, alpha: complex, total, err):
    """The Haar value(s) total at alpha, with estimate err, under norm: (value, estimate).

    The value is m total, m = norm.multiplier(alpha); the estimate is
    |m| err plus the rounding of m. total and err may be arrays, alpha is
    one scalar: the multiplier is, and Python scalars keep a single
    transform's bytes where numpy's complex product and modulus may
    round otherwise.
    """
    m = norm.multiplier(alpha)
    return m * total, abs(m) * err + abs(total) * norm.roundoff(alpha, m)


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
    there. Each half-line is mapped to s in [0, 1) by |t| = T s / (1 - s),
    so the kernel's nodes crowd at t = 0 and past T rather than at both
    ends of [0, T]; nodes past T (s > 1/2) add 0 and never reach g. The
    two half-lines are two rows of one kernel call, and g gets both rows'
    nodes at once. Returns (value, estimate); the discarded tails are the
    caller's to bound.
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

    def half_lines(s, rows):
        # row 0 is t <= 0 and row 1 is t >= 0; both rows hold the same nodes
        s = s[: s.size // rows.size]
        cut = s <= 0.5
        u = s[cut]
        v = 1.0 - u
        t = T * u / v
        out = np.zeros((rows.size, s.size), dtype=complex)
        vals = g(np.concatenate([t if r else -t for r in rows.tolist()]))
        out[:, cut] = np.reshape(vals, (rows.size, -1)) * (T / (v * v))
        return out.ravel()

    try:
        vals, errs = _tanh_sinh(half_lines, [0.0, 0.0], [1.0, 1.0], cfg)
    except QuadratureDivergence as e:
        # the kernel names the row's interval in s; name the half-line in t
        line = f"[{-T:g}, 0]" if e.row == 0 else f"[0, {T:g}]"
        raise QuadratureDivergence(str(e).replace("[0, 1]", line)) from None
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
    dpole, pole = norm.nearest_pole(alpha)
    continued = dpole < _POLE_WINDOW
    if continued and abs(pole - 1.0) < 0.5:
        raise NormalizationPole(
            "no continuation across alpha = 1: the multiplier pole meets a genuine transform pole there"
        )
    # 0 * inf cancellation at a pole: the product of multiplier and loop
    # integral is holomorphic, so its value at alpha is its mean (mode 0)
    # on a small circle around alpha, with the circle rule's aliasing
    # estimate on top of the points' own.
    ring = _circle(alpha, _CONTINUATION_RADIUS, _CONTINUATION_POINTS) if continued else np.array([alpha])
    # The loop runs in along the positive axis from +inf to the radius r
    # above the cut, circles the origin counterclockwise, and returns to
    # +inf below the cut, where z^alpha gains e^(2 pi i alpha): the loop is
    # (e^(2 pi i alpha) - 1) I_ray + I_arc, the ray taken in u = log x over
    # [log r, log _RAY_LENGTH] (in x, the rounding of the nodes next to r
    # outgrows the estimate at small r). The rays, then the arcs, of r and
    # of the check loop of radius r / 2, each at every alpha of the ring,
    # are the rows of one kernel call.
    n, log_r, t_end = ring.size, np.log([contour.radius, contour.radius / 2.0]), math.log(_RAY_LENGTH)
    vals, errs = _segment_integrals(f, np.r_[log_r, 0.0, 0.0], np.r_[t_end, t_end, 2.0 * math.pi, 2.0 * math.pi],
                                    np.r_[math.nan, math.nan, log_r], np.arange(4).repeat(n), np.tile(ring, 4), cfg)
    # the ray and arc parts, each (radii, alphas)
    (i_ray, i_arc), (e_ray, e_arc) = (a.reshape(2, 2, n) for a in (vals, errs))
    jump = np.exp(2j * np.pi * ring) - 1.0
    loop = jump * i_ray + i_arc
    # the ray's integrand at its end bounds its tail, as a window's does,
    # at the rate of f's order at infinity (1 where that is infinite)
    _, end = _end_sizes(f, np.array([[t_end]]), ring, np.zeros(n, int))
    rate = f.order_at_infinity - ring.real if math.isfinite(f.order_at_infinity) else np.ones(n)
    tail = _checked_tail(np.abs(jump) * end, rate[None], ring, loop, (log_r[:, None], t_end), cfg)
    # aligned with the real-axis transform, whose branch shifts arg z by -pi
    phase = np.exp(-1j * np.pi * ring)
    total, est = phase * loop, np.abs(phase) * (np.abs(jump) * e_ray + tail + e_arc)
    for j, a in enumerate(ring.tolist()):
        total[:, j], est[:, j] = _normalized(norm, a, total[:, j], est[:, j])
    if continued:
        (value, v2), alias = _circle_mode(total, 0)
        err, e2 = est.mean(axis=1) + alias
    else:
        (value, v2), (err, e2) = total[:, 0], est[:, 0]
    drift = abs(value - v2)
    if drift > max(1e-7, 50.0 * (err + e2)):
        raise ContourDependence(f"contour value moved by {drift:.3e} when the arc radius was halved")
    strip = FundamentalStrip(-math.inf, f.order_at_infinity)
    return TransformValue(complex(value), alpha, strip, norm, float(max(err, drift)), continued)
