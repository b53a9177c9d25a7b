"""Dictionary between endpoint asymptotics and transform singularities.

A term c x^e (log x)^k in the expansion of f at 0+ corresponds to a pole
of the transform at alpha = -e of order k + 1 with principal part
A / (alpha + e)^(k+1), A = c (-1)^k k!. At infinity the same term shape
gives a pole at alpha = -e with A = c (-1)^(k+1) k!. Both maps are exact
and invert each other.

residue_asymptotics reconstructs f near an endpoint by summing residues
of transform(alpha) x^(-alpha) over the supplied poles: with the sign
convention + at 0+ (poles to the left of the strip) and - at infinity
(poles to the right). Residues are computed by trapezoid quadrature on
small circles, with a radius-halving stability check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResidueInstability
from .mellin_core import _circle, _circle_mode, _eval_vector, _require_finite

__all__ = [
    "AsymptoticSeries",
    "SingularExpansion",
    "singular_from_asymptotic",
    "asymptotic_from_singular",
    "residue_asymptotics",
]

_SIDES = ("zero", "infinity")


def _check_side(side: str) -> str:
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    return side


@dataclass(frozen=True)
class AsymptoticSeries:
    """Terms (exponent, log_power, coefficient) of f at one endpoint.

    Each term is coefficient * x^exponent * (log x)^log_power, valid as
    x -> 0+ (side "zero") or x -> inf (side "infinity");
    remainder_order is the exponent scale of the first omitted term.
    """

    terms: tuple[tuple[complex, int, complex], ...]
    remainder_order: float
    side: str = "zero"

    def __post_init__(self) -> None:
        _check_side(self.side)
        for _, k, _ in self.terms:
            if k < 0:
                raise ValueError("log powers must be >= 0")


@dataclass(frozen=True)
class SingularExpansion:
    """Poles (location, log_order, coefficient) of a transform.

    A term (p, k, A) stands for the principal part A / (alpha - p)^(k+1);
    side records which endpoint of the function these poles encode.
    """

    terms: tuple[tuple[complex, int, complex], ...]
    side: str = "zero"

    def __post_init__(self) -> None:
        _check_side(self.side)
        for _, k, _ in self.terms:
            if k < 0:
                raise ValueError("log orders must be >= 0")


def singular_from_asymptotic(series: AsymptoticSeries) -> SingularExpansion:
    """Map endpoint terms to transform poles (exactly)."""
    sgn = 1.0 if series.side == "zero" else -1.0
    out = []
    for e, k, c in series.terms:
        A = complex(c) * (-1.0) ** k * math.factorial(k) * sgn
        out.append((-complex(e), int(k), A))
    return SingularExpansion(terms=tuple(out), side=series.side)


def asymptotic_from_singular(
    expansion: SingularExpansion, max_terms: int | None = None
) -> AsymptoticSeries:
    """Map transform poles back to endpoint terms (exact inverse).

    Terms come out ordered by growth at the endpoint (ascending exponent
    real part on the zero side, descending at infinity); max_terms
    truncates after sorting. remainder_order is the next exponent scale
    past the kept terms.
    """
    sgn = 1.0 if expansion.side == "zero" else -1.0
    terms = []
    for p, k, A in expansion.terms:
        c = complex(A) * (-1.0) ** k / math.factorial(k) * sgn
        terms.append((-complex(p), int(k), c))
    rev = expansion.side == "infinity"
    terms.sort(key=lambda t: complex(t[0]).real, reverse=rev)
    if max_terms is not None:
        terms = terms[:max_terms]
    if terms:
        last = complex(terms[-1][0]).real
        remainder = last + 1.0 if not rev else last - 1.0
    else:
        remainder = 0.0
    return AsymptoticSeries(terms=tuple(terms), remainder_order=remainder, side=expansion.side)


_RESIDUE_NODES = 64
_STABILITY_TOL = 1e-8


def _circle_residue(transform, pole: complex, rho: float, x: float) -> complex:
    """Residue of transform(z) x^(-z) at the pole, radius-rho circle: rho times mode -1."""
    z = _circle(pole, rho, _RESIDUE_NODES)
    tv = np.asarray(_eval_vector(transform, z), dtype=complex)
    mode, _ = _circle_mode(tv * np.exp(-z * math.log(x)), -1)
    return complex(rho * mode)


def residue_asymptotics(
    transform,
    poles,
    x: float,
    side: str = "zero",
) -> complex:
    """Sum of residues of transform(alpha) x^(-alpha) over the poles.

    Approximates f(x) near the endpoint: + sum on the zero side, - sum
    at infinity. Each residue is checked at half radius; drift beyond
    tolerance raises ResidueInstability. The transform must be analytic
    on the circles (radius is capped by half the pole separation). A
    pole listed twice, a non-finite pole and a non-finite x raise
    ValueError.
    """
    _check_side(side)
    if not 0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x}")
    poles = [complex(p) for p in poles]
    _require_finite(np.array(poles, dtype=complex), "poles")
    total = 0.0 + 0.0j
    for p in poles:
        if poles.count(p) > 1:
            raise ValueError(f"pole {p} is listed twice")
        others = [abs(p - q) for q in poles if q != p]
        rho = min(0.3, 0.4 * min(others)) if others else 0.3
        r1 = _circle_residue(transform, p, rho, x)
        r2 = _circle_residue(transform, p, rho / 2.0, x)
        if abs(r1 - r2) > _STABILITY_TOL * max(1.0, abs(r1)):
            raise ResidueInstability(
                f"residue at {p} moved by {abs(r1 - r2):.3e} between radii "
                f"{rho:g} and {rho / 2:g}"
            )
        total += r2
    return total if side == "zero" else -total
