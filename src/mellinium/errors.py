"""Error taxonomy for the Mellin engine.

Every failure mode that callers are expected to branch on gets its own
exception class. All of them derive from :class:`MelliniumError`, so a
bare ``except MelliniumError`` catches any numerical or contract failure
raised by this package without swallowing programming errors.
"""

from __future__ import annotations

__all__ = [
    "MelliniumError",
    "StripViolation",
    "QuadratureDivergence",
    "NormalizationPole",
    "GammaPole",
    "InconsistentDeclaration",
    "InsufficientDecay",
    "SlowContourDecay",
    "ContourDependence",
    "AnalyticityFailure",
    "EmptyResultStrip",
    "SideConditionViolation",
    "EmptyStripIntersection",
    "DivergentStage",
    "NotPositiveDefinite",
    "SpectrumCollision",
    "ConvergenceDomain",
    "ZeroDeterminant",
    "ResidueInstability",
    "CoincidentPoints",
    "DivergentRoute",
    "PoleAtOne",
]


class MelliniumError(Exception):
    """Base class for all engine errors."""


class StripViolation(MelliniumError):
    """Evaluation point lies outside the fundamental strip."""


class QuadratureDivergence(MelliniumError):
    """Quadrature failed to converge or the tail does not decay in the window."""


class NormalizationPole(MelliniumError):
    """The normalization multiplier has a pole at the requested point."""


class GammaPole(NormalizationPole):
    """Gamma itself requested at one of its poles 0, -1, -2, ..."""


class InconsistentDeclaration(MelliniumError):
    """Declared decay orders disagree with the fitted ones."""


class InsufficientDecay(MelliniumError):
    """Probe data never stabilizes to a power law."""


class SlowContourDecay(MelliniumError):
    """Contour integrand does not fall below tolerance inside the window."""


class ContourDependence(MelliniumError):
    """A contour-deformation invariance check failed."""


class AnalyticityFailure(MelliniumError):
    """Numerical Cauchy-Riemann check failed inside the strip."""


class EmptyResultStrip(MelliniumError):
    """A strip map produced an empty strip."""


class SideConditionViolation(MelliniumError):
    """A rule's side condition (parameter domain) is violated."""


class EmptyStripIntersection(MelliniumError):
    """Convolution factors have no common strip."""


class DivergentStage(MelliniumError):
    """A convolution-power stage blew past the magnitude guard."""


class NotPositiveDefinite(MelliniumError):
    """Operator is not Hermitian positive definite."""


class SpectrumCollision(MelliniumError):
    """A resolvent shift collides with an eigenvalue."""


class ConvergenceDomain(MelliniumError):
    """Parameters leave the convergence domain of a formula, or its value the float range."""


class ZeroDeterminant(MelliniumError):
    """Determinant vanishes, no power or phase can be assigned."""


class ResidueInstability(MelliniumError):
    """Residue value changed between contour radii beyond tolerance."""


class CoincidentPoints(MelliniumError):
    """Heat-kernel problem posed at coincident points."""


class DivergentRoute(MelliniumError):
    """The requested computational route diverges for these parameters."""


class PoleAtOne(MelliniumError):
    """Zeta evaluation requested at its pole."""
