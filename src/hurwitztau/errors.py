"""Exception and warning types shared across the package."""

from __future__ import annotations


class HurwitzError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergenceError(HurwitzError):
    """Simultaneous root iteration stalled; the instance is ill-conditioned."""


class LatticePointError(HurwitzError):
    """Evaluation point is too close to a lattice point."""


class NearPoleError(HurwitzError):
    """Evaluation point is too close to a pole of the covering map."""


class ContourClashError(HurwitzError):
    """No admissible integration contour could be found."""


class NoCriticalPointsError(HurwitzError):
    """The covering has no critical points (moduli dimension M = 0)."""


class CountMismatchError(HurwitzError):
    """The critical divisor misses the pole divisor modulo the lattice (genus-1 route B)."""


class OnBoundaryError(HurwitzError):
    """Covering data sits on a boundary component of the moduli space.

    ``component`` is ``"S1"`` (coincident poles) or ``"S2"`` (vanishing top
    Laurent coefficient); ``indices`` names the offending poles.
    """

    def __init__(self, component: str, indices: tuple[int, ...], message: str = ""):
        self.component = component
        self.indices = indices
        super().__init__(message or f"on boundary {component}, poles {indices}")


class CommonRootError(HurwitzError):
    """Numerator and denominator of p' share a root (boundary degeneracy)."""


class IllConditionedError(HurwitzError):
    """Deformation Jacobian is too ill-conditioned to invert."""


class SlopeUnstableError(HurwitzError):
    """Log-log slope fit residual exceeded the stability threshold."""


class CoincidentPointsError(HurwitzError):
    """Kernel evaluation requested at coincident points."""


class CausticWarning(UserWarning):
    """Critical values nearly collide; derived quantities blow up smoothly.

    The critical data records the caustic as its ``caustic`` flag and never
    warns; ``isomon.sweep_ratios`` alone raises this, as an exception, for a
    segment that reaches the caustic.
    """
