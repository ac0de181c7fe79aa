"""Frobenius-manifold data of genus-0/1 branched coverings of the sphere.

Given a rational or elliptic covering map with prescribed pole profile, the
package computes the canonical coordinates (finite critical values), the
flat coordinates, the quadratic Hamiltonians of the associated isomonodromic
system, the isomonodromic tau-function by two independent closed-form
routes, and the G-function with its scaling anomaly.  Every differential
identity tying these together can be verified numerically: with exact
derivatives in the canonical coordinates, or through the finite-difference
deformation engine that serves as their reference.
"""

from .cover0 import Covering0, Pole
from .cover1 import Covering1
from .elliptic import Modulus, WeierstrassContext
from .errors import (
    CausticWarning,
    CoincidentPointsError,
    CommonRootError,
    ContourClashError,
    CountMismatchError,
    HurwitzError,
    IllConditionedError,
    LatticePointError,
    NearPoleError,
    NoCriticalPointsError,
    NonConvergenceError,
    OnBoundaryError,
    SlopeUnstableError,
)
from .isomon import (
    Analysis,
    IsomonodromyData,
    analyze,
    bergmann_values,
    build_isomonodromy,
    exact_lambda_derivatives,
    identity_report,
    lambda_derivatives,
)
from .poly import CPoly, RootSet, all_roots, resultant
from .samples import builtin_example, random_covering0, random_covering1

__version__ = "0.1.0"

__all__ = [
    "Covering0",
    "Covering1",
    "Pole",
    "Modulus",
    "WeierstrassContext",
    "CPoly",
    "RootSet",
    "all_roots",
    "resultant",
    "Analysis",
    "IsomonodromyData",
    "analyze",
    "bergmann_values",
    "build_isomonodromy",
    "exact_lambda_derivatives",
    "identity_report",
    "lambda_derivatives",
    "builtin_example",
    "random_covering0",
    "random_covering1",
    "HurwitzError",
    "CausticWarning",
    "CoincidentPointsError",
    "CommonRootError",
    "ContourClashError",
    "CountMismatchError",
    "IllConditionedError",
    "LatticePointError",
    "NearPoleError",
    "NoCriticalPointsError",
    "NonConvergenceError",
    "OnBoundaryError",
    "SlopeUnstableError",
]
