"""Frobenius-manifold data of genus-0/1 branched coverings of the sphere.

Given a rational or elliptic covering map with prescribed pole profile, the
package computes the canonical coordinates (finite critical values), the
flat coordinates, the quadratic Hamiltonians of the associated isomonodromic
system, the isomonodromic tau-function by two independent closed-form
routes, and the G-function with its scaling anomaly.  Every differential
identity tying these together is verified numerically, with exact
derivatives in the canonical coordinates.
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
)
from .isomon import (
    Analysis,
    IsomonodromyData,
    analyze,
    bergmann_values,
    build_isomonodromy,
    identity_report,
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
    "identity_report",
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
]
