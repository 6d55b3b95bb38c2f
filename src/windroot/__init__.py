"""Certified root isolation for complex polynomials in convex plane regions.

The root count inside a region is read off the winding number of the
polynomial image of its boundary, sampled adaptively with explicit
singularity guards; regions are then subdivided with root-avoiding
shifted cuts until every remaining piece is smaller than the requested
accuracy.  Every emitted box carries the exact number of roots it
contains, counted with multiplicity.
"""

from .errors import (
    AccuracyBelowResolutionError,
    CountMismatchError,
    InitialRegionSingularError,
    InternalSolverError,
    NonTerminationError,
    NoConvergenceError,
    SingularPointError,
    SingularSuspectedError,
    SubdivisionFailedError,
    WindrootError,
)
from .geometry import (
    SIN_PI_8,
    BoundaryCurve,
    ConvexRegion,
    boundary,
    connected,
    contains,
    cut,
    diam_h,
    diam_rect,
    diam_v,
    envelope,
    net_crossings,
    sector_of,
)
from .poly import EvalCounter, Polynomial, derivative, eval, lipschitz_bound
from .rdp import (
    RdpStats,
    RootBox,
    choose_q,
    divide,
    pe_budget,
    pe_budget_sharp,
    rdp,
)
from .winding import (
    Normal,
    SampleArray,
    SingularError,
    WindingOutcome,
    initial_samples,
    ip,
    ips,
    ipsr,
    pred_p,
    pred_q,
    pred_q2,
    pred_r,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "WindrootError",
    "AccuracyBelowResolutionError",
    "SingularPointError",
    "NonTerminationError",
    "NoConvergenceError",
    "SingularSuspectedError",
    "InitialRegionSingularError",
    "SubdivisionFailedError",
    "CountMismatchError",
    "InternalSolverError",
    "Polynomial",
    "EvalCounter",
    "eval",
    "derivative",
    "lipschitz_bound",
    "ConvexRegion",
    "SIN_PI_8",
    "BoundaryCurve",
    "boundary",
    "connected",
    "contains",
    "cut",
    "diam_h",
    "diam_v",
    "diam_rect",
    "envelope",
    "net_crossings",
    "sector_of",
    "SampleArray",
    "WindingOutcome",
    "Normal",
    "SingularError",
    "pred_p",
    "pred_q",
    "pred_q2",
    "pred_r",
    "ip",
    "ips",
    "ipsr",
    "initial_samples",
    "RootBox",
    "RdpStats",
    "choose_q",
    "divide",
    "rdp",
    "pe_budget",
    "pe_budget_sharp",
]
