"""Exception hierarchy shared by all windroot modules."""

from __future__ import annotations

__all__ = [
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
]


class WindrootError(Exception):
    """Base class for every error raised by this package."""


class AccuracyBelowResolutionError(WindrootError, ValueError):
    """The accuracy asks for a guard width below the region's float resolution."""


class SingularPointError(WindrootError):
    """A curve point landed exactly on the origin, where no sector is defined."""

    def __init__(self, t: float | None = None):
        self.t = t
        where = "" if t is None else f" at parameter {t!r}"
        super().__init__(f"curve passes through the origin{where}")


class NonTerminationError(WindrootError):
    """The guard-free insertion procedure exceeded its iteration allowance."""


class NoConvergenceError(WindrootError):
    """The reference root finder failed to converge within its sweep budget."""


class SingularSuspectedError(WindrootError):
    """Brute-force winding refinement hit its sample cap without stabilizing."""


class InitialRegionSingularError(WindrootError):
    """The boundary of the requested region is too close to a root.

    Carries the boundary parameter ``t`` that triggered the error and the
    certified lower bound ``guarantee`` on the condition number of the
    boundary curve.
    """

    def __init__(self, t: float, guarantee: float):
        self.t = t
        self.guarantee = guarantee
        super().__init__(
            f"region boundary is singular near parameter t={t!r} "
            f"(condition number is at least {guarantee!r}); "
            "enlarge or shift the region"
        )


class SubdivisionFailedError(WindrootError):
    """No trial cut line could split a region without a singular boundary."""


class CountMismatchError(WindrootError):
    """The counts of a region's cut parts do not add up to the region's count.

    Boundary winding tests disagree with each other, so one of them
    returned a wrong count: an internal failure, not bad input and not a
    missing cut line.
    """


class InternalSolverError(WindrootError):
    """A geometry or winding step refused its arguments during subdivision.

    The input passed ``rdp``'s up-front checks, so a ``ValueError`` from
    cutting a region or testing a part's boundary is an internal failure,
    not bad input; the message names the level and the region envelope.
    """
