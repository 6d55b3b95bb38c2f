"""Certified root isolation for complex polynomials in convex plane regions.

The root count inside a region is read off the winding number of the
polynomial image of its boundary, sampled adaptively with explicit
singularity guards; regions are then subdivided with root-avoiding
shifted cuts until every remaining piece is smaller than the requested
accuracy.  Every emitted box carries the exact number of roots it
contains, counted with multiplicity.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those lists.  ``windroot.rdp`` is the solver
function, which the star import binds over the submodule of that name.
"""

from . import errors, geometry, poly, rdp, winding

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *geometry.__all__,
    *poly.__all__,
    *rdp.__all__,
    *winding.__all__,
]

from .errors import *  # noqa: E402, F403
from .geometry import *  # noqa: E402, F403
from .poly import *  # noqa: E402, F403
from .rdp import *  # noqa: E402, F403
from .winding import *  # noqa: E402, F403
