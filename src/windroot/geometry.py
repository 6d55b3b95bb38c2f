"""Convex plane regions and the angular-sector machinery.

Regions are convex polygons with counterclockwise vertex order (plus a
distinguished empty region).  This module measures their axis-aligned
diameters, cuts them with horizontal/vertical lines offset from the
midline between supporting lines, parameterizes their border by arc
length, and classifies nonzero complex values into the eight half-open
sectors of angle pi/4 used by the winding-number tests.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import SingularPointError

__all__ = [
    "SIN_PI_8",
    "ConvexRegion",
    "EMPTY",
    "BoundaryCurve",
    "diam_h",
    "diam_v",
    "diam_rect",
    "envelope",
    "contains",
    "cut",
    "boundary",
    "sector_of",
    "connected",
    "net_crossings",
]

# Sine of half the sector angle pi/4.  Two non-connected sectors are
# separated by more than pi/4, so a chord seen from the origin under that
# angle has length at least 2*sin(pi/8) times the nearer endpoint's
# modulus; every singularity guarantee downstream rests on this constant.
SIN_PI_8 = math.sin(math.pi / 8.0)

# Cross products at vertices inserted by cut() carry double-precision
# rounding noise; convexity validation tolerates this much, relative to
# the adjacent edge lengths.
_CONVEXITY_RTOL = 1e-9
# Cut parts thinner than this fraction of the parent's diam_rect (in the
# cut direction) collapse to the empty region, and vertices closer than
# this are merged.
_SLIVER_RTOL = 1e-14
# Sort key of a complex number: real part first, then imaginary part.
_LEXICOGRAPHIC = operator.attrgetter("real", "imag")


@dataclass(frozen=True)
class ConvexRegion:
    """Convex polygon with vertices in counterclockwise order.

    The empty region is represented by an empty vertex tuple (see the
    module constant ``EMPTY``); all its diameters are zero.  Nonempty
    regions need at least three pairwise-distinct consecutive vertices,
    counterclockwise orientation, and convexity (collinear vertices are
    tolerated, reflex ones are not).
    """

    vertices: tuple[complex, ...]

    def __post_init__(self):
        vertices = tuple(map(complex, self.vertices))
        if not all(map(cmath.isfinite, vertices)):
            bad = next(v for v in vertices if not cmath.isfinite(v))
            raise ValueError(f"non-finite vertex {bad!r}")
        object.__setattr__(self, "vertices", vertices)
        if not vertices:
            return
        if len(vertices) < 3:
            raise ValueError("a nonempty region needs at least 3 vertices")
        # One pass over the edges, from vertex i to i+1 for i = 0, 1, ...:
        # e2 is the current edge, e1 the one before it.  The area is summed
        # relative to the first vertex (untranslated, the products of
        # coordinates far larger than the polygon swamp it), in that order.
        origin = prev = vertices[0]
        a = prev - origin
        e1 = origin - vertices[-1]
        area2 = 0.0
        turns = []  # (cross product, e1, e2) at each vertex turning clockwise
        for v in vertices[1:] + vertices[:1]:
            e2 = v - prev
            if not e2:
                raise ValueError(f"repeated consecutive vertex {prev!r}")
            b = v - origin
            area2 += a.real * b.imag - b.real * a.imag
            cross = e1.real * e2.imag - e1.imag * e2.real
            if cross < 0.0:
                turns.append((cross, e1, e2))
            prev, a, e1 = v, b, e2
        if area2 <= 0.0:
            raise ValueError("vertices must wind counterclockwise")
        for cross, e1, e2 in turns:
            if cross < -_CONVEXITY_RTOL * abs(e1) * abs(e2):
                raise ValueError("polygon is not convex")

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @classmethod
    def from_json(cls, data: dict) -> "ConvexRegion":
        """Build from ``{"vertices": [[x, y], ...]}`` or ``{"rect": [x0, y0, x1, y1]}``.

        Data whose numbers cannot be read raises ValueError "malformed
        region JSON: ..."; numbers that form no valid region keep the
        geometric refusal (zero width, too few vertices, ...).
        """
        try:
            rect = "rect" in data
            if rect:
                x0, y0, x1, y1 = (float(c) for c in data["rect"])
            else:
                vertices = tuple(complex(float(x), float(y)) for x, y in data["vertices"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed region JSON: {exc}") from exc
        if rect:
            x0, x1 = min(x0, x1), max(x0, x1)
            y0, y1 = min(y0, y1), max(y0, y1)
            if x0 == x1 or y0 == y1:
                raise ValueError("rectangle has zero width or height")
            vertices = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
        return cls(vertices)


EMPTY = ConvexRegion(())


def diam_h(region: ConvexRegion) -> float:
    """Horizontal diameter: distance between the vertical supporting lines."""
    if region.is_empty:
        return 0.0
    xs = [v.real for v in region.vertices]
    return max(xs) - min(xs)


def diam_v(region: ConvexRegion) -> float:
    """Vertical diameter: distance between the horizontal supporting lines."""
    if region.is_empty:
        return 0.0
    ys = [v.imag for v in region.vertices]
    return max(ys) - min(ys)


def diam_rect(region: ConvexRegion) -> float:
    """Rectangular diameter sqrt(diam_h^2 + diam_v^2); bounds the classical one."""
    return math.hypot(diam_h(region), diam_v(region))


def envelope(region: ConvexRegion) -> tuple[float, float, float, float]:
    """Axis-aligned envelope (x0, y0, x1, y1) of a nonempty region."""
    if region.is_empty:
        raise ValueError("empty region has no envelope")
    xs = [v.real for v in region.vertices]
    ys = [v.imag for v in region.vertices]
    return min(xs), min(ys), max(xs), max(ys)


def contains(region: ConvexRegion, z: complex, tol: float = 0.0) -> bool:
    """True iff ``z`` is within signed distance ``-tol`` of every edge's inside."""
    if region.is_empty:
        return False
    vs = region.vertices
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        e = b - a
        cross = e.real * (z.imag - a.imag) - e.imag * (z.real - a.real)
        if cross < -tol * abs(e):
            return False
    return True


def _finish_part(
    raw: list[complex], horizontal: bool, parent_dr: float
) -> ConvexRegion:
    """Merge near-coincident vertices and collapse slivers to EMPTY."""
    tol = _SLIVER_RTOL * parent_dr
    pts: list[complex] = []
    for p in raw:
        if pts and abs(p - pts[-1]) <= tol:
            continue
        pts.append(p)
    while len(pts) >= 2 and abs(pts[0] - pts[-1]) <= tol:
        pts.pop()
    if len(pts) < 3:
        return EMPTY
    coords = [p.imag if horizontal else p.real for p in pts]
    if max(coords) - min(coords) < tol:
        return EMPTY
    return ConvexRegion(tuple(pts))


def cut(
    region: ConvexRegion, axis: str, lam: float
) -> tuple[ConvexRegion, ConvexRegion]:
    """Split by the line at signed distance ``lam`` from the region's midline.

    ``axis="horizontal"`` cuts along y = midline + lam and returns
    (top, bottom); ``axis="vertical"`` cuts along x = midline + lam and
    returns (left, right).  The midline lies halfway between the two
    supporting lines perpendicular to the cut axis.  The parts partition
    the region up to the shared cut segment (shared vertices are
    bit-identical); a part that degenerates is the empty region.  One
    pair of coordinate lists gives the cut level and the parent's
    ``diam_rect``, which sets the tolerance for merging vertices and for
    collapsing slivers.
    """
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    if region.is_empty:
        return EMPTY, EMPTY
    horizontal = axis == "horizontal"
    vs = region.vertices
    xs = [v.real for v in vs]
    ys = [v.imag for v in vs]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    level = ((y0 + y1) if horizontal else (x0 + x1)) / 2.0 + lam
    parent_dr = math.hypot(x1 - x0, y1 - y0)  # diam_rect(region)
    ds = [c - level for c in (ys if horizontal else xs)]

    upper: list[complex] = []  # y >= level side (top), or x >= level (right)
    lower: list[complex] = []  # y <= level side (bottom), or x <= level (left)
    for a, b, da, db in zip(vs, vs[1:] + vs[:1], ds, ds[1:] + ds[:1]):
        if da >= 0.0:
            upper.append(a)
        if da <= 0.0:
            lower.append(a)
        if (da > 0.0 > db) or (da < 0.0 < db):
            t = da / (da - db)
            if horizontal:
                p = complex(a.real + t * (b.real - a.real), level)
            else:
                p = complex(level, a.imag + t * (b.imag - a.imag))
            upper.append(p)
            lower.append(p)

    up = _finish_part(upper, horizontal, parent_dr)
    lo = _finish_part(lower, horizontal, parent_dr)
    return (up, lo) if horizontal else (lo, up)


class BoundaryCurve:
    """Unit-speed counterclockwise traversal of a polygon border.

    The parameter runs over ``[0, perimeter]``, starting and ending —
    exactly — at the lexicographically smallest vertex.  Evaluation at a
    vertex parameter returns that vertex bit-exactly; between vertices it
    interpolates linearly, so ``|G(t2) - G(t1)| <= t2 - t1`` up to
    rounding.  ``vertex_params`` lists every vertex parameter including
    both endpoints 0 and ``perimeter``; ``points`` lists the vertices in
    the same order, the closing duplicate of the start included.

    ``edges[i]`` is the i-th edge in traversal order as ``(c, a, length,
    d)``: its start parameter, start vertex, length and direction
    ``end - a``.  At a parameter t strictly inside it the curve is
    ``a + ((t - c) / length) * d``, the arithmetic of ``__call__``, so a
    caller that knows a parameter's edge can compute its point without
    the range check and the search.
    """

    __slots__ = ("region", "perimeter", "edges", "vertex_params", "points")

    def __init__(self, region: ConvexRegion):
        if region.is_empty:
            raise ValueError("empty region has no boundary curve")
        vs = region.vertices
        start = vs.index(min(vs, key=_LEXICOGRAPHIC))
        pts = vs[start:] + vs[:start] + (vs[start],)
        ds = list(map(operator.sub, pts[1:], pts))
        lens = list(map(abs, ds))
        cum = tuple(accumulate(lens, initial=0.0))
        self.region = region
        self.points = pts
        self.vertex_params = cum
        self.perimeter = cum[-1]
        self.edges = tuple(zip(cum, pts, lens, ds))

    def __call__(self, t: float) -> complex:
        if not 0.0 <= t <= self.perimeter:
            raise ValueError(f"parameter {t!r} outside [0, {self.perimeter!r}]")
        if t == 0.0 or t == self.perimeter:
            return self.points[0]
        c, a, length, d = self.edges[bisect_right(self.vertex_params, t) - 1]
        s = t - c
        if s == 0.0:
            return a
        return a + (s / length) * d

    def __repr__(self) -> str:
        return (
            f"BoundaryCurve(perimeter={self.perimeter!r}, "
            f"vertices={len(self.region.vertices)})"
        )


def boundary(region: ConvexRegion) -> BoundaryCurve:
    """Arc-length parameterization of a nonempty region's border."""
    return BoundaryCurve(region)


def sector_of(w: complex) -> int:
    """Index k in 0..7 with arg(w) in [k*pi/4, (k+1)*pi/4), arg taken in [0, 2*pi).

    Decided by sign tests and exact coordinate comparisons only, so
    boundary rays classify deterministically with no trigonometry.
    Raises SingularPointError for w = 0.
    """
    x, y = w.real, w.imag
    if x == 0.0 and y == 0.0:
        raise SingularPointError()
    if not cmath.isfinite(w):
        raise ValueError(f"cannot classify non-finite value {w!r}")
    if x > 0.0 and 0.0 <= y < x:
        return 0
    if x > 0.0 and y >= x:
        return 1
    if x <= 0.0 and y > -x:
        return 2
    if y > 0.0 and y <= -x:
        return 3
    if x < 0.0 and x < y <= 0.0:
        return 4
    if x < 0.0 and y <= x:
        return 5
    if y < 0.0 and 0.0 <= x < -y:
        return 6
    return 7  # remaining case: y < 0 and x >= -y


def connected(ka: int, kb: int) -> bool:
    """True iff sectors ka, kb are equal or adjacent modulo 8."""
    return (ka - kb) % 8 in (0, 1, 7)


def net_crossings(sectors) -> int:
    """Signed crossing count over consecutive pairs of a closed sector sequence.

    A step from sector 7 to sector 0 counts +1, from 0 to 7 counts -1;
    all other (connected) steps count 0.  The sequence must already close
    on itself (first element equals last).
    """
    total = 0
    for a, b in zip(sectors, sectors[1:]):
        if a == 7 and b == 0:
            total += 1
        elif a == 0 and b == 7:
            total -= 1
    return total
