"""Convex plane regions and the angular-sector machinery.

Regions are convex polygons with counterclockwise vertex order and at
least three vertices; there is no empty region.  This module measures
their axis-aligned diameters, cuts them with horizontal/vertical lines
offset from the midline between supporting lines (a part that
degenerates is ``None``), parameterizes their border by arc length, and
classifies nonzero complex values into the eight half-open sectors of
angle pi/4 used by the winding-number tests; one table, ``_CONNECTED_STEPS``,
says which sector pairs are connected and which cross between 7 and 0.

A cut part reaches its boundary test in one pass per step: ``cut`` reads
the parent's ``envelope`` once, for the cut level and the merge
tolerance, and merges and measures each part in the part's own list;
``ConvexRegion`` checks the part in one pass over its edges;
``BoundaryCurve`` takes one pass over the vertices for its start and one
over the edges for each edge's start parameter, length and direction;
and ``winding.initial_samples`` and ``winding.ipsr`` each walk the vertex
parameters once (see there).  Where two steps compute an edge's vector
or length, they do it by the same subtraction, so both get the same
float.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right

from ._frozen import Frozen
from .errors import SingularPointError

__all__ = [
    "SIN_PI_8",
    "ConvexRegion",
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

# The differences ka - kb of sectors in 0..7 that are equal or adjacent
# modulo 8, each mapped to its crossing: +1 for 7->0, -1 for 0->7.
# ``connected``, ``net_crossings`` and ``winding.ipsr`` all read it.
_CONNECTED_STEPS = {-7: -1, -1: 0, 0: 0, 1: 0, 7: 1}

# Cross products at vertices inserted by cut() carry double-precision
# rounding noise; convexity validation tolerates this much, relative to
# the adjacent edge lengths.
_CONVEXITY_RTOL = 1e-9
# Cut parts thinner than this fraction of the parent's diam_rect (in the
# cut direction) degenerate to None, and vertices closer than this are
# merged.
_SLIVER_RTOL = 1e-14


class ConvexRegion(Frozen):
    """Convex polygon with vertices in counterclockwise order.

    Every region needs at least three pairwise-distinct consecutive
    vertices, counterclockwise orientation, and convexity (collinear
    vertices are tolerated, reflex ones are not); an empty vertex list is
    refused like any other short one, so every function that takes a
    region gets a real polygon.  Construction stores ``vertices``, any
    iterable of finite numbers, as a tuple of complex and checks the rest
    in one pass over the edges, for cut parts too.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vertices = tuple(map(complex, vertices))
        if not all(map(cmath.isfinite, vertices)):
            bad = next(v for v in vertices if not cmath.isfinite(v))
            raise ValueError(f"non-finite vertex {bad!r}")
        object.__setattr__(self, "vertices", vertices)
        if len(vertices) < 3:
            raise ValueError("a region needs at least 3 vertices")
        # One pass over the edges, from vertex i to i+1 for i = 0, 1, ...:
        # e2 is the current edge, e1 the one before it.  The area is summed
        # relative to the first vertex (untranslated, the products of
        # coordinates far larger than the polygon swamp it), in that order,
        # from a = v_i - origin and b = v_{i+1} - origin.  Each vector's
        # coordinates are read once and carried to the next vertex.
        origin = prev = vertices[0]
        ax = ay = 0.0  # a at vertex 0
        e1 = origin - vertices[-1]
        e1x, e1y = e1.real, e1.imag
        area2 = 0.0
        turns = []  # (cross product, tolerance) at each vertex turning clockwise
        for v in vertices[1:] + vertices[:1]:
            e2 = v - prev
            if not e2:
                raise ValueError(f"repeated consecutive vertex {prev!r}")
            b = v - origin
            bx, by = b.real, b.imag
            area2 += ax * by - bx * ay
            e2x, e2y = e2.real, e2.imag
            cross = e1x * e2y - e1y * e2x
            if not cross >= 0.0:  # NaN too: inf - inf where the products overflowed
                try:
                    tol = _CONVEXITY_RTOL * abs(e1) * abs(e2)
                except OverflowError:  # |e| beyond float range from finite parts
                    tol = math.inf
                turns.append((cross, tol))
            prev, ax, ay = v, bx, by
            e1, e1x, e1y = e2, e2x, e2y
        overflow = not -math.inf < area2 < math.inf or not all(tol < math.inf for _, tol in turns)
        if overflow or area2 < 2.0**-900:
            # The products may have underflowed (a square of side 1e-165
            # sums to 0) or overflowed (an arrow of side 1e160 gives an
            # infinite tolerance, which no cross product falls below), so
            # check the offsets from the first vertex scaled by the power of
            # two that brings the largest into [0.5, 1), where they are
            # exact: that region's own checks stand for this one's.  ldexp
            # scales each coordinate, as the factor itself overflows for
            # subnormal extents.  On overflow the vertices are halved first
            # (exact but in the last bit of a subnormal coordinate), so that
            # an offset across the float range stays finite.
            h = 0.5 if overflow else 1.0
            offsets = [h * v - h * origin for v in vertices]
            k = -math.frexp(max(max(abs(b.real), abs(b.imag)) for b in offsets))[1]
            if k > 0 or overflow:
                ConvexRegion([complex(math.ldexp(b.real, k), math.ldexp(b.imag, k)) for b in offsets])
                return
        if area2 <= 0.0:
            raise ValueError("vertices must wind counterclockwise")
        for cross, tol in turns:
            if cross < -tol:
                raise ValueError("polygon is not convex")

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
                x0, y0, x1, y1 = json_reals(data["rect"])
            else:
                vertices = tuple(complex(x, y) for x, y in map(json_reals, data["vertices"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed region JSON: {exc}") from exc
        if rect:
            x0, x1 = min(x0, x1), max(x0, x1)
            y0, y1 = min(y0, y1), max(y0, y1)
            if x0 == x1 or y0 == y1:
                raise ValueError("rectangle has zero width or height")
            vertices = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
        return cls(vertices)


def json_reals(values) -> list[float]:
    """A JSON list of numbers as floats; each must be an int or a float, not a bool."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{values!r} is not a list of numbers")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"could not convert {x!r} to a number")
    return [float(x) for x in values]


def diam_h(region: ConvexRegion) -> float:
    """Horizontal diameter: distance between the vertical supporting lines."""
    xs = [v.real for v in region.vertices]
    return max(xs) - min(xs)


def diam_v(region: ConvexRegion) -> float:
    """Vertical diameter: distance between the horizontal supporting lines."""
    ys = [v.imag for v in region.vertices]
    return max(ys) - min(ys)


def diam_rect(region: ConvexRegion) -> float:
    """Rectangular diameter sqrt(diam_h^2 + diam_v^2); bounds the classical one."""
    x0, y0, x1, y1 = envelope(region)
    return math.hypot(x1 - x0, y1 - y0)


def envelope(region: ConvexRegion) -> tuple[float, float, float, float]:
    """Axis-aligned envelope (x0, y0, x1, y1) of a region.

    One pass over the vertices; each bound is the first vertex coordinate
    that attains it, as ``min`` and ``max`` would return.
    """
    vs = region.vertices
    x0 = x1 = vs[0].real
    y0 = y1 = vs[0].imag
    for v in vs:
        x = v.real
        if x < x0:
            x0 = x
        elif x > x1:
            x1 = x
        y = v.imag
        if y < y0:
            y0 = y
        elif y > y1:
            y1 = y
    return x0, y0, x1, y1


def contains(region: ConvexRegion, z: complex, tol: float = 0.0) -> bool:
    """True iff ``z`` is within signed distance ``-tol`` of every edge's inside."""
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
    pts: list[complex], horizontal: bool, tol: float
) -> ConvexRegion | None:
    """Merge near-coincident vertices in ``pts`` itself; return None for a sliver.

    A vertex within ``tol`` of the last one kept is dropped, and so is a
    last vertex within ``tol`` of the first.  A part left with fewer than
    three vertices, or thinner than ``tol`` across the cut line, is a
    sliver.
    """
    kept = 0
    for p in pts:
        if abs(p - pts[kept]) > tol:
            kept += 1
            pts[kept] = p
    del pts[kept + 1 :]
    while len(pts) >= 2 and abs(pts[0] - pts[-1]) <= tol:
        pts.pop()
    if len(pts) < 3:
        return None
    # The part's extent across the cut line, in one pass.
    lo = hi = pts[0].imag if horizontal else pts[0].real
    for p in pts:
        c = p.imag if horizontal else p.real
        if c < lo:
            lo = c
        elif c > hi:
            hi = c
    if hi - lo < tol:
        return None
    return ConvexRegion(pts)


def cut(
    region: ConvexRegion, axis: str, lam: float
) -> tuple[ConvexRegion | None, ConvexRegion | None]:
    """Split by the line at signed distance ``lam`` from the region's midline.

    ``axis="horizontal"`` cuts along y = midline + lam and returns
    (top, bottom); ``axis="vertical"`` cuts along x = midline + lam and
    returns (left, right).  The midline lies halfway between the two
    supporting lines perpendicular to the cut axis.  The parts partition
    the region up to the shared cut segment (shared vertices are
    bit-identical); a part that degenerates, such as the far side of a
    line beyond a supporting line, is ``None``.  The parent's envelope,
    read once, gives the cut level and the parent's ``diam_rect``, which
    sets the tolerance for merging vertices and for dropping slivers.  A
    NaN ``lam`` raises ValueError: no vertex lies on either side of a NaN
    line, so both parts would drop the region.
    """
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    if math.isnan(lam):
        raise ValueError("cut offset lam must not be NaN")
    vs = region.vertices
    horizontal = axis == "horizontal"
    x0, y0, x1, y1 = envelope(region)
    level = ((y0 + y1) if horizontal else (x0 + x1)) / 2.0 + lam
    tol = _SLIVER_RTOL * math.hypot(x1 - x0, y1 - y0)  # of diam_rect(region)
    if horizontal:
        ds = [v.imag - level for v in vs]
    else:
        ds = [v.real - level for v in vs]

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

    up = _finish_part(upper, horizontal, tol)
    lo = _finish_part(lower, horizontal, tol)
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

    Construction takes one pass over the vertices, for the start, and
    one over the edges, for each edge's direction, length and start
    parameter.  The region's own check subtracts the same vertices and
    keeps nothing: holding its edge vectors for the curve would cost
    memory for every region a run keeps and save no time.
    """

    __slots__ = ("region", "perimeter", "edges", "vertex_params", "points")

    def __init__(self, region: ConvexRegion):
        vs = region.vertices
        start = 0  # index of the lexicographically smallest vertex (lx, ly)
        lx, ly = vs[0].real, vs[0].imag
        for i, v in enumerate(vs):
            x = v.real
            if x < lx or x == lx and v.imag < ly:
                start, lx, ly = i, x, v.imag
        pts = vs[start:] + vs[: start + 1]
        # One pass over the edges: direction, length and start parameter,
        # the parameter summed edge by edge from 0.
        c = 0.0
        cum = [c]
        edges = []
        a = pts[0]
        for b in pts[1:]:
            d = b - a
            try:
                length = abs(d)
            except OverflowError:  # |d| beyond float range from finite parts
                length = math.inf
            edges.append((c, a, length, d))
            c += length
            cum.append(c)
            a = b
        self.region = region
        self.points = pts
        self.vertex_params = tuple(cum)
        self.perimeter = c
        self.edges = tuple(edges)

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
    """Arc-length parameterization of a region's border."""
    return BoundaryCurve(region)


def sector_of(w: complex) -> int:
    """Index k in 0..7 with arg(w) in [k*pi/4, (k+1)*pi/4), arg taken in [0, 2*pi).

    Raises SingularPointError for w = 0, ValueError for a non-finite w.
    Then three exact steps decide, with no trigonometry: w = x + iy with
    y < 0, or y = 0 > x, is negated (k = 4); one with x <= 0 is turned to
    (y, -x) (k += 2); the result is k + 1 if y >= x, else k.  Negation is
    exact, so boundary rays, signed zeros and subnormals keep their sector.
    """
    x, y = w.real, w.imag
    if x == 0.0 and y == 0.0:
        raise SingularPointError()
    if not cmath.isfinite(w):
        raise ValueError(f"cannot classify non-finite value {w!r}")
    k = 0
    if y < 0.0 or y == 0.0 and x < 0.0:
        x, y, k = -x, -y, 4
    if x <= 0.0:
        x, y, k = y, -x, k + 2
    return k + 1 if y >= x else k


def connected(ka: int, kb: int) -> bool:
    """True iff sectors ka, kb in 0..7 are equal or adjacent modulo 8."""
    return ka - kb in _CONNECTED_STEPS


def net_crossings(sectors) -> int:
    """Signed crossing count over consecutive pairs of a closed sector sequence.

    Sectors must lie in 0..7.  A step from sector 7 to sector 0 (a
    difference of 7 in ``_CONNECTED_STEPS``) counts +1, from 0 to 7 (-7)
    counts -1; all other steps count 0.  The sequence must already close
    on itself (first element equals last).
    """
    return sum(_CONNECTED_STEPS.get(a - b, 0) for a, b in zip(sectors, sectors[1:]))
