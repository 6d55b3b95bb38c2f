"""Recursive subdivision of a convex region into certified root boxes.

The driver counts the roots inside the region from its boundary winding
number, then recursively quarters the region — one horizontal cut, then
one vertical cut per half that holds roots — until every piece that
still holds roots is smaller than the requested accuracy.  ``divide``
returns each part that a cut leaves, with its count: a part that
degenerates is ``None`` from ``cut`` and is dropped there.  Only parts
that count roots are divided again.  Cut lines are shifted away from
the midline in fixed trial steps whenever a root sits close enough to
make the boundary winding test fail, so every accepted piece has a
certified count.  One counter meters the run's polynomial evaluations,
which the closed-form evaluation budgets refer to, and holds its only
memo, a two-level window of boundary samples that ``rdp`` ages after
each level (see ``EvalCounter``): each window miss is one evaluation.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .errors import (
    AccuracyBelowResolutionError,
    CountMismatchError,
    InitialRegionSingularError,
    InternalSolverError,
    SubdivisionFailedError,
)
from .geometry import (
    SIN_PI_8,
    BoundaryCurve,
    ConvexRegion,
    boundary,
    cut,
    diam_rect,
    envelope,
)
from .poly import EvalCounter, Polynomial, _majorant
from .winding import SingularError, WindingOutcome, initial_samples, ipsr

__all__ = [
    "RootBox",
    "RdpStats",
    "choose_q",
    "divide",
    "rdp",
    "pe_budget",
    "pe_budget_sharp",
]

_SQRT2 = math.sqrt(2.0)
_HALF_RANGE = math.ldexp(1.0, 1023)


class RootBox(Frozen):
    """A subregion certified to contain ``count`` roots, with multiplicity."""

    __slots__ = ("region", "count")

    def __init__(self, region: ConvexRegion, count: int):
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "count", count)
        if count < 1:
            raise ValueError("a root box must hold at least one root")


class RdpStats:
    """Instrumentation of one run.

    ``pe`` is the number of metered polynomial evaluations (one per
    sample-window miss, a point evaluated again included), ``budget``
    the closed-form ``pe_budget``, which the tests check on regions a few
    units wide at accuracy 1e-3; it is not a bound at every scale (see
    ``pe_budget``).
    ``visited`` lists every (level, region) the recursion examined, in
    level order: the initial region, then each part ``divide`` returns,
    including a part that counts no roots and so is not divided again; a
    half of a region that counts no roots appears whole, not as two
    quarters.  ``ipsr_calls`` holds one (perimeter, q,
    insertions) triple per boundary winding test, and ``offsets`` every
    accepted cut-line offset: one for the horizontal cut of each divided
    region and one per vertical cut, so 2 or 3 per region that holds
    roots.  ``RdpStats()`` takes no arguments: each field starts at zero
    or empty, and the run fills it in.
    """

    __slots__ = ("pe", "budget", "visited", "ipsr_calls", "offsets")

    def __init__(self):
        self.pe = 0
        self.budget = 0.0
        self.visited: list[tuple[int, ConvexRegion]] = []
        self.ipsr_calls: list[tuple[float, float, int]] = []
        self.offsets: list[float] = []

    @property
    def max_level(self) -> int:
        """The deepest level examined: that of the last ``visited`` entry, or 0."""
        return self.visited[-1][0] if self.visited else 0


def choose_q(accuracy: float, n0: int, n: int) -> float:
    """Largest guard width that keeps the shifted-cut search terminating.

    Equals accuracy * sin(pi/8) / (4*sqrt(2)*n0*n); linear in the
    accuracy, decreasing in the root count and the degree.
    """
    return accuracy * SIN_PI_8 / (4.0 * _SQRT2 * n0 * n)


def pe_budget(n0: int, n: int, accuracy: float, dr_p: float) -> float:
    """Simplified certified bound on metered evaluations for a whole run.

    30*n0*n/accuracy + 21*n0*n*(lg2(dr_p/accuracy) + 2), where dr_p is
    the rectangular diameter of the initial region.  Monotone decreasing
    in the accuracy.

    Not a bound at every scale: scaling the region, the roots and the
    accuracy together leaves ``pe`` about where it is, while the first
    term scales with 1/accuracy.  z - (5+125i) on [0, 10] x [100, 150]
    at accuracy 1 takes ``pe`` 245 against a budget of 191.1.
    """
    return 30.0 * n0 * n / accuracy + 21.0 * n0 * n * (
        math.log2(dr_p / accuracy) + 2.0
    )


def pe_budget_sharp(n0: int, n: int, accuracy: float, dr_p: float) -> float:
    """Sharper form of the evaluation budget; always below the simplified one.

    8*sqrt(2)*n0*n/(accuracy*sin(pi/8)) +
    (4+sqrt(2))*sqrt(2)*n0*n/sin(pi/8) * (lg2(dr_p/accuracy) + 2).
    """
    levels = math.log2(dr_p / accuracy) + 2.0
    return (
        8.0 * _SQRT2 * n0 * n / (accuracy * SIN_PI_8)
        + (4.0 + _SQRT2) * _SQRT2 * n0 * n / SIN_PI_8 * levels
    )


def _boundary_test(
    curve: BoundaryCurve, f: Polynomial, q: float, ctr: EvalCounter, stats: RdpStats
) -> WindingOutcome:
    """Run the boundary winding test on ``curve`` and append it to ``stats.ipsr_calls``."""
    outcome = ipsr(curve, f, initial_samples(curve), q, ctr)
    stats.ipsr_calls.append((curve.perimeter, q, outcome.insertions))
    return outcome


def divide(
    region: ConvexRegion,
    f: Polynomial,
    q: float,
    n0: int,
    ctr: EvalCounter,
    stats: RdpStats,
) -> list[tuple[ConvexRegion, int]]:
    """Split a region by one horizontal cut and a vertical cut per half with roots.

    Returns (part, count) pairs for the parts that exist, in the order
    top-right, top-left, bottom-right, bottom-left, with each part's
    root count at guard width ``q``; the counts sum to the region's own.
    A half whose boundary test counts no roots is not cut again: it
    comes back whole in its place, with count 0.  Each cut is made at
    the first root-free trial line.
    Trial offsets from the midline are 0, +2EQ, -2EQ, +4EQ, -4EQ, ... with
    E = n/sin(pi/8), n the degree of ``f``; a line is accepted when the
    boundary winding test returns normally on both parts, tested in
    order; a part that ``cut`` gives as ``None`` (the line lies beyond
    the region's side, or leaves only a sliver) is skipped, with no test
    and no pair.  Every boundary test is appended to ``stats.ipsr_calls``
    and every accepted offset to ``stats.offsets``.  At most n0+2 offsets
    are tried per cut, ``n0`` the initial region's root count; exhausting
    them raises SubdivisionFailedError.
    """
    step = 2.0 * f.degree / SIN_PI_8 * q

    def split(reg: ConvexRegion, axis: str) -> list[tuple[ConvexRegion, int]]:
        for k in range(n0 + 2):
            lam = 0.0 if k == 0 else math.ceil(k / 2) * step * (1 if k % 2 else -1)
            tested = []
            for part in cut(reg, axis, lam):
                if part is None:
                    continue
                outcome = _boundary_test(boundary(part), f, q, ctr, stats)
                if isinstance(outcome, SingularError):
                    break
                tested.append((part, outcome.index))
            else:
                stats.offsets.append(lam)
                return tested
        raise SubdivisionFailedError(
            f"no root-free {axis} cut line after {n0 + 2} trial offsets "
            f"(region envelope {envelope(reg)})"
        )

    pairs = []
    for half, count in split(region, "horizontal"):
        pairs += reversed(split(half, "vertical")) if count else [(half, count)]
    return pairs


def _check_resolution(curve: BoundaryCurve, q: float) -> None:
    """Raise ValueError unless the perimeter is finite, every edge spans u and q >= 4u.

    u = max(ulp(perimeter), ulp(c)), c the largest coordinate modulus,
    bounds the spacing of parameters and coordinates on this curve and
    on every part cut from it later; a shorter edge can give two
    vertices one parameter.  ``ipsr`` rounds a midpoint by at most u/2,
    so a gap of 2u still splits; as the test ends once a left half is no
    wider than q, every pair it creates and then splits is wider than
    q - u.  Points are computed to about u.  So q >= 4u keeps every
    split pair wider than 3u, with distinct samples in order, and the
    gap guard fires before bisection reaches float resolution.  A q
    below 4u raises AccuracyBelowResolutionError.  A perimeter that
    overflows makes u infinite, which no accuracy or edge can meet, so it
    is refused first, as a plain ValueError.  So is a region whose
    largest coordinate modulus c or perimeter reaches 2**1023: the
    solver adds two coordinates (a cut's midline) and two boundary
    parameters (a bisection midpoint), and below 2**1023 each such sum
    stays finite.
    """
    if not curve.perimeter < math.inf:
        raise ValueError("the region's perimeter overflows double precision; shrink the region")
    c = max(max(abs(v.real), abs(v.imag)) for v in curve.points)
    if c >= _HALF_RANGE or curve.perimeter >= _HALF_RANGE:
        raise ValueError(
            "the region's largest coordinate or perimeter reaches 2**1023, where a "
            f"sum of two overflows double precision (largest coordinate {c!r}, "
            f"perimeter {curve.perimeter!r}); shrink the region or move it nearer the origin"
        )
    u = max(math.ulp(curve.perimeter), math.ulp(c))
    ts = curve.vertex_params
    span = min(b - a for a, b in zip(ts, ts[1:]))
    if span < u:
        raise ValueError(
            f"the shortest region edge spans {span!r} in the boundary parameter, "
            f"below its resolution {u!r} (perimeter {curve.perimeter!r}, largest "
            f"coordinate {c!r}); lengthen the edge or move the region nearer the origin"
        )
    if q < 4.0 * u:
        raise AccuracyBelowResolutionError(
            f"guard width {q!r} lies below 4 ulp ({u!r}) of the "
            f"region (perimeter {curve.perimeter!r}, largest coordinate {c!r}); "
            "raise the accuracy, or shrink the region or move it nearer the origin"
        )


def _check_range(f: Polynomial, region: ConvexRegion) -> None:
    """Raise ValueError unless 4*n*S is finite, S = sum |a_k| max(R, 1)^k.

    R, the largest vertex modulus, bounds |z| on the convex region, so S
    bounds |f| and f's Horner partial sums there, and n*S bounds the
    coefficients k*a_k of f', |f'| and its partial sums.  Each part of a
    Horner product acc*z is a sum of two real products whose moduli add
    up to at most |acc||z| (Cauchy-Schwarz), so no exact intermediate
    exceeds n*S; rounding adds a factor below 1 + gamma_4n < 2 (Higham,
    section 5.1), and the same factor covers the rounding of S itself.
    """
    r = max(max(abs(v) for v in region.vertices), 1.0)
    bound = f.degree * _majorant(tuple(abs(c) for c in f.coeffs), r)
    if not math.isfinite(4.0 * bound):
        raise ValueError(
            "polynomial values overflow double precision on the region "
            f"(degree * sum |a_k| r^k at r = {r!r} exceeds a quarter of the "
            "largest float); scale the coefficients, or shrink the region "
            "or move it nearer the origin"
        )


def rdp(
    region: ConvexRegion, f: Polynomial, accuracy: float
) -> tuple[list[RootBox], RdpStats]:
    """Isolate every root of ``f`` inside ``region`` in boxes smaller than ``accuracy``.

    With a = min(accuracy, diam_rect(region)), so that a coarser accuracy
    returns the region as one box, counts the roots n0 inside the region
    at the guard width choose_q(a, n, n), n the degree, then subdivides
    level by level at choose_q(a, n0, n).  Returns the boxes sorted by
    envelope center together with run statistics.  Raises, besides
    ValueError on bad input (up front for values that could overflow, a
    perimeter that overflows or an edge below float resolution, see
    ``_check_range`` and ``_check_resolution``):
    AccuracyBelowResolutionError before any evaluation when the first
    width is below float resolution;
    InitialRegionSingularError when a root sits too close to the border;
    SubdivisionFailedError when no trial line cuts a region or the depth
    limit is reached; and the internal failures CountMismatchError (n0
    outside [0, n], or cut parts that do not account for a region's
    roots or count fewer than none), NonTerminationError, and
    InternalSolverError for a ValueError raised while dividing a region.
    """
    n = f.degree
    if n < 1:
        raise ValueError("a constant polynomial has no roots to isolate")
    if not 0 < accuracy < math.inf:
        raise ValueError("accuracy must be positive and finite")

    ctr = EvalCounter()
    stats = RdpStats()
    curve = boundary(region)
    dr = diam_rect(region)
    a = min(accuracy, dr)
    q = choose_q(a, n, n)
    _check_resolution(curve, q)
    _check_range(f, region)
    outcome = _boundary_test(curve, f, q, ctr, stats)
    if isinstance(outcome, SingularError):
        raise InitialRegionSingularError(outcome.t, outcome.guarantee)
    n0 = outcome.index
    if not 0 <= n0 <= n:
        raise CountMismatchError(
            f"initial boundary test counts {n0} roots for degree {n} "
            f"(region envelope {envelope(region)})"
        )
    stats.budget = pe_budget(max(n0, 1), n, a, dr)
    stats.visited.append((0, region))
    if n0 == 0:
        stats.pe = ctr.evaluations
        return [], stats

    q = choose_q(a, n0, n)  # n0 < n widens the guard
    depth_limit = max(math.ceil(math.log2(dr / accuracy)), 0) + 2

    boxes: list[RootBox] = []
    frontier: list[tuple[ConvexRegion, int]] = [(region, n0)]
    level = 0
    while frontier:
        next_frontier: list[tuple[ConvexRegion, int]] = []
        for reg, cnt in frontier:
            width = diam_rect(reg)
            if width < accuracy:
                # The count computed when this piece was created is
                # reused; recounting would repeat identical evaluations
                # and return the same value.
                boxes.append(RootBox(reg, cnt))
                continue
            if level >= depth_limit:
                raise SubdivisionFailedError(
                    f"region still wider than the accuracy at level {level} "
                    f"(diam_rect {width!r} >= {accuracy!r})"
                )
            try:
                pairs = divide(reg, f, q, n0, ctr, stats)
            except ValueError as exc:
                raise InternalSolverError(
                    f"{exc} (level {level}, region envelope {envelope(reg)})"
                ) from exc
            counts = [c for _, c in pairs]
            if sum(counts) != cnt:
                raise CountMismatchError(
                    f"cut parts account for {sum(counts)} roots "
                    f"but the region holds {cnt} "
                    f"(level {level}, region envelope {envelope(reg)})"
                )
            if min(counts) < 0:
                raise CountMismatchError(
                    f"a cut part counts {min(counts)} roots "
                    f"(level {level}, region envelope {envelope(reg)})"
                )
            for part, c in pairs:
                stats.visited.append((level + 1, part))
                if c > 0:
                    next_frontier.append((part, c))
        frontier = next_frontier
        level += 1
        ctr.next_level()

    def _center(box: RootBox) -> tuple[float, float]:
        x0, y0, x1, y1 = envelope(box.region)
        return (x0 + x1) / 2.0, (y0 + y1) / 2.0

    boxes.sort(key=_center)
    stats.pe = ctr.evaluations
    return boxes, stats
