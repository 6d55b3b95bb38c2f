"""Independent reference computations for cross-checking results.

Everything here answers the same questions as the main pipeline by a
different algorithm: roots come from simultaneous Newton-style
iteration rather than subdivision, winding numbers from dense argument
accumulation rather than sector crossings, and distances/condition
numbers from direct geometry on the reference roots.  Used by the test
suite and the CLI's --verify flag; never by the solver itself.  Plain
Python like the rest of the package: the vectorized |f| sampler that the
tests hold against ``dist_origin_curve`` lives with the tests.
"""

from __future__ import annotations

import cmath
import math

from ._frozen import Frozen
from .errors import NoConvergenceError, SingularSuspectedError
from .geometry import BoundaryCurve, ConvexRegion, contains
from .poly import Polynomial, _horner, _horner_floor, derivative

__all__ = [
    "RootList",
    "roots_reference",
    "count_bounds",
    "winding_brute",
    "condition_number",
    "dist_set_curve",
    "dist_origin_curve",
]

_CLUSTER_RADIUS = 1e-7
_MAX_SWEEPS = 1000
_MAX_WINDING_SAMPLES = 2**20
_SAMPLES = 4096  # first resolution of the dense samplers, doubled each round
_RTOL = 1e-6  # relative agreement of successive sampled minima that ends them


class RootList(Frozen):
    """All roots of a polynomial, multiplicity expressed by repetition.

    ``radii`` (empty when unknown) pairs each root with the radius of a
    disk about it; the disks together hold every true root, as
    ``count_bounds`` assumes.
    """

    __slots__ = ("roots", "radii")

    def __init__(self, roots: tuple[complex, ...], radii: tuple[float, ...] = ()):
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _group(n: int, near) -> list[list[int]]:
    """Partition indices 0..n-1 into the transitive closure of ``near(i, j)``.

    Each group lists its indices in increasing order.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if near(i, j):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


_POLISH_RADIUS = 1e-6


def _polish_clusters(f: Polynomial, zs: list[complex]) -> list[tuple[complex, int]]:
    """Snap groups of near-coincident approximations onto their common root.

    Simultaneous iteration leaves an m-fold root as m points spread at
    the square-root-of-rounding scale, which can straddle the merge
    radius.  Such a root is a simple root of the (m-1)-th derivative,
    where Newton reaches rounding level; the polished point replaces
    the group only when it does not worsen the residual on f itself.
    Returns (point, index into ``zs``) pairs, group by group.
    """
    out: list[tuple[complex, int]] = []
    for idx in _group(len(zs), lambda i, j: abs(zs[i] - zs[j]) <= _POLISH_RADIUS):
        members = [zs[i] for i in idx]
        m = len(members)
        if m < 2:
            out.extend(zip(members, idx))
            continue
        g = f
        for _ in range(m - 1):
            g = derivative(g)
        dg = derivative(g)
        centroid = sum(members) / m
        z = centroid
        ok = False
        for _ in range(60):
            dgz = _horner(dg.coeffs, z)
            if dgz == 0:
                break
            step = _horner(g.coeffs, z) / dgz
            z -= step
            if abs(step) <= 4e-16 * (1.0 + abs(z)):
                ok = True
                break
        worst = max(abs(_horner(f.coeffs, w)) for w in members)
        if (
            ok
            and abs(z - centroid) <= _POLISH_RADIUS
            and abs(_horner(f.coeffs, z)) <= worst
        ):
            out.extend((z, i) for i in idx)
        else:
            out.extend(zip(members, idx))
    return out


def _inclusion_radii(coeffs, abs_coeffs, zs: list[complex]) -> list[float]:
    """Radii n*|W_j| of disks about the approximations that hold every root.

    W_j = f(z_j) / (a_n * prod_{k != j} (z_j - z_k)) is the Weierstrass
    correction.  The disks |z - z_j| <= n*|W_j| together hold all n
    roots, and a connected union of m of them that meets no other disk
    holds exactly m (Braess and Hadeler).  |f(z_j)| is raised by the
    Horner rounding floor at which the iteration freezes, so that the
    radius also covers the rounding of the computed residual; a
    coincident pair of approximations gets an infinite radius.
    """
    n = len(zs)
    radii: list[float] = []
    for j, z in enumerate(zs):
        denom = coeffs[-1]
        for k, zk in enumerate(zs):
            if k != j:
                denom *= z - zk
        residual = abs(_horner(coeffs, z)) + _horner_floor(abs_coeffs, abs(z))
        radii.append(n * residual / abs(denom) if denom != 0 else math.inf)
    return radii


def roots_reference(f: Polynomial) -> RootList:
    """All n roots of ``f`` by simultaneous iteration from circular guesses.

    Each approximation is driven by a Newton correction repelled by the
    other approximations, so the set converges to all roots at once.
    Multiple roots converge to a tight cluster; points closer than 1e-7
    are merged into their centroid, repeated with the cluster size.
    Raises NoConvergenceError after 1000 sweeps without stabilizing, or
    when an approximation is not finite.
    """
    n = f.degree
    if n < 1:
        raise ValueError("a constant polynomial has no roots")
    coeffs = f.coeffs
    dcoeffs = derivative(f).coeffs
    abs_coeffs = tuple(abs(c) for c in coeffs)
    # Fujiwara's bound 2*max_k |a_(n-k)/a_n|^(1/k), with the a_0 term
    # halved, encloses every root.  Unlike the Cauchy radius
    # 1 + max|a_k/a_n| it does not grow like a coefficient, so z**n stays
    # finite at the initial guesses of high-degree polynomials.
    lead = coeffs[-1]
    terms = [abs(coeffs[n - k] / lead) ** (1.0 / k) for k in range(1, n)]
    terms.append(abs(coeffs[0] / (2.0 * lead)) ** (1.0 / n))
    radius = 2.0 * max(terms) or 1.0

    # Deterministic, deliberately asymmetric guesses: symmetric starts
    # stall on symmetric root sets.
    zs = [
        radius
        * (0.65 + 0.2 * math.cos(3.7 * j))
        * cmath.exp(2j * math.pi * (j + 0.37) / n)
        for j in range(n)
    ]

    for _ in range(_MAX_SWEEPS):
        done = True
        new_zs: list[complex] = []
        for j, z in enumerate(zs):
            fz = _horner(coeffs, z)
            # Evaluation is meaningless below Horner's rounding floor,
            # which scales with sum(|a_k||z|^k); freezing there lets
            # multiple roots settle well inside the cluster radius.
            if abs(fz) <= _horner_floor(abs_coeffs, abs(z)):
                new_zs.append(z)
                continue
            dfz = _horner(dcoeffs, z)
            if dfz == 0:
                # Critical point: nudge off it and keep sweeping.
                new_zs.append(z + 1e-6 * (1 + abs(z)))
                done = False
                continue
            w = fz / dfz
            repel = sum(1.0 / (z - zk) for k, zk in enumerate(zs) if k != j)
            denom = 1.0 - w * repel
            step = w if denom == 0 else w / denom
            if abs(step) > 1e-14 * (1.0 + abs(z)):
                done = False
            new_zs.append(z - step)
        zs = new_zs
        if done:
            break
    else:
        raise NoConvergenceError(
            f"root iteration did not stabilize in {_MAX_SWEEPS} sweeps"
        )
    # A non-finite approximation passes the step test above unnoticed.
    if not all(cmath.isfinite(z) for z in zs):
        raise NoConvergenceError("root iteration produced a non-finite value")

    # Merge clusters (multiple roots) into centroids with multiplicity.
    # A centroid's radius covers the inclusion disks of its members.
    radii = _inclusion_radii(coeffs, abs_coeffs, zs)
    polished = _polish_clusters(f, zs)
    points = [z for z, _ in polished]
    merged: list[tuple[complex, float]] = []
    near = lambda i, j: abs(points[i] - points[j]) <= _CLUSTER_RADIUS
    for idx in _group(len(points), near):
        centroid = sum(points[i] for i in idx) / len(idx)
        raw = [polished[i][1] for i in idx]
        radius = max(abs(centroid - zs[j]) + radii[j] for j in raw)
        merged.extend([(centroid, radius)] * len(idx))
    merged.sort(key=lambda zr: (zr[0].real, zr[0].imag))
    return RootList(tuple(z for z, _ in merged), tuple(r for _, r in merged))


def _depth(region: ConvexRegion, z: complex) -> float:
    """Signed distance from z to the border: positive inside, negative outside."""
    d = _dist_point_polygon(z, region.vertices)
    return d if contains(region, z) else -d


def count_bounds(roots: RootList, regions) -> list[tuple[int, int]]:
    """Bounds (lo, hi) on the number of true roots inside each region.

    The inclusion disks of ``roots`` are joined into connected
    components; a component of m disks holds exactly m roots.  ``lo``
    counts the roots of components whose disks all lie inside the
    region, ``hi`` those of components with a disk that meets it.  With
    no radii known every disk is a point.
    """
    zs = roots.roots
    radii = roots.radii or (0.0,) * len(zs)
    components = _group(
        len(zs), lambda i, j: abs(zs[i] - zs[j]) <= radii[i] + radii[j]
    )
    bounds = []
    for region in regions:
        lo = hi = 0
        for idx in components:
            disks = [(_depth(region, zs[i]), radii[i]) for i in idx]
            if all(d > r for d, r in disks):
                lo += len(idx)
            if any(d >= -r for d, r in disks):
                hi += len(idx)
        bounds.append((lo, hi))
    return bounds


def winding_brute(delta, per: float | None = None) -> int:
    """Winding number of a closed curve by dense argument accumulation.

    Sums principal-branch argument increments over uniform samples,
    doubling the resolution until two successive resolutions agree and
    every increment stays below pi/2.  Curves suspected of passing
    through the origin (resolution past 2^20 without stabilizing) raise
    SingularSuspectedError.
    """
    if per is None:
        per = delta.perimeter
    last_valid: int | None = None
    m = _SAMPLES
    while m <= _MAX_WINDING_SAMPLES:
        ws = [complex(delta(per * k / m)) for k in range(m)]
        ws.append(ws[0])
        valid = all(w != 0 for w in ws)
        if valid:
            total = 0.0
            for a, b in zip(ws, ws[1:]):
                inc = cmath.phase(b / a)
                if abs(inc) >= math.pi / 2:
                    valid = False
                    break
                total += inc
        if valid:
            ind = round(total / (2.0 * math.pi))
            if last_valid is not None and ind == last_valid:
                return ind
            last_valid = ind
        else:
            last_valid = None
        m *= 2
    raise SingularSuspectedError(
        f"winding number did not stabilize below {_MAX_WINDING_SAMPLES} samples"
    )


def _dist_point_segment(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = ab.real * ab.real + ab.imag * ab.imag
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def _dist_point_polygon(z: complex, vertices: tuple[complex, ...]) -> float:
    n = len(vertices)
    return min(
        _dist_point_segment(z, vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )


def condition_number(roots: RootList, curve: BoundaryCurve) -> float:
    """Sum over roots (with multiplicity) of inverse distances to the curve.

    A root on the curve (distance below 1e-15) makes the sum infinite.
    """
    vertices = curve.region.vertices
    total = 0.0
    for z in roots:
        d = _dist_point_polygon(z, vertices)
        if d < 1e-15:
            return math.inf
        total += 1.0 / d
    return total


def dist_set_curve(roots: RootList, curve: BoundaryCurve) -> float:
    """Distance from the root set to the curve: the closest root's distance."""
    vertices = curve.region.vertices
    return min(_dist_point_polygon(z, vertices) for z in roots)


def dist_origin_curve(delta, per: float | None = None) -> float:
    """Minimum modulus along a closed curve by dense sampling.

    Doubles the resolution from 4096 samples until two successive minima
    agree to 1e-6 relative; the sampled minimum overestimates the true
    one, so use only in checks with slack for it.
    """
    if per is None:
        per = delta.perimeter
    prev: float | None = None
    m = _SAMPLES
    while True:
        current = min(abs(complex(delta(per * k / m))) for k in range(m))
        if prev is not None and abs(current - prev) <= _RTOL * max(current, prev):
            return min(current, prev)
        if m >= _MAX_WINDING_SAMPLES:
            return current if prev is None else min(current, prev)
        prev = current
        m *= 2
