"""Independent reference computations for cross-checking results.

Everything here answers the same questions as the main pipeline by a
different algorithm: roots come from simultaneous Newton-style
iteration rather than subdivision, winding numbers from dense argument
accumulation rather than sector crossings, and distances/condition
numbers from direct geometry on the reference roots.  Used by the test
suite and the CLI's --verify flag; never by the solver itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, SingularSuspectedError
from .geometry import BoundaryCurve
from .poly import Polynomial

__all__ = [
    "RootList",
    "roots_reference",
    "winding_brute",
    "condition_number",
    "dist_set_curve",
    "dist_origin_curve",
    "min_image_modulus",
]

_CLUSTER_RADIUS = 1e-7
_MAX_SWEEPS = 1000
_MAX_WINDING_SAMPLES = 2**20


@dataclass(frozen=True)
class RootList:
    """All roots of a polynomial, multiplicity expressed by repetition."""

    roots: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _horner(coeffs, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _group(zs: list[complex], radius: float) -> list[list[complex]]:
    """Partition points into transitive groups at pairwise distance <= radius."""
    n = len(zs)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(zs[i] - zs[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(zs[i])
    return list(groups.values())


_POLISH_RADIUS = 1e-6


def _polish_clusters(coeffs, zs: list[complex]) -> list[complex]:
    """Snap groups of near-coincident approximations onto their common root.

    Simultaneous iteration leaves an m-fold root as m points spread at
    the square-root-of-rounding scale, which can straddle the merge
    radius.  Such a root is a simple root of the (m-1)-th derivative,
    where Newton reaches rounding level; the polished point replaces
    the group only when it does not worsen the residual on f itself.
    """
    out: list[complex] = []
    for members in _group(zs, _POLISH_RADIUS):
        m = len(members)
        if m < 2:
            out.extend(members)
            continue
        g = coeffs
        for _ in range(m - 1):
            g = tuple((k + 1) * c for k, c in enumerate(g[1:]))
        dg = tuple((k + 1) * c for k, c in enumerate(g[1:]))
        centroid = sum(members) / m
        z = centroid
        ok = False
        for _ in range(60):
            dgz = _horner(dg, z)
            if dgz == 0:
                break
            step = _horner(g, z) / dgz
            z -= step
            if abs(step) <= 4e-16 * (1.0 + abs(z)):
                ok = True
                break
        worst = max(abs(_horner(coeffs, w)) for w in members)
        if (
            ok
            and abs(z - centroid) <= _POLISH_RADIUS
            and abs(_horner(coeffs, z)) <= worst
        ):
            out.extend([z] * m)
        else:
            out.extend(members)
    return out


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
    dcoeffs = tuple((k + 1) * c for k, c in enumerate(coeffs[1:]))
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
            noise = abs(_horner(abs_coeffs, abs(z)))
            if abs(fz) <= 4.0 * n * math.ulp(noise):
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
    merged: list[complex] = []
    for members in _group(_polish_clusters(coeffs, zs), _CLUSTER_RADIUS):
        centroid = sum(members) / len(members)
        merged.extend([centroid] * len(members))
    merged.sort(key=lambda z: (z.real, z.imag))
    return RootList(tuple(merged))


def winding_brute(delta, samples: int = 4096, per: float | None = None) -> int:
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
    m = samples
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


def dist_origin_curve(
    delta,
    per: float | None = None,
    samples: int = 4096,
    rtol: float = 1e-6,
) -> float:
    """Minimum modulus along a closed curve by dense sampling.

    Doubles the resolution until two successive minima agree to ``rtol``
    relative; the sampled minimum overestimates the true one, so use
    only in checks with slack for it.
    """
    if per is None:
        per = delta.perimeter
    prev: float | None = None
    m = samples
    while True:
        current = min(abs(complex(delta(per * k / m))) for k in range(m))
        if prev is not None and abs(current - prev) <= rtol * max(current, prev):
            return min(current, prev)
        if m >= _MAX_WINDING_SAMPLES:
            return current if prev is None else min(current, prev)
        prev = current
        m *= 2


def min_image_modulus(
    f: Polynomial,
    curve: BoundaryCurve,
    samples: int = 4096,
    rtol: float = 1e-6,
) -> float:
    """Minimum of |f| along a polygon boundary, vectorized dense sampling.

    Same refinement contract as ``dist_origin_curve`` but evaluates the
    polynomial on the whole sample grid at once.
    """
    cum = np.asarray(curve.vertex_params)
    pts = np.asarray(curve.points)
    xs, ys = pts.real, pts.imag
    per = curve.perimeter
    prev: float | None = None
    m = samples
    while True:
        ts = np.linspace(0.0, per, m, endpoint=False)
        zs = np.interp(ts, cum, xs) + 1j * np.interp(ts, cum, ys)
        current = float(np.abs(np.polynomial.polynomial.polyval(zs, f.coeffs)).min())
        if prev is not None and abs(current - prev) <= rtol * max(current, prev):
            return min(current, prev)
        if m >= _MAX_WINDING_SAMPLES:
            return current if prev is None else min(current, prev)
        prev = current
        m *= 2
