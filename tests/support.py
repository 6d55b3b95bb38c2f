"""Seeded generators, small checks and a dense sampler shared across the test suite."""

from __future__ import annotations

import cmath
import math
import random
from itertools import accumulate

import numpy as np

from windroot import (
    BoundaryCurve,
    ConvexRegion,
    Polynomial,
    SingularError,
    SubdivisionFailedError,
    boundary,
    contains,
    cut,
    envelope,
)
from windroot.geometry import SIN_PI_8
from windroot.oracle import _MAX_WINDING_SAMPLES, _RTOL, _SAMPLES, RootList, dist_set_curve
from windroot.rdp import _boundary_test


def poly_from_roots(roots, lead: complex = 1 + 0j) -> Polynomial:
    """Expand lead * prod(z - r) into ascending coefficients."""
    cs = [complex(lead)]
    for r in roots:
        nxt = [0j] * (len(cs) + 1)
        for k, c in enumerate(cs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        cs = nxt
    return Polynomial(tuple(cs))


def random_roots(
    rng: random.Random, n: int, *, box: float = 2.0, min_sep: float = 0.3
) -> list[complex]:
    """n points of [-box, box]^2, pairwise at least min_sep apart."""
    roots: list[complex] = []
    while len(roots) < n:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(z - r) >= min_sep for r in roots):
            roots.append(z)
    return roots


def random_lead(rng: random.Random) -> complex:
    """Leading coefficient with modulus in [0.5, 2] and random phase."""
    return rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def rect(x0: float, y0: float, x1: float, y1: float) -> ConvexRegion:
    return ConvexRegion.from_json({"rect": [x0, y0, x1, y1]})


def random_rect_clear_of(
    rng: random.Random, roots, *, margin: float = 0.05, tries: int = 500
) -> ConvexRegion:
    """Axis-aligned rectangle whose boundary stays >= margin from every root."""
    zs = RootList(tuple(roots))
    for _ in range(tries):
        x0 = rng.uniform(-3.0, 2.0)
        y0 = rng.uniform(-3.0, 2.0)
        region = rect(x0, y0, x0 + rng.uniform(0.5, 3.5), y0 + rng.uniform(0.5, 3.5))
        if dist_set_curve(zs, boundary(region)) >= margin:
            return region
    raise AssertionError("could not place a rectangle clear of the roots")


def random_instance(rng: random.Random, *, margin: float = 0.05):
    """(f, roots, region): degree 2..10, roots in [-2,2]^2, clear rectangle."""
    roots = random_roots(rng, rng.randint(2, 10))
    f = poly_from_roots(roots, random_lead(rng))
    region = random_rect_clear_of(rng, roots, margin=margin)
    return f, roots, region


def random_convex_polygon(rng: random.Random, k: int | None = None) -> ConvexRegion:
    """Convex polygon with k vertices inscribed in a random ellipse."""
    if k is None:
        k = rng.randint(3, 9)
    while True:
        angles = sorted(rng.uniform(0.0, 2 * math.pi) for _ in range(k))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2 * math.pi - (angles[-1] - angles[0]))
        if min(gaps) > 0.05:
            break
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.5, 3.0)
    cx = rng.uniform(-2.0, 2.0)
    cy = rng.uniform(-2.0, 2.0)
    return ConvexRegion(
        tuple(complex(cx + a * math.cos(t), cy + b * math.sin(t)) for t in angles)
    )


def inside_count(roots, region: ConvexRegion) -> int:
    """Roots strictly inside the region, counted with repetition."""
    return sum(1 for r in roots if contains(region, r, 0.0))


def le_rel(a: float, b: float, rtol: float = 1e-12) -> bool:
    """a <= b up to relative slack on the larger magnitude."""
    return a <= b + rtol * max(abs(a), abs(b))


def min_image_modulus(f: Polynomial, curve: BoundaryCurve) -> float:
    """Minimum of |f| along a polygon boundary, vectorized dense sampling.

    Same refinement contract as ``dist_origin_curve`` but evaluates the
    polynomial on the whole sample grid at once.
    """
    cum = np.asarray(curve.vertex_params)
    pts = np.asarray(curve.points)
    xs, ys = pts.real, pts.imag
    per = curve.perimeter
    prev: float | None = None
    m = _SAMPLES
    while True:
        ts = np.linspace(0.0, per, m, endpoint=False)
        zs = np.interp(ts, cum, xs) + 1j * np.interp(ts, cum, ys)
        current = float(np.abs(np.polynomial.polynomial.polyval(zs, f.coeffs)).min())
        if prev is not None and abs(current - prev) <= _RTOL * max(current, prev):
            return min(current, prev)
        if m >= _MAX_WINDING_SAMPLES:
            return current if prev is None else min(current, prev)
        prev = current
        m *= 2


def reference_curve(vertices: tuple[complex, ...]):
    """(points, vertex_params, edges) of a region's boundary curve, from its
    vertex tuple alone: start at the lexicographically smallest vertex, each
    edge ``(c, a, length, d)`` with d = end - a and length = |d|, and the
    vertex parameters as the running sum of the lengths from 0."""
    start = min(range(len(vertices)), key=lambda i: (vertices[i].real, vertices[i].imag))
    points = vertices[start:] + vertices[:start] + (vertices[start],)
    ds = [b - a for a, b in zip(points, points[1:])]
    lengths = [abs(d) for d in ds]
    cum = tuple(accumulate(lengths, initial=0.0))
    return points, cum, tuple(zip(cum, points, lengths, ds))


def reference_initial_samples(cum: tuple[float, ...]) -> list[float]:
    """The vertex parameters ``cum``, each gap wider than perimeter/8 split
    into ceil(gap / (perimeter/8)) equal pieces, gap = c1 - c0."""
    target = cum[-1] / 8.0
    params = [0.0]
    for c0, c1 in zip(cum, cum[1:]):
        gap = c1 - c0
        if gap > target:
            pieces = math.ceil(gap / target)
            params.extend(c0 + gap * (k / pieces) for k in range(1, pieces))
        params.append(c1)
    return params


def reference_sector_of(w: complex) -> int:
    """Sector index of a finite nonzero ``w`` by eight half-open range tests,
    one per sector [k*pi/4, (k+1)*pi/4), each written out on its own."""
    x, y = w.real, w.imag
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


def float_bits(value):
    """``value`` with every float and complex part as its exact hex string,
    through tuples and lists: -0.0 differs from 0.0, NaN compares equal."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, (tuple, list)):
        return [float_bits(v) for v in value]
    return value


def reference_divide(region, f, q, n0, ctr, stats):
    """``rdp.divide`` as it was before a half that counts no roots stayed
    whole: both halves of the horizontal cut are cut vertically, whatever
    their counts, with the same trial offsets, boundary tests and records.
    Returns the same (part, count) pairs for the parts that exist, top-right,
    top-left, bottom-right, bottom-left."""
    step = 2.0 * f.degree / SIN_PI_8 * q

    def split(reg, axis):
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
    for half, _ in split(region, "horizontal"):
        pairs += reversed(split(half, "vertical"))
    return pairs
