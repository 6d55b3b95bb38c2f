"""Seeded benchmark instances with known roots.

Every instance is a polynomial expanded from roots drawn by the
generator, a rectangle whose border stays clear of every root, and an
accuracy.  The solver receives only the command-line arguments built
here (``--poly`` JSON, ``--rect``, ``--accuracy``); the roots stay with
the benchmark, which checks the solver's boxes against them.

Draws are stratified: the parameters that set an instance's cost (the
degree, the number and size of clusters) take the same values for every
seed, in a seeded order, so two seeds give the same mix of sizes and
differ only in where the roots and the rectangle fall.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

__all__ = ["Instance", "WORKLOADS", "generate", "expand", "refine_roots"]


@dataclass(frozen=True)
class Instance:
    """One solver call: the arguments it gets and the roots it must find."""

    name: str
    roots: tuple[complex, ...]
    coeffs: tuple[complex, ...]
    rect: tuple[float, float, float, float]
    accuracy: float
    tol: tuple[float, ...]

    @property
    def argv(self) -> list[str]:
        poly = json.dumps({"coeffs": [[c.real, c.imag] for c in self.coeffs]})
        return (
            ["--poly", poly, "--rect"]
            + [repr(x) for x in self.rect]
            + ["--accuracy", repr(self.accuracy)]
        )


def expand(roots) -> tuple[complex, ...]:
    """Ascending coefficients of prod(z - r) in double precision."""
    cs = [1 + 0j]
    for r in roots:
        nxt = [0j] * (len(cs) + 1)
        for k, c in enumerate(cs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        cs = nxt
    return tuple(cs)


# Roots are refined in fixed point with this many fractional bits, far
# below anything the rounded polynomial's conditioning can reach.
_BITS = 256
_ONE = 1 << _BITS


def _fix(x: float) -> int:
    return round(x * _ONE)  # exact: scaling by a power of two


def _mul(a, b):
    return (
        (a[0] * b[0] - a[1] * b[1]) >> _BITS,
        (a[0] * b[1] + a[1] * b[0]) >> _BITS,
    )


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (
        ((a[0] * b[0] + a[1] * b[1]) << _BITS) // d,
        ((a[1] * b[0] - a[0] * b[1]) << _BITS) // d,
    )


def _abs(a) -> float:
    return math.hypot(a[0] / _ONE, a[1] / _ONE)


def refine_roots(coeffs, guesses):
    """Roots of the monic polynomial ``coeffs`` and a radius around each.

    The solver sees double-precision coefficients, which are rounded
    from the product of the generated roots, so its roots sit slightly
    off the generated ones; clustered roots can move by a sizeable share
    of their spread.  Starting from the generated roots, Weierstrass
    (Durand-Kerner) sweeps in 256-bit fixed point converge to the exact
    roots of the rounded polynomial.  With corrections W_i, the discs
    |z - z_i| <= n|W_i| hold every root, one each when they are disjoint
    (Braess-Hadeler inclusion), which is checked; the radius returned
    adds rounding of z_i to double.  Non-finite input is refused.
    """
    if not all(cmath.isfinite(z) for z in (*coeffs, *guesses)):
        raise ValueError("refine_roots needs finite coefficients and guesses")
    if coeffs[-1] != 1:
        raise ValueError("refine_roots needs a monic polynomial")
    a = [(_fix(c.real), _fix(c.imag)) for c in coeffs]
    n = len(a) - 1
    if len(guesses) != n:
        raise ValueError(f"{len(guesses)} guesses for degree {n}")
    zs = [(_fix(g.real), _fix(g.imag)) for g in guesses]
    for _ in range(200):
        ws = []
        for i, z in enumerate(zs):
            value = a[n]
            for c in reversed(a[:n]):
                value = _mul(value, z)
                value = (value[0] + c[0], value[1] + c[1])
            denom = (_ONE, 0)
            for j, y in enumerate(zs):
                if j != i:
                    denom = _mul(denom, (z[0] - y[0], z[1] - y[1]))
            ws.append(_div(value, denom))
        worst = max(_abs(w) for w in ws)
        if worst < 2.0**-180:
            break
        zs = [(z[0] - w[0], z[1] - w[1]) for z, w in zip(zs, ws)]
    else:
        raise ValueError(f"root refinement did not converge (last correction {worst!r})")
    roots = tuple(complex(z[0] / _ONE, z[1] / _ONE) for z in zs)
    radii = tuple(
        n * _abs(w) + 4.0 * math.ulp(abs(r)) for w, r in zip(ws, roots)
    )
    for i in range(n):
        for j in range(i):
            if abs(roots[i] - roots[j]) <= radii[i] + radii[j]:
                raise ValueError("refined roots are not separated by their radii")
    return roots, radii


def _separated(n, draw, min_sep):
    """``n`` points from ``draw()``, pairwise at least ``min_sep`` apart."""
    points: list[complex] = []
    for _ in range(100000):
        z = draw()
        if all(abs(z - p) >= min_sep for p in points):
            points.append(z)
            if len(points) == n:
                return points
    raise RuntimeError(f"could not place {n} points {min_sep} apart")


def _make(name, roots, rect, accuracy, margin, coeffs=None) -> Instance:
    coeffs = expand(roots) if coeffs is None else coeffs
    roots, tol = refine_roots(coeffs, roots)
    x0, y0, x1, y1 = rect
    if min(min(z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag) for z in roots) < margin:
        raise ValueError(f"{name}: a root lies within {margin} of the rectangle border")
    return Instance(name, roots, coeffs, rect, accuracy, tol)


def _rect(rng, half_lo, half_hi, shift):
    """Axis-aligned rectangle with uneven sides around a jittered origin."""
    cx, cy = rng.uniform(-shift, shift), rng.uniform(-shift, shift)
    return (
        cx - rng.uniform(half_lo, half_hi),
        cy - rng.uniform(half_lo, half_hi),
        cx + rng.uniform(half_lo, half_hi),
        cy + rng.uniform(half_lo, half_hi),
    )


def _grid(rng, values, count):
    """``count`` values cycling through ``values``, in a seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _even(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over [lo, hi], both ends included."""
    return [round(lo + (hi - lo) * j / max(count - 1, 1)) for j in range(count)]


# deep-low: a few separated roots in a ~4x4 square at accuracy 1e-6, so
# each root sits at the bottom of about 22 subdivision levels.
DEEP_LOW = dict(count=60, degrees=(3, 8), accuracy=1e-6, min_sep=0.25)


def _deep_low(rng, count):
    p = DEEP_LOW
    lo, hi = p["degrees"]
    out = []
    for i, n in enumerate(_grid(rng, list(range(lo, hi + 1)), count)):
        rect = _rect(rng, 1.9, 2.1, 0.3)
        x0, y0, x1, y1 = rect
        m = 0.15
        roots = _separated(
            n,
            lambda: complex(rng.uniform(x0 + m, x1 - m), rng.uniform(y0 + m, y1 - m)),
            p["min_sep"],
        )
        out.append(_make(f"deep-low/{i:02d}:deg{n}", roots, rect, p["accuracy"], 0.1))
    return out


# high-degree: half random roots in an annulus around the unit circle
# (degree 20-60), half the roots of unity z^n - 1 (n = 10-64), all at
# accuracy 1e-3.  Roots sit near |z| = 1, where Horner stays well
# conditioned, so the expanded coefficients keep their roots in place.
# z^n - 1 is solved on one fixed rectangle, on which six of its twenty
# degrees fail at the seed commit (a winding count off by one).  Which
# degrees fail depends chaotically on the rectangle, so a seeded
# rectangle would make the failure count, and every time taken over
# the instances that succeed, vary from seed to seed.
HIGH_DEGREE = dict(
    count=40,
    random_degrees=(20, 60),
    unity_degrees=(10, 64),
    unity_rect=(-2.1, -2.13, 2.07, 2.11),
    accuracy=1e-3,
    annulus=(0.8, 1.2),
    min_sep=0.03,
)


def _high_degree(rng, count):
    p = HIGH_DEGREE
    half = count // 2
    draws = [("random", n) for n in _even(*p["random_degrees"], half)]
    draws += [("unity", n) for n in _even(*p["unity_degrees"], count - half)]
    rng.shuffle(draws)
    lo, hi = p["annulus"]
    out = []
    for i, (kind, n) in enumerate(draws):
        if kind == "unity":
            rect = p["unity_rect"]
            roots = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
            coeffs = (-1 + 0j,) + (0j,) * (n - 1) + (1 + 0j,)
        else:
            rect = _rect(rng, 1.5, 1.8, 0.1)
            roots = _separated(
                n,
                lambda: cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)),
                p["min_sep"],
            )
            coeffs = None
        out.append(_make(f"high-degree/{i:02d}:{kind}{n}", roots, rect, p["accuracy"], 0.2, coeffs))
    return out


# clustered: 2-4 clusters of 2-3 roots, each cluster spread over 10-100x
# the accuracy, anywhere in a ~4x4 square.  Away from the origin the
# clusters sit near Horner's rounding floor, so the winding test's
# singular exits and the shifted-cut search get exercised; a few draws
# fail at the seed commit and stay in the draw.
CLUSTERED = dict(
    count=60,
    clusters=(2, 3, 4),
    sizes=(2, 3),
    spread=(10.0, 100.0),
    accuracy=1e-5,
    centre_sep=0.4,
)


def _clustered(rng, count):
    p = CLUSTERED
    acc = p["accuracy"]
    ks = _grid(rng, list(p["clusters"]), count)
    sizes = iter(_grid(rng, list(p["sizes"]), sum(ks)))
    out = []
    for i, k in enumerate(ks):
        rect = _rect(rng, 1.9, 2.1, 0.2)
        x0, y0, x1, y1 = rect
        m = 0.25
        centres = _separated(
            k,
            lambda: complex(rng.uniform(x0 + m, x1 - m), rng.uniform(y0 + m, y1 - m)),
            p["centre_sep"],
        )
        roots = []
        for c in centres:
            size = next(sizes)
            radius = 0.5 * acc * rng.uniform(*p["spread"])
            phase = rng.uniform(0, 2 * math.pi)
            roots.extend(
                c + cmath.rect(radius, phase + 2 * math.pi * j / size) for j in range(size)
            )
        out.append(_make(f"clustered/{i:02d}:{k}x{len(roots)}", roots, rect, acc, 0.2))
    return out


# name -> (generator, its parameters)
WORKLOADS = {
    "deep-low": (_deep_low, DEEP_LOW),
    "high-degree": (_high_degree, HIGH_DEGREE),
    "clustered": (_clustered, CLUSTERED),
}


def generate(workload: str, seed: int, count: int | None = None) -> list[Instance]:
    """The instances of ``workload`` for ``seed``; the same seed, the same list."""
    make, params = WORKLOADS[workload]
    rng = random.Random(f"windroot-bench:{workload}:{seed}")
    return make(rng, params["count"] if count is None else count)
