"""Complex polynomials with instrumented, memoized Horner evaluation.

The evaluation counter is the cost meter of the whole package: every
root-finding bound downstream is expressed in "polynomial evaluations",
so ``eval`` counts exactly one evaluation per distinct point and serves
repeats from its cache.
"""

from __future__ import annotations

import cmath
import math

from ._frozen import Frozen

__all__ = ["Polynomial", "EvalCounter", "eval", "derivative", "lipschitz_bound"]


class Polynomial(Frozen):
    """A polynomial a_0 + a_1 z + ... + a_n z^n over the complex numbers.

    ``coeffs`` is kept in ascending degree order with a nonzero leading
    coefficient.  Trailing zero coefficients are trimmed on construction;
    the zero polynomial and non-finite coefficients are rejected.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(complex(c) for c in coeffs)
        for c in coeffs:
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r}")
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        coeffs = coeffs[:n]
        if not coeffs:
            raise ValueError("the zero polynomial is not representable")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        """Build from ``{"coeffs": [[re, im], ...]}`` in ascending degree order."""
        try:
            pairs = data["coeffs"]
            coeffs = tuple(complex(float(re), float(im)) for re, im in pairs)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        return cls(coeffs)


class EvalCounter:
    """Evaluation meter with a point -> value memo for a single polynomial.

    ``evaluations`` counts the cache misses: ``eval`` stores every miss
    and nothing else.  One counter serves one run: it must not be shared
    between different polynomials (the caches are keyed by the point
    alone) and is not safe for concurrent use.

    ``samples`` and ``previous_samples`` hold the boundary samples of
    ``winding.ipsr`` over a window of two subdivision levels, the current
    one and the one before.  Each maps a point z to its record
    ``[f(z), sector, |f(z)|, |f'(z)| or None]``; ``ipsr`` fills |f'| the
    first time its width test needs it.  ``ipsr`` reads ``samples``,
    then ``previous_samples`` (moving a hit there into ``samples``), and
    only on a miss evaluates and classifies the point; ``rdp`` calls
    ``next_level`` after each level, which ages the window and drops the
    older level.  A record is made right after a metered ``eval`` of its
    point, so a record hit is a cache hit and skipping the ``eval``
    changes neither ``cache`` nor ``evaluations``.  Derivative
    evaluations are not metered.  ``derivative`` holds f', built by the
    first ``ipsr`` call of the run, so that no later boundary test builds
    it again or finds it by hashing the coefficients.

    The window is not run-wide because nearly every repeated point
    recurs in its own level or the next (a cut part shares its boundary
    with its parent and its sibling), while a run-wide memo holds every
    boundary point of the run.  For |f'| alone, a run-wide memo saved 61%
    of the derivative evaluations on the high-degree benchmark against
    the window's 60%, but raised peak RSS by 14% against 3.5%.  Nearly
    every sample is at some point a left sample whose |f'| the width
    test reads, so a window of records holds the same points as a window
    of |f'| alone: on the high-degree benchmark at seed 4712 at most
    12.3k of them (a random degree-60 instance, 33.3k distinct points),
    and peak RSS rises from 24.9 to 25.5 MB.
    """

    __slots__ = ("cache", "samples", "previous_samples", "derivative")

    def __init__(
        self,
        cache: dict[complex, complex] | None = None,
        samples: dict[complex, list] | None = None,
        previous_samples: dict[complex, list] | None = None,
    ):
        self.cache = {} if cache is None else cache
        self.samples = {} if samples is None else samples
        self.previous_samples = {} if previous_samples is None else previous_samples
        self.derivative = None

    @property
    def evaluations(self) -> int:
        return len(self.cache)

    def next_level(self) -> None:
        """Age the sample window: the current level becomes the previous one."""
        self.previous_samples = self.samples
        self.samples = {}


def _horner(coeffs: tuple[complex, ...], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _majorant(abs_coeffs: tuple[float, ...], r: float) -> float:
    """sum |a_k| r^k, which bounds |f(z)| and its Horner partial sums at |z| <= r."""
    acc = 0.0  # real, so an overflow reads inf: (inf+0j)*r has a NaN part
    for c in reversed(abs_coeffs):
        acc = acc * r + c
    return acc


def _horner_floor(abs_coeffs: tuple[float, ...], r: float) -> float:
    """Horner's rounding floor 4*n*ulp(sum |a_k| r^k) for |f(z)| at |z| = r."""
    return 4.0 * (len(abs_coeffs) - 1) * math.ulp(_majorant(abs_coeffs, r))


def eval(f: Polynomial, z: complex, ctr: EvalCounter | None = None) -> complex:
    """Return f(z) by the Horner recurrence, memoized through ``ctr``.

    With ``ctr=None`` the evaluation is neither counted nor cached.
    Results are bit-identical for identical ``z`` across calls.
    """
    z = complex(z)
    if ctr is None:
        return _horner(f.coeffs, z)
    hit = ctr.cache.get(z)
    if hit is not None:
        return hit
    value = _horner(f.coeffs, z)
    ctr.cache[z] = value
    return value


def derivative(f: Polynomial) -> Polynomial:
    """Return f' by the power rule; requires degree >= 1.

    Nothing is cached here: ``winding.ipsr`` keeps f' on the run's
    ``EvalCounter`` (see ``EvalCounter.derivative``), so a run builds it
    once and no boundary test hashes the coefficients to find it.
    """
    if f.degree < 1:
        raise ValueError("derivative requires a polynomial of degree >= 1")
    return Polynomial(tuple((k + 1) * c for k, c in enumerate(f.coeffs[1:])))


def lipschitz_bound(f: Polynomial, region) -> float:
    """A certified upper bound for sup |f'| over ``region``.

    Computed as sum_k k*|a_k|*R^(k-1) where R is the largest vertex
    modulus of the region, the radius ``rdp._check_range`` uses: |z| is
    convex, so its maximum on a convex polygon is at a vertex, and the
    triangle inequality makes the sum dominate |f'(z)| on the whole disk
    |z| <= R, which contains the region.  Any upper bound on the true
    supremum is acceptable wherever a Lipschitz constant is consumed.
    """
    r = max(abs(v) for v in region.vertices)
    return _majorant(tuple(k * abs(c) for k, c in enumerate(f.coeffs))[1:], r)
