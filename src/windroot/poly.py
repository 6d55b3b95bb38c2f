"""Complex polynomials with instrumented Horner evaluation.

The evaluation counter is the cost meter of the whole package: every
root-finding bound downstream is expressed in "polynomial evaluations",
so a metered ``eval`` adds one to the counter's count and keeps nothing
else.  One evaluation gives f(z) and f'(z) from one Horner loop, the
package's only one over complex values.  No value is cached here; the
boundary test's sample window (see ``EvalCounter``) serves repeated
points, and a point it does not serve is evaluated, and counted, again.
"""

from __future__ import annotations

import cmath
import math

from ._frozen import Frozen
from .geometry import json_reals

__all__ = ["Polynomial", "EvalCounter", "eval", "derivative", "lipschitz_bound"]


class Polynomial(Frozen):
    """A polynomial a_0 + a_1 z + ... + a_n z^n over the complex numbers.

    ``coeffs`` is kept in ascending degree order with a nonzero leading
    coefficient.  Trailing zero coefficients are trimmed on construction;
    the zero polynomial and non-finite coefficients are rejected.
    ``_pairs``, derived from ``coeffs`` and not a field, holds the pairs
    (a_k, k*a_k) for k = n..1 that ``eval`` runs Horner's loop over and
    ``derivative`` reads; a k*a_k that overflows is kept here, and
    ``derivative`` refuses it.
    """

    __slots__ = ("coeffs", "_pairs")

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
        pairs = tuple([(coeffs[k], k * coeffs[k]) for k in range(n - 1, 0, -1)])
        object.__setattr__(self, "_pairs", pairs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        """Build from ``{"coeffs": [[re, im], ...]}`` in ascending degree order."""
        try:
            coeffs = tuple(complex(re, im) for re, im in map(json_reals, data["coeffs"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        return cls(coeffs)


class EvalCounter:
    """Evaluation meter and boundary-sample window of one run.

    ``evaluations`` is the number of metered ``eval`` calls, read-only
    to callers: every call counts, a point evaluated again included.  The
    counter keeps no points, so its memory does not grow with the count.
    One counter serves one run of one polynomial and is not safe for
    concurrent use: the window is keyed by the point alone, so
    ``winding.ipsr`` refuses a polynomial other than the one the counter
    serves.

    ``samples`` and ``previous_samples`` hold the boundary samples of
    ``winding.ipsr`` over a window of two subdivision levels, the current
    one and the one before.  Each maps a point z to its record, the tuple
    ``(f(z), sector, |f(z)|, |f'(z)|)``, made from one metered ``eval``;
    ``ipsr`` states how it reads and fills them.  ``rdp`` calls
    ``next_level`` after each level, which ages the window and drops the
    older level.  The window is the run's only memo: a point that left it
    is evaluated again, to the same bits, and counted again (about 2% of
    the window misses on the benchmark workloads).  ``polynomial`` is the
    f whose records the window holds, set by the first ``ipsr`` call of
    the run.

    The window is not run-wide because nearly every repeated point
    recurs in its own level or the next (a cut part shares its boundary
    with its parent and its sibling), while a run-wide memo holds every
    boundary point of the run.  For |f'| alone, a run-wide memo saved 61%
    of the derivative evaluations on the high-degree benchmark against
    the window's 60%, but raised peak RSS by 14% against 3.5%.
    """

    __slots__ = ("_evaluations", "samples", "previous_samples", "polynomial")

    def __init__(self):
        self._evaluations = 0
        self.samples = {}
        self.previous_samples = {}
        self.polynomial = None

    @property
    def evaluations(self) -> int:
        return self._evaluations

    def next_level(self) -> None:
        """Age the sample window: the current level becomes the previous one."""
        self.previous_samples = self.samples
        self.samples = {}


def _majorant(abs_coeffs: tuple[float, ...], r: float) -> float:
    """sum |a_k| r^k, which bounds |f(z)| and its Horner partial sums at |z| <= r."""
    acc = 0.0  # real, so an overflow reads inf: (inf+0j)*r has a NaN part
    for c in reversed(abs_coeffs):
        acc = acc * r + c
    return acc


def _horner_floor(abs_coeffs: tuple[float, ...], r: float) -> float:
    """Horner's rounding floor 4*n*ulp(sum |a_k| r^k) for |f(z)| at |z| = r."""
    return 4.0 * (len(abs_coeffs) - 1) * math.ulp(_majorant(abs_coeffs, r))


def eval(f: Polynomial, z: complex, ctr: EvalCounter | None = None) -> tuple[complex, complex]:
    """Return ``(f(z), f'(z))`` from one Horner loop, adding one to ``ctr``'s count.

    The loop runs over the pairs (a_k, k*a_k) for k = n..1, stepping
    f' and f together, and ends with f's step for a_0: the same
    operations, in the same order, as Horner's rule on ``f.coeffs`` and
    on ``derivative(f).coeffs`` apart.  A constant gives f'(z) = 0j.
    With ``ctr=None`` the evaluation is not metered.  Results are
    bit-identical for identical ``z`` across calls, so a point evaluated
    again gives the values it gave the first time.
    """
    if ctr is not None:
        ctr._evaluations += 1
    z = complex(z)
    w = dw = 0j
    for c, dc in f._pairs:
        dw = dw * z + dc
        w = w * z + c
    return w * z + f.coeffs[0], dw


def derivative(f: Polynomial) -> Polynomial:
    """Return f' by the power rule, from ``f``'s pairs; requires degree >= 1.

    Nothing is cached here.  ``eval`` gives f'(z) with f(z), so the
    solver builds no f'; ``winding.ipsr`` calls this once per run only
    for its refusals: a constant f, and a coefficient k*a_k that
    overflows.
    """
    if f.degree < 1:
        raise ValueError("derivative requires a polynomial of degree >= 1")
    return Polynomial([dc for _, dc in reversed(f._pairs)])


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
