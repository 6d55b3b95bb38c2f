"""Winding numbers of closed curves by adaptive insertion of samples.

Three refinement procedures insert samples into a closed curve:

* ``ip`` refines until consecutive images are sector-connected and no
  gap is wide enough to hide a lost turn; it terminates only on curves
  that stay away from the origin.
* ``ips`` adds the gap guard: once a refined gap drops to Q it exits
  with a structured singularity report instead of looping, certifying
  that the curve passes within L*Q/sin(pi/8) of the origin.
* ``ipsr`` is the root-counting variant for polynomial images of a
  region boundary: the width test uses a derivative evaluation instead
  of a global curve bound, every polynomial evaluation is metered, and
  an error exit certifies a large condition number (a root close to the
  boundary).

``ips`` runs the paper's scan ``_refine`` over a ``SampleArray``.
``ipsr`` runs the same refinement as one depth-first loop over
parameters, in the scan's order (see ``ipsr``), and reads each boundary
sample's image, sector, modulus and |f'| from the counter's two-level
sample window (see ``EvalCounter``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonTerminationError, SingularPointError
from .geometry import SIN_PI_8, BoundaryCurve, connected, net_crossings, sector_of
from .poly import EvalCounter, Polynomial, derivative, eval

__all__ = [
    "SampleArray",
    "Normal",
    "SingularError",
    "WindingOutcome",
    "pred_p",
    "pred_q",
    "pred_q2",
    "pred_r",
    "ip",
    "ips",
    "ipsr",
    "initial_samples",
]


def _checked_params(params) -> list[float]:
    """``params`` as floats; refused unless they start at 0 and strictly increase."""
    params = [float(t) for t in params]
    if len(params) < 2:
        raise ValueError("a sample array needs at least both endpoints")
    if params[0] != 0.0:
        raise ValueError("first parameter must be 0")
    for a, b in zip(params, params[1:]):
        if not a < b:
            raise ValueError("parameters must be strictly increasing")
    return params


class SampleArray:
    """Samples of a closed curve at strictly increasing parameters.

    Parameters span the curve's interval with both endpoints present
    (the first must be 0; the last maps to the same point as the first).
    Each entry caches the curve point, its image, and — lazily — the
    image's sector, so repeated predicate evaluation never resamples.
    ``insertions`` counts parameters added after construction.

    ``sampler(t)`` must return the ``(point, image)`` pair for parameter
    ``t`` deterministically: recomputation yields bit-identical values.
    """

    __slots__ = ("params", "points", "images", "insertions", "_sampler", "_sectors")

    def __init__(self, params, sampler):
        self.params = params = _checked_params(params)
        self._sampler = sampler
        self.points: list[complex] = []
        self.images: list[complex] = []
        for t in params:
            point, image = sampler(t)
            self.points.append(point)
            self.images.append(image)
        self._sectors: list[int | None] = [None] * len(params)
        self.insertions = 0

    @property
    def m(self) -> int:
        """Index of the last sample; equivalently the number of pairs."""
        return len(self.params) - 1

    def gap(self, i: int) -> float:
        return self.params[i + 1] - self.params[i]

    def sector(self, i: int) -> int:
        """Sector of the i-th image; raises SingularPointError carrying t."""
        k = self._sectors[i]
        if k is None:
            try:
                k = sector_of(self.images[i])
            except SingularPointError:
                raise SingularPointError(self.params[i]) from None
            self._sectors[i] = k
        return k

    def sectors(self) -> list[int]:
        return [self.sector(i) for i in range(len(self.params))]

    def insert(self, i: int, t: float) -> complex:
        """Insert parameter t strictly between positions i and i+1; return its image."""
        if not self.params[i] < t < self.params[i + 1]:
            raise ValueError(
                f"{t!r} does not fall strictly between samples {i} and {i + 1}"
            )
        point, image = self._sampler(t)
        self.params.insert(i + 1, t)
        self.points.insert(i + 1, point)
        self.images.insert(i + 1, image)
        self._sectors.insert(i + 1, None)
        self.insertions += 1
        return image

    def __len__(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:
        return f"SampleArray(samples={len(self.params)}, insertions={self.insertions})"


@dataclass(frozen=True)
class Normal:
    """Successful outcome: the winding index and the insertions that certified it."""

    index: int
    insertions: int


@dataclass(frozen=True)
class SingularError:
    """Error outcome: near parameter ``t`` the curve comes too close to the origin.

    ``guarantee`` is the bound certified by the exiting procedure: an
    upper bound on |curve(t)| for ``ips``, a lower bound on the boundary
    condition number for ``ipsr``.
    """

    t: float
    guarantee: float
    insertions: int = 0


WindingOutcome = Normal | SingularError


def pred_p(S: SampleArray, i: int) -> bool:
    """True iff the images at samples i, i+1 lie in non-connected sectors."""
    return not connected(S.sector(i), S.sector(i + 1))


def pred_q(S: SampleArray, i: int, L: float) -> bool:
    """Gap wide enough to hide a turn: gap >= (|w_i| + |w_{i+1}|)/L, inclusive."""
    return S.gap(i) >= (abs(S.images[i]) + abs(S.images[i + 1])) / L


def pred_q2(S: SampleArray, i: int, f: Polynomial) -> bool:
    """Derivative-scaled width test for polynomial images.

    True iff |w_i| + |w_{i+1}| <= 2*|f'(p_i)|*gap + |w_{i+1} - w_i|,
    using one derivative evaluation at the left point.
    """
    dmod = abs(eval(derivative(f), S.points[i]))
    wa, wb = S.images[i], S.images[i + 1]
    return abs(wa) + abs(wb) <= 2.0 * dmod * S.gap(i) + abs(wb - wa)


def pred_r(S: SampleArray, i: int, Q: float) -> bool:
    """Gap at pair i has shrunk to the guard width: gap <= Q, inclusive."""
    return S.gap(i) <= Q


def _curve_sampler(delta):
    def sample(t: float) -> tuple[complex, complex]:
        w = complex(delta(t))
        return w, w

    return sample


def _bisect_pair(S: SampleArray, i: int) -> tuple[float, complex]:
    """Insert the midpoint of pair i; return (parameter, image)."""
    a, b = S.params[i], S.params[i + 1]
    mid = 0.5 * (a + b)
    if not a < mid < b:
        raise NonTerminationError(
            f"parameter gap [{a!r}, {b!r}] is below float resolution"
        )
    return mid, S.insert(i, mid)


def ip(delta, L: float, s0: list[float], max_iter: int) -> SampleArray:
    """Refine until every pair fails both p and q; unguarded against singularity.

    ``delta`` is a closed curve (callable on the initial parameters
    ``s0``) with Lipschitz constant at most ``L``.  The returned array's
    sector sequence yields the winding number via ``net_crossings``.  On curves
    passing near the origin the fixpoint may not exist; after
    ``max_iter`` insertions NonTerminationError is raised.  An exactly
    zero image raises SingularPointError carrying the parameter.
    """
    S = SampleArray(s0, _curve_sampler(delta))
    for j, w in enumerate(S.images):
        if w == 0:
            raise SingularPointError(S.params[j])
    i = 0
    while i < S.m:
        if not (pred_p(S, i) or pred_q(S, i, L)):
            i += 1
            continue
        if S.insertions >= max_iter:
            raise NonTerminationError(
                f"no stable sample array after {max_iter} insertions"
            )
        mid, w = _bisect_pair(S, i)
        if w == 0:
            raise SingularPointError(mid)
        i = max(i - 1, 0)
    return S


def _refine(S: SampleArray, failing, Q: float, singular_guarantee: float):
    """The paper's refinement scan: refine until clean, or exit on the gap guard.

    ``ips`` runs it; with pred_p/pred_q2 it is the reference that
    ``ipsr``'s depth-first loop reproduces.

    ``failing(i)`` decides whether pair i still needs splitting.  Scans
    pairs left to right; after an insertion the scan resumes at the
    split pair's left neighbor (pairs further left are unaffected by the
    insertion, so the fixpoint is reached without a global restart).
    Returns None when the array is clean, or a SingularError built at
    the first pair whose refined gap reaches Q.
    """
    i = 0
    while i < S.m:
        if not failing(i):
            i += 1
            continue
        ta, tb = S.params[i], S.params[i + 1]
        wa, wb = S.images[i], S.images[i + 1]
        mid, wmid = _bisect_pair(S, i)
        if wmid == 0:
            return SingularError(mid, singular_guarantee, S.insertions)
        if pred_r(S, i, Q):
            # The guard fired: some value on the pair that was split is
            # certifiably small.  Return the endpoint with the smaller
            # modulus (ties go left); the pre-split endpoints are the
            # ones the certificate is proved for.
            t = ta if abs(wa) <= abs(wb) else tb
            return SingularError(t, singular_guarantee, S.insertions)
        i = max(i - 1, 0)
    return None


def ips(delta, L: float, s0: list[float], Q: float) -> WindingOutcome:
    """Winding number with singularity control.

    Refines like ``ip`` but exits with SingularError as soon as a pair
    still failing p or q has been bisected down to gap <= Q.  On error
    the returned parameter t satisfies |delta(t)| <= L*Q/sin(pi/8); on
    Normal the index is the exact winding number of ``delta``.
    """
    if Q <= 0:
        raise ValueError("Q must be positive")
    S = SampleArray(s0, _curve_sampler(delta))
    guarantee = L * Q / SIN_PI_8
    for j, w in enumerate(S.images):
        if w == 0:
            return SingularError(S.params[j], guarantee, S.insertions)
    err = _refine(S, lambda i: pred_p(S, i) or pred_q(S, i, L), Q, guarantee)
    if err is not None:
        return err
    return Normal(net_crossings(S.sectors()), S.insertions)


def ipsr(
    curve: BoundaryCurve,
    f: Polynomial,
    s0: list[float],
    Q: float,
    ctr: EvalCounter,
) -> WindingOutcome:
    """Root count of ``f`` inside ``curve`` with singularity control.

    The image curve is f o curve; since the boundary is arc-length
    parameterized, it inherits f's Lipschitz bound on the region.  The
    width test is the derivative-scaled ``pred_q2``, so no global
    Lipschitz constant is needed.  On Normal the index equals the number
    of roots of f strictly inside the curve, with multiplicity.  On
    SingularError the condition number of the boundary (sum of inverse
    root distances) is at least sqrt(2)/(4Q) — some root lies near the
    boundary.

    Each initial pair is refined to completion, left half before right
    half, before the next one starts.  That is the order in which the
    ``_refine`` scan with ``pred_p``/``pred_q2`` visits pairs: whether a
    pair is split depends only on its two endpoints, and after a split
    the scan rechecks the unchanged left neighbour and then takes the
    split pair's left half.  So every insertion, error exit, evaluated
    point and the count are the scan's, without a sample array or a
    predicate call per pair; the tests keep the scan as the reference.
    The loop keeps one left sample and a stack of right endpoints, adds
    each clean pair's 7->0 / 0->7 crossing to the index as it goes, and
    keeps no final samples: callers read only the count and the
    insertions.  Each sample's record (image, sector, |image| and, once
    the width test needs it, |f'|) comes from the counter's two-level
    sample window (see ``EvalCounter``); only a point missing from it is
    evaluated, through ``ctr`` and the module-global ``eval``, and
    classified.
    """
    if Q <= 0:
        raise ValueError("Q must be positive")
    df = derivative(f)
    ts = _checked_params(s0)
    # The name lookups stay global, once per call, so that wrappers
    # installed on this module's ``eval`` and ``sector_of`` see every call.
    feval, sector = eval, sector_of
    samples, previous_samples = ctr.samples, ctr.previous_samples
    guarantee = math.sqrt(2.0) / (4.0 * Q)
    # Each sample's record [image, sector, |image|, |f'| or None] comes
    # from the window, or on a miss from a metered evaluation.  As in the
    # scan, every initial sample is evaluated before the zero check.
    ps = [curve(t) for t in ts]
    rs = []
    zero = None
    for t, p in zip(ts, ps):
        r = samples.get(p)
        if r is None:
            r = previous_samples.pop(p, None)
            if r is None:
                w = feval(f, p, ctr)
                if w == 0:
                    if zero is None:
                        zero = t
                    continue
                r = [w, sector(w), abs(w), None]
            samples[p] = r
        rs.append(r)
    if zero is not None:
        return SingularError(zero, guarantee, 0)

    # The left sample: parameter, point, record and the record's first three
    # fields (image, sector, |image|); the right sample likewise.
    ta, pa, ra = ts[0], ps[0], rs[0]
    wa, ka, ma, _ = ra
    index = insertions = 0
    for j in range(1, len(ts)):
        tb, pb, rb = ts[j], ps[j], rs[j]
        wb, kb, mb, _ = rb
        stack = []  # right endpoints still to visit, nearest on top
        while True:
            if (ka - kb) % 8 in (0, 1, 7):
                da = ra[3]
                if da is None:
                    da = ra[3] = abs(feval(df, pa))
                failing = ma + mb <= 2.0 * da * (tb - ta) + abs(wb - wa)
            else:
                failing = True
            if not failing:
                if ka == 7 and kb == 0:
                    index += 1
                elif ka == 0 and kb == 7:
                    index -= 1
                ta, pa, ra, wa, ka, ma = tb, pb, rb, wb, kb, mb
                if not stack:
                    break
                tb, pb, rb = stack.pop()
                wb, kb, mb, _ = rb
                continue
            mid = 0.5 * (ta + tb)
            if not ta < mid < tb:
                raise NonTerminationError(
                    f"parameter gap [{ta!r}, {tb!r}] is below float resolution"
                )
            pm = curve(mid)
            insertions += 1
            rm = samples.get(pm)
            if rm is None:
                rm = previous_samples.pop(pm, None)
                if rm is None:
                    wm = feval(f, pm, ctr)
                    if wm == 0:
                        return SingularError(mid, guarantee, insertions)
                    rm = [wm, sector(wm), abs(wm), None]
                samples[pm] = rm
            if mid - ta <= Q:
                # The guard fired; as in ``_refine``, report the pre-split
                # endpoint with the smaller modulus (ties go left).
                return SingularError(ta if ma <= mb else tb, guarantee, insertions)
            stack.append((tb, pb, rb))
            tb, pb, rb = mid, pm, rm
            wb, kb, mb, _ = rm
    return Normal(index, insertions)


def initial_samples(curve: BoundaryCurve) -> list[float]:
    """Vertex parameters of the boundary, padded so no gap exceeds per/8.

    Every polygon vertex appears as a parameter (so edges are sampled at
    least at their endpoints), long edges are subdivided uniformly, and
    both endpoints 0 and per are present.  Only parameters are returned:
    each refinement procedure samples them through its own image map.
    """
    per = curve.perimeter
    target = per / 8.0
    params = [0.0]
    for t in curve.vertex_params[1:]:
        prev = params[-1]
        gap = t - prev
        if gap > target:
            pieces = math.ceil(gap / target)
            for k in range(1, pieces):
                params.append(prev + gap * (k / pieces))
        params.append(t)
    return params
