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
parameters, in the scan's order (see ``ipsr``), checks its initial
parameters in the same walk that computes each initial point from its
edge (see ``BoundaryCurve``), and reads each sample's image, sector,
modulus and |f'| from the counter's two-level sample window inline,
with no call per lookup (see ``ipsr``), which makes a point's record
once, when the point is evaluated.  It tests each pair with one sector
difference, whose entry in ``geometry._CONNECTED_STEPS`` decides both
connectivity and the pair's crossing.
"""

from __future__ import annotations

import math
import operator

from ._frozen import Frozen
from .errors import NonTerminationError, SingularPointError
from .geometry import _CONNECTED_STEPS, SIN_PI_8, BoundaryCurve, connected, net_crossings, sector_of
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
    params = list(map(float, params))
    if len(params) < 2:
        raise ValueError("a sample array needs at least both endpoints")
    if params[0] != 0.0:
        raise ValueError("first parameter must be 0")
    if not all(map(operator.lt, params, params[1:])):
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


class Normal(Frozen):
    """Successful outcome: the winding index and the insertions that certified it."""

    __slots__ = ("index", "insertions")

    def __init__(self, index: int, insertions: int):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "insertions", insertions)


class SingularError(Frozen):
    """Error outcome: near parameter ``t`` the curve comes too close to the origin.

    ``guarantee`` is the bound certified by the exiting procedure: an
    upper bound on |curve(t)| for ``ips``, a lower bound on the boundary
    condition number for ``ipsr``.
    """

    __slots__ = ("t", "guarantee", "insertions")

    def __init__(self, t: float, guarantee: float, insertions: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "guarantee", guarantee)
        object.__setattr__(self, "insertions", insertions)


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
    zero image raises SingularPointError carrying the parameter.  An L
    outside (0, inf) raises ValueError before any sample.
    """
    if not 0.0 < L < math.inf:
        raise ValueError("L must be positive and finite")
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
    Normal the index is the exact winding number of ``delta``.  A Q or
    an L outside (0, inf) raises ValueError before any sample.
    """
    if not 0.0 < Q < math.inf:
        raise ValueError("Q must be positive and finite")
    if not 0.0 < L < math.inf:
        raise ValueError("L must be positive and finite")
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

    ``s0`` is any strictly increasing list of parameters from 0 to the
    perimeter that holds every vertex parameter, such as
    ``initial_samples(curve)``; ValueError refuses any other, and any Q
    outside (0, inf).  A vertex parameter gives its vertex, one inside an
    edge the edge arithmetic of ``curve(t)`` (see ``BoundaryCurve``), and
    so does every midpoint, as each pair lies on one edge: no sample goes
    through a curve call, and every point equals the curve's, float for
    float.

    Three passes follow the endpoint checks.  The first walks ``s0`` with
    the vertex parameters: it computes each initial point and its edge and
    refuses, at the first parameter where it sees one, an ``s0`` that does
    not increase strictly or that passes a vertex parameter, so nothing is
    looked up or evaluated for an ``s0`` it refuses.  The second reads or
    makes each initial sample's record.  The third is the refinement.
    f' is built once per run and kept on ``ctr`` with f
    (``EvalCounter.derivative`` and ``polynomial``); ValueError refuses,
    before any evaluation, an f that is neither that object nor equal to
    it, as the window holds that polynomial's records.

    Each initial pair is refined to completion, left half before right
    half, before the next one starts.  That is the order in which the
    ``_refine`` scan with ``pred_p``/``pred_q2`` visits pairs: whether a
    pair is split depends only on its two endpoints, and after a split
    the scan rechecks the unchanged left neighbour and then takes the
    split pair's left half.  So every insertion, error exit, evaluated
    point and the count are the scan's, without a sample array or a
    predicate call per pair; the tests keep the scan as the reference.
    The loop keeps one left sample and a stack of right endpoints and
    keeps no final samples: callers read only the count and the
    insertions.  It tests a pair (a, b) with one sector difference
    dk = ka - kb: the pair is clean iff dk is a step of
    ``geometry._CONNECTED_STEPS`` (-7, -1, 0, 1 or 7, the differences
    ``connected`` accepts) and ``not |wa| + |wb| <= 2 |f'(a)| (tb - ta) +
    |wb - wa|`` (``pred_q2`` fails; a NaN width test stays clean), and a
    clean pair adds its crossing to the index as it goes: +1 at dk = 7
    (7->0), -1 at dk = -7 (0->7), the table's crossings, which
    ``net_crossings`` counts.

    Each sample's record, the tuple (image, sector, |image|, |f'|), comes
    from the counter's two-level sample window, read inline at each of
    the two sites, the initial samples and the midpoints, with no call
    per lookup: ``samples.get(p)`` (the current level); on a miss
    ``previous_samples.pop(p, None)``, whose record moves up into
    ``samples``; on a second miss the record is made, once, from f
    (metered through ``ctr``: each miss adds one to its count) and f'
    (not metered), both by the module-global ``eval``, and stored in
    ``samples``.  So a run's ``pe`` is its number of window misses, a
    point that left the window and is evaluated again included.  f' on
    every miss costs few extra evaluations, as nearly every sample is at
    some point a left sample whose |f'| the width test reads: at seed
    4712, +0.04% on the deep-low benchmark, +0.34% on clustered.  An
    exact zero image gets no record, and ``ipsr`` exits with
    SingularError at the first such parameter, for the initial samples
    after every one is read.
    """
    if not 0.0 < Q < math.inf:
        raise ValueError("Q must be positive and finite")
    cum, vertices, edges = curve.vertex_params, curve.points, curve.edges
    if not s0 or s0[0] != 0.0:
        raise ValueError("first parameter must be 0")
    if s0[-1] != curve.perimeter:
        raise ValueError(f"s0 must end at the perimeter {curve.perimeter!r}")
    # Walk s0 with the vertex parameters, v indexing the next vertex: t,
    # and the pair it ends, lie on edges[v - 1] (never read for t = 0).
    # The walk refuses the first parameter that does not exceed the one
    # before it or that passes the next vertex parameter; as s0 ends at the
    # perimeter, a parameter past it (cum[v] out of range) has a smaller one
    # after it.  So every refusal comes before any evaluation.
    ps, es = [], []
    ta = -1.0  # below s0[0], which is 0
    v = 0
    try:
        for t in s0:
            if not ta < t:
                raise ValueError("parameters must be strictly increasing")
            cv = cum[v]
            if t == cv:
                ps.append(vertices[v])
                es.append(edges[v - 1])
                v += 1
            elif t < cv:
                edge = edges[v - 1]
                c, a, length, d = edge
                ps.append(a + ((t - c) / length) * d)
                es.append(edge)
            else:
                raise ValueError(f"s0 skips the vertex parameter {cv!r}")
            ta = t
    except IndexError:
        raise ValueError("parameters must be strictly increasing") from None
    df = ctr.derivative
    if df is None:
        df = ctr.derivative = derivative(f)
        ctr.polynomial = f
    elif f is not ctr.polynomial and f != ctr.polynomial:
        raise ValueError("the counter serves another polynomial")
    # The name lookups stay global, once per call, so that wrappers
    # installed on this module's ``eval`` and ``sector_of`` see every call.
    feval, sector = eval, sector_of
    samples, previous_samples = ctr.samples, ctr.previous_samples
    steps = _CONNECTED_STEPS

    guarantee = math.sqrt(2.0) / (4.0 * Q)
    # The window read (see the docstring) of each initial sample; as in
    # the scan, every one is read before the zero check.
    rs = []
    for p in ps:
        r = samples.get(p)
        if r is None:
            r = previous_samples.pop(p, None)
            if r is None:
                w = feval(f, p, ctr)
                if w == 0:
                    rs.append(None)
                    continue
                r = (w, sector(w), abs(w), abs(feval(df, p)))
            samples[p] = r
        rs.append(r)
    if None in rs:
        return SingularError(s0[rs.index(None)], guarantee, 0)

    # The left sample: its parameter and its record's fields; the right
    # sample likewise, and the stack holds right samples in that form.
    initial = zip(s0, rs, es)
    ta, (wa, ka, ma, da), _ = next(initial)
    index = insertions = 0
    stack = []  # right samples still to visit, nearest on top
    # Every point a pair's refinement adds lies strictly inside its edge.
    for tb, (wb, kb, mb, db), (c, a, length, d) in initial:
        while True:
            dk = ka - kb  # the pair rule: see the docstring
            if dk in steps and not ma + mb <= 2.0 * da * (tb - ta) + abs(wb - wa):
                if dk == 7:
                    index += 1
                elif dk == -7:
                    index -= 1
                ta, wa, ka, ma, da = tb, wb, kb, mb, db
                if not stack:
                    break
                tb, wb, kb, mb, db = stack.pop()
                continue
            mid = 0.5 * (ta + tb)
            if not ta < mid < tb:
                raise NonTerminationError(
                    f"parameter gap [{ta!r}, {tb!r}] is below float resolution"
                )
            pm = a + ((mid - c) / length) * d
            insertions += 1
            rm = samples.get(pm)  # the window read, as for the initial samples
            if rm is None:
                rm = previous_samples.pop(pm, None)
                if rm is None:
                    w = feval(f, pm, ctr)
                    if w == 0:
                        return SingularError(mid, guarantee, insertions)
                    rm = (w, sector(w), abs(w), abs(feval(df, pm)))
                samples[pm] = rm
            if mid - ta <= Q:
                # The guard fired; as in ``_refine``, report the pre-split
                # endpoint with the smaller modulus (ties go left).
                return SingularError(ta if ma <= mb else tb, guarantee, insertions)
            stack.append((tb, wb, kb, mb, db))
            tb = mid
            wb, kb, mb, db = rm
    return Normal(index, insertions)


def initial_samples(curve: BoundaryCurve) -> list[float]:
    """Vertex parameters of the boundary, padded so no gap exceeds per/8.

    Every polygon vertex appears as a parameter (so edges are sampled at
    least at their endpoints), long edges are subdivided uniformly, and
    both endpoints 0 and per are present.  Only parameters are returned,
    in a new list; the curve is left as it is.  One pass over the vertex
    parameters pads each gap c1 - c0.  That gap, not the edge's length,
    decides the pieces: c1 is c0 + length rounded, so the two differ in
    the last bit on about half of all edges.
    """
    target = curve.perimeter / 8.0
    params = [0.0]
    cum = curve.vertex_params
    for c0, c1 in zip(cum, cum[1:]):
        gap = c1 - c0
        if gap > target:
            pieces = math.ceil(gap / target)
            for k in range(1, pieces):
                params.append(c0 + gap * (k / pieces))
        params.append(c1)
    return params
