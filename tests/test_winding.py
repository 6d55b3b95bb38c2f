"""Insertion procedures: predicates, refinement, and singularity control."""

import cmath
import importlib
import math
import operator
import random
import re

import pytest

from windroot import (
    BoundaryCurve,
    ConvexRegion,
    NonTerminationError,
    Normal,
    Polynomial,
    SingularError,
    SingularPointError,
    boundary,
    choose_q,
    cut,
    divide,
    envelope,
    initial_samples,
    ip,
    ips,
    ipsr,
    lipschitz_bound,
    net_crossings,
    pred_p,
    pred_q,
    pred_q2,
    pred_r,
    rdp,
)
from windroot.geometry import SIN_PI_8, connected, sector_of
from windroot.poly import EvalCounter, eval as peval
from windroot.rdp import RdpStats
from windroot.winding import _CONNECTED_STEPS, SampleArray, _refine
from windroot.oracle import RootList, condition_number, dist_set_curve, winding_brute

from support import (
    float_bits,
    poly_from_roots,
    random_convex_polygon,
    random_lead,
    random_roots,
    random_rect_clear_of,
    rect,
    reference_curve,
    reference_eval,
    reference_initial_samples,
)


def image_array(images: dict[float, complex]) -> SampleArray:
    """Array over the given parameters with prescribed (synthetic) images."""
    return SampleArray(sorted(images), lambda t: (t, images[t]))


def ngon(radius: float, center: complex = 0j, k: int = 64) -> ConvexRegion:
    return ConvexRegion(
        tuple(center + radius * cmath.exp(2j * math.pi * j / k) for j in range(k))
    )


def uniform_params(curve, pieces: int = 8) -> list[float]:
    per = curve.perimeter
    return [per * k / pieces for k in range(pieces + 1)]


def widest_gap(params: list[float]) -> float:
    return max(b - a for a, b in zip(params, params[1:]))


class TestPredicates:
    def test_p_adjacent_sectors_connected(self):
        S = image_array({0.0: 1 + 0.1j, 1.0: 0.5 + 1j})
        assert not pred_p(S, 0)

    def test_p_two_sectors_apart(self):
        S = image_array({0.0: 1 + 0j, 1.0: 1j})
        assert pred_p(S, 0)

    def test_p_wraparound_sectors_connected(self):
        S = image_array({0.0: 1 - 0.1j, 1.0: 1 + 0.1j})
        assert not pred_p(S, 0)

    def test_q_wide_gap_with_small_images(self):
        S = image_array({0.0: 0.1 + 0j, 1.0: 0.1j})
        assert pred_q(S, 0, 1.0)

    def test_q_narrow_gap_with_large_images(self):
        S = image_array({0.0: 1 + 0j, 0.1: 1 + 0j})
        assert not pred_q(S, 0, 1.0)

    def test_q_boundary_inclusive(self):
        S = image_array({0.0: 0.5 + 0j, 1.0: 0.5 + 0j})
        assert pred_q(S, 0, 1.0)

    def test_q2_short_step_far_from_root(self):
        f = Polynomial((0, 1))
        pts = {0.0: 1 + 0j, 0.1: 1.1 + 0j}
        S = SampleArray([0.0, 0.1], lambda t: (pts[t], peval(f, pts[t])[0]))
        assert not pred_q2(S, 0, f)

    def test_q2_symmetric_straddle_of_root(self):
        f = Polynomial((0, 1))
        pts = {0.0: -0.05 + 0j, 0.1: 0.05 + 0j}
        S = SampleArray([0.0, 0.1], lambda t: (pts[t], peval(f, pts[t])[0]))
        assert pred_q2(S, 0, f)

    def test_q2_invariant_under_constant_scaling(self):
        rng = random.Random(44)
        c = 3 - 4j
        for _ in range(25):
            roots = random_roots(rng, rng.randint(2, 6))
            f = poly_from_roots(roots, random_lead(rng))
            cf = Polynomial(tuple(c * a for a in f.coeffs))
            region = random_rect_clear_of(rng, roots, margin=0.05)
            curve = boundary(region)
            base = initial_samples(curve)
            Sf = SampleArray(base, lambda t: (curve(t), peval(f, curve(t))[0]))
            Scf = SampleArray(base, lambda t: (curve(t), peval(cf, curve(t))[0]))
            for i in range(Sf.m):
                assert pred_q2(Sf, i, f) == pred_q2(Scf, i, cf)

    def test_one_sector_difference_decides_every_pair(self):
        # ipsr reads a pair's connectivity and crossing from dk = ka - kb,
        # through the one table geometry keeps; the modular rule written
        # out here is the reference: equal or adjacent modulo 8, and a
        # crossing only between sectors 7 and 0.
        geometry = importlib.import_module("windroot.geometry")
        winding = importlib.import_module("windroot.winding")
        assert winding._CONNECTED_STEPS is geometry._CONNECTED_STEPS
        for ka in range(8):
            for kb in range(8):
                dk = ka - kb
                adjacent = dk % 8 in (0, 1, 7)
                crossing = ((ka, kb) == (7, 0)) - ((ka, kb) == (0, 7))
                assert (dk in _CONNECTED_STEPS) == adjacent == connected(ka, kb)
                assert _CONNECTED_STEPS.get(dk, 0) == crossing == net_crossings([ka, kb])

    def test_r_inclusive_at_exact_gap(self):
        S = image_array({0.0: 1 + 0j, 0.5: 1 + 0j, 2.5: 1 + 0j})
        assert pred_r(S, 0, 1.0)
        assert not pred_r(S, 1, 1.0)
        assert pred_r(S, 0, 0.5)


class TestSampleArray:
    def test_construction_validates_parameters(self):
        with pytest.raises(ValueError):
            SampleArray([0.0], lambda t: (t, 1 + 0j))
        with pytest.raises(ValueError):
            SampleArray([0.5, 1.0], lambda t: (t, 1 + 0j))
        with pytest.raises(ValueError):
            SampleArray([0.0, 1.0, 1.0], lambda t: (t, 1 + 0j))

    def test_insert_splits_one_gap_and_counts(self):
        S = SampleArray([0.0, 1.0, 2.0], lambda t: (t, 1 + t * 1j))
        S.insert(0, 0.25)
        assert S.params == [0.0, 0.25, 1.0, 2.0]
        assert S.insertions == 1
        assert S.gap(0) == 0.25 and S.gap(1) == 0.75
        assert S.gap(2) == 1.0

    def test_insert_outside_pair_rejected(self):
        S = image_array({0.0: 1 + 0j, 1.0: 1j})
        with pytest.raises(ValueError):
            S.insert(0, 1.5)

    def test_singular_sector_carries_parameter(self):
        S = image_array({0.0: 1 + 0j, 2.0: 0j})
        with pytest.raises(SingularPointError) as err:
            S.sector(1)
        assert err.value.t == 2.0


class TestIp:
    def test_identity_circle_one_turn(self):
        curve = boundary(ngon(1.0))
        S = ip(curve, 1.0, uniform_params(curve), 10_000)
        assert net_crossings(S.sectors()) == 1

    def test_squared_circle_two_turns(self):
        region = ngon(1.0)
        curve = boundary(region)
        f = Polynomial((0, 0, 1))
        L = lipschitz_bound(f, region)
        S = ip(lambda t: peval(f, curve(t))[0], L, uniform_params(curve), 10_000)
        assert net_crossings(S.sectors()) == 2
        assert winding_brute(lambda t: peval(f, curve(t))[0], per=curve.perimeter) == 2

    def test_displaced_circle_no_turns(self):
        curve = boundary(ngon(1.0, center=3 + 0j))
        S = ip(curve, 1.0, uniform_params(curve), 10_000)
        assert net_crossings(S.sectors()) == 0

    def test_iteration_guard_raises(self):
        region = ngon(1.0)
        curve = boundary(region)
        f = Polynomial((0, 0, 1))
        delta = lambda t: peval(f, curve(t))[0]
        with pytest.raises(NonTerminationError):
            ip(delta, lipschitz_bound(f, region), uniform_params(curve), 3)

    def test_exact_zero_image_raises_with_parameter(self):
        curve = boundary(rect(0, -1, 2, 1))  # passes through the origin at t = 7
        with pytest.raises(SingularPointError) as err:
            ip(curve, 1.0, initial_samples(curve), 10_000)
        assert err.value.t == 7.0

    def test_iteration_count_within_singularity_bound(self):
        # With e the curve's certified distance to the origin, the
        # refinement count is far below the worst-case formula in terms
        # of L, the span, the widest initial gap, and e.
        rng = random.Random(61)
        for _ in range(3):
            roots = random_roots(rng, rng.randint(2, 5))
            f = poly_from_roots(roots, random_lead(rng))
            region = random_rect_clear_of(rng, roots, margin=0.5)
            curve = boundary(region)
            s0 = initial_samples(curve)
            L = lipschitz_bound(f, region)
            d = dist_set_curve(RootList(tuple(roots)), curve)
            eps = abs(f.coeffs[-1]) * d ** f.degree
            span = curve.perimeter
            widest = widest_gap(s0)
            S = ip(lambda t: peval(f, curve(t))[0], L, s0, 200_000)
            bound = (4 * L * span / (math.pi * eps)) * math.floor(
                L * widest / eps
            ) * math.ceil(math.log2(4 * L * widest / (math.pi * eps))) + (
                4 * L * widest / (math.pi * eps) + 1
            ) * math.floor(L * span / eps)
            assert S.insertions <= bound


class TestIps:
    def test_far_curve_returns_normal(self):
        curve = boundary(ngon(2.0))
        out = ips(curve, 1.0, uniform_params(curve), 1e-3)
        assert isinstance(out, Normal)
        assert out.index == 1

    def test_zero_image_is_immediate_error(self):
        curve = boundary(rect(0, -1, 2, 1))
        out = ips(curve, 1.0, initial_samples(curve), 1e-3)
        assert isinstance(out, SingularError)
        assert out.t == 7.0
        assert out.guarantee == 1.0 * 1e-3 / SIN_PI_8
        assert out.insertions == 0

    def test_error_exit_returns_smaller_endpoint(self):
        out = ips(lambda t: {0.0: 5 + 0j, 0.5: 4 + 0j, 1.0: 3 + 0j}[t], 100.0, [0.0, 1.0], 1.0)
        assert isinstance(out, SingularError)
        assert out.t == 1.0
        assert out.insertions == 1

    def test_error_exit_ties_go_left(self):
        out = ips(lambda t: {0.0: 5 + 0j, 0.5: 4 + 0j, 1.0: 5 + 0j}[t], 100.0, [0.0, 1.0], 1.0)
        assert isinstance(out, SingularError)
        assert out.t == 0.0

    def test_near_origin_circle_refines_but_returns_normal(self):
        curve = boundary(ngon(1.0, center=1.05 + 0j))
        out = ips(curve, 1.0, uniform_params(curve), 1e-4)
        assert isinstance(out, Normal)
        assert out.index == 0
        assert 0 < out.insertions < math.floor(curve.perimeter / 1e-4)

    def test_rejects_nonpositive_q(self):
        curve = boundary(ngon(1.0))
        with pytest.raises(ValueError):
            ips(curve, 1.0, uniform_params(curve), 0.0)


class TestIpsr:
    def run(self, f, region, Q=1e-3):
        curve = boundary(region)
        ctr = EvalCounter()
        out = ipsr(curve, f, initial_samples(curve), Q, ctr)
        return out, curve, ctr

    def test_three_roots_inside_square(self):
        out, curve, ctr = self.run(Polynomial((1, 0, 0, 1)), rect(-2, -2, 2, 2))
        assert isinstance(out, Normal)
        assert out.index == 3
        assert out.insertions < math.floor(curve.perimeter / 1e-3 + 1)

    def test_root_on_boundary_is_singular(self):
        out, _, _ = self.run(Polynomial((-1, 1)), rect(1, -1, 3, 1))
        assert isinstance(out, SingularError)
        assert out.guarantee == math.sqrt(2.0) / (4.0 * 1e-3)

    def test_shifted_square_still_counts_three(self):
        out, _, _ = self.run(Polynomial((-1, 0, 0, 1)), rect(-1.9, -2, 2.1, 2))
        assert isinstance(out, Normal)
        assert out.index == 3

    def test_normal_array_is_clean_everywhere(self):
        # ``ipsr`` keeps no samples; the scan it reproduces exactly does.
        f = Polynomial((1, 0, 0, 1))
        curve = boundary(rect(-2, -2, 2, 2))
        S, out = refined_scan(curve, f, initial_samples(curve), 1e-3, EvalCounter())
        assert isinstance(out, Normal)
        for i in range(S.m):
            assert not pred_p(S, i)
            assert not pred_q2(S, i, f)
        TestIpsrMatchesScan().assert_same(curve, f, 1e-3)

    def test_counter_refuses_another_polynomial(self):
        # The window is keyed by the point alone: z - 9 on a counter reused
        # from z^3 + 1 would read the cube's records and count 3 roots inside.
        curve = boundary(ConvexRegion.from_json({"rect": [-2, -2, 2, 2]}))
        ctr = EvalCounter()
        cube, line = Polynomial((1, 0, 0, 1)), Polynomial((-9, 1))
        assert ipsr(curve, cube, initial_samples(curve), 1e-3, ctr) == Normal(3, 40)
        before = (ctr.evaluations, dict(ctr.samples), ctr.polynomial)
        with pytest.raises(ValueError, match="^the counter serves another polynomial$"):
            ipsr(curve, line, initial_samples(curve), 1e-3, ctr)
        assert (ctr.evaluations, ctr.samples, ctr.polynomial) == before
        assert ipsr(curve, line, initial_samples(curve), 1e-3, EvalCounter()) == Normal(0, 0)

    def test_counter_serves_an_equal_polynomial_built_anew(self):
        curve = boundary(rect(-2, -2, 2, 2))
        ctr = EvalCounter()
        first = ipsr(curve, Polynomial((1, 0, 0, 1)), initial_samples(curve), 1e-3, ctr)
        metered = ctr.evaluations
        again = ipsr(curve, Polynomial((1, 0, 0, 1)), initial_samples(curve), 1e-3, ctr)
        assert again == first
        assert ctr.evaluations == metered  # the window serves every point

    def test_memoized_evaluations_one_per_distinct_point(self):
        out, curve, ctr = self.run(Polynomial((1, 0, 0, 1)), rect(-2, -2, 2, 2))
        # The closure revisits the start point; every other sample is new.
        assert ctr.evaluations == len(initial_samples(curve)) - 1 + out.insertions

    def test_sample_window_spans_two_levels(self, monkeypatch):
        # A sample in the window is neither evaluated (the one metered call
        # that gives f and f') nor classified again.
        winding_module = importlib.import_module("windroot.winding")
        original_eval, original_sector = winding_module.eval, winding_module.sector_of
        f_evals, df_evals, sectors = [], [], []

        def counting_eval(g, z, ctr=None):
            (df_evals if ctr is None else f_evals).append(z)
            return original_eval(g, z, ctr)

        def counting_sector(w):
            sectors.append(w)
            return original_sector(w)

        monkeypatch.setattr(winding_module, "eval", counting_eval)
        monkeypatch.setattr(winding_module, "sector_of", counting_sector)
        f = Polynomial((1, 0, 0, 1))
        curve = boundary(rect(-2, -2, 2, 2))
        ctr = EvalCounter()

        def rerun():
            for calls in (f_evals, df_evals, sectors):
                calls.clear()
            return ipsr(curve, f, initial_samples(curve), 1e-3, ctr)

        first = rerun()
        assert isinstance(first, Normal)
        cold = (len(f_evals), len(df_evals), len(sectors))
        # The closure revisits the start point, which the window serves;
        # no evaluation goes unmetered.
        assert cold[0] == cold[2] == len(ctr.samples) == ctr.evaluations and cold[1] == 0
        assert rerun() == first and f_evals == df_evals == sectors == []
        ctr.next_level()  # the previous level still serves, and moves up
        assert rerun() == first and f_evals == df_evals == sectors == []
        assert len(ctr.samples) == cold[0] and ctr.previous_samples == {}
        ctr.next_level()
        ctr.next_level()
        assert rerun() == first
        assert (len(f_evals), len(df_evals), len(sectors)) == cold
        assert ctr.evaluations == 2 * cold[0]  # every point is metered again

    def test_window_records_are_made_once_and_whole(self, monkeypatch):
        # Every record that a run's window held, in any level, is the
        # tuple (f(z), sector, |f(z)|, |f'(z)|), bit for bit as computed
        # afresh at its point.  Levels only gain records until they age
        # out, so each level is checked as the run left it.
        rdp_module = importlib.import_module("windroot.rdp")
        original_ipsr = rdp_module.ipsr
        levels = {}

        def keeping_ipsr(curve, f, s0, Q, ctr):
            out = original_ipsr(curve, f, s0, Q, ctr)
            for window in (ctr.samples, ctr.previous_samples):
                levels[id(window)] = window
            return out

        monkeypatch.setattr(rdp_module, "ipsr", keeping_ipsr)
        f = Polynomial((1, 0, 0, 1))
        boxes, stats = rdp(rect(-2, -2, 2, 2), f, 1e-6)
        assert [b.count for b in boxes] == [1, 1, 1]
        assert len(levels) > stats.max_level > 10
        for window in levels.values():
            for z, record in window.items():
                assert type(record) is tuple
                w, dw = reference_eval(f, z)
                want = (w, sector_of(w), abs(w), abs(dw))
                assert float_bits(record) == float_bits(want)

    def test_every_solve_path_eval_is_metered(self, monkeypatch):
        # A window miss makes its record, f' included, from one metered
        # call: every ``winding.eval`` call of a run passes the run's
        # counter, and there are as many calls as the counter counts.
        winding_module = importlib.import_module("windroot.winding")
        original_eval = winding_module.eval
        calls = []

        def recording_eval(g, z, ctr=None):
            calls.append(ctr)
            return original_eval(g, z, ctr)

        monkeypatch.setattr(winding_module, "eval", recording_eval)
        # A whole run, a zero image at an initial sample (0.5) and one at a
        # midpoint (0.25).
        _, stats = rdp(rect(-2, -2, 2, 2), Polynomial((1, 0, 0, 1)), 1e-6)
        assert None not in calls and len(set(map(id, calls))) == 1
        assert len(calls) == stats.pe > 1000
        for root in (0.5, 0.25):
            calls.clear()
            out, _, ctr = self.run(Polynomial((-root, 1)), rect(0, 0, 1, 1))
            assert isinstance(out, SingularError) and out.t == root
            assert calls == [ctr] * ctr.evaluations

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the width test scales by |f'| at one point, "
        "which misses the root pair on a long thin edge at degree 3",
    )
    def test_degree_three_count_on_a_long_thin_rectangle(self):
        # Two roots lie inside, the nearest 0.036 (about 5e4 guard widths)
        # from the border; rdp on this input at 1e-3 exits 4.
        roots = [5.62 + 0.05j, 5.76 - 0.0757j, 8.47 + 0.0637j]
        f = poly_from_roots(roots)
        curve = boundary(rect(0, 0, 10, 0.1))
        assert winding_brute(lambda t: peval(f, curve(t))[0], per=curve.perimeter) == 2
        out = ipsr(curve, f, initial_samples(curve), choose_q(1e-4, 3, 3), EvalCounter())
        assert isinstance(out, Normal) and out.index == 2

    @pytest.mark.parametrize("Q", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "procedure",
        [
            lambda curve, Q: ips(curve, 1.0, initial_samples(curve), Q),
            lambda curve, Q: ipsr(
                curve, Polynomial((1, 0, 0, 1)), initial_samples(curve), Q, EvalCounter()
            ),
        ],
        ids=["ips", "ipsr"],
    )
    def test_guard_width_must_be_positive_and_finite(self, procedure, Q):
        # A NaN guard never fires; an infinite one fires at the first split.
        with pytest.raises(ValueError, match="Q must be positive"):
            procedure(boundary(rect(-2, -2, 2, 2)), Q)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "procedure",
        [
            lambda delta, L, s0: ip(delta, L, s0, 1000),
            lambda delta, L, s0: ips(delta, L, s0, 1e-3),
        ],
        ids=["ip", "ips"],
    )
    def test_lipschitz_constant_must_be_positive_and_finite(self, procedure, L):
        # On z^3+1 over [-2,2]^2, which holds three roots, a NaN L fails
        # every width test (index 0), L = 0 divides by zero, and a negative
        # or infinite L bisects down to the guard: each is refused before
        # any sample.
        f = Polynomial((1, 0, 0, 1))
        curve = boundary(rect(-2, -2, 2, 2))
        sampled = []

        def delta(t):
            sampled.append(t)
            return peval(f, curve(t))[0]

        with pytest.raises(ValueError, match="L must be positive"):
            procedure(delta, L, [0.0, curve.perimeter])
        assert sampled == []

    def test_zero_image_at_initial_sample(self):
        out, _, _ = self.run(Polynomial((-0.5, 1)), rect(0, 0, 1, 1))
        assert isinstance(out, SingularError)
        assert out.t == 0.5
        assert out.insertions == 0

    def test_error_certificate_matches_root_geometry(self):
        rng = random.Random(433)
        Q = 1e-3
        errors = 0
        for _ in range(3):
            n = rng.randint(2, 6)
            roots = random_roots(rng, n)
            region = random_rect_clear_of(rng, roots, margin=0.3)
            x0, y0, x1, _ = envelope(region)
            near = complex(rng.uniform(x0 + 0.2, x1 - 0.2), y0 + Q / 10)
            roots[0] = near
            f = poly_from_roots(roots, random_lead(rng))
            curve = boundary(region)
            out = ipsr(curve, f, initial_samples(curve), Q, EvalCounter())
            if isinstance(out, SingularError):
                errors += 1
                kappa = condition_number(RootList(tuple(roots)), curve)
                assert kappa >= math.sqrt(2) / (4 * Q) * (1 - 1e-9)
                assert dist_set_curve(RootList(tuple(roots)), curve) <= 4 * n * Q / math.sqrt(2) * (1 + 1e-9)
        assert errors >= 1


def refined_scan(curve, f, s0, Q, ctr):
    """The left-to-right scan ``ipsr`` must reproduce: ``_refine`` with pred_p, pred_q2.

    Returns the scan's sample array and its outcome.
    """

    def sample(t):
        p = curve(t)
        return p, peval(f, p, ctr)[0]

    S = SampleArray(s0, sample)
    guarantee = math.sqrt(2.0) / (4.0 * Q)
    for j, w in enumerate(S.images):
        if w == 0:
            return S, SingularError(S.params[j], guarantee, S.insertions)
    err = _refine(S, lambda i: pred_p(S, i) or pred_q2(S, i, f), Q, guarantee)
    if err is not None:
        return S, err
    return S, Normal(net_crossings(S.sectors()), S.insertions)


def ipsr_scan(curve, f, s0, Q, ctr):
    return refined_scan(curve, f, s0, Q, ctr)[1]


def warmed_counter(f, Q, warm=None):
    """A fresh counter, or with ``warm = (curve, aged)`` one that has run
    ``ipsr`` on that curve and, if ``aged``, then moved to the next level."""
    ctr = EvalCounter()
    if warm is not None:
        curve, aged = warm
        ipsr(curve, f, initial_samples(curve), Q, ctr)
        if aged:
            ctr.next_level()
    return ctr


def outcome(procedure, curve, f, s0, Q, ctr):
    try:
        return procedure(curve, f, s0, Q, ctr)
    except NonTerminationError as exc:
        return ("NonTerminationError", str(exc))


def outcome_and_meter(procedure, curve, f, Q, warm=None):
    ctr = warmed_counter(f, Q, warm)
    return outcome(procedure, curve, f, initial_samples(curve), Q, ctr), ctr


def window_misses(f, points, held):
    """The points of ``points`` that the sample window does not serve, in order.

    ``held`` holds the points whose records the window has at the start;
    a point evaluated gets its record, unless its image is exactly zero.
    """
    held = set(held)
    misses = []
    for p in points:
        if p not in held:
            misses.append(p)
            if peval(f, p)[0] != 0:
                held.add(p)
    return misses


class TestIpsrMatchesScan:
    """The depth-first loop of ``ipsr`` against the reference scan."""

    def assert_same(self, curve, f, Q, warm=None):
        ctr = warmed_counter(f, Q, warm)
        held = set(ctr.samples) | set(ctr.previous_samples)
        before = ctr.evaluations
        s0 = initial_samples(curve)
        metered = []

        def recording_eval(g, z, c=None):
            if c is not None:
                metered.append(z)
            return peval(g, z, c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(importlib.import_module("windroot.winding"), "eval", recording_eval)
            got = outcome(ipsr, curve, f, s0, Q, ctr)
        scanned = []
        scan_ctr = EvalCounter()
        want = outcome(
            ipsr_scan, lambda t: scanned.append(curve(t)) or scanned[-1], f, s0, Q, scan_ctr
        )
        assert type(got) is type(want)
        if isinstance(want, Normal):
            assert got.index == want.index
            assert got.insertions == want.insertions
        elif isinstance(want, SingularError):
            assert got == want  # t, guarantee and insertions
        else:
            assert got == want  # the same NonTerminationError message
        # The scan evaluates every point it samples; ipsr evaluates, and
        # meters, those of them that its window does not serve, in order.
        assert scan_ctr.evaluations == len(scanned)
        assert ctr.evaluations - before == len(metered)
        assert float_bits(metered) == float_bits(window_misses(f, scanned, held))
        return want

    def test_seeded_instances_agree(self):
        rng = random.Random(3031)
        kinds = {Normal: 0, SingularError: 0}
        for k in range(320):
            n = rng.randint(1, 12)
            roots = random_roots(rng, n, min_sep=0.1)
            Q = 10 ** rng.uniform(-3.5, -1.5)
            if k % 4 == 3:
                # A root within Q/10 of an edge (mostly error exits), or
                # a few Q inside it (deep refinement).
                region = random_rect_clear_of(rng, roots, margin=0.2)
                x0, y0, x1, _ = envelope(region)
                off = rng.uniform(-0.1, 0.1) if k % 8 == 3 else rng.uniform(2.0, 50.0)
                roots[0] = complex(rng.uniform(x0 + 0.1, x1 - 0.1), y0 + off * Q)
            elif k % 4 == 2:
                region = random_convex_polygon(rng)
            else:
                region = random_rect_clear_of(rng, roots, margin=0.05)
            f = poly_from_roots(roots, random_lead(rng))
            out = self.assert_same(boundary(region), f, Q)
            kinds[type(out)] += 1
        assert kinds[Normal] >= 200 and kinds[SingularError] >= 30

        # High degree: z^n - 1 on ROADMAP item 1's rectangle and on the
        # parts of one division of it, at the guard widths rdp uses.
        region = rect(-2.1, -2.13, 2.07, 2.11)
        for n in (20, 33, 46, 64):
            f = Polynomial((-1,) + (0,) * (n - 1) + (1,))
            out = self.assert_same(boundary(region), f, choose_q(1e-3, n, n))
            q = choose_q(1e-3, out.index, n)
            for part, _ in divide(region, f, q, out.index, EvalCounter(), RdpStats()):
                self.assert_same(boundary(part), f, q)
        # Random degree 20-60, with a root near an edge as above in every
        # other instance.
        high = {Normal: 0, SingularError: 0}
        for k in range(12):
            roots = random_roots(rng, rng.randint(20, 60), min_sep=0.1)
            Q = 10 ** rng.uniform(-4, -3)
            region = random_rect_clear_of(rng, roots, margin=0.05)
            if k % 2:
                x0, y0, x1, _ = envelope(region)
                off = rng.uniform(-0.1, 0.1) if k % 4 == 1 else rng.uniform(2.0, 50.0)
                roots[0] = complex(rng.uniform(x0 + 0.1, x1 - 0.1), y0 + off * Q)
            f = poly_from_roots(roots, random_lead(rng))
            high[type(self.assert_same(boundary(region), f, Q))] += 1
        assert high[Normal] >= 6 and high[SingularError] >= 2

    def test_warmed_counter_agrees(self):
        # A cut part shares boundary points with its parent, so its test
        # reads records that the parent's test made, in the current level
        # or, after ``next_level``, the previous one.
        rng = random.Random(3037)
        kinds = {Normal: 0, SingularError: 0}
        misses = cold = 0
        for k in range(16):
            roots = random_roots(rng, rng.randint(2, 12), min_sep=0.1)
            region = random_rect_clear_of(rng, roots, margin=0.05)
            Q = 10 ** rng.uniform(-3.5, -2)
            f = poly_from_roots(roots, random_lead(rng))
            parent = boundary(region)
            for part in cut(region, "vertical" if k % 2 else "horizontal", 0.0):
                curve = boundary(part)
                warm = (parent, k % 4 >= 2)
                kinds[type(self.assert_same(curve, f, Q, warm=warm))] += 1
                # Keys never sit in both dicts, so the window grows by the misses.
                ctr = warmed_counter(f, Q, warm)
                held = len(ctr.samples) + len(ctr.previous_samples)
                ipsr(curve, f, initial_samples(curve), Q, ctr)
                misses += len(ctr.samples) + len(ctr.previous_samples) - held
                cold += len(outcome_and_meter(ipsr, curve, f, Q)[1].samples)
        assert kinds[Normal] >= 24
        assert misses < 0.8 * cold

    def test_boundary_cases_agree(self):
        # The first pair's images f(0) = 5 and f(0.5) = 5j lie two
        # sectors apart, with equal moduli; its left half 0.25 equals
        # Q = 0.25, so the guard fires (inclusive) and reports the left
        # endpoint (ties go left).
        f = Polynomial((5, -10 + 10j))
        out = self.assert_same(boundary(rect(0, 0, 1, 1)), f, 0.25)
        assert out == SingularError(0.0, math.sqrt(2.0), 1)
        # An exactly zero image at an initial sample.
        self.assert_same(boundary(rect(0, 0, 1, 1)), Polynomial((-0.5, 1)), 1e-3)
        # Several: z(z - 1) vanishes at the initial samples t = 0, 1 and 4.
        # Every initial sample is metered (9, t = 4 again after t = 0, as a
        # zero gets no record), the first zero in s0 order is reported, and
        # only the 6 nonzero points get records.
        f = Polynomial((0, -1, 1))
        out = self.assert_same(boundary(rect(0, 0, 1, 1)), f, 1e-3)
        assert out == SingularError(0.0, math.sqrt(2.0) / 4e-3, 0)
        _, ctr = outcome_and_meter(ipsr, boundary(rect(0, 0, 1, 1)), f, 1e-3)
        assert (ctr.evaluations, len(ctr.samples)) == (9, 6)
        # A guard width below the float spacing of the parameter.
        f = Polynomial((-1,) + (0,) * 59 + (1,))
        region = rect(1, -2.1, 3, 2.3)
        out, _ = outcome_and_meter(ipsr, boundary(region), f, 1.9e-17)
        assert out[0] == "NonTerminationError"
        self.assert_same(boundary(region), f, 1.9e-17)


class TestInitialSamples:
    def test_unit_square_vertices_and_midpoints(self):
        s0 = initial_samples(boundary(rect(0, 0, 1, 1)))
        assert s0 == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

    def test_gaps_bounded_by_eighth_of_perimeter(self):
        tri = ConvexRegion((0j, 5 + 0j, 5 + 3j))
        s0 = initial_samples(boundary(tri))
        per = boundary(tri).perimeter
        assert widest_gap(s0) <= per / 8 * (1 + 1e-12)

    def test_all_vertices_present(self):
        region = ConvexRegion((0j, 2 + 0j, 2.5 + 1j, 1 + 2j))
        curve = boundary(region)
        assert set(curve.vertex_params) <= set(initial_samples(curve))

    def test_closure_endpoints_share_the_point(self):
        curve = boundary(rect(0, 0, 1, 1))
        s0 = initial_samples(curve)
        assert curve(s0[0]) == curve(s0[-1])


class AskedDict(dict):
    """A sample window that records every point ``ipsr`` looks up in it."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def sampled_curves(rng, count):
    """Random convex polygons, rectangles up to 1e6 from the origin,
    rectangles down to 1e-9 across, and the cut parts of each."""
    for k in range(count):
        if k % 3 == 0:
            region = random_convex_polygon(rng)
        else:
            if k % 3 == 1:
                x0, y0 = (rng.uniform(-1e6, 1e6) for _ in range(2))
                w, h = (rng.uniform(0.1, 10.0) for _ in range(2))
            else:
                x0, y0 = (rng.uniform(-2.0, 2.0) for _ in range(2))
                w, h = (10 ** rng.uniform(-9, -6) for _ in range(2))
            region = rect(x0, y0, x0 + w, y0 + h)
        yield boundary(region)
        x0, y0, x1, y1 = envelope(region)
        for axis, extent in (("horizontal", y1 - y0), ("vertical", x1 - x0)):
            for part in cut(region, axis, rng.uniform(-0.45, 0.45) * extent):
                if part is not None:
                    yield boundary(part)


def roots_around(rng, curve):
    """A polynomial with roots inside, near the border and outside the
    curve's region, and a guard width of 1e-4 to 1e-3 of its size."""
    x0, y0, x1, y1 = envelope(curve.region)
    size = max(x1 - x0, y1 - y0)
    margin = size / 4
    roots = [
        complex(rng.uniform(x0 - margin, x1 + margin), rng.uniform(y0 - margin, y1 + margin))
        for _ in range(rng.randint(1, 4))
    ]
    return poly_from_roots(roots), size * 10 ** rng.uniform(-4, -3)


def ipsr_asked(curve, f, s0, Q):
    """``ipsr``'s outcome and the points it looked up in its window, in order."""
    ctr = EvalCounter()
    ctr.samples = AskedDict()
    return ipsr(curve, f, s0, Q, ctr), ctr.samples.asked


def assert_scan_agrees(curve, f, s0, Q, got, asked):
    # The scan samples every parameter through the curve, in the order
    # in which ipsr looks its points up.
    seen = []
    want = ipsr_scan(lambda t: seen.append(curve(t)) or seen[-1], f, s0, Q, EvalCounter())
    assert got == want
    assert float_bits(asked) == float_bits(seen)


class TestCurveAgainstReference:
    def test_curves_and_initial_samples_match_the_vertex_formulas(self):
        # Every region and cut part that sampled_curves draws, and parts of
        # random cuts of each: the curve and its initial samples are the
        # ones computed afresh from the vertex tuple, float for float.
        rng = random.Random(7415)
        checked = 0
        for drawn in sampled_curves(rng, 150):
            curves = [drawn]
            x0, y0, x1, y1 = envelope(drawn.region)
            for _ in range(3):
                axis = rng.choice(("horizontal", "vertical"))
                extent = (y1 - y0) if axis == "horizontal" else (x1 - x0)
                lam = rng.choice((0.0, rng.uniform(-0.5, 0.5) * extent))
                curves.extend(boundary(p) for p in cut(drawn.region, axis, lam) if p is not None)
            for curve in curves:
                points, cum, edges = reference_curve(curve.region.vertices)
                assert float_bits(curve.points) == float_bits(points)
                assert float_bits(curve.vertex_params) == float_bits(cum)
                assert float_bits(curve.edges) == float_bits(edges)
                assert float_bits(curve.perimeter) == float_bits(cum[-1])
                assert float_bits(initial_samples(curve)) == float_bits(
                    reference_initial_samples(cum)
                )
                checked += 1
        assert checked > 1500


class TestSamplesFromEdges:
    """``ipsr`` computes points from the edges, float for float as
    ``curve(t)`` does, never calls the curve, and takes any ``s0`` from 0
    to the perimeter that holds every vertex parameter."""

    def test_initial_points_are_the_curve_points(self):
        rng = random.Random(7411)
        for curve in sampled_curves(rng, 600):
            # One root far outside: few insertions after the initial samples.
            x0, y0, x1, y1 = envelope(curve.region)
            f = Polynomial((-complex(x1 + 10 * (x1 - x0), y1), 1))
            s0 = initial_samples(curve)
            _, asked = ipsr_asked(curve, f, s0, 1e-3 * (x1 - x0))
            assert float_bits(asked[: len(s0)]) == float_bits([curve(t) for t in s0])

    def test_midpoints_are_the_curve_points(self, monkeypatch):
        rng = random.Random(7412)
        curve_calls = []
        original = BoundaryCurve.__call__

        def counting(self, t):
            curve_calls.append(t)
            return original(self, t)

        monkeypatch.setattr(BoundaryCurve, "__call__", counting)
        kinds = {Normal: 0, SingularError: 0}
        inserted = 0
        for curve in sampled_curves(rng, 45):
            f, Q = roots_around(rng, curve)
            s0 = initial_samples(curve)
            curve_calls.clear()
            got, asked = ipsr_asked(curve, f, s0, Q)
            assert curve_calls == []
            assert_scan_agrees(curve, f, s0, Q, got, asked)
            kinds[type(got)] += 1
            inserted += got.insertions
        assert kinds[Normal] >= 100 and kinds[SingularError] >= 20
        assert inserted > 1000

    def test_other_valid_s0_agree_with_the_scan(self):
        # The bare vertex parameters, and the padded ones with some
        # interior midpoints added.
        rng = random.Random(7413)
        kinds = {Normal: 0, SingularError: 0}
        for curve in sampled_curves(rng, 30):
            f, Q = roots_around(rng, curve)
            padded = initial_samples(curve)
            mids = [0.5 * (a + b) for a, b in zip(padded, padded[1:]) if rng.random() < 0.5]
            for s0 in (curve.vertex_params, sorted(padded + mids)):
                got, asked = ipsr_asked(curve, f, s0, Q)
                assert_scan_agrees(curve, f, s0, Q, got, asked)
                kinds[type(got)] += 1
        assert kinds[Normal] >= 200 and kinds[SingularError] >= 30

    def test_s0_skipping_a_vertex_refused(self):
        curve = boundary(rect(0, 0, 1, 1))
        s0 = initial_samples(curve)
        s0.remove(2.0)
        for bad, skipped in (([0.0, 2.0, 4.0], "1.0"), (s0, "2.0")):
            ctr = EvalCounter()
            with pytest.raises(ValueError, match=f"skips the vertex parameter {skipped}$"):
                ipsr(curve, Polynomial((1, 0, 0, 1)), bad, 1e-3, ctr)
            # Refused before any sample is evaluated or stored.
            assert ctr.evaluations == 0
            assert ctr.samples == {}

    def test_s0_not_ending_at_the_perimeter_refused(self):
        curve = boundary(rect(0, 0, 1, 1))
        s0 = initial_samples(curve)
        for bad in (s0[:-1], s0[:-1] + [3.75], s0 + [4.5]):
            ctr = EvalCounter()
            with pytest.raises(ValueError, match="s0 must end at the perimeter 4.0"):
                ipsr(curve, Polynomial((1, 0, 0, 1)), bad, 1e-3, ctr)
            assert ctr.evaluations == 0
            assert ctr.samples == {} and ctr.previous_samples == {}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.0, 0.5, 0.5, 1.0, 2.0, 3.0, 4.0], "parameters must be strictly increasing"),
            ([0.0, 1.0, 2.0, 1.5, 3.0, 4.0], "parameters must be strictly increasing"),
            ([0.0, 0.5, math.nan, 1.0, 2.0, 3.0, 4.0], "parameters must be strictly increasing"),
            # Past the perimeter before the end: the walk runs out of vertices.
            ([0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 4.0], "parameters must be strictly increasing"),
            ([0.5, 1.0, 2.0, 3.0, 4.0], "first parameter must be 0"),
            ([math.nan, 1.0, 2.0, 3.0, 4.0], "first parameter must be 0"),
            ([], "first parameter must be 0"),
            ([0.0, 1.0, 2.0, 3.0], "s0 must end at the perimeter 4.0"),
            ([0.0, 1.0, 2.0, 3.0, 4.0, 4.5], "s0 must end at the perimeter 4.0"),
            ([0.0, 1.0, 2.0, 3.0, math.nan], "s0 must end at the perimeter 4.0"),
            ([0.0, 1.0, 2.5, 3.0, 4.0], "s0 skips the vertex parameter 2.0"),
            ([0.0, 0.5, 1.5, 2.0, 3.0, 4.0], "s0 skips the vertex parameter 1.0"),
        ],
        ids=[
            "repeated", "decreasing", "nan", "past-perimeter-inside", "first-not-0",
            "first-nan", "empty", "short", "past-perimeter", "last-nan",
            "skipped-vertex", "skipped-first-vertex",
        ],
    )
    def test_every_s0_refusal_comes_before_any_evaluation(self, bad, message):
        # The walk that computes each initial point refuses s0 before the
        # first sample is looked up or evaluated.
        f = Polynomial((1, 0, 0, 1))
        curve = boundary(rect(0, 0, 1, 1))
        ctr = EvalCounter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ipsr(curve, f, bad, 1e-3, ctr)
        assert ctr.evaluations == 0
        assert ctr.samples == {} and ctr.previous_samples == {}
        # A counter aged after a test on an overlapping curve keeps its window.
        ctr = warmed_counter(f, 1e-3, (boundary(rect(0, 0, 1, 2)), True))
        before = (ctr.evaluations, dict(ctr.samples), dict(ctr.previous_samples))
        assert before[2]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ipsr(curve, f, bad, 1e-3, ctr)
        assert (ctr.evaluations, ctr.samples, ctr.previous_samples) == before

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ((-1,) + (0,) * 99 + (1e307,), "non-finite coefficient (inf+0j)"),
            ((5,), "derivative requires a polynomial of degree >= 1"),
        ],
        ids=["overflowing-derivative", "constant"],
    )
    def test_polynomial_refusals_come_before_any_evaluation(self, coeffs, message):
        # f = 1e307 z^100 - 1 builds, but its f' coefficient 1e309 is beyond
        # double range, and a constant has no f' to bound a gap with: each is
        # refused before the first sample is looked up or evaluated.
        f = Polynomial(coeffs)
        assert f.coeffs == tuple(complex(c) for c in coeffs)
        curve = boundary(rect(0, 0, 0.01, 0.01))
        ctr = EvalCounter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ipsr(curve, f, initial_samples(curve), 1e-4, ctr)
        assert ctr.evaluations == 0
        assert ctr.samples == {} and ctr.previous_samples == {}
        assert ctr.polynomial is None

    def test_initial_samples_returns_a_fresh_list_and_writes_nothing(self):
        rng = random.Random(7414)
        for curve in sampled_curves(rng, 6):
            before = [getattr(curve, name) for name in BoundaryCurve.__slots__]
            first = initial_samples(curve)
            first.append(math.inf)
            second = initial_samples(curve)
            assert second is not first and second == first[:-1]
            after = [getattr(curve, name) for name in BoundaryCurve.__slots__]
            assert all(map(operator.is_, after, before))
