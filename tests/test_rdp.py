"""Recursive subdivision: guard width, budgets, cutting, and full runs."""

import cmath
import importlib
import math
import random

import pytest

from windroot import (
    AccuracyBelowResolutionError,
    ConvexRegion,
    InitialRegionSingularError,
    Normal,
    Polynomial,
    SingularError,
    SubdivisionFailedError,
    WindrootError,
    choose_q,
    contains,
    cut,
    divide,
    envelope,
    pe_budget,
    pe_budget_sharp,
    rdp,
)
from windroot.geometry import SIN_PI_8, diam_rect
from windroot.poly import EvalCounter
from windroot.rdp import RdpStats, RootBox

from support import (
    float_bits,
    inside_count,
    le_rel,
    poly_from_roots,
    random_lead,
    random_roots,
    rect,
    reference_divide,
)


CUBE = Polynomial((1, 0, 0, 1))  # z^3 + 1
CUBE_ROOTS = [-1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j, 0.5 - math.sqrt(3) / 2 * 1j]


class TestChooseQ:
    def test_reference_value(self):
        assert choose_q(1e-3, 2, 2) == 1.6912378129568655e-05

    def test_closed_form(self):
        rng = random.Random(81)
        for _ in range(50):
            a = rng.uniform(1e-6, 1.0)
            n0 = rng.randint(1, 9)
            n = rng.randint(n0, 12)
            want = a * SIN_PI_8 / (4.0 * math.sqrt(2.0) * n0 * n)
            assert choose_q(a, n0, n) == want

    def test_linear_in_accuracy(self):
        assert choose_q(0.4, 3, 5) == choose_q(0.8, 3, 5) / 2

    def test_decreasing_in_counts(self):
        assert choose_q(1e-2, 3, 3) == 7.516612502030514e-05
        assert choose_q(1e-2, 3, 3) < choose_q(1e-2, 2, 3) < choose_q(1e-2, 2, 2)


class TestBudgets:
    def test_reference_value(self):
        assert le_rel(pe_budget(1, 1, 1.0, math.sqrt(2.0)), 82.5) and le_rel(
            82.5, pe_budget(1, 1, 1.0, math.sqrt(2.0))
        )

    def test_decreasing_in_accuracy(self):
        prev = None
        for a in (1.0, 0.1, 0.01, 0.001):
            cur = pe_budget(2, 3, a, 4.0)
            if prev is not None:
                assert cur > prev
            prev = cur

    def test_sharp_below_simplified(self):
        rng = random.Random(82)
        for _ in range(100):
            n0 = rng.randint(1, 8)
            n = rng.randint(n0, 10)
            a = rng.uniform(1e-5, 0.5)
            dr = rng.uniform(2 * a, 20.0)
            assert pe_budget_sharp(n0, n, a, dr) <= pe_budget(n0, n, a, dr)


class TestRootBox:
    def test_box_validations(self):
        with pytest.raises(ValueError):
            RootBox(rect(0, 0, 1, 1), 0)


class TestDivide:
    def test_root_on_midline_shifts_horizontal_cut_only(self):
        f = Polynomial((-1, 0, 0, 1))  # roots at 1 and on the unit circle
        q = choose_q(1e-3, 3, 3)
        stats = RdpStats()
        pairs = divide(rect(-1.9, -2, 2.1, 2), f, q, 3, EvalCounter(), stats)
        assert [c for _, c in pairs] == [0, 1, 1, 1]
        step = 2.0 * 3 / SIN_PI_8 * q
        assert stats.offsets == [step, 0.0, 0.0]

    def test_two_roots_on_midline(self):
        f = Polynomial((0, -1, 1))  # z^2 - z, roots 0 and 1
        q = choose_q(1e-3, 2, 2)
        stats = RdpStats()
        pairs = divide(rect(-1, -1, 2, 1), f, q, 2, EvalCounter(), stats)
        step = 2.0 * 2 / SIN_PI_8 * q
        assert stats.offsets[0] == step
        assert stats.offsets[1:] == [0.0]
        assert [c for _, c in pairs] == [0, 1, 1]

    def test_counts_conserve_the_total(self):
        rng = random.Random(83)
        for _ in range(10):
            n = rng.randint(2, 6)
            roots = random_roots(rng, n)
            f = poly_from_roots(roots, random_lead(rng))
            x0 = min(r.real for r in roots) - 0.4
            y0 = min(r.imag for r in roots) - 0.4
            x1 = max(r.real for r in roots) + 0.4
            y1 = max(r.imag for r in roots) + 0.4
            q = choose_q(1e-2, n, n)
            pairs = divide(rect(x0, y0, x1, y1), f, q, n, EvalCounter(), RdpStats())
            assert sum(c for _, c in pairs) == n
            for part, _ in pairs:
                assert part is not None

    def test_parts_cover_parent_envelope(self):
        f = CUBE
        region = rect(-2, -2, 2, 2)
        pairs = divide(region, f, choose_q(1e-3, 3, 3), 3, EvalCounter(), RdpStats())
        area = sum(
            0.5
            * abs(
                sum(
                    (a.real * b.imag - b.real * a.imag)
                    for a, b in zip(p.vertices, p.vertices[1:] + p.vertices[:1])
                )
            )
            for p, _ in pairs
        )
        assert le_rel(area, 16.0) and le_rel(16.0, area)

    def test_second_part_failing_moves_the_line_to_plus_one_step(self, monkeypatch):
        # Roots clear of both midlines: only the wrapper makes the first
        # trial's bottom part fail, after its top part tested normal.
        rdp_module = importlib.import_module("windroot.rdp")
        boundary_test = rdp_module.ipsr
        calls = []

        def second_fails(curve, f, s0, q, ctr):
            calls.append(curve.perimeter)
            if len(calls) == 2:
                return SingularError(0.0, 1.0, 4321)
            return boundary_test(curve, f, s0, q, ctr)

        monkeypatch.setattr(rdp_module, "ipsr", second_fails)
        f = poly_from_roots([0.7 + 0.6j, -0.8 - 0.5j])
        q = choose_q(1e-3, 2, 2)
        stats = RdpStats()
        pairs = divide(rect(-2, -2, 2, 2), f, q, 2, EvalCounter(), stats)
        assert [c for _, c in pairs] == [1, 0, 0, 1]
        step = 2.0 * 2 / SIN_PI_8 * q
        assert stats.offsets == [step, 0.0, 0.0]
        # Two tests per horizontal trial, then two per vertical cut.
        assert len(stats.ipsr_calls) == len(calls) == 8
        assert stats.ipsr_calls[1] == (12.0, q, 4321)

    def test_a_half_that_counts_no_roots_stays_whole(self):
        # Every root lies below the horizontal midline and clear of the
        # vertical one: the top half is tested once and kept whole.
        f = poly_from_roots([0.5 - 1j, -0.7 - 0.6j, 0.3 - 1.4j])
        region = rect(-2, -2, 2, 2)
        q = choose_q(1e-3, 3, 3)
        stats = RdpStats()
        pairs = divide(region, f, q, 3, EvalCounter(), stats)
        top, bottom = cut(region, "horizontal", 0.0)
        left_b, right_b = cut(bottom, "vertical", 0.0)
        assert [p for p, _ in pairs] == [top, right_b, left_b]
        assert [c for _, c in pairs] == [0, 2, 1]
        assert stats.offsets == [0.0, 0.0]
        assert len(stats.ipsr_calls) == 4
        # The reference also cuts the top half, at two more tests.
        ref = RdpStats()
        ref_pairs = reference_divide(region, f, q, 3, EvalCounter(), ref)
        assert ref_pairs[2:] == pairs[1:]
        assert [c for _, c in ref_pairs] == [0, 0, 2, 1]
        assert ref.offsets == [0.0, 0.0, 0.0]
        assert len(ref.ipsr_calls) == 6

    def test_a_part_beyond_the_accepted_line_is_skipped(self):
        # The root of z lies on both midlines, so each cut's first trial
        # fails on its first part.  A guard width of 0.2 makes the next
        # offset, 2q/sin(pi/8) = 1.045, reach past the square's side:
        # ``cut`` leaves the whole square on one side and None on the
        # other, and the missing part gets no boundary test.
        region = rect(-1, -1, 1, 1)
        q = 0.2
        step = 2.0 / SIN_PI_8 * q
        assert cut(region, "horizontal", step) == (None, region)
        assert cut(region, "vertical", step) == (region, None)
        stats = RdpStats()
        pairs = divide(region, Polynomial((0, 1)), q, 1, EvalCounter(), stats)
        assert pairs == [(region, 1)]
        assert stats.offsets == [step, step]
        # Per cut: the failing midline half, then the whole square alone,
        # four tests in all.
        assert [p for p, _, _ in stats.ipsr_calls] == [6.0, 8.0, 6.0, 8.0]


def _seeded_instances():
    """(f, region, accuracy): eight random degree 3-8 instances and four clustered ones."""
    for seed in range(8):
        rng = random.Random(5100 + seed)
        roots = random_roots(rng, 3 + seed % 6)
        yield poly_from_roots(roots, random_lead(rng)), rect(-2.5, -2.5, 2.5, 2.5), 1e-6
    for seed in range(4):
        yield _clustered_instance(5200 + seed), rect(-2.5, -2.5, 2.5, 2.5), 1e-5


def _solve(f, region, accuracy):
    """rdp's (boxes as float bits and counts, max_level, pe), or the exception type."""
    try:
        boxes, stats = rdp(region, f, accuracy)
    except WindrootError as exc:
        return type(exc), None
    return ([(float_bits(b.region.vertices), b.count) for b in boxes], stats.max_level), stats.pe


class TestZeroHalfSkip:
    def test_same_boxes_as_cutting_every_half(self, monkeypatch):
        rdp_module = importlib.import_module("windroot.rdp")
        instances = list(_seeded_instances())
        runs = [_solve(*inst) for inst in instances]
        monkeypatch.setattr(rdp_module, "divide", reference_divide)
        for inst, (result, pe) in zip(instances, runs):
            ref_result, ref_pe = _solve(*inst)
            assert ref_result == result
            if pe is not None:
                assert ref_pe >= pe
        assert sum(pe is not None for _, pe in runs) >= 10


def _initial_test_only(monkeypatch):
    """Let the first boundary test run and fail every later one; return the call list."""
    rdp_module = importlib.import_module("windroot.rdp")
    boundary_test = rdp_module.ipsr
    calls = []

    def fail_after_first(curve, f, s0, q, ctr):
        calls.append(curve.perimeter)
        if len(calls) == 1:
            return boundary_test(curve, f, s0, q, ctr)
        return SingularError(0.0, 1.0, 0)

    monkeypatch.setattr(rdp_module, "ipsr", fail_after_first)
    return calls


class TestSubdivisionFailures:
    def test_trial_offsets_run_out(self, monkeypatch):
        calls = _initial_test_only(monkeypatch)
        n0 = 3
        with pytest.raises(SubdivisionFailedError) as err:
            rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        assert str(err.value) == (
            f"no root-free horizontal cut line after {n0 + 2} trial offsets "
            "(region envelope (-2.0, -2.0, 2.0, 2.0))"
        )
        # Each trial stops at its first failing part.
        assert len(calls) == 1 + (n0 + 2)

    def test_depth_limit(self, monkeypatch):
        rdp_module = importlib.import_module("windroot.rdp")

        def unshrunk(region, f, q, n0, ctr, stats):
            return [(region, n0)]

        monkeypatch.setattr(rdp_module, "divide", unshrunk)
        region = rect(-2, -2, 2, 2)
        depth_limit = math.ceil(math.log2(diam_rect(region) / 1e-3)) + 2
        assert depth_limit == 15
        with pytest.raises(SubdivisionFailedError) as err:
            rdp(region, CUBE, 1e-3)
        assert str(err.value) == (
            f"region still wider than the accuracy at level {depth_limit} "
            f"(diam_rect {diam_rect(region)!r} >= 0.001)"
        )

    @pytest.mark.xfail(
        strict=True,
        raises=SubdivisionFailedError,
        reason="ROADMAP item 1: with n0 = 1 a shifted cut keeps about 0.71A per "
        "axis, and a Normal part certifies no distance from the roots",
    )
    @pytest.mark.parametrize(
        "c, accuracy", [(0, 1e-2), (-1, 3e-2), (0.3 + 0.7j, 1e-5)]
    )
    def test_degree_one_root_isolated(self, c, accuracy):
        boxes, _ = rdp(rect(-2, -2, 2, 2), Polynomial((-c, 1)), accuracy)
        assert [b.count for b in boxes] == [1]


class TestRdp:
    def test_three_simple_roots_isolated(self):
        boxes, stats = rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        assert [b.count for b in boxes] == [1, 1, 1]
        assert len(boxes) == 3
        matched = set()
        for root in CUBE_ROOTS:
            hits = [i for i, b in enumerate(boxes) if contains(b.region, root)]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == {0, 1, 2}
        for b in boxes:
            assert diam_rect(b.region) < 1e-3

    def test_reference_run_statistics(self):
        _, stats = rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        assert stats.pe == 1464
        assert stats.max_level == 13
        assert stats.budget == 272734.0332298011
        assert len(stats.ipsr_calls) == 155

    def test_interior_double_root_in_one_box(self):
        c = 0.5 + 0.5j
        f = Polynomial((c * c, -2 * c, 1))
        boxes, stats = rdp(rect(0, 0, 1, 1), f, 1e-3)
        assert len(boxes) == 1
        assert boxes[0].count == 2
        assert contains(boxes[0].region, c)
        assert diam_rect(boxes[0].region) < 1e-3
        assert stats.pe == 721

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: ipsr miscounts cut parts of z^n-1 by one; "
        "divide checks a half's count only for zero, so the run still exits 0",
    )
    def test_every_part_count_of_roots_of_unity_is_exact(self, monkeypatch):
        # For n = 36 the top half [-0.015, 1.0275] x [0.52, 1.05] counts 7
        # and holds 6.
        rdp_module = importlib.import_module("windroot.rdp")
        boundary_test = rdp_module.ipsr
        wrong = []
        for n in (36, 41, 53):
            roots = [cmath.exp(2j * math.pi * k / n) for k in range(n)]

            def checked(curve, f, s0, q, ctr):
                out = boundary_test(curve, f, s0, q, ctr)
                held = inside_count(roots, curve.region)
                if isinstance(out, Normal) and out.index != held:
                    wrong.append((n, envelope(curve.region), out.index, held))
                return out

            monkeypatch.setattr(rdp_module, "ipsr", checked)
            f = Polynomial((-1,) + (0,) * (n - 1) + (1,))
            boxes, _ = rdp(rect(-2.1, -2.13, 2.07, 2.11), f, 1e-3)
            assert sum(b.count for b in boxes) == n
        assert wrong == []

    def test_boundary_root_rejected_up_front(self):
        f = Polynomial((0.25, -1, 1))  # (z - 1/2)^2, root on the border
        with pytest.raises(InitialRegionSingularError) as err:
            rdp(rect(0, 0, 1, 1), f, 1e-3)
        assert err.value.t == 0.5
        assert err.value.guarantee == 20905.007438022025

    def test_rootless_region_returns_no_boxes(self):
        boxes, stats = rdp(rect(-1, -1, 1, 1), Polynomial((4, 0, 1)), 1e-3)
        assert boxes == []
        assert len(boxes) == 0
        assert stats.pe == 10
        assert len(stats.ipsr_calls) == 1

    def test_region_already_below_accuracy(self):
        f = Polynomial((-(0.5 + 0.5j), 1))
        region = rect(0, 0, 1, 1)
        boxes, stats = rdp(region, f, 2.0)
        assert len(boxes) == 1
        assert boxes[0].count == 1
        assert boxes[0].region == region
        assert stats.max_level == 0

    def test_levels_bounded_by_log_ratio(self):
        for region, f in (
            (rect(-2, -2, 2, 2), CUBE),
            (rect(0, 0, 1, 1), Polynomial(((0.5 + 0.5j) ** 2, -2 * (0.5 + 0.5j), 1))),
        ):
            _, stats = rdp(region, f, 1e-3)
            assert stats.max_level <= math.log2(diam_rect(region) / 1e-3) + 2

    def test_evaluations_within_budget(self):
        for region, f in (
            (rect(-2, -2, 2, 2), CUBE),
            (rect(0, 0, 1, 1), Polynomial(((0.5 + 0.5j) ** 2, -2 * (0.5 + 0.5j), 1))),
        ):
            _, stats = rdp(region, f, 1e-3)
            assert stats.pe <= stats.budget

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: the budget's first term 30*n0*n/A scales with "
        "1/A, while pe stays near 250 when the region, root and accuracy scale together",
    )
    def test_evaluations_within_budget_at_unit_accuracy_away_from_the_origin(self):
        # pe 242 against a budget of 191.1; scaled by s, pe stays between
        # 235 and 263 from s = 1e-2 to 1e300, while the budget falls from
        # 3161 at s = 1e-2 to 161 from s = 100 on.
        _, stats = rdp(rect(0, 100, 10, 150), Polynomial((-5 - 125j, 1)), 1.0)
        assert stats.pe <= stats.budget

    def test_pe_counts_the_distinct_points_evaluated(self, monkeypatch):
        # pe is the number of distinct points evaluated through the run's
        # counter, however often a point is evaluated.  A point that left
        # the two-level sample window is evaluated again.
        winding = importlib.import_module("windroot.winding")
        original_eval = winding.eval
        metered = []

        def recording_eval(g, z, ctr=None):
            if ctr is not None:
                metered.append(z)
            return original_eval(g, z, ctr)

        monkeypatch.setattr(winding, "eval", recording_eval)
        boxes, stats = rdp(rect(-2, -2, 2, 2), CUBE, 1e-6)
        assert [b.count for b in boxes] == [1, 1, 1]
        assert stats.pe == len(set(metered))
        assert len(metered) > stats.pe

    def test_deterministic_across_runs(self):
        a = rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        b = rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        assert [x.region.vertices for x in a[0]] == [x.region.vertices for x in b[0]]
        assert a[1].pe == b[1].pe

    def test_boxes_sorted_by_envelope_center(self):
        boxes, _ = rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        centers = []
        for b in boxes:
            x0, y0, x1, y1 = envelope(b.region)
            centers.append(((x0 + x1) / 2, (y0 + y1) / 2))
        assert centers == sorted(centers)

    def test_guard_width_widens_once_the_count_is_known(self):
        # One root of z^3 + 1 inside: the initial test runs at the
        # degree's width, the subdivision at the count's.
        boxes, stats = rdp(rect(-1.5, -0.5, -0.5, 0.5), CUBE, 1e-3)
        assert [b.count for b in boxes] == [1]
        qs = [q for _, q, _ in stats.ipsr_calls]
        assert qs[0] == choose_q(1e-3, 3, 3)
        assert len(qs) > 1
        assert all(q == choose_q(1e-3, 1, 3) for q in qs[1:])

    def test_guard_width_cannot_be_overridden(self):
        with pytest.raises(TypeError):
            rdp(rect(-2, -2, 2, 2), CUBE, 1e-3, q=choose_q(1e-3, 3, 3))

    def test_accuracy_below_perimeter_resolution_refused(self):
        # Guard width about 1.9e-17 against ulp(12.8), about 1.8e-15.
        f = Polynomial((-1,) + (0,) * 59 + (1,))  # z^60 - 1
        with pytest.raises(AccuracyBelowResolutionError) as err:
            rdp(ConvexRegion.from_json({"rect": [1, -2.1, 3, 2.3]}), f, 1e-12)
        assert isinstance(err.value, ValueError)
        assert isinstance(err.value, WindrootError)
        assert "perimeter 12.8" in str(err.value)

    def test_accuracy_below_coordinate_resolution_refused(self):
        # Far from the origin the coordinates, not the perimeter, limit
        # the width: ulp(1e6 + 1) is about 1.2e-10.
        c = 1e6 + 0.5
        f = Polynomial((-c, 1))
        region = ConvexRegion.from_json({"rect": [1e6, -1, 1e6 + 1, 1]})
        with pytest.raises(AccuracyBelowResolutionError) as err:
            rdp(region, f, 1e-9)
        assert "largest coordinate 1000001.0" in str(err.value)
        boxes, _ = rdp(region, f, 1e-6)
        assert [b.count for b in boxes] == [1]
        assert contains(boxes[0].region, c)

    def test_input_validation(self):
        for accuracy in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^accuracy must be positive and finite$"):
                rdp(rect(0, 0, 1, 1), CUBE, accuracy)
        with pytest.raises(ValueError):
            rdp(rect(0, 0, 1, 1), Polynomial((5,)), 1e-3)

    @pytest.mark.parametrize("accuracy", [6.0, 10.0, 20.0, 30.0, 50.0, 100.0, 1e300])
    def test_accuracy_coarser_than_the_region_gives_one_box(self, accuracy):
        # diam_rect is 5.657.  The guard widths and the budget used to
        # grow with the accuracy: pe 48 over a budget of 47.16 at 20, a
        # negative budget at 30, and a false singular boundary from 50.
        region = rect(-2, -2, 2, 2)
        boxes, stats = rdp(region, CUBE, accuracy)
        assert [(b.region, b.count) for b in boxes] == [(region, 3)]
        assert stats.pe <= stats.budget

    def test_stats_record_visited_and_offsets(self):
        _, stats = rdp(rect(-2, -2, 2, 2), CUBE, 1e-3)
        assert stats.visited[0] == (0, rect(-2, -2, 2, 2))
        assert all(lvl <= stats.max_level for lvl, _ in stats.visited)
        # The depth is read off the visited list, not stored beside it.
        assert stats.max_level == stats.visited[-1][0] == 13
        with pytest.raises(AttributeError):
            stats.max_level = 0
        assert RdpStats().max_level == 0
        step = 2.0 * 3 / SIN_PI_8 * choose_q(1e-3, 3, 3)
        for off in stats.offsets:
            assert off == round(off / step) * step
        assert any(off != 0.0 for off in stats.offsets)
        per0, q0, _ = stats.ipsr_calls[0]
        assert per0 == 16.0
        assert q0 == choose_q(1e-3, 3, 3)


def _clustered_instance(seed=1416):
    # Two clusters of 2-3 roots, each root 1e-4 to 1e-3 from its centre;
    # at the default seed two cut lines are shifted off the midline.
    rng = random.Random(seed)
    roots = []
    for centre in random_roots(rng, 2, min_sep=1.0):
        for k in range(rng.randint(2, 3)):
            spread = 1e-5 * rng.uniform(10, 100)
            roots.append(centre + spread * cmath.exp(2j * math.pi * (k + rng.random()) / 3))
    return poly_from_roots(roots, random_lead(rng))


def _degree_five_instance():
    rng = random.Random(1405)
    roots = random_roots(rng, 5)
    return poly_from_roots(roots, random_lead(rng))


class TestSamplingPinned:
    """Evaluation counts of seeded runs, fixed: a sampling change that moves
    one evaluated point, or one insertion, changes at least one of them."""

    @pytest.mark.parametrize(
        "make, region, accuracy, pe, tests, insertions",
        [
            (_degree_five_instance, rect(-2.5, -2.5, 2.5, 2.5), 1e-6, 2173, 433, 3918),
            (_clustered_instance, rect(-2.5, -2.5, 2.5, 2.5), 1e-5, 2409, 291, 5307),
            (
                lambda: Polynomial((-1,) + (0,) * 35 + (1,)),
                rect(-2.1, -2.13, 2.07, 2.11),
                1e-3,
                15163,
                1363,
                19074,
            ),
        ],
        ids=["degree5", "clustered", "unity36"],
    )
    def test_counts(self, make, region, accuracy, pe, tests, insertions):
        f = make()
        boxes, stats = rdp(region, f, accuracy)
        assert sum(b.count for b in boxes) == f.degree
        assert stats.pe == pe
        assert len(stats.ipsr_calls) == tests
        assert sum(ins for _, _, ins in stats.ipsr_calls) == insertions
