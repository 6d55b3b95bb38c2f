"""Convex regions, diameters, shifted cuts, boundary curves, and sectors."""

import cmath
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from windroot import (
    ConvexRegion,
    SingularPointError,
    boundary,
    connected,
    contains,
    cut,
    diam_h,
    diam_rect,
    diam_v,
    net_crossings,
    sector_of,
)

from support import le_rel, random_convex_polygon, rect

UNIT_SQUARE = rect(0, 0, 1, 1)


def vertex_set(region):
    return {(v.real, v.imag) for v in region.vertices}


def area(region):
    if region is None:
        return 0.0
    vs = region.vertices
    return 0.5 * sum(
        (a.real * b.imag - b.real * a.imag)
        for a, b in zip(vs, vs[1:] + (vs[0],))
    )


class TestConstruction:
    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            ConvexRegion((0j, 1j, 1 + 1j, 1 + 0j))

    @pytest.mark.parametrize(
        "corner, side",
        [(0.5 + 0.5j, 1e-9), (1000 + 1000j, 1e-7), (0j, 1e-170), (0j, 5e-320)],
    )
    def test_orientation_of_tiny_or_far_square(self, corner, side):
        # At 1e-170 every product of two coordinates underflows to 0; at
        # 5e-320 the coordinates themselves are subnormal.
        ccw = tuple(corner + side * d for d in (0, 1, 1 + 1j, 1j))
        assert ConvexRegion(ccw).vertices == ccw
        with pytest.raises(ValueError, match="^vertices must wind counterclockwise$"):
            ConvexRegion(ccw[::-1])

    def test_nonconvex_rejected(self):
        # An arrow with a reflex vertex at 1 + 0.5j, at any scale: at 1e-170
        # and below its cross products underflow to 0.
        for scale in (1.0, 1e-170, 1e-300):
            arrow = tuple(scale * v for v in (0j, 2 + 0j, 2 + 2j, 1 + 0.5j, 0 + 2j))
            with pytest.raises(ValueError, match="^polygon is not convex$"):
                ConvexRegion(arrow)

    def test_duplicate_consecutive_vertices_rejected(self):
        with pytest.raises(ValueError):
            ConvexRegion((0j, 0j, 1 + 0j, 1 + 1j))

    def test_empty_region_distinguished(self):
        # An empty vertex list is refused like a two-vertex one: there is
        # no empty region.
        with pytest.raises(ValueError, match="^a region needs at least 3 vertices$"):
            ConvexRegion(())

    def test_from_json_vertices(self):
        region = ConvexRegion.from_json({"vertices": [[0, 0], [2, 0], [1, 1]]})
        assert region.vertices == (0j, 2 + 0j, 1 + 1j)

    def test_from_json_rect_normalizes_corners(self):
        assert rect(1, 1, 0, 0).vertices == UNIT_SQUARE.vertices

    def test_from_json_zero_size_rect_rejected(self):
        with pytest.raises(ValueError):
            rect(0, 0, 0, 1)

    @pytest.mark.parametrize(
        "data",
        [
            {"vertices": ["00", "40", "44", "04"]},
            {"vertices": [[0, 0], [4, 0], [True, 1]]},
            {"rect": [False, False, True, True]},
            {"rect": "0044"},
            {"rect": [0, 0, "1", 1]},
        ],
        ids=["string-vertices", "bool-vertex", "bool-rect", "string-rect", "string-number"],
    )
    def test_from_json_refuses_what_is_not_a_number(self, data):
        # Each of these used to read as a region: a two-character string
        # unpacked as a vertex, and a bool as 0 or 1.
        with pytest.raises(ValueError, match="^malformed region JSON: "):
            ConvexRegion.from_json(data)


class TestDiameters:
    def test_unit_square(self):
        assert (diam_h(UNIT_SQUARE), diam_v(UNIT_SQUARE)) == (1.0, 1.0)

    def test_triangle_extrema(self):
        tri = ConvexRegion((0j, 2 + 0j, 1 + 1j))
        assert (diam_h(tri), diam_v(tri)) == (2.0, 1.0)

    def test_rect_diameter_unit_square(self):
        assert diam_rect(UNIT_SQUARE) == math.sqrt(2)

    def test_rect_diameter_pythagorean(self):
        assert diam_rect(rect(0, 0, 3, 4)) == 5.0

    def test_chain_against_classical_diameter(self):
        rng = random.Random(31)
        for _ in range(50):
            region = random_convex_polygon(rng)
            vs = region.vertices
            classical = max(abs(p - q) for p in vs for q in vs)
            assert max(diam_h(region), diam_v(region)) <= classical * (1 + 1e-12)
            assert classical <= diam_rect(region) * (1 + 1e-12)


class TestCut:
    def test_unit_square_midline_horizontal(self):
        top, bottom = cut(UNIT_SQUARE, "horizontal", 0.0)
        assert vertex_set(top) == {(0, 0.5), (1, 0.5), (1, 1), (0, 1)}
        assert vertex_set(bottom) == {(0, 0), (1, 0), (1, 0.5), (0, 0.5)}

    def test_unit_square_shifted_quarter(self):
        top, bottom = cut(UNIT_SQUARE, "horizontal", 0.25)
        assert diam_v(top) == pytest.approx(0.25, rel=1e-12)
        assert diam_v(bottom) == pytest.approx(0.75, rel=1e-12)

    def test_vertical_returns_left_right(self):
        left, right = cut(UNIT_SQUARE, "vertical", 0.0)
        assert max(v.real for v in left.vertices) == 0.5
        assert min(v.real for v in right.vertices) == 0.5

    def test_halving_lemma_on_random_regions(self):
        rng = random.Random(77)
        for _ in range(100):
            region = random_convex_polygon(rng)
            top, bottom = cut(region, "horizontal", 0.0)
            for part in (top, bottom):
                assert le_rel(diam_v(part), diam_v(region) / 2)
                assert le_rel(diam_h(part), diam_h(region))

    def test_cut_vertices_carry_exact_cut_coordinate(self):
        rng = random.Random(5)
        for _ in range(50):
            region = random_convex_polygon(rng)
            lam = rng.uniform(-0.2, 0.2) * diam_v(region)
            ys = [v.imag for v in region.vertices]
            level = (min(ys) + max(ys)) / 2.0 + lam
            top, bottom = cut(region, "horizontal", lam)
            for part in (top, bottom):
                if part is None:
                    continue
                introduced = [v for v in part.vertices if v not in region.vertices]
                assert introduced and all(v.imag == level for v in introduced)

    def test_shared_cut_vertices_bit_identical(self):
        rng = random.Random(6)
        for _ in range(50):
            region = random_convex_polygon(rng)
            lam = rng.uniform(-0.2, 0.2) * diam_h(region)
            left, right = cut(region, "vertical", lam)
            if left is None or right is None:
                continue
            shared_l = {(v.real, v.imag) for v in left.vertices} & {
                (v.real, v.imag) for v in right.vertices
            }
            assert len(shared_l) >= 2

    def test_partition_preserves_area_and_containment(self):
        rng = random.Random(8)
        for _ in range(100):
            region = random_convex_polygon(rng)
            axis = rng.choice(("horizontal", "vertical"))
            extent = diam_v(region) if axis == "horizontal" else diam_h(region)
            lam = rng.uniform(-0.4, 0.4) * extent
            pa, pb = cut(region, axis, lam)
            assert area(pa) + area(pb) == pytest.approx(area(region), rel=1e-12)
            for part in (pa, pb):
                if part is None:
                    continue
                for v in part.vertices:
                    assert contains(region, v, 1e-9 * diam_rect(region))

    def test_containment_monotonicity(self):
        rng = random.Random(9)
        for _ in range(100):
            region = random_convex_polygon(rng)
            axis = rng.choice(("horizontal", "vertical"))
            pa, pb = cut(region, axis, 0.1 * diam_rect(region))
            for part in (pa, pb):
                if part is None:
                    continue
                assert le_rel(diam_h(part), diam_h(region))
                assert le_rel(diam_v(part), diam_v(region))

    def test_cut_beyond_support_line_leaves_one_empty(self):
        top, bottom = cut(UNIT_SQUARE, "horizontal", 0.6)
        assert top is None and bottom is not None
        assert vertex_set(bottom) == vertex_set(UNIT_SQUARE)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            cut(UNIT_SQUARE, "diagonal", 0.0)

    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_nan_offset_rejected(self, axis):
        # Every comparison with a NaN line fails, so both parts would
        # drop every vertex and the region would vanish.
        with pytest.raises(ValueError, match="NaN"):
            cut(rect(0, 0, 1, 2), axis, float("nan"))

    def test_infinite_offset_leaves_the_region_whole(self):
        top, bottom = cut(UNIT_SQUARE, "horizontal", math.inf)
        assert top is None and bottom == UNIT_SQUARE
        left, right = cut(UNIT_SQUARE, "vertical", -math.inf)
        assert left is None and right == UNIT_SQUARE

    def test_operator_decay_midline(self):
        # One round = a horizontal and a vertical midline cut; each round
        # halves both diameters, so m rounds divide diam_rect by 2^m.
        rng = random.Random(12)
        for _ in range(100):
            region = random_convex_polygon(rng)
            start = diam_rect(region)
            m = rng.randint(1, 5)
            current = region
            for _ in range(m):
                current = cut(current, "horizontal", 0.0)[rng.randint(0, 1)]
                if current is None:
                    break
                current = cut(current, "vertical", 0.0)[rng.randint(0, 1)]
                if current is None:
                    break
            assert current is None or le_rel(diam_rect(current), start / 2**m)

    def test_operator_decay_shifted(self):
        # Rounds of cuts shifted by at most mu add a geometric series of
        # mu*sqrt(2) terms on top of the midline halving.
        rng = random.Random(13)
        for _ in range(100):
            region = random_convex_polygon(rng)
            start = diam_rect(region)
            mu = rng.uniform(0.0, 0.05) * start
            m = rng.randint(1, 5)
            current = region
            for _ in range(m):
                current = cut(current, "horizontal", rng.uniform(-mu, mu))[
                    rng.randint(0, 1)
                ]
                if current is None:
                    break
                current = cut(current, "vertical", rng.uniform(-mu, mu))[
                    rng.randint(0, 1)
                ]
                if current is None:
                    break
            bound = start / 2**m + (2**m - 1) / 2 ** (m - 1) * mu * math.sqrt(2)
            assert current is None or le_rel(diam_rect(current), bound)


class TestBoundary:
    def test_unit_square_perimeter_and_midpoint(self):
        curve = boundary(UNIT_SQUARE)
        assert curve.perimeter == 4.0
        assert curve(0.5) == 0.5 + 0j

    def test_starts_at_lexicographically_smallest_vertex(self):
        region = ConvexRegion((1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j))
        assert boundary(region)(0.0) == 1 + 1j

    def test_closed_exactly(self):
        rng = random.Random(3)
        for _ in range(20):
            curve = boundary(random_convex_polygon(rng))
            assert curve(0.0) == curve(curve.perimeter)

    def test_vertices_hit_exactly(self):
        rng = random.Random(4)
        for _ in range(20):
            region = random_convex_polygon(rng)
            curve = boundary(region)
            got = {curve(t) for t in curve.vertex_params}
            assert set(region.vertices) <= got

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_unit_speed(self, u, v):
        rng = random.Random(int(u * 1e6) ^ int(v * 1e6))
        curve = boundary(random_convex_polygon(rng))
        t1, t2 = sorted((u * curve.perimeter, v * curve.perimeter))
        assert abs(curve(t2) - curve(t1)) <= (t2 - t1) * (1 + 1e-12) + 1e-15

    def test_parameter_outside_domain_rejected(self):
        curve = boundary(UNIT_SQUARE)
        with pytest.raises(ValueError):
            curve(-0.1)
        with pytest.raises(ValueError):
            curve(4.1)


class TestSectors:
    def test_cardinal_and_diagonal_directions(self):
        table = {
            1 + 0j: 0,
            1 + 1j: 1,
            1j: 2,
            -1 + 1j: 3,
            -1 + 0j: 4,
            -1 - 1j: 5,
            -1j: 6,
            1 - 1j: 7,
        }
        for w, k in table.items():
            assert sector_of(w) == k, w

    def test_lower_boundary_inclusive(self):
        # Exactly representable directions on each sector's lower edge
        # belong to that sector; one ulp below the 45-degree line drops
        # back into the sector underneath.
        edges = [1 + 0j, 1 + 1j, 1j, -1 + 1j, -1 + 0j, -1 - 1j, -1j, 1 - 1j]
        for k, w in enumerate(edges):
            assert sector_of(w) == k
        just_below = math.nextafter(1.0, 0.0)
        assert sector_of(complex(1.0, just_below)) == 0
        assert sector_of(complex(-1.0, -just_below)) == 4

    def test_interior_angles(self):
        for k in range(8):
            w = cmath.exp(1j * ((k + 0.5) * math.pi / 4))
            assert sector_of(w) == k

    def test_zero_is_singular(self):
        with pytest.raises(SingularPointError):
            sector_of(0j)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sector_of(complex(float("inf"), 0))

    def test_agrees_with_argument_arithmetic(self):
        rng = random.Random(21)
        quarter = math.pi / 4
        checked = 0
        while checked < 500:
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(w) < 1e-9:
                continue
            a = cmath.phase(w) % (2 * math.pi)
            pos = a / quarter
            if abs(pos - round(pos)) < 1e-9:
                continue  # too near a sector boundary for the float reference
            assert sector_of(w) == int(pos) % 8
            checked += 1


class TestConnection:
    def test_wraparound_adjacent(self):
        assert connected(0, 7)

    def test_same_sector(self):
        assert connected(3, 3)

    def test_two_apart(self):
        assert not connected(0, 2)

    def test_full_table(self):
        for ka in range(8):
            for kb in range(8):
                expected = min((ka - kb) % 8, (kb - ka) % 8) <= 1
                assert connected(ka, kb) == expected


class TestNetCrossings:
    def test_single_turn(self):
        assert net_crossings((0, 1, 2, 3, 4, 5, 6, 7, 0)) == 1

    def test_no_motion(self):
        assert net_crossings((0, 0, 0)) == 0

    def test_back_and_forth_cancels(self):
        assert net_crossings((0, 7, 0)) == 0

    def test_reverse_turn(self):
        assert net_crossings((0, 7, 6, 5, 4, 3, 2, 1, 0)) == -1

    def test_double_turn(self):
        seq = (0, 1, 2, 3, 4, 5, 6, 7) * 2 + (0,)
        assert net_crossings(seq) == 2


class TestAngularGapLemma:
    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
    )
    def test_nearer_endpoint_bounded_by_chord(self, dx, dy):
        # x, y seen from z under an angle a: the nearer of the two is
        # within |x - y| / (2 sin(a/2)).
        z = 0.3 - 0.7j
        x, y = z + dx, z + dy
        alpha = abs(cmath.phase(dx / dy))
        if alpha < 1e-12:
            return
        lhs = min(abs(z - x), abs(z - y))
        rhs = abs(x - y) / (2 * math.sin(alpha / 2))
        assert le_rel(lhs, rhs, 1e-9)
