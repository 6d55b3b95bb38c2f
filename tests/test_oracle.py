"""Independent reference machinery: root finding, brute winding, distances."""

import cmath
import math
import random

import pytest

from windroot import ConvexRegion, Polynomial, boundary
from windroot.poly import eval as peval
from windroot.oracle import (
    RootList,
    SingularSuspectedError,
    condition_number,
    count_bounds,
    dist_origin_curve,
    dist_set_curve,
    roots_reference,
    winding_brute,
)

from support import inside_count, min_image_modulus, poly_from_roots, random_lead, random_roots, random_rect_clear_of, rect


def ngon(radius: float, center: complex = 0j, k: int = 64) -> ConvexRegion:
    return ConvexRegion(
        tuple(center + radius * cmath.exp(2j * math.pi * j / k) for j in range(k))
    )


def sorted_roots(rl: RootList) -> list[complex]:
    return sorted(rl, key=lambda z: (z.real, z.imag))


class TestRootsReference:
    def test_cube_roots_of_minus_one(self):
        got = sorted_roots(roots_reference(Polynomial((1, 0, 0, 1))))
        want = sorted(
            [-1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j, 0.5 - math.sqrt(3) / 2 * 1j],
            key=lambda z: (z.real, z.imag),
        )
        assert len(got) == 3
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13

    def test_double_root_merged_with_multiplicity(self):
        got = roots_reference(Polynomial((1, -2, 1)))  # (z - 1)^2
        assert len(got) == 2
        assert got.roots[0] == got.roots[1]
        assert abs(got.roots[0] - 1) <= 1e-9

    def test_monomial(self):
        got = roots_reference(Polynomial((0, 1)))
        assert list(got) == [0j]

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            roots_reference(Polynomial((5,)))

    def test_residuals_near_machine_floor(self):
        rng = random.Random(71)
        for _ in range(20):
            f = poly_from_roots(random_roots(rng, rng.randint(2, 8)), random_lead(rng))
            scale = 1 + max(abs(c) for c in f.coeffs)
            for r in roots_reference(f):
                assert abs(peval(f, r)[0]) <= 1e-10 * scale

    def test_factorization_reconstructs_coefficients(self):
        rng = random.Random(72)
        for _ in range(20):
            f = poly_from_roots(random_roots(rng, rng.randint(2, 8)), random_lead(rng))
            prod = (f.coeffs[-1],)
            for r in roots_reference(f):
                nxt = [0j] * (len(prod) + 1)
                for k, c in enumerate(prod):
                    nxt[k + 1] += c
                    nxt[k] -= r * c
                prod = tuple(nxt)
            scale = max(abs(c) for c in f.coeffs)
            for a, b in zip(prod, f.coeffs):
                assert abs(a - b) <= 1e-8 * scale

    @pytest.mark.parametrize("n", [40, 60])
    @pytest.mark.parametrize("seed", range(4))
    def test_high_degree_roots_are_finite_and_found(self, n, seed):
        # Coefficients reach 1e14 here: z**n overflows at the Cauchy
        # radius 1 + max|a_k/a_n|.
        roots = random_roots(random.Random(seed), n, min_sep=0.05)
        f = poly_from_roots(roots)
        got = list(roots_reference(f))
        assert len(got) == n
        for r in got:
            assert cmath.isfinite(r)
            floor = sum(abs(c) * abs(r) ** k for k, c in enumerate(f.coeffs))
            assert abs(peval(f, r)[0]) <= 1e-12 * floor
        for z in roots:
            assert min(abs(z - r) for r in got) < 0.025


class TestCountBounds:
    def test_disks_inside_straddling_and_outside(self):
        square = rect(0, 0, 1, 1)
        # A disk well inside, two overlapping disks across the right edge
        # (one component of two), and a disk outside that touches no edge.
        roots = RootList(
            (0.5 + 0.5j, 0.99 + 0.5j, 1.01 + 0.5j, 3 + 3j), (0.1, 0.02, 0.02, 0.5)
        )
        assert count_bounds(roots, [square]) == [(1, 3)]
        assert count_bounds(roots, [rect(0, 0, 0.9, 1)]) == [(1, 1)]
        assert count_bounds(roots, [rect(2, 2, 4, 4)]) == [(1, 1)]

    def test_without_radii_points_count_where_they_lie(self):
        roots = RootList((0.5 + 0.5j, 0.5 + 0.5j, 2 + 0j))
        assert count_bounds(roots, [rect(0, 0, 1, 1), rect(1, -1, 2, 1)]) == [(2, 2), (0, 1)]

    def test_reference_radii_are_small_for_separated_roots(self):
        f = poly_from_roots([1 + 1j, -1 + 0.5j, 0.2 - 1j])
        got = roots_reference(f)
        assert len(got.radii) == 3
        assert all(0 < r < 1e-12 for r in got.radii)


class TestWindingBrute:
    def test_three_roots_enclosed(self):
        curve = boundary(ngon(2.0))
        f = Polynomial((1, 0, 0, 1))
        assert winding_brute(lambda t: peval(f, curve(t))[0], per=curve.perimeter) == 3

    def test_non_enclosing_curve(self):
        curve = boundary(ngon(1.0, center=3 + 0j))
        assert winding_brute(curve) == 0

    def test_matches_direct_root_count(self):
        rng = random.Random(73)
        for _ in range(15):
            roots = random_roots(rng, rng.randint(2, 7))
            f = poly_from_roots(roots, random_lead(rng))
            region = random_rect_clear_of(rng, roots, margin=0.05)
            curve = boundary(region)
            got = winding_brute(lambda t: peval(f, curve(t))[0], per=curve.perimeter)
            assert got == inside_count(roots, region)

    def test_origin_crossing_suspected(self, monkeypatch):
        monkeypatch.setattr("windroot.oracle._MAX_WINDING_SAMPLES", 8192)
        curve = boundary(rect(0, 0, 1, 1))
        f = Polynomial((-0.5, 1))  # exact zero on the bottom edge
        with pytest.raises(SingularSuspectedError):
            winding_brute(lambda t: peval(f, curve(t))[0], per=curve.perimeter)


class TestDistances:
    def test_center_of_unit_square(self):
        curve = boundary(rect(0, 0, 1, 1))
        assert dist_set_curve(RootList((0.5 + 0.5j,)), curve) == 0.5

    def test_outside_corner_distance(self):
        curve = boundary(rect(0, 0, 1, 1))
        assert dist_set_curve(RootList((2 + 2j,)), curve) == math.sqrt(2)

    def test_point_on_curve(self):
        curve = boundary(rect(0, 0, 1, 1))
        assert dist_set_curve(RootList((0.5 + 0j,)), curve) == 0.0

    def test_outside_edge_distance(self):
        curve = boundary(rect(0, 0, 1, 1))
        assert dist_set_curve(RootList((-1 + 0.5j,)), curve) == 1.0

    def test_closest_root_wins(self):
        curve = boundary(rect(0, 0, 1, 1))
        rl = RootList((0.5 + 0.5j, 0.5 + 0.25j, 5 + 0j))
        assert dist_set_curve(rl, curve) == 0.25


class TestConditionNumber:
    def test_single_centered_root(self):
        curve = boundary(rect(0, 0, 1, 1))
        assert condition_number(RootList((0.5 + 0.5j,)), curve) == 2.0

    def test_sums_inverse_distances(self):
        curve = boundary(rect(0, 0, 1, 1))
        rl = RootList((0.5 + 0.5j, 0.5 + 0.25j))
        assert condition_number(rl, curve) == 6.0

    def test_root_on_curve_is_infinite(self):
        curve = boundary(rect(0, 0, 1, 1))
        assert condition_number(RootList((1 + 0.5j,)), curve) == math.inf

    def test_diverges_as_region_shrinks_onto_root(self):
        z = 0.25 + 0.25j
        values = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            curve = boundary(rect(z.real - h, z.imag - h, z.real + h, z.imag + h))
            values.append(condition_number(RootList((z,)), curve))
        assert values == [2.0, 4.0, 8.0, 16.0]


class TestCurveMinima:
    def test_square_edge_midpoint_minimum(self):
        curve = boundary(rect(-1, -1, 1, 1))
        f = Polynomial((0, 1))
        assert dist_origin_curve(curve) == 1.0
        assert min_image_modulus(f, curve) == 1.0

    def test_sampled_minima_agree_between_implementations(self):
        rng = random.Random(74)
        for _ in range(10):
            roots = random_roots(rng, rng.randint(2, 6))
            f = poly_from_roots(roots, random_lead(rng))
            region = random_rect_clear_of(rng, roots, margin=0.1)
            curve = boundary(region)
            a = dist_origin_curve(lambda t: peval(f, curve(t))[0], per=curve.perimeter)
            b = min_image_modulus(f, curve)
            assert abs(a - b) <= 1e-6 * max(a, b)

    def test_minimum_never_below_true_distance_scale(self):
        # |f| on the curve is at least |lead| * prod over roots of the
        # root-to-curve distances, so the sampled minimum respects it.
        rng = random.Random(75)
        for _ in range(10):
            roots = random_roots(rng, rng.randint(2, 6))
            f = poly_from_roots(roots, random_lead(rng))
            region = random_rect_clear_of(rng, roots, margin=0.1)
            curve = boundary(region)
            floor = abs(f.coeffs[-1])
            for r in roots:
                floor *= dist_set_curve(RootList((r,)), curve)
            assert min_image_modulus(f, curve) >= floor * (1 - 1e-9)
