"""Polynomial construction, Horner evaluation, memoization, and bounds."""

import importlib
import math
import random
import time

import pytest

from windroot import Polynomial, derivative, eval, lipschitz_bound
from windroot.poly import EvalCounter, _horner, _horner_floor

from support import poly_from_roots, random_lead, random_roots, rect


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        f = Polynomial((1, 2, 0, 0.0))
        assert f.coeffs == (1 + 0j, 2 + 0j)
        assert f.degree == 1

    def test_many_trailing_zeros_trimmed_in_one_pass(self):
        # Trimming one zero per slice took time quadratic in their number
        # (about a minute for these).
        started = time.perf_counter()
        f = Polynomial((0, 1) + (0,) * 200_000)
        assert time.perf_counter() - started < 1.0
        assert f.degree == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((0, 0.0))
        with pytest.raises(ValueError):
            Polynomial(())

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1, float("inf")))
        with pytest.raises(ValueError):
            Polynomial((complex(0, float("nan")), 1))

    def test_constant_is_constructible_degree_zero(self):
        assert Polynomial((5,)).degree == 0

    def test_from_json(self):
        f = Polynomial.from_json({"coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]]})
        assert f.coeffs == (1 + 0j, 0j, 0j, 1 + 0j)
        assert f.degree == 3

    def test_from_json_coefficient_beyond_float_range(self):
        with pytest.raises(ValueError, match="^malformed polynomial JSON: int too large"):
            Polynomial.from_json({"coeffs": [[1, 0], [10**400, 0]]})


class TestEval:
    def test_constant_term(self):
        assert eval(Polynomial((1, 0, 0, 1)), 0j) == 1 + 0j

    def test_known_root(self):
        assert eval(Polynomial((1, 0, 0, 1)), -1 + 0j) == 0j

    def test_direct_expansion_at_i(self):
        # i^3 - 1 = -1 - i, exactly representable through Horner.
        assert eval(Polynomial((-1, 0, 0, 1)), 1j) == complex(-1, -1)

    def test_matches_power_sum_on_random_inputs(self):
        rng = random.Random(20260819)
        for _ in range(1000):
            n = rng.randint(1, 10)
            coeffs = tuple(
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)
            ) + (complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            f = Polynomial(coeffs)
            naive = sum(c * z**k for k, c in enumerate(coeffs))
            assert abs(eval(f, z) - naive) <= 1e-12 * (1 + abs(naive))

    def test_bit_identical_across_calls(self):
        f = Polynomial((0.1, 0.2, 0.3))
        z = complex(1.7182818, -0.5772157)
        assert eval(f, z) == eval(f, z)


class TestEvalCounter:
    def test_increments_once_per_distinct_point(self):
        f = Polynomial((1, 0, 0, 1))
        ctr = EvalCounter()
        a = eval(f, 0.5 + 0.5j, ctr)
        b = eval(f, 0.5 + 0.5j, ctr)
        assert ctr.evaluations == 1
        assert a == b
        eval(f, 0.25 + 0j, ctr)
        assert ctr.evaluations == 2

    def test_count_is_the_cache_size_and_read_only(self):
        ctr = EvalCounter()
        assert (ctr.cache, ctr.samples, ctr.previous_samples, ctr.derivative) == (
            {},
            {},
            {},
            None,
        )
        for z in (1j, 2j, 1j, 3j):
            eval(Polynomial((1, 1)), z, ctr)
        # The sample window of the boundary test is not metered.
        ctr.samples[4j] = [1j, 2, 1.0, None]
        ctr.previous_samples[5j] = [1j, 2, 1.0, 1.0]
        assert ctr.evaluations == len(ctr.cache) == 3
        with pytest.raises(AttributeError):
            ctr.evaluations = 0

    def test_uncounted_when_counter_absent(self):
        assert eval(Polynomial((1, 1)), 2 + 0j) == 3 + 0j

    def test_cache_holds_computed_values(self):
        f = Polynomial((2, 3))
        ctr = EvalCounter()
        val = eval(f, 1j, ctr)
        assert ctr.cache[1j] == val


class TestDerivative:
    def test_power_rule_cubic(self):
        assert derivative(Polynomial((1, 0, 0, 1))).coeffs == (0j, 0j, 3 + 0j)

    def test_power_rule_quadratic(self):
        assert derivative(Polynomial((4, 3, 2))).coeffs == (3 + 0j, 4 + 0j)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            derivative(Polynomial((5,)))

    def test_no_module_level_cache(self):
        # A cache keyed by the polynomial hashed every coefficient on each
        # boundary test; the run's counter keeps f' instead.
        assert not hasattr(derivative, "cache_info")
        f = Polynomial((1, 2, 3))
        assert derivative(f) is not derivative(f)

    def test_counter_keeps_the_derivative_of_its_run(self, monkeypatch):
        from windroot import boundary, initial_samples, ipsr

        winding = importlib.import_module("windroot.winding")
        built = []
        monkeypatch.setattr(
            winding, "derivative", lambda f: built.append(f) or derivative(f)
        )
        f = Polynomial((1, 0, 0, 1))
        ctr = EvalCounter()
        assert ctr.derivative is None
        for region in (rect(-2, -2, 2, 2), rect(-2, -2, 0, 0), rect(0, 0, 2, 2)):
            curve = boundary(region)
            ipsr(curve, f, initial_samples(curve), 1e-3, ctr)
        assert built == [f]
        assert ctr.derivative == derivative(f)
        # A new counter, as each run makes, builds it again.
        ipsr(curve, f, initial_samples(curve), 1e-3, EvalCounter())
        assert built == [f, f]

    def test_matches_difference_quotient(self):
        rng = random.Random(7)
        h = 1e-5
        for _ in range(50):
            roots = random_roots(rng, rng.randint(2, 6))
            f = poly_from_roots(roots, random_lead(rng))
            df = derivative(f)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            quotient = (eval(f, z + h) - eval(f, z - h)) / (2 * h)
            exact = eval(df, z)
            assert abs(exact - quotient) <= 1e-4 * (1 + abs(exact))


class TestHornerFloor:
    def test_overflow_reads_inf(self):
        # A complex accumulator gave (inf+0j)*r an imaginary part of NaN,
        # so the floor read NaN and a test |f| <= floor silently failed.
        assert _horner_floor((1.0,) * 61, 1e6) == math.inf

    def test_finite_sums_match_the_complex_horner_loop(self):
        rng = random.Random(61)
        for _ in range(200):
            abs_coeffs = tuple(
                abs(rng.gauss(0, 1)) * 10 ** rng.uniform(-5, 5)
                for _ in range(rng.randint(2, 40))
            )
            r = 10 ** rng.uniform(-3, 3)
            old = 4.0 * (len(abs_coeffs) - 1) * math.ulp(abs(_horner(abs_coeffs, r)))
            if math.isfinite(old):
                assert _horner_floor(abs_coeffs, r) == old


class TestLipschitzBound:
    def test_identity_map(self):
        assert lipschitz_bound(Polynomial((0, 1)), rect(-3, 1, 7, 2)) == 1.0

    def test_square_on_centered_box(self):
        got = lipschitz_bound(Polynomial((0, 0, 1)), rect(-1, -1, 1, 1))
        assert got == pytest.approx(2 * math.sqrt(2), rel=1e-15)

    def test_cubic_on_wide_box(self):
        got = lipschitz_bound(Polynomial((1, 0, 0, 1)), rect(-2, -2, 2, 2))
        assert got == pytest.approx(24.0, rel=1e-12)

    def test_constant_gives_zero(self):
        assert lipschitz_bound(Polynomial((5,)), rect(-3, 1, 7, 2)) == 0

    def test_dominates_boundary_supremum(self):
        from windroot import ConvexRegion, boundary

        # Its largest vertex modulus, 2.83, lies below its envelope's
        # largest corner modulus, 3.54.
        triangle = ConvexRegion((-2.5 - 1j, 2 - 2j, 0.5 + 2.5j))
        rng = random.Random(99)
        for i in range(11):
            roots = random_roots(rng, rng.randint(2, 8))
            f = poly_from_roots(roots, random_lead(rng))
            region = triangle if i == 10 else rect(
                rng.uniform(-3, 0), rng.uniform(-3, 0), rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            )
            bound = lipschitz_bound(f, region)
            curve = boundary(region)
            df = derivative(f)
            sup = max(
                abs(eval(df, curve(curve.perimeter * k / 10_000))) for k in range(10_000)
            )
            assert bound >= sup
