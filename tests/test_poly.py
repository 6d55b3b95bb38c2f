"""Polynomial construction, Horner evaluation, metering, and bounds."""

import importlib
import math
import random
import time
import tracemalloc

import pytest

from windroot import Polynomial, derivative, eval, lipschitz_bound
from windroot.poly import EvalCounter, _horner_floor

from support import (
    float_bits,
    poly_from_roots,
    random_lead,
    random_roots,
    rect,
    reference_eval,
    reference_horner,
)


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

    @pytest.mark.parametrize(
        "coeffs",
        [["12", "34"], [[True, 0], [1, 0]], [[1, "0"]], [[1]], [(1, 0, 0)], [{"1": 0, "2": 0}]],
        ids=["string-pairs", "bool", "string-number", "one-number", "three-numbers", "dict"],
    )
    def test_from_json_refuses_what_is_not_a_pair_of_numbers(self, coeffs):
        # A two-character string or a two-key dict used to unpack as a pair,
        # and a bool used to read as 0 or 1.
        with pytest.raises(ValueError, match="^malformed polynomial JSON: "):
            Polynomial.from_json({"coeffs": coeffs})


class TestEval:
    def test_constant_term(self):
        assert eval(Polynomial((1, 0, 0, 1)), 0j) == (1 + 0j, 0j)

    def test_known_root(self):
        assert eval(Polynomial((1, 0, 0, 1)), -1 + 0j) == (0j, 3 + 0j)

    def test_direct_expansion_at_i(self):
        # i^3 - 1 = -1 - i and 3 i^2 = -3, exactly representable through Horner.
        assert eval(Polynomial((-1, 0, 0, 1)), 1j) == (complex(-1, -1), -3 + 0j)

    def test_constant_has_slope_zero(self):
        for z in (0j, 2.5 - 1j, 3, -0.5):
            assert float_bits(eval(Polynomial((5 - 2j,)), z)) == float_bits((5 - 2j, 0j))

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
            assert abs(eval(f, z)[0] - naive) <= 1e-12 * (1 + abs(naive))

    def test_bit_identical_across_calls(self):
        f = Polynomial((0.1, 0.2, 0.3))
        z = complex(1.7182818, -0.5772157)
        assert eval(f, z) == eval(f, z)

    def test_value_and_slope_match_two_horner_loops_bit_for_bit(self):
        # One loop over the pairs (a_k, k a_k) makes the operations of
        # Horner's rule on f and on f' apart, in the same order, so both
        # parts agree to the bit, signed zeros included.
        rng = random.Random(3301)
        zero_parts = (0.0, -0.0)
        points = [complex(x, y) for x in zero_parts for y in zero_parts]
        points += [complex(x, s) for x in (1.5, -0.75) for s in zero_parts]
        points += [complex(s, y) for y in (2.25, -1e-3) for s in zero_parts]
        points += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
        points += [0, 3, -2, 0.5, -0.0, 1e-200]  # int and float z
        for n in range(65):
            random_coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)]
            for f in (
                Polynomial(random_coeffs),
                Polynomial((-1,) + (0,) * (n - 1) + (1,)) if n else Polynomial((-1,)),
                Polynomial([complex(-0.0, c.imag) for c in random_coeffs]),
            ):
                for z in points:
                    assert float_bits(eval(f, z)) == float_bits(reference_eval(f, z)), (n, z)


class TestEvalCounter:
    def test_counts_every_metered_evaluation(self):
        f = Polynomial((1, 0, 0, 1))
        ctr = EvalCounter()
        a = eval(f, 0.5 + 0.5j, ctr)
        b = eval(f, 0.5 + 0.5j, ctr)
        assert ctr.evaluations == 2  # a point evaluated again counts again
        assert a == b
        eval(f, 0.25 + 0j, ctr)
        assert ctr.evaluations == 3

    def test_count_is_the_number_of_calls_and_read_only(self):
        ctr = EvalCounter()
        assert (
            ctr.evaluations,
            ctr.samples,
            ctr.previous_samples,
            ctr.polynomial,
        ) == (0, {}, {}, None)
        for z in (1j, 2j, 1j, 3j):
            eval(Polynomial((1, 1)), z, ctr)
        # The sample window of the boundary test is not metered.
        ctr.samples[4j] = (1j, 2, 1.0, 3.0)
        ctr.previous_samples[5j] = (1j, 2, 1.0, 1.0)
        assert ctr.evaluations == 4
        with pytest.raises(AttributeError):
            ctr.evaluations = 0

    def test_uncounted_when_counter_absent(self):
        assert eval(Polynomial((1, 1)), 2 + 0j) == (3 + 0j, 1 + 0j)

    def test_metered_eval_stores_no_value(self):
        # No value is stored: a metered call computes what an unmetered one
        # does, to the bit, each time it is asked.
        f = Polynomial((0.1 + 0.3j, -2.7, 1e-3j, 5.5))
        z = 0.3 - 1.7j
        ctr = EvalCounter()
        want = eval(f, z)
        got = [eval(f, z, ctr) for _ in range(3)]
        assert float_bits(got) == float_bits([want] * 3)
        assert eval(f, 1j, ctr) == eval(f, 1j)
        assert ctr.evaluations == 4

    def test_metering_keeps_no_points(self):
        # The meter's memory stays flat: a dict of every point metered would
        # grow by about 288 KiB over these 10,000 calls.
        f = Polynomial((1, 2, 3))
        points = [complex(k, -k) for k in range(10_000)]
        ctr = EvalCounter()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for z in points:
                eval(f, z, ctr)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ctr.evaluations == 10_000
        assert grown < 4096


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
        # boundary test; ``eval`` gives f' with f instead.
        assert not hasattr(derivative, "cache_info")
        f = Polynomial((1, 2, 3))
        assert derivative(f) is not derivative(f)

    def test_each_run_checks_its_polynomial_once(self, monkeypatch):
        # The first boundary test of a run calls ``derivative`` only for its
        # refusals; no later one builds f' (``eval`` gives f' with f).
        from windroot import boundary, initial_samples, ipsr

        winding = importlib.import_module("windroot.winding")
        built = []
        monkeypatch.setattr(
            winding, "derivative", lambda f: built.append(f) or derivative(f)
        )
        f = Polynomial((1, 0, 0, 1))
        ctr = EvalCounter()
        for region in (rect(-2, -2, 2, 2), rect(-2, -2, 0, 0), rect(0, 0, 2, 2)):
            curve = boundary(region)
            ipsr(curve, f, initial_samples(curve), 1e-3, ctr)
        assert built == [f]
        assert ctr.polynomial is f
        # A new counter, as each run makes, checks again.
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
            quotient = (eval(f, z + h)[0] - eval(f, z - h)[0]) / (2 * h)
            exact = eval(f, z)[1]
            assert exact == eval(df, z)[0]
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
            old = 4.0 * (len(abs_coeffs) - 1) * math.ulp(abs(reference_horner(abs_coeffs, r)))
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
            sup = max(
                abs(eval(f, curve(curve.perimeter * k / 10_000))[1]) for k in range(10_000)
            )
            assert bound >= sup
