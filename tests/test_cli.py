"""Command-line interface: parsing, JSON output, SVG, exit codes."""

import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest

import windroot
from windroot import (
    AccuracyBelowResolutionError,
    ConvexRegion,
    NoConvergenceError,
    NonTerminationError,
    Normal,
    Polynomial,
    RootBox,
    SingularError,
    boundary,
    choose_q,
)
from windroot.cli import _MAX_DEGREE, _ParseError, _verify_boxes, main, parse_poly_shorthand
from windroot.geometry import diam_rect, envelope
from windroot.rdp import _check_resolution

from support import poly_from_roots


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


CUBE_ARGS = ["--poly", "z^3+1", "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-3"]
VALUES_OVERFLOW = "polynomial values overflow double precision on the region "
PERIMETER_OVERFLOW = "the region's perimeter overflows double precision; shrink the region\n"
HALF_RANGE = (
    "the region's largest coordinate or perimeter reaches 2**1023, "
    "where a sum of two overflows double precision ("
)


class TestShorthand:
    def test_monic_cubic(self):
        assert parse_poly_shorthand("z^3+1").coeffs == (1 + 0j, 0j, 0j, 1 + 0j)

    def test_general_quadratic(self):
        assert parse_poly_shorthand("2z^2+3z+4").coeffs == (4 + 0j, 3 + 0j, 2 + 0j)

    def test_negative_and_float_coefficients(self):
        assert parse_poly_shorthand("-z^2 - 0.5").coeffs == (-0.5 + 0j, 0j, -1 + 0j)

    def test_scientific_notation(self):
        assert parse_poly_shorthand("1e-3z^2+2.5E+1").coeffs == (25 + 0j, 0j, 1e-3 + 0j)

    def test_order_does_not_matter(self):
        assert parse_poly_shorthand("1+z^3").coeffs == parse_poly_shorthand("z^3+1").coeffs

    def test_repeated_degrees_accumulate(self):
        assert parse_poly_shorthand("z+z").coeffs == (0j, 2 + 0j)

    def test_explicit_star(self):
        assert parse_poly_shorthand("2*z^2 - 3*z").coeffs == (0j, -3 + 0j, 2 + 0j)

    def test_rejects_garbage(self):
        for bad in ("", "zz", "w^2", "z^", "2**z", "z^-1"):
            with pytest.raises(_ParseError):
                parse_poly_shorthand(bad)

    @pytest.mark.parametrize("text, term", [("z^3+2*", "+2*"), ("2*", "2*"), ("*z", "*z")])
    def test_star_stands_only_between_a_coefficient_and_z(self, text, term):
        # "z^3+2*" used to read as z^3+2, and "2*" as 2.
        code, out, err = run_cli(
            ["--poly", text, "--rect", "-1", "-1", "1", "1", "--accuracy", "1"]
        )
        assert code == 1 and out == ""
        assert err == f"windroot: error: cannot parse polynomial term {term!r}\n"

    def test_cancelled_top_terms_build_no_coefficients(self):
        # The top degree is that of the highest nonzero sum: building the
        # 100,001 coefficients up to the cancelled terms peaked at 4.9 MB.
        tracemalloc.start()
        try:
            f = parse_poly_shorthand("z^100000-z^100000+z")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.degree == 1
        assert peak < 1_000_000

    @pytest.mark.parametrize("text", ["z-z", "z^5-z^5"])
    def test_terms_that_all_cancel_are_the_zero_polynomial(self, text):
        code, out, err = run_cli(
            ["--poly", text, "--rect", "-1", "-1", "1", "1", "--accuracy", "1"]
        )
        assert code == 1 and out == ""
        assert err == "windroot: error: the zero polynomial is not representable\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1e999z^2-1e999z^2+z", "coefficient of polynomial term '1e999z^2' is beyond float range"),
            ("1e999z+1", "coefficient of polynomial term '1e999z' is beyond float range"),
            ("1e308z^2+1e308z^2+z", "polynomial terms of degree 2 sum beyond float range"),
        ],
    )
    def test_overflow_names_the_term_or_degree(self, text, message):
        # These used to name a coefficient never written: (nan+0j), (inf+0j).
        code, out, err = run_cli(
            ["--poly", text, "--rect", "-1", "-1", "1", "1", "--accuracy", "1"]
        )
        assert code == 1 and out == ""
        assert err == f"windroot: error: {message}\n"

    @pytest.mark.parametrize("text", ["z^3\t+ 1", "z^3 +\n 1", " z^3+1\r\n"])
    def test_any_whitespace_reads_like_a_space(self, tmp_path, text):
        assert parse_poly_shorthand(text).coeffs == (1 + 0j, 0j, 0j, 1 + 0j)
        path = tmp_path / "poly.txt"
        path.write_text(text, encoding="utf-8", newline="")
        argv = CUBE_ARGS[2:]
        assert run_cli(["--poly-file", str(path)] + argv)[:2] == run_cli(CUBE_ARGS)[:2]

    @pytest.mark.parametrize("text", [" -z^3 + 1", "2 z", "2 * z^2", "z ^ 3", "- 2 z ^ 2"])
    def test_whitespace_between_tokens_reads_like_a_space(self, text):
        assert parse_poly_shorthand(text) == parse_poly_shorthand("".join(text.split()))

    @pytest.mark.parametrize(
        "text, term",
        [("z^1 0+1", "z^1 0"), ("1 2z", "1 2z"), ("2 . 5z", "2 . 5z"), ("1e 5z", "1e 5z")],
    )
    def test_whitespace_inside_a_number_is_refused(self, text, term):
        # These used to read as z^10+1, 12z, 2.5z and 1e5*z.
        code, out, err = run_cli(
            ["--poly", text, "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-1"]
        )
        assert code == 1 and out == ""
        assert err == f"windroot: error: cannot parse polynomial term {term!r}\n"

    def test_leading_zeros_in_the_exponent(self):
        assert parse_poly_shorthand("z^0003+1").coeffs == (1 + 0j, 0j, 0j, 1 + 0j)

    @pytest.mark.parametrize(
        "exponent", ["99999999999999999999", "9" * 5000, str(_MAX_DEGREE + 1)]
    )
    def test_degree_above_the_bound_refused_before_building(self, exponent):
        # The coefficient tuple used to grow until the process was killed;
        # an exponent over 4300 digits raised a traceback from int().
        started = time.perf_counter()
        code, out, err = run_cli(
            ["--poly", f"z^{exponent}+1", "--rect", "-1", "-1", "1", "1", "--accuracy", "1e-3"]
        )
        assert time.perf_counter() - started < 1.0
        assert code == 1 and out == ""
        assert err == (
            f"windroot: error: polynomial degree above {_MAX_DEGREE}: at such a degree "
            "the guard width lies below float resolution on every region\n"
        )

    def test_every_region_refuses_the_degree_bound(self):
        # The parser's bound rests on rdp's resolution check: at degree
        # _MAX_DEGREE the first guard width lies below 4 ulp of the
        # perimeter even where the accuracy is as large as it can be, on a
        # needle whose rectangular diameter nearly reaches half the
        # perimeter, a perimeter just below a power of two, at any scale.
        n = _MAX_DEGREE
        for scale in (1e-6, 1.0, 1e6):
            region = ConvexRegion.from_json({"rect": [0, 0, 1.999 * scale, 1e-9 * scale]})
            curve = boundary(region)
            q = choose_q(diam_rect(region), n, n)
            with pytest.raises(AccuracyBelowResolutionError):
                _check_resolution(curve, q)


class TestRuns:
    def test_three_root_square(self):
        code, out, _ = run_cli(CUBE_ARGS)
        assert code == 0
        data = json.loads(out)
        assert [b["count"] for b in data["boxes"]] == [1, 1, 1]
        for box in data["boxes"]:
            x0, y0, x1, y1 = box["envelope"]
            assert math.hypot(x1 - x0, y1 - y0) < 1e-3

    def test_output_is_reproducible_bytes(self):
        _, first, _ = run_cli(CUBE_ARGS)
        _, second, _ = run_cli(CUBE_ARGS)
        assert first == second

    def test_rootless_region_prints_empty_list(self):
        code, out, _ = run_cli(
            ["--poly", "z^3+1", "--rect", "5", "5", "6", "6", "--accuracy", "1e-3"]
        )
        assert code == 0
        assert out == '{\n  "boxes": [\n  ]\n}\n'

    def test_boundary_root_exits_two_naming_the_parameter(self):
        code, out, err = run_cli(
            ["--poly", "z-1", "--rect", "1", "-1", "3", "1", "--accuracy", "1e-3"]
        )
        assert code == 2
        assert out == ""
        assert "t=7.0" in err
        assert "singular" in err

    def test_stats_block_stable_apart_from_seconds(self):
        args = CUBE_ARGS + ["--stats"]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        strip = lambda s: re.sub(r'"seconds": [^}]+', '"seconds": X', s)
        assert strip(first) == strip(second)
        stats = json.loads(first)["stats"]
        assert stats["pe"] == 1522
        assert stats["max_level"] == 13
        assert stats["boxes"] == 3
        assert stats["pe"] <= stats["budget"]

    def test_verify_passes_on_clean_run(self):
        code, _, err = run_cli(CUBE_ARGS + ["--verify"])
        assert code == 0
        assert "verify: ok" in err

    def test_verify_reports_a_failed_reference(self, monkeypatch):
        def fail(f):
            raise NoConvergenceError("no convergence")

        monkeypatch.setattr("windroot.oracle.roots_reference", fail)
        code, _, err = run_cli(CUBE_ARGS + ["--verify"])
        assert code == 1
        assert "verify: no reference roots: no convergence" in err

    def test_small_accuracy_run(self):
        args = CUBE_ARGS[:-1] + ["1e-8"]
        code, out, _ = run_cli(args)
        assert code == 0
        boxes = json.loads(out)["boxes"]
        assert [b["count"] for b in boxes] == [1, 1, 1]
        for box in boxes:
            x0, y0, x1, y1 = box["envelope"]
            assert math.hypot(x1 - x0, y1 - y0) < 1e-8

    def test_tiny_region_solves(self):
        # The orientation products of a square of side 2e-200 underflow to
        # 0; it was refused as clockwise (exit 1).
        code, out, err = run_cli(
            ["--poly", "z", "--rect", "-1e-200", "-1e-200", "1e-200", "1e-200", "--accuracy", "1e-201"]
        )
        assert (code, err) == (0, "")
        assert [b["count"] for b in json.loads(out)["boxes"]] == [1]

    def fresh_python(self, code: str) -> int:
        src = os.path.dirname(os.path.dirname(os.path.abspath(windroot.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}
        )
        return done.returncode

    def test_import_leaves_numpy_out(self):
        # No module imports numpy or ElementTree; a run reports through
        # its result and --stats, so no logging either.
        code = (
            "import sys, windroot.cli\n"
            "unused = ('numpy', 'xml.etree.ElementTree', 'logging', 'traceback')\n"
            "sys.exit(any(name in sys.modules for name in unused))"
        )
        assert self.fresh_python(code) == 0

    @pytest.mark.parametrize(
        "extra, stderr",
        [
            ([], ""),
            (["--verify"], "verify: ok — 3 boxes account for all 3 roots\n"),
            (["--svg", os.devnull], ""),
        ],
        ids=["solve", "verify", "svg"],
    )
    def test_solve_leaves_numpy_out(self, extra, stderr):
        # The SVG is written as text, so no run loads ElementTree either.
        code = (
            "import io, sys, contextlib, windroot.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            f"    rc = windroot.cli.main({CUBE_ARGS + extra!r})\n"
            "assert rc == 0, rc\n"
            f"assert err.getvalue() == {stderr!r}, err.getvalue()\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'xml.etree' not in sys.modules\n"
        )
        assert self.fresh_python(code) == 0

    def test_run_loads_no_introspection_modules(self, tmp_path):
        # The value types are plain classes: dataclasses loads inspect, ast
        # and dis, about a third of the time to import the CLI.  -S keeps
        # site from loading typing, which a clean interpreter pays for too.
        svg = tmp_path / "cube.svg"
        argv = CUBE_ARGS + ["--stats", "--svg", str(svg), "--verify"]
        code = (
            "import io, sys, contextlib, windroot.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    rc = windroot.cli.main({argv!r})\n"
            "assert rc == 0, rc\n"
            "loaded = [m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(windroot.__file__)))
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src}
        )
        assert done.returncode == 0
        assert svg.stat().st_size > 0

    def test_package_reexports_each_module_list(self):
        # Each public name is declared once, in its module's __all__; the
        # package takes its names and its __all__ from those lists.
        modules = [
            importlib.import_module(f"windroot.{name}")
            for name in ("errors", "geometry", "poly", "rdp", "winding")
        ]
        assert windroot.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
        assert len(set(windroot.__all__)) == len(windroot.__all__) == 48
        errors = modules[0]
        assert errors.__all__ == [
            name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        # The star import of the rdp module binds the solver over the submodule.
        assert windroot.rdp is modules[3].rdp
        # Besides submodules, the package binds only the names it exports.
        public = {
            n for n, v in vars(windroot).items()
            if not n.startswith("_") and not isinstance(v, types.ModuleType)
        }
        assert public == set(windroot.__all__) - {"__version__"}
        code = (
            "from windroot import *\n"
            "import windroot\n"
            "missing = [n for n in windroot.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(windroot.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0

    def test_count_mismatch_exits_four_naming_level_and_envelope(self, monkeypatch):
        # A real case is z^46-1 on [-2.1, 2.07] x [-2.13, 2.11] at 1e-3,
        # where a boundary test miscounts a cut part (a solver defect
        # that a fix would remove); here the first division miscounts.
        # The package attribute ``windroot.rdp`` is the solver function.
        rdp_module = importlib.import_module("windroot.rdp")
        divide = rdp_module.divide

        def miscount(*args):
            (part, count), *rest = divide(*args)
            return [(part, count + 1)] + rest

        monkeypatch.setattr(rdp_module, "divide", miscount)
        code, out, err = run_cli(CUBE_ARGS)
        assert code == 4
        assert out == ""
        assert err == (
            "windroot: internal solver failure: cut parts account for 4 roots "
            "but the region holds 3 (level 0, region envelope (-2.0, -2.0, 2.0, 2.0))\n"
        )

    @pytest.mark.parametrize("below_accuracy", [False, True])
    def test_negative_part_count_exits_four_naming_level_and_envelope(
        self, monkeypatch, below_accuracy
    ):
        # A wrapped division moves one root from a part that holds none
        # to another, so the counts keep their sum but one reads -1.  On
        # pieces below the accuracy that used to reach RootBox and exit 1
        # (bad input); on larger pieces it failed a level late, as
        # "region holds -1".  A half that counts no roots stays whole, so
        # the trigger looks only at the two parts whose counts move.
        rdp_module = importlib.import_module("windroot.rdp")
        divide = rdp_module.divide
        swapped = []

        def swap(region, f, q, n0, ctr, stats):
            pairs = divide(region, f, q, n0, ctr, stats)
            parts = [p for p, _ in pairs]
            counts = [c for _, c in pairs]
            if swapped or 0 not in counts:
                return pairs
            moving = (parts[counts.index(max(counts))], parts[counts.index(0)])
            small = all(diam_rect(p) < 1e-3 for p in moving)
            if small != below_accuracy:
                return pairs
            swapped.append(region)
            moved = list(counts)
            moved[counts.index(max(counts))] += 1
            moved[counts.index(0)] -= 1
            return list(zip(parts, moved))

        monkeypatch.setattr(rdp_module, "divide", swap)
        code, out, err = run_cli(CUBE_ARGS)
        assert code == 4
        assert out == ""
        level = r"\d+" if below_accuracy else "0"
        assert re.fullmatch(
            r"windroot: internal solver failure: a cut part counts -1 roots "
            rf"\(level {level}, region envelope {re.escape(str(envelope(swapped[0])))}\)\n",
            err,
        )

    def test_accuracy_below_float_resolution_refused_up_front(self, monkeypatch):
        # The guard width (about 1.9e-17) lies below the float spacing of
        # the boundary parameter near 12.8; no boundary test may run.
        rdp_module = importlib.import_module("windroot.rdp")
        calls = []
        ipsr = rdp_module.ipsr
        monkeypatch.setattr(
            rdp_module, "ipsr", lambda *args: calls.append(args) or ipsr(*args)
        )
        code, out, err = run_cli(
            ["--poly", "z^60-1", "--rect", "1", "-2.1", "3", "2.3", "--accuracy", "1e-12"]
        )
        assert code == 1
        assert out == ""
        assert calls == []
        assert err == (
            "windroot: guard width 1.8791531255076284e-17 lies below 4 ulp "
            "(1.7763568394002505e-15) of the region (perimeter 12.8, largest "
            "coordinate 3.0); raise the accuracy, or shrink the region or move "
            "it nearer the origin\n"
        )

    def test_region_edge_below_float_resolution_refused_up_front(self, monkeypatch):
        # 1 + 1e-16 rounds to 1, so two vertices share a boundary
        # parameter; the sample array used to refuse it inside ipsr with
        # "parameters must be strictly increasing".
        rdp_module = importlib.import_module("windroot.rdp")
        calls = []
        ipsr = rdp_module.ipsr
        monkeypatch.setattr(
            rdp_module, "ipsr", lambda *args: calls.append(args) or ipsr(*args)
        )
        code, out, err = run_cli(
            ["--poly", "z^3+1", "--rect", "0", "0", "1", "1e-16", "--accuracy", "1e-3"]
        )
        assert code == 1
        assert out == ""
        assert calls == []
        assert err == (
            "windroot: the shortest region edge spans 0.0 in the boundary parameter, "
            "below its resolution 4.440892098500626e-16 (perimeter 2.0, largest "
            "coordinate 1.0); lengthen the edge or move the region nearer the origin\n"
        )

    @pytest.mark.parametrize(
        "poly, rect, accuracy, message",
        [
            # |f'| overflowed on the boundary: a false singular boundary (exit 2).
            ("1e305z^100-1", ["0.5", "0.5", "0.74", "0.74"], "1e-3", VALUES_OVERFLOW),
            # The derivative's coefficients overflowed (exit 1, "non-finite coefficient").
            ("1e307z^100-1", ["0.1", "0.1", "0.7", "0.7"], "1e-3", VALUES_OVERFLOW),
            # f overflowed to NaN on the boundary (exit 1 after evaluating).
            ("z^120-1", ["1000", "1000", "1001", "1001"], "1e-2", VALUES_OVERFLOW),
            # The perimeter overflowed: "raise the accuracy" (guard width below
            # 4 ulp, inf) and "lengthen the edge" (resolution inf) could not help.
            ("z", ["-1e308", "-1e308", "1e308", "1e308"], "1e308", PERIMETER_OVERFLOW),
            ("z", ["0", "0", "1.7e308", "1.7e308"], "1e308", PERIMETER_OVERFLOW),
            # A cut's midline adds two coordinates: (y0 + y1) / 2 was inf,
            # no horizontal cut shrank a part, and the run exited 3.
            (
                '{"coeffs": [[-5e296, -1.55e298], [1e-10, 0]]}',
                ["0", "1.5e308", "1e307", "1.6e308"],
                "1e306",
                HALF_RANGE,
            ),
            # A bisection midpoint adds two boundary parameters: 0.5 * (ta + tb)
            # overflowed on a finite perimeter of 1.68e308, and the run exited 4.
            (
                '{"coeffs": [[-1e297, -2e296], [1e-10, 0]]}',
                ["-4e307", "0", "4e307", "4e306"],
                "1e306",
                HALF_RANGE,
            ),
        ],
        ids=[
            "derivative-values",
            "derivative-coefficients",
            "values",
            "perimeter-across-the-origin",
            "perimeter",
            "coordinate-sum",
            "parameter-sum",
        ],
    )
    def test_values_overflowing_double_precision_refused_up_front(
        self, monkeypatch, poly, rect, accuracy, message
    ):
        def never(*args):
            pytest.fail("a boundary test ran")

        monkeypatch.setattr(importlib.import_module("windroot.rdp"), "ipsr", never)
        code, out, err = run_cli(["--poly", poly, "--rect", *rect, "--accuracy", accuracy])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"windroot: {message}")

    def test_edge_length_overflowing_double_precision_refused_up_front(
        self, monkeypatch, tmp_path
    ):
        # The curve's abs() of the edge from 0 to 1.5e308(1+i) used to raise
        # OverflowError, a traceback through the CLI.
        def never(*args):
            pytest.fail("a boundary test ran")

        monkeypatch.setattr(importlib.import_module("windroot.rdp"), "ipsr", never)
        path = tmp_path / "region.json"
        path.write_text('{"vertices": [[0, 0], [1.5e308, 1.5e308], [0, 1.5e308]]}')
        code, out, err = run_cli(
            ["--poly", "z-1e307", "--region-file", str(path), "--accuracy", "1e306"]
        )
        assert (code, out, err) == (1, "", f"windroot: {PERIMETER_OVERFLOW}")

    def test_large_coefficients_within_double_range_run(self):
        # 4 * 100 * (1e305 + 1) is still finite on a region inside |z| < 1.
        code, out, err = run_cli(
            ["--poly", "1e305z^100-1", "--rect", "0.3", "0.3", "0.7", "0.7", "--accuracy", "1e-3"]
        )
        assert code == 0 and err == ""
        assert json.loads(out)["boxes"] == []

    def test_gap_below_float_resolution_exits_four(self, monkeypatch):
        # Refusing unresolvable accuracies up front keeps this out of
        # reach of real runs; a boundary test that raises it still maps
        # to an internal failure.
        def stuck(*args):
            raise NonTerminationError(
                "parameter gap [1.0, 1.0000000000000002] is below float resolution"
            )

        monkeypatch.setattr(importlib.import_module("windroot.rdp"), "ipsr", stuck)
        code, out, err = run_cli(CUBE_ARGS)
        assert code == 4
        assert out == ""
        assert err == (
            "windroot: internal solver failure: parameter gap "
            "[1.0, 1.0000000000000002] is below float resolution\n"
        )

    def test_value_error_during_subdivision_exits_four(self, monkeypatch):
        # The input passed the up-front checks, so a refusal from the
        # geometry while dividing is an internal failure, not bad input.
        def refuse(*args):
            raise ValueError("polygon is not convex")

        monkeypatch.setattr(importlib.import_module("windroot.rdp"), "cut", refuse)
        code, out, err = run_cli(CUBE_ARGS)
        assert code == 4
        assert out == ""
        assert err == (
            "windroot: internal solver failure: polygon is not convex "
            "(level 0, region envelope (-2.0, -2.0, 2.0, 2.0))\n"
        )

    @pytest.mark.parametrize("bump, count", [(1, 4), (-5, -2)])
    def test_impossible_initial_count_exits_four(self, monkeypatch, bump, count):
        rdp_module = importlib.import_module("windroot.rdp")
        ipsr = rdp_module.ipsr
        calls = []

        def miscount(*args):
            outcome = ipsr(*args)
            calls.append(outcome)
            return Normal(outcome.index + bump, outcome.insertions)

        monkeypatch.setattr(rdp_module, "ipsr", miscount)
        code, out, err = run_cli(CUBE_ARGS)
        assert code == 4
        assert out == ""
        assert len(calls) == 1
        assert err == (
            f"windroot: internal solver failure: initial boundary test counts "
            f"{count} roots for degree 3 (region envelope (-2.0, -2.0, 2.0, 2.0))\n"
        )

    def test_no_root_free_cut_line_exits_three(self, monkeypatch):
        # Every boundary test after the initial one reports a singular
        # boundary, so the first cut runs out of trial offsets.
        rdp_module = importlib.import_module("windroot.rdp")
        ipsr = rdp_module.ipsr
        calls = []

        def fail_after_first(*args):
            calls.append(args)
            return ipsr(*args) if len(calls) == 1 else SingularError(0.0, 1.0, 0)

        monkeypatch.setattr(rdp_module, "ipsr", fail_after_first)
        code, out, err = run_cli(CUBE_ARGS)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("windroot: no root-free horizontal cut line after 5 trial offsets")

    def test_verify_accepts_clustered_roots_and_flags_a_tampered_count(self):
        # Two clusters of three roots 1e-4 apart, boxes of 1e-5: double
        # precision cannot place the reference roots inside the right
        # boxes, only within their inclusion disks.
        angles = [0.2 * math.pi + 2 * math.pi * k / 3 for k in range(3)]
        roots = [
            center + 1e-4 * complex(math.cos(a), math.sin(a))
            for center in (1.5 + 1.5j, -1.4 + 1.2j)
            for a in angles
        ]
        f = poly_from_roots(roots)
        poly = json.dumps({"coeffs": [[c.real, c.imag] for c in f.coeffs]})
        args = ["--poly", poly, "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-5"]
        code, out, err = run_cli(args + ["--verify"])
        assert code == 0, err
        assert "verify: ok — 6 boxes account for all 6 roots" in err

        region = ConvexRegion.from_json({"rect": [-2, -2, 2, 2]})
        boxes = [
            RootBox(ConvexRegion(tuple(complex(x, y) for x, y in b["vertices"])), b["count"])
            for b in json.loads(out)["boxes"]
        ]
        assert [b.count for b in boxes] == [1] * 6
        err = io.StringIO()
        with redirect_stderr(err):
            assert _verify_boxes(f, region, boxes)
            boxes[0] = RootBox(boxes[0].region, 2)
            assert not _verify_boxes(f, region, boxes)
        assert err.getvalue().splitlines()[1:] == [
            "verify: box 0 claims 2 roots but holds 0..1",
            "verify: boxes claim 7 roots but the region holds 6",
        ]


class TestInputForms:
    def test_json_polynomial_inline(self):
        inline = '{"coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]]}'
        _, a, _ = run_cli(["--poly", inline, "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-3"])
        _, b, _ = run_cli(CUBE_ARGS)
        assert a == b

    def test_polynomial_from_file(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text('{"coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]]}')
        _, a, _ = run_cli(
            ["--poly-file", str(path), "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-3"]
        )
        _, b, _ = run_cli(CUBE_ARGS)
        assert a == b

    def test_region_from_file_rect_form(self, tmp_path):
        path = tmp_path / "region.json"
        path.write_text('{"rect": [-2, -2, 2, 2]}')
        _, a, _ = run_cli(
            ["--poly", "z^3+1", "--region-file", str(path), "--accuracy", "1e-3"]
        )
        _, b, _ = run_cli(CUBE_ARGS)
        assert a == b

    def test_region_from_file_vertex_form(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text('{"vertices": [[-1, -1], [2, -1], [0, 2]]}')
        code, out, _ = run_cli(
            ["--poly", "z", "--region-file", str(path), "--accuracy", "1e-2"]
        )
        assert code == 0
        boxes = json.loads(out)["boxes"]
        assert len(boxes) == 1
        assert boxes[0]["count"] == 1
        x0, y0, x1, y1 = boxes[0]["envelope"]
        assert x0 <= 0 <= x1 and y0 <= 0 <= y1

    def test_rect_reads_negative_numbers_with_an_exponent(self):
        # argparse took "-1e-3" for an option: "expected 4 arguments".
        code, out, err = run_cli(
            ["--poly", "z^3+1", "--rect", "-1e-3", "-1e-3", "1e-3", "1e-3", "--accuracy", "1e-4"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["boxes"] == []
        _, a, _ = run_cli(["--poly", "z^3+1", "--rect", "-2e0", "-2", "2", "2", "--accuracy", "1e-3"])
        _, b, _ = run_cli(CUBE_ARGS)
        assert a == b
        code, _, err = run_cli(["--poly", "z", "--rect", "-1e-3", "0", "1", "--accuracy", "1"])
        assert code == 1
        assert err == "windroot: error: argument --rect: expected 4 arguments\n"
        # An option string is no coordinate, whatever argparse lets nargs=4 take.
        code, _, err = run_cli(["--poly", "z", "--rect", "-1e-3", "0", "1", "--acc", "1"])
        assert code == 1
        assert err == "windroot: error: argument --rect: expected 4 arguments\n"

    def test_shorthand_with_a_leading_minus(self):
        # argparse took "-z^3+1" for an option: "expected one argument".
        code, out, err = run_cli(["--poly", "-z^3+1", "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-1"])
        assert (code, err) == (0, "")
        assert sum(box["count"] for box in json.loads(out)["boxes"]) == 3


class TestSvg:
    def test_svg_structure(self, tmp_path):
        path = tmp_path / "run.svg"
        code, _, _ = run_cli(CUBE_ARGS + ["--svg", str(path)])
        assert code == 0
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:polygon", ns)) == 3
        assert len(root.findall("s:path", ns)) >= 1
        assert float(root.get("width")) > 0
        assert float(root.get("height")) > 0

    def test_unwritable_path_is_one_error_line(self, tmp_path):
        # The boxes are already printed; the write used to end in a traceback.
        path = tmp_path / "missing" / "run.svg"
        code, out, err = run_cli(CUBE_ARGS + ["--svg", str(path)])
        assert code == 1
        assert out == run_cli(CUBE_ARGS)[1]
        assert err == (
            f"windroot: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"
        )


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden(name: str) -> str:
    """A recorded output, or "" for a run that writes nothing there."""
    if name is None:
        return ""
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as handle:
        return handle.read()


def strip_seconds(s: str) -> str:
    return re.sub(r'"seconds": [^}]+', '"seconds": X', s)


class TestGoldenOutput:
    """Runs whose stdout (``seconds`` aside), stderr and exit code are recorded byte for byte."""

    @pytest.mark.parametrize(
        "argv, code, stdout, stderr",
        [
            (CUBE_ARGS + ["--stats"], 0, "cube_1e-3_stats.stdout", None),
            (CUBE_ARGS[:-1] + ["1e-8", "--stats"], 0, "cube_1e-8_stats.stdout", None),
            (
                ["--poly", "z^3+1", "--rect", "5", "5", "6", "6", "--accuracy", "1e-3", "--stats"],
                0,
                "rootless_stats.stdout",
                None,
            ),
            (
                ["--poly", "z-1", "--rect", "1", "-1", "3", "1", "--accuracy", "1e-3"],
                2,
                None,
                "singular.stderr",
            ),
        ],
        ids=["cube-1e-3", "cube-1e-8", "rootless", "singular"],
    )
    def test_run_matches_recording(self, argv, code, stdout, stderr):
        got_code, out, err = run_cli(argv)
        assert (got_code, strip_seconds(out), err) == (code, golden(stdout), golden(stderr))

    @pytest.mark.parametrize(
        "argv, name",
        [
            # This run accepts shifted cut lines, so their offsets are drawn too.
            (CUBE_ARGS, "cube_1e-3.svg"),
            (
                [
                    "--poly", "z^5-0.3z^2+0.7",
                    "--region-file", os.path.join(GOLDEN, "hexagon.json"),
                    "--accuracy", "1e-3",
                ],
                "hexagon_1e-3.svg",
            ),
            # Only the region's outline: nothing is visited below level 0.
            (["--poly", "z^3+1", "--rect", "5", "5", "6", "6", "--accuracy", "1e-3"], "rootless.svg"),
        ],
        ids=["cube", "hexagon", "rootless"],
    )
    def test_svg_matches_recording(self, tmp_path, argv, name):
        path = tmp_path / name
        assert run_cli(argv + ["--svg", str(path)])[0] == 0
        assert path.read_bytes() == golden(name).encode("utf-8")


class TestBadInvocations:
    def test_missing_polynomial(self):
        code, _, err = run_cli(["--rect", "0", "0", "1", "1", "--accuracy", "1e-3"])
        assert code == 1 and "error" in err

    def test_conflicting_region_sources(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"rect": [0, 0, 1, 1]}')
        code, _, _ = run_cli(
            ["--poly", "z", "--rect", "0", "0", "1", "1", "--region-file", str(path), "--accuracy", "1"]
        )
        assert code == 1

    def test_unparseable_polynomial(self):
        code, _, err = run_cli(["--poly", "x^2", "--rect", "0", "0", "1", "1", "--accuracy", "1"])
        assert code == 1 and "cannot parse" in err

    def test_malformed_polynomial_json(self):
        code, _, _ = run_cli(
            ["--poly", '{"coeffs": []}', "--rect", "0", "0", "1", "1", "--accuracy", "1"]
        )
        assert code == 1

    def test_nonpositive_accuracy(self):
        code, _, err = run_cli(["--poly", "z", "--rect", "0", "0", "1", "1", "--accuracy", "0"])
        assert code == 1 and "accuracy" in err

    @pytest.mark.parametrize("accuracy", ["nan", "inf"])
    def test_nonfinite_accuracy(self, accuracy):
        # An infinite accuracy used to report a singular boundary (exit 2).
        code, out, err = run_cli(CUBE_ARGS[:-1] + [accuracy])
        assert code == 1 and out == ""
        assert err == "windroot: accuracy must be positive and finite\n"

    def test_zero_threads(self):
        # The solver runs on one thread; there is no --threads option.
        code, _, err = run_cli(
            ["--poly", "z", "--rect", "0", "0", "1", "1", "--accuracy", "1", "--threads", "0"]
        )
        assert code == 1 and "unrecognized arguments: --threads" in err

    def test_guard_width_option_removed(self):
        # The guard width follows from the accuracy and the counts.
        code, out, err = run_cli(CUBE_ARGS + ["--q", "1e-6"])
        assert code == 1 and out == ""
        assert "unrecognized arguments: --q" in err

    def test_missing_region_file(self):
        code, _, err = run_cli(
            ["--poly", "z", "--region-file", "/nonexistent/r.json", "--accuracy", "1"]
        )
        assert code == 1 and "cannot read" in err

    def test_degenerate_region(self):
        code, _, _ = run_cli(["--poly", "z", "--rect", "0", "0", "0", "1", "--accuracy", "1"])
        assert code == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rect": [0, 0, 1]}', "malformed region JSON: not enough values to unpack"),
            ('{"rect": ["a", 0, 1, 1]}', "malformed region JSON: could not convert"),
            ('{"vertices": [[0, 0, 5], [1, 0], [1, 1]]}', "malformed region JSON: too many values"),
            ('{"rect": [0, 0, 1, 1' + "0" * 400 + "]}", "malformed region JSON: int too large"),
            ("rect 0 0 1 1", "malformed region JSON: Expecting value"),
            ("{}", "malformed region JSON: 'vertices'"),
            ('{"vertices": 3}', "malformed region JSON: 'int' object is not iterable"),
            ('{"vertices": [[0, 0], [1, 0]]}', "a region needs at least 3 vertices"),
            ('{"vertices": []}', "a region needs at least 3 vertices"),
            ('{"vertices": [[0, 0], [1e999, 0], [1, 1]]}', "non-finite vertex (inf+0j)"),
            ('{"rect": [0, 0, 0, 1]}', "rectangle has zero width or height"),
            ('{"vertices": ["00", "40", "44", "04"]}', "malformed region JSON: '00' is not a list"),
            ('{"rect": [false, false, true, true]}', "malformed region JSON: could not convert False"),
            ('{"rect": "0044"}', "malformed region JSON: '0044' is not a list"),
            # A reflex vertex, with edges whose length overflows (|e| raised
            # OverflowError) and offsets across the float range.
            (
                '{"vertices": [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [0, -5e307], [-1e308, 1e308]]}',
                "polygon is not convex",
            ),
        ],
        ids=[
            "three-numbers",
            "not-a-number",
            "three-coordinates",
            "beyond-float-range",
            "not-json",
            "missing-key",
            "vertices-not-a-list",
            "two-vertices",
            "no-vertices",
            "infinite-vertex",
            "zero-width",
            "string-vertices",
            "boolean-rect",
            "string-rect",
            "reflex-across-the-float-range",
        ],
    )
    def test_bad_region_file_is_one_error_line(self, tmp_path, text, message):
        path = tmp_path / "region.json"
        path.write_text(text)
        code, out, err = run_cli(
            ["--poly", "z", "--region-file", str(path), "--accuracy", "1"]
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert err.startswith(f"windroot: error: {message}")

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--poly", '{"coeffs": [[1, 0], [1' + "0" * 400 + ", 0]]}", "malformed polynomial JSON: int too large"),
            ("--poly", '{"coeffs": [[1, 0], [1' + "0" * 5000 + ", 0]]}", "malformed polynomial JSON: "),
            ("--poly-file", '{"coeffs": [[1, 0], [1' + "0" * 5000 + ", 0]]}", "malformed polynomial JSON: "),
            ("--region-file", '{"rect": [0, 0, 1, 1' + "0" * 5000 + "]}", "malformed region JSON: "),
            ("--poly", "[" * 100_000, "malformed polynomial JSON: maximum recursion depth"),
            ("--region-file", "[" * 100_000, "malformed region JSON: maximum recursion depth"),
            ("--poly-file", b"\xff z", "cannot read "),
            ("--region-file", b'{"rect": [0, 0, 1, 1]}\xff', "cannot read "),
            ("--poly", '{"coeffs": ["12", "34"]}', "malformed polynomial JSON: '12' is not a list"),
            ("--poly", '{"coeffs": [[true, 0], [1, 0]]}', "malformed polynomial JSON: could not convert True"),
        ],
        ids=[
            "poly-beyond-float-range",
            "poly-above-digit-limit",
            "poly-file-above-digit-limit",
            "region-file-above-digit-limit",
            "poly-nested-too-deep",
            "region-file-nested-too-deep",
            "poly-file-not-utf8",
            "region-file-not-utf8",
            "poly-string-coefficients",
            "poly-boolean-coefficient",
        ],
    )
    def test_unreadable_number_or_file_is_one_error_line(self, tmp_path, flag, text, message):
        # An integer above CPython's int-to-str digit limit makes json.loads
        # raise a plain ValueError, not JSONDecodeError, and deep nesting a
        # RecursionError; an integer beyond float range overflows in
        # float(), and a file that is not UTF-8 fails to decode.  None of
        # them may escape main.
        poly, region = ["--poly", "z"], ["--rect", "0", "0", "1", "1"]
        if flag == "--poly":
            poly = [flag, text]
        else:
            path = tmp_path / "input"
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            if flag == "--poly-file":
                poly = [flag, str(path)]
            else:
                region = [flag, str(path)]
        code, out, err = run_cli(poly + region + ["--accuracy", "1"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert err.startswith(f"windroot: error: {message}")
