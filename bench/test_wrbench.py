"""Tests of the benchmark's own generator, checker and tracer."""

from __future__ import annotations

import contextlib
import io

import pytest

from wrbench import trace
from wrbench.check import check_boxes, parse_boxes
from wrbench.gen import WORKLOADS, expand, generate, refine_roots


def _square(z: complex, half: float) -> dict:
    corners = [z + complex(dx, dy) * half for dx, dy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    return {"vertices": [[c.real, c.imag] for c in corners], "count": 1}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    first = generate(workload, 7, count=4)
    again = generate(workload, 7, count=4)
    other = generate(workload, 8, count=4)
    assert [i.argv for i in first] == [i.argv for i in again]
    assert [i.roots for i in first] == [i.roots for i in again]
    assert [i.argv for i in first] != [i.argv for i in other]


def test_refined_roots_are_roots_of_the_coefficients_sent():
    generated = [0.5 + 0.5j, 0.5 + 0.5j + 3e-4, 0.5 + 0.5j + 3e-4j, -1.2 + 0.1j]
    coeffs = expand(generated)
    roots, radii = refine_roots(coeffs, generated)
    assert expand(roots) == pytest.approx(coeffs, abs=1e-14)
    assert all(r < 1e-12 for r in radii)
    with pytest.raises(ValueError):
        refine_roots(tuple(2 * c for c in coeffs), generated)
    with pytest.raises(ValueError):
        refine_roots(coeffs, generated[:-1] + [complex("nan")])


def test_checker_accepts_true_boxes_and_flags_a_tampered_count():
    inst = generate("clustered", 3, count=1)[0]
    boxes = [_square(z, 0.25 * inst.accuracy) for z in inst.roots]
    assert check_boxes(inst, boxes) == []
    boxes[0]["count"] = 2
    problems = check_boxes(inst, boxes)
    assert any("box 0: claims 2 roots but holds 1" in p for p in problems)
    assert any("boxes claim" in p for p in problems)


def test_checker_flags_a_missing_root_and_a_wide_box():
    inst = generate("deep-low", 3, count=1)[0]
    boxes = [_square(z, 0.25 * inst.accuracy) for z in inst.roots]
    boxes[-1] = _square(inst.roots[-1], inst.accuracy)
    problems = check_boxes(inst, boxes[1:])
    assert any("lie in no box" in p for p in problems)
    assert any("not below" in p for p in problems)


def test_solver_output_passes_the_checker_until_tampered():
    cli = pytest.importorskip("windroot.cli")
    inst = min(generate("deep-low", 11, count=6), key=lambda i: len(i.roots))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(inst.argv) == 0
    boxes = parse_boxes(out.getvalue())
    assert check_boxes(inst, boxes) == []
    boxes[1]["count"] += 1
    assert check_boxes(inst, boxes)


def test_tracer_restores_targets_and_tolerates_missing_ones(monkeypatch):
    cli = pytest.importorskip("windroot.cli")
    import windroot.geometry
    import windroot.winding

    originals = (windroot.winding.eval, windroot.geometry.BoundaryCurve.__call__, cli.rdp)
    monkeypatch.setattr(
        trace,
        "TARGETS",
        trace.TARGETS + (("winding", "windroot.winding", ("no_such_name",), None),),
    )
    tracer = trace.Tracer()
    inst = min(generate("deep-low", 11, count=6), key=lambda i: len(i.roots))
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert windroot.winding.eval is not originals[0]
        tracer.begin()
        assert tracer.call("cli", cli.main, inst.argv) == 0
    assert tracer.absent == {"winding"}
    assert (windroot.winding.eval, windroot.geometry.BoundaryCurve.__call__, cli.rdp) == originals
    assert tracer.counts["f_evals"] >= tracer.stats.pe > 0
    assert tracer.counts["ipsr_calls"] > 0 and tracer.counts["cut_calls"] > 0
    assert all(tracer.self_s[layer] > 0 for layer in trace.LAYERS)
