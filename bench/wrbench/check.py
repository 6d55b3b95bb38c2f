"""Check the solver's root boxes against an instance's known roots.

Independent of the package under test: boxes are read from the JSON the
command line prints, and containment is decided here from the box
vertices.  A root within its refinement radius of a box edge is
ambiguous and may be counted on either side; every other root counts
exactly where it lies.
"""

from __future__ import annotations

import json

from .gen import Instance

__all__ = ["parse_boxes", "check_boxes"]


def parse_boxes(stdout: str) -> list[dict]:
    """The ``boxes`` list of the JSON object the command line printed."""
    data = json.loads(stdout)
    boxes = data["boxes"]
    if not isinstance(boxes, list):
        raise ValueError("'boxes' is not a list")
    return boxes


def _depth(vertices: list[complex], z: complex) -> float:
    """Signed distance from z to the border of a counterclockwise polygon.

    Positive inside, negative outside (exact for convex polygons inside,
    a lower bound on the distance outside).
    """
    depth = float("inf")
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        e = b - a
        length = abs(e)
        if length == 0.0:
            continue
        cross = e.real * (z.imag - a.imag) - e.imag * (z.real - a.real)
        depth = min(depth, cross / length)
    return depth


def _in_rect(rect, z: complex) -> bool:
    x0, y0, x1, y1 = rect
    return x0 < z.real < x1 and y0 < z.imag < y1


def check_boxes(inst: Instance, boxes: list[dict]) -> list[str]:
    """Every way the boxes disagree with the instance; empty when they agree.

    Checks that each box is smaller than the accuracy, that its count
    matches the roots it holds, that every root in the rectangle lies in
    some box, and that the counts add up to the roots in the rectangle.
    """
    problems: list[str] = []
    inside = [(z, t) for z, t in zip(inst.roots, inst.tol) if _in_rect(inst.rect, z)]
    covered = [False] * len(inside)
    total = 0
    for b, box in enumerate(boxes):
        try:
            vertices = [complex(float(x), float(y)) for x, y in box["vertices"]]
            count = box["count"]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"box {b}: malformed ({exc})")
            continue
        if not isinstance(count, int) or count < 1 or len(vertices) < 3:
            problems.append(f"box {b}: count {count!r} with {len(vertices)} vertices")
            continue
        total += count
        xs = [v.real for v in vertices]
        ys = [v.imag for v in vertices]
        diam = max(max(xs) - min(xs), max(ys) - min(ys))
        if not diam < inst.accuracy:
            problems.append(f"box {b}: diameter {diam!r} not below {inst.accuracy!r}")
        lo = hi = 0
        for k, (z, t) in enumerate(inside):
            d = _depth(vertices, z)
            if d > t:
                lo += 1
                hi += 1
                covered[k] = True
            elif d >= -t:
                hi += 1
                covered[k] = True
        if not lo <= count <= hi:
            held = str(lo) if lo == hi else f"{lo}..{hi}"
            problems.append(f"box {b}: claims {count} roots but holds {held}")
    if total != len(inside):
        problems.append(f"boxes claim {total} roots but the rectangle holds {len(inside)}")
    missed = covered.count(False)
    if missed:
        problems.append(f"{missed} roots in the rectangle lie in no box")
    return problems
