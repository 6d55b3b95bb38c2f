"""Command-line front end: isolate polynomial roots in a plane region.

Parses a polynomial (JSON coefficients or ``z^3+1`` shorthand) and a
convex region (rectangle or polygon), runs the subdivision solver, and
prints the root boxes as JSON with 17-significant-digit floats.  An
optional SVG renders the subdivision tree and the boxes.  Exit codes: 0
success, 1 bad request (an accuracy or a region edge below the region's
float resolution, or a polynomial whose values could overflow on the
region, is refused before any work), an ``--svg`` path that cannot be
written, or a ``--verify`` disagreement, 2 root too close to the initial
boundary, 3 no root-free cut line or the depth limit reached, 4 internal
solver failure (an initial count outside [0, degree], cut parts whose
counts do not add up, a boundary parameter gap below float resolution,
or a geometry or boundary-test step that refuses its arguments during
subdivision).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .errors import (
    CountMismatchError,
    InitialRegionSingularError,
    InternalSolverError,
    NonTerminationError,
    NoConvergenceError,
    SubdivisionFailedError,
)
from .geometry import ConvexRegion, envelope
from .poly import Polynomial
from .rdp import RdpStats, RootBox, rdp

__all__ = ["main"]


class _ParseError(Exception):
    """Bad command line or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse takes "-1e-3" or "-z^3+1" for an option; read every
        # float and every polynomial shorthand that starts with "-z" as a value.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan|z)", re.I)

    def error(self, message):  # argparse would exit(2); 2 means singular here
        raise _ParseError(message)


# Whitespace may stand between the tokens of a term (sign, coefficient,
# "*", "z", "^", exponent), never inside a number or an exponent.
_TERM_RE = re.compile(
    r"^([+-])?\s*"
    r"(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)\s*(?:\*\s*(?=z))?)?"
    r"(z(?:\s*\^\s*(\d+))?)?$"
)


def _split_terms(text: str) -> list[str]:
    terms: list[str] = []
    start = 0
    for idx in range(1, len(text)):
        if text[idx] in "+-" and text[idx - 1] not in "eE":
            terms.append(text[start:idx])
            start = idx
    terms.append(text[start:])
    return terms


# Highest degree the shorthand accepts; see parse_poly_shorthand.
_MAX_DEGREE = 10**7


def parse_poly_shorthand(text: str) -> Polynomial:
    """Parse expressions like ``z^3 - 2.5z + 1`` into a polynomial.

    Real integer/float coefficients, a single variable ``z``, and the
    operators ``+ - ^`` (with optional ``*`` between coefficient and z).

    A degree above ``_MAX_DEGREE`` is refused before its coefficient tuple
    is built, since ``rdp`` refuses every region at such a degree anyway.
    Its first guard width is q = choose_q(a, n, n) = a*sin(pi/8) /
    (4*sqrt(2)*n^2) with a <= diam_rect(region) <= P/2, P the perimeter
    (the edges' x-extents add up to 2*diam_h and their y-extents to
    2*diam_v, so P >= 2*hypot(diam_h, diam_v)).  ``_check_resolution``
    requires q >= 4u with u >= ulp(P) > P*2^-53.  Both hold only if
    n^2 < sin(pi/8) * 2^53 / (32*sqrt(2)), about 7.6e13: n below 8.8e6.

    The top degree is the highest whose terms sum to a nonzero value, so
    terms that cancel (``z^100000-z^100000+z``) build no coefficients
    above it; if every sum is zero, the constant 0 is refused as the zero
    polynomial.  A coefficient written beyond float range is refused
    naming its term, and terms whose sum overflows naming their degree.
    Any whitespace between tokens reads like a space; whitespace inside a
    number or an exponent (``z^1 0``, ``1 2z``) is refused naming its term.
    """
    text = text.strip()
    if not text:
        raise _ParseError("empty polynomial expression")
    degrees: dict[int, float] = {}
    for term in _split_terms(text):
        term = term.strip()
        m = _TERM_RE.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise _ParseError(f"cannot parse polynomial term {term!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) is not None else 1.0
        if m.group(3) is None:
            k = 0
        elif m.group(4) is None:
            k = 1
        else:
            exponent = m.group(4).lstrip("0") or "0"
            if len(exponent) > len(str(_MAX_DEGREE)) or int(exponent) > _MAX_DEGREE:
                raise _ParseError(
                    f"polynomial degree above {_MAX_DEGREE}: at such a degree the "
                    "guard width lies below float resolution on every region"
                )
            k = int(exponent)
        if math.isinf(coeff):
            raise _ParseError(
                f"coefficient of polynomial term {term!r} is beyond float range"
            )
        total = degrees.get(k, 0.0) + sign * coeff
        if math.isinf(total):
            raise _ParseError(f"polynomial terms of degree {k} sum beyond float range")
        degrees[k] = total
    top = max((k for k, c in degrees.items() if c), default=0)
    coeffs = tuple(complex(degrees.get(k, 0.0)) for k in range(top + 1))
    try:
        return Polynomial(coeffs)
    except ValueError as exc:
        raise _ParseError(str(exc)) from exc


def _parse_polynomial(text: str) -> Polynomial:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return parse_poly_shorthand(text)
    except (ValueError, RecursionError) as exc:  # too many digits, too deeply nested
        raise _ParseError(f"malformed polynomial JSON: {exc}") from exc
    if not isinstance(data, dict):
        return parse_poly_shorthand(text)
    try:
        return Polynomial.from_json(data)
    except ValueError as exc:
        raise _ParseError(str(exc)) from exc


def _rect_value(text: str) -> float:
    """A ``--rect`` coordinate; an option string here means too few values.

    Some argparse versions let ``nargs=4`` take an option string as a
    value, which would otherwise read as "invalid float value".
    """
    if text.startswith("--"):
        raise argparse.ArgumentTypeError("expected 4 arguments")
    return float(text)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="windroot",
        description="Isolate all roots of a complex polynomial inside a "
        "convex plane region, with certified per-box root counts.",
    )
    poly = parser.add_mutually_exclusive_group(required=True)
    poly.add_argument(
        "--poly",
        help='polynomial: JSON {"coeffs": [[re, im], ...]} or shorthand like "z^3+1"',
    )
    poly.add_argument("--poly-file", help="file containing the polynomial")
    region = parser.add_mutually_exclusive_group(required=True)
    region.add_argument(
        "--rect",
        nargs=4,
        type=_rect_value,
        metavar=("X0", "Y0", "X1", "Y1"),
        help="axis-aligned rectangular region",
    )
    region.add_argument(
        "--region-file",
        help='file with JSON {"vertices": [[x, y], ...]} or {"rect": [x0, y0, x1, y1]}',
    )
    parser.add_argument(
        "--accuracy",
        type=float,
        required=True,
        help="maximum rectangular diameter of an emitted root box",
    )
    parser.add_argument("--svg", help="write an SVG of the subdivision to this path")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check box counts against independently computed roots",
    )
    parser.add_argument(
        "--stats", action="store_true", help="include run statistics in the JSON"
    )
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from exc


def _parse_region(ns: argparse.Namespace) -> ConvexRegion:
    if ns.rect is not None:
        region_data = {"rect": list(ns.rect)}
    else:
        try:
            region_data = json.loads(_read_file(ns.region_file))
        except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deep
            raise _ParseError(f"malformed region JSON: {exc}") from exc
    try:
        return ConvexRegion.from_json(region_data)
    except ValueError as exc:
        raise _ParseError(str(exc)) from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _box_json(box: RootBox) -> str:
    vs = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in box.region.vertices)
    x0, y0, x1, y1 = envelope(box.region)
    env = ", ".join(_fmt(c) for c in (x0, y0, x1, y1))
    return f'{{"vertices": [{vs}], "envelope": [{env}], "count": {box.count}}}'


def _result_json(boxes: list[RootBox], stats: RdpStats | None, seconds: float) -> str:
    lines = ["{", '  "boxes": [']
    for i, box in enumerate(boxes):
        comma = "," if i + 1 < len(boxes) else ""
        lines.append(f"    {_box_json(box)}{comma}")
    closing = "  ]" + ("," if stats is not None else "")
    lines.append(closing)
    if stats is not None:
        lines.append(
            f'  "stats": {{"pe": {stats.pe}, "max_level": {stats.max_level}, '
            f'"boxes": {len(boxes)}, "budget": {_fmt(stats.budget)}, '
            f'"seconds": {_fmt(seconds)}}}'
        )
    lines.append("}")
    return "\n".join(lines)


def _svg_point(v: complex, world, scale: float) -> str:
    wx0, _, _, wy1 = world
    return f"{(v.real - wx0) * scale:.2f},{(wy1 - v.imag) * scale:.2f}"


def _svg_path(vertices, world, scale) -> str:
    steps = [f"M {_svg_point(vertices[0], world, scale)}"]
    steps.extend(f"L {_svg_point(v, world, scale)}" for v in vertices[1:])
    steps.append("Z")
    return " ".join(steps)


def _write_svg(
    path: str, region: ConvexRegion, boxes: list[RootBox], stats: RdpStats
) -> None:
    x0, y0, x1, y1 = envelope(region)
    margin = 0.05 * max(x1 - x0, y1 - y0)
    world = (x0 - margin, y0 - margin, x1 + margin, y1 + margin)
    span = max(world[2] - world[0], world[3] - world[1])
    scale = 800.0 / span
    width = (world[2] - world[0]) * scale
    height = (world[3] - world[1]) * scale
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<path d="{_svg_path(region.vertices, world, scale)}" fill="none" '
        'stroke="#13334c" stroke-width="2.5" />',
    ]
    for level, sub in stats.visited:
        if level == 0:
            continue
        parts.append(
            f'<path d="{_svg_path(sub.vertices, world, scale)}" fill="none" '
            f'stroke="#8fa6b8" stroke-width="{max(0.2, 1.8 / (level + 1)):.2f}" />'
        )
    for box in boxes:
        points = " ".join(_svg_point(v, world, scale) for v in box.region.vertices)
        parts.append(
            f'<polygon points="{points}" fill="#e4572e" fill-opacity="0.9" '
            'stroke="#7a1f0e" stroke-width="0.6" />'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))


def _verify_boxes(
    f: Polynomial, region: ConvexRegion, boxes: list[RootBox]
) -> bool:
    """Check every count against the reference roots' inclusion disks.

    A count passes when it lies between the roots certainly inside its
    box (or the region, for the total) and those that may be; see
    ``oracle.count_bounds``.
    """
    # Imported here so that a run without --verify loads no reference code.
    from .oracle import count_bounds, roots_reference

    try:
        roots = roots_reference(f)
    except NoConvergenceError as exc:
        print(f"verify: no reference roots: {exc}", file=sys.stderr)
        return False
    (inside, *held) = count_bounds(roots, [region] + [b.region for b in boxes])
    ok = True
    for i, (box, (lo, hi)) in enumerate(zip(boxes, held)):
        if not lo <= box.count <= hi:
            print(
                f"verify: box {i} claims {box.count} roots but holds {_span(lo, hi)}",
                file=sys.stderr,
            )
            ok = False
    total = sum(box.count for box in boxes)
    lo, hi = inside
    if not lo <= total <= hi:
        print(
            f"verify: boxes claim {total} roots but the region holds {_span(lo, hi)}",
            file=sys.stderr,
        )
        ok = False
    if ok:
        print(
            f"verify: ok — {len(boxes)} boxes account for all {total} roots",
            file=sys.stderr,
        )
    return ok


def _span(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}..{hi}"


def main(argv=None) -> int:
    """Run one command line; print JSON to stdout; return the exit code."""
    try:
        ns = _build_parser().parse_args(argv)
        f = _parse_polynomial(
            ns.poly if ns.poly is not None else _read_file(ns.poly_file)
        )
        region = _parse_region(ns)
    except _ParseError as exc:
        print(f"windroot: error: {exc}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        boxes, stats = rdp(region, f, ns.accuracy)
    except InitialRegionSingularError as exc:
        print(f"windroot: {exc}", file=sys.stderr)
        return 2
    except SubdivisionFailedError as exc:
        print(f"windroot: {exc}", file=sys.stderr)
        return 3
    except (CountMismatchError, InternalSolverError, NonTerminationError) as exc:
        print(f"windroot: internal solver failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"windroot: {exc}", file=sys.stderr)
        return 1
    seconds = time.perf_counter() - started
    sys.stdout.write(_result_json(boxes, stats if ns.stats else None, seconds) + "\n")
    if ns.svg is not None:
        try:
            _write_svg(ns.svg, region, boxes, stats)
        except OSError as exc:
            print(f"windroot: cannot write {ns.svg}: {exc}", file=sys.stderr)
            return 1
    if ns.verify and not _verify_boxes(f, region, boxes):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
