"""Acceptance gate: ten end-to-end properties, one printed line each.

Each test exercises one advertised guarantee at full scale and prints a
single PASS/FAIL line (visible with ``pytest -s``).  The random surveys
are shared through module-scoped fixtures so the iteration-count
criterion can audit every boundary test the other criteria ran.
"""

import cmath
import io
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest

from windroot import (
    InitialRegionSingularError,
    Normal,
    Polynomial,
    SingularError,
    boundary,
    contains,
    envelope,
    initial_samples,
    ipsr,
    lipschitz_bound,
    rdp,
)
from windroot.cli import main
from windroot.geometry import cut, diam_rect
from windroot.oracle import (
    RootList,
    condition_number,
    dist_set_curve,
    roots_reference,
)
from windroot.poly import EvalCounter

from support import (
    inside_count,
    le_rel,
    min_image_modulus,
    poly_from_roots,
    random_convex_polygon,
    random_instance,
    random_lead,
    random_rect_clear_of,
    random_roots,
    rect,
)

Q = 1e-3


def announce(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def winding_survey():
    """500 random boundary tests: outcomes plus (perimeter, Q, insertions)."""
    rng = random.Random(1001)
    calls: list[tuple[float, float, int]] = []
    mismatches = 0
    for _ in range(500):
        f, roots, region = random_instance(rng, margin=0.05)
        curve = boundary(region)
        out = ipsr(curve, f, initial_samples(curve), Q, EvalCounter())
        calls.append((curve.perimeter, Q, out.insertions))
        if not isinstance(out, Normal) or out.index != inside_count(roots, region):
            mismatches += 1
    return calls, mismatches


@pytest.fixture(scope="module")
def subdivision_survey():
    """100 full subdivision runs with their reference roots and statistics."""
    rng = random.Random(1002)
    runs = []
    for _ in range(100):
        f, _, region = random_instance(rng, margin=0.05)
        boxes, stats = rdp(region, f, 1e-3)
        runs.append((f, region, boxes, stats, roots_reference(f)))
    return runs


@pytest.fixture(scope="module")
def adversarial_survey():
    """50 instances with one root a tenth of the guard width inside an edge."""
    rng = random.Random(1006)
    outcomes = []
    for _ in range(50):
        n = rng.randint(2, 6)
        roots = random_roots(rng, n)
        region = random_rect_clear_of(rng, roots, margin=0.05)
        x0, y0, x1, _ = envelope(region)
        roots[0] = complex(rng.uniform(x0 + 0.1, x1 - 0.1), y0 + Q / 10)
        f = poly_from_roots(roots, random_lead(rng))
        curve = boundary(region)
        out = ipsr(curve, f, initial_samples(curve), Q, EvalCounter())
        outcomes.append((n, roots, curve, out))
    return outcomes


def test_criterion_01_root_count_correctness(winding_survey):
    _, mismatches = winding_survey
    announce(1, "boundary winding count matches the reference on 500 instances", mismatches == 0)


def test_criterion_02_end_to_end_subdivision(subdivision_survey):
    ok = True
    for _, region, boxes, _, oracle in subdivision_survey:
        for i, a in enumerate(boxes):
            ax0, ay0, ax1, ay1 = envelope(a.region)
            for b in boxes[i + 1 :]:
                bx0, by0, bx1, by1 = envelope(b.region)
                if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                    ok = False
        per_box = [0] * len(boxes)
        inside = 0
        for z in oracle:
            hits = [j for j, b in enumerate(boxes) if contains(b.region, z, tol=1e-12)]
            if contains(region, z):
                inside += 1
                if len(hits) != 1:
                    ok = False
                else:
                    per_box[hits[0]] += 1
            elif hits:
                ok = False
        if [b.count for b in boxes] != per_box:
            ok = False
        if sum(b.count for b in boxes) != inside:
            ok = False
        if any(diam_rect(b.region) >= 1e-3 for b in boxes):
            ok = False
    announce(2, "boxes partition the reference roots in 100 runs", ok)


def test_criterion_03_recursion_depth_bound(subdivision_survey):
    ok = all(
        stats.max_level <= math.log2(diam_rect(region) / 1e-3) + 2
        for _, region, _, stats, _ in subdivision_survey
    )
    announce(3, "recursion depth within lg2(dr/A)+2 in every run", ok)


def test_criterion_04_evaluation_budget(subdivision_survey):
    ok = all(stats.pe <= stats.budget for _, _, _, stats, _ in subdivision_survey)
    announce(4, "metered evaluations within the closed-form budget", ok)


def test_criterion_05_insertion_bound(winding_survey, subdivision_survey, adversarial_survey):
    calls = list(winding_survey[0])
    for _, _, _, stats, _ in subdivision_survey:
        calls.extend(stats.ipsr_calls)
    for _, _, curve, out in adversarial_survey:
        calls.append((curve.perimeter, Q, out.insertions))
    ok = all(ins < math.floor(per / q + 1) for per, q, ins in calls)
    announce(5, f"all {len(calls)} boundary tests stayed below floor(per/Q+1) insertions", ok)


def test_criterion_06_error_certificates(adversarial_survey):
    errors = 0
    ok = True
    for n, roots, curve, out in adversarial_survey:
        if not isinstance(out, SingularError):
            continue
        errors += 1
        kappa = condition_number(RootList(tuple(roots)), curve)
        if kappa < math.sqrt(2) / (4 * Q) * (1 - 1e-9):
            ok = False
        if dist_set_curve(RootList(tuple(roots)), curve) > 4 * n * Q / math.sqrt(2) * (1 + 1e-9):
            ok = False
    ok = ok and errors >= 1
    announce(6, f"every error exit ({errors}/50) certified ill conditioning", ok)


def test_criterion_07_modulus_sandwich():
    rng = random.Random(1007)
    ok = True
    for _ in range(500):
        n = rng.randint(2, 8)
        roots = random_roots(rng, n)
        pad = rng.uniform(0.1, 1.0)
        region = rect(
            min(r.real for r in roots) - pad,
            min(r.imag for r in roots) - pad,
            max(r.real for r in roots) + pad,
            max(r.imag for r in roots) + pad,
        )
        f = poly_from_roots(roots, random_lead(rng))
        curve = boundary(region)
        d = dist_set_curve(RootList(tuple(roots)), curve)
        sampled = min_image_modulus(f, curve)
        if not abs(f.coeffs[-1]) * d**n <= sampled:
            ok = False
        if not sampled <= lipschitz_bound(f, region) * d * (1 + 1e-9):
            ok = False
    announce(7, "minimum boundary modulus sandwiched on 500 instances", ok)


def test_criterion_08_geometry_lemmas():
    ok = True
    rng = random.Random(1008)
    for _ in range(1000):  # midline rounds: exact halving per round
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
        if current is not None and not le_rel(diam_rect(current), start / 2**m):
            ok = False
    for _ in range(1000):  # shifted rounds: halving plus a geometric drift term
        region = random_convex_polygon(rng)
        start = diam_rect(region)
        mu = rng.uniform(0.0, 0.05) * start
        m = rng.randint(1, 5)
        current = region
        for _ in range(m):
            current = cut(current, "horizontal", rng.uniform(-mu, mu))[rng.randint(0, 1)]
            if current is None:
                break
            current = cut(current, "vertical", rng.uniform(-mu, mu))[rng.randint(0, 1)]
            if current is None:
                break
        bound = start / 2**m + (2**m - 1) / 2 ** (m - 1) * mu * math.sqrt(2)
        if current is not None and not le_rel(diam_rect(current), bound):
            ok = False
    for _ in range(10_000):  # nearer endpoint within the chord over the sine
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dx = cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        dy = cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        alpha = abs(cmath.phase(dx / dy))
        if alpha < 1e-12:
            continue
        lhs = min(abs(dx), abs(dy))
        rhs = abs(dx - dy) / (2 * math.sin(alpha / 2))
        if not le_rel(lhs, rhs, 1e-9):
            ok = False
    announce(8, "subdivision and angular-gap lemmas hold at scale", ok)


def test_criterion_09_known_roots_fixtures():
    ok = True
    boxes, _ = rdp(rect(-2, -2, 2, 2), Polynomial((1, 0, 0, 1)), 1e-3)
    analytic = [-1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j, 0.5 - math.sqrt(3) / 2 * 1j]
    if len(boxes) != 3 or [b.count for b in boxes] != [1, 1, 1]:
        ok = False
    for z in analytic:
        if sum(1 for b in boxes if contains(b.region, z)) != 1:
            ok = False
    # The double root of (z - 0.5)^2 lies exactly on the border of
    # [0,1]^2, where no boundary winding number exists; the contract
    # requires the run to refuse with the singular-region error.  The
    # same polynomial recentered to an interior point must produce the
    # intended single box of count 2.
    try:
        rdp(rect(0, 0, 1, 1), Polynomial((0.25, -1, 1)), 1e-3)
        ok = False
    except InitialRegionSingularError:
        pass
    c = 0.5 + 0.5j
    boxes2, _ = rdp(rect(0, 0, 1, 1), Polynomial((c * c, -2 * c, 1)), 1e-3)
    if len(boxes2) != 1 or boxes2[0].count != 2 or not contains(boxes2[0].region, c):
        ok = False
    if not all(diam_rect(b.region) < 1e-3 for b in boxes + boxes2):
        ok = False
    announce(9, "known-roots fixtures give 3 simple boxes and one double box", ok)


def test_criterion_10_cli_golden_runs(tmp_path):
    ok = True
    cube = ["--poly", "z^3+1", "--rect", "-2", "-2", "2", "2", "--accuracy", "1e-3"]
    code1, out1, _ = run_cli(cube)
    code1b, out1b, _ = run_cli(cube)
    if code1 != 0 or code1b != 0 or out1 != out1b:
        ok = False
    if [b["count"] for b in json.loads(out1)["boxes"]] != [1, 1, 1]:
        ok = False
    strip = lambda s: re.sub(r'"seconds": [^}]+', '"seconds": X', s)
    _, s1, _ = run_cli(cube + ["--stats"])
    _, s2, _ = run_cli(cube + ["--stats"])
    if strip(s1) != strip(s2) or '"stats"' not in s1:
        ok = False
    code2, out2, _ = run_cli(
        ["--poly", "z^3+1", "--rect", "5", "5", "6", "6", "--accuracy", "1e-3"]
    )
    if code2 != 0 or out2 != '{\n  "boxes": [\n  ]\n}\n':
        ok = False
    code3, out3, err3 = run_cli(
        ["--poly", "z-1", "--rect", "1", "-1", "3", "1", "--accuracy", "1e-3"]
    )
    if code3 != 2 or out3 != "" or "t=7.0" not in err3:
        ok = False
    svg_path = tmp_path / "cube.svg"
    code4, _, _ = run_cli(cube + ["--svg", str(svg_path)])
    root = ET.fromstring(svg_path.read_text())
    ns = {"s": "http://www.w3.org/2000/svg"}
    if code4 != 0 or not root.tag.endswith("svg") or len(root.findall("s:polygon", ns)) != 3:
        ok = False
    announce(10, "golden runs byte-stable with valid SVG", ok)
