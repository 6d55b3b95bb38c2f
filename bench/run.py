"""windroot benchmark: seeded root-isolation workloads through the CLI.

    python3 bench/run.py --workload deep-low --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One closed-loop client calls
``windroot.cli.main(argv)`` in-process on each generated instance, waits
for it, and moves to the next, cycling through the instance list until
``--seconds`` have passed (the first pass always completes).  Outputs
are checked against the instance's known roots outside the timed region.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference speed of the host (see REF_SECONDS and REF_IMPORT_SECONDS);
``--trace 1`` repeats the untraced loop as a baseline, then solves every
instance once more with per-layer wrappers installed and reports the
per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from wrbench.check import check_boxes, parse_boxes
from wrbench.gen import WORKLOADS, generate
from wrbench.trace import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Pairs of fresh interpreters timed per run for setup_s, half before and
# half after the timed loop so that they see the same machine as the loop.
# One of a pair imports windroot.cli; the other imports only numpy, a
# fixed reference of the same kind of work (loading modules and native
# code).  Both are timed in CPU time of the importing thread, inside the
# child: the wall time of an import on a shared host drifts by tens of
# percent, and so does its CPU time, but the ratio of the two imports'
# CPU times holds within a few percent.  So setup_s is the median over
# the pairs of the windroot.cli import time times REF_IMPORT_SECONDS over
# the numpy import time: the import time on a host where numpy imports
# in REF_IMPORT_SECONDS of CPU time.
SETUP_PAIRS = 10
REF_IMPORT_SECONDS = 0.1
_SETUP_CODE = (
    "import time; w0 = time.perf_counter(); t0 = time.thread_time(); import windroot; "
    "t1 = time.thread_time(); import windroot.cli; t2 = time.thread_time(); "
    "print(time.perf_counter() - w0, t1 - t0, t2 - t0, windroot.__file__)"
)
_REF_IMPORT_CODE = "import time; t0 = time.thread_time(); import numpy; print(time.thread_time() - t0)"
# The tail is the highest percentile with at least this many instances above it.
TAIL_ABOVE = 10

# The speed of plain Python code on a shared host drifts by tens of
# percent over seconds to minutes, far more than a regression worth
# catching.  A fixed reference in the solver's style is timed before
# every solve, with the garbage collector off so that a heap the program
# leaves behind does not slow it.  A solve's scaled time is its wall time
# times REF_SECONDS over the median reference time of the REF_WINDOW
# solves on either side, i.e. its time on a host where the reference
# takes REF_SECONDS.
REF_SECONDS = 0.002
REF_WINDOW = 7
_REF_COEFFS = tuple(complex(k % 5 - 2, k % 3 - 1) for k in range(16))


@dataclass
class Outcome:
    """First-pass result of one instance, plus every solve time it got."""

    rc: int | None
    stdout: str
    message: str
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    roots: int = 0

    @property
    def failed(self) -> bool:
        return self.rc != 0

    @property
    def wrong(self) -> bool:
        return self.rc == 0 and bool(self.problems)

    @property
    def solved(self) -> bool:
        return self.rc == 0 and not self.problems

    @property
    def seconds(self) -> float:
        return statistics.median(self.times)

    @property
    def scaled_seconds(self) -> float:
        return statistics.median(self.scaled)


def reference_work() -> complex:
    """Fixed work like the solver's: complex Horner steps and a memo dict."""
    memo = {}
    for k in range(1000):
        z = complex(0.001 * k, 0.5)
        v = 0j
        for c in _REF_COEFFS:
            v = v * z + c
        memo[z] = v
    return sum(memo.values())


def time_reference() -> float:
    """Seconds that reference_work takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _solve(main, argv, tracer=None):
    """One closed-loop request: (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv) if tracer is None else tracer.call("cli", main, argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def _child(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the words it printed."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return proc.stdout.split(maxsplit=3)


def time_imports(count: int) -> list[tuple[float, float, float, float]]:
    """Import times in ``count`` pairs of fresh interpreters.

    Each sample is (wall time to import windroot.cli, its CPU time, the
    CPU time after import windroot, CPU time to import numpy in the other
    interpreter of the pair), each timed inside its interpreter.
    """
    samples = []
    for _ in range(count):
        wall, t_pkg, t_cli, where = _child(_SETUP_CODE)
        if not Path(where.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported windroot from {where.strip()}")
        (t_ref,) = _child(_REF_IMPORT_CODE)
        samples.append((float(wall), float(t_cli), float(t_cli) - float(t_pkg), float(t_ref)))
    return samples


def run_loop(main, instances, seconds: float) -> list[Outcome]:
    """Closed loop over the instances for ``seconds``, at least one full pass."""
    outcomes: list[Outcome] = []
    refs: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < len(instances) or time.perf_counter() - start < seconds:
        k = i % len(instances)
        refs.append(time_reference())
        rc, stdout, stderr, dt = _solve(main, instances[k].argv)
        if i < len(instances):
            outcomes.append(Outcome(rc, stdout, stderr.strip()))
        elif (rc, stdout) != (outcomes[k].rc, outcomes[k].stdout):
            outcomes[k].problems.append(f"pass {i // len(instances) + 1} printed other output")
        outcomes[k].times.append(dt)
        i += 1
    for j in range(len(refs)):
        o = outcomes[j % len(instances)]
        local = statistics.median(refs[max(j - REF_WINDOW, 0) : j + REF_WINDOW + 1])
        o.scaled.append(o.times[j // len(instances)] * REF_SECONDS / local)
    for inst, o in zip(instances, outcomes):
        if o.rc == 0:
            o.problems[:0], o.roots = check_output(inst, o.stdout)
    return outcomes


def check_output(inst, stdout: str) -> tuple[list[str], int]:
    try:
        boxes = parse_boxes(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"], 0
    problems = check_boxes(inst, boxes)
    return problems, 0 if problems else sum(b["count"] for b in boxes)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE values above it."""
    xs = sorted(values)
    idx = max(len(xs) - TAIL_ABOVE - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def charged(outcomes: list[Outcome], seconds) -> list[float]:
    """Each instance's time, an unsolved one charged at least the slowest solve.

    An instance is solved when it exited 0 with correct boxes.  The others
    stay in the sample, ranked with the slowest, so that a change which
    makes instances fail never lowers a percentile.
    """
    slowest = max((seconds(o) for o in outcomes if o.solved), default=0.0)
    return [seconds(o) if o.solved else max(seconds(o), slowest) for o in outcomes]


def timings(outcomes: list[Outcome], seconds) -> dict[str, tuple[float, str]]:
    """p50, tail and roots per second, with ``seconds(outcome)`` as instance time.

    Roots per second counts the roots of solved instances over the time of
    every instance, each at its own time.
    """
    times = charged(outcomes, seconds)
    return {
        "roots_per_s": (sum(o.roots for o in outcomes if o.solved) / sum(map(seconds, outcomes)), "1/s"),
        "solve_ms.p50": (1e3 * statistics.median(times), "ms"),
        "solve_ms.tail": (1e3 * tail(times)[0], "ms"),
    }


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict[str, tuple[float, str]]:
    good = [o for o in outcomes if o.solved]
    metrics = {"setup_s": (setup_s, "s")}
    for name, value in timings(outcomes, lambda o: o.scaled_seconds).items():
        metrics["scaled_" + name] = value
    metrics["solved_frac"] = (len(good) / len(outcomes), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


# Metrics that read what another layer's wrapper records; every other
# metric needs only the layer its name starts with.
_NEEDS = {
    "poly.pe": {"rdp"},
    "poly.memo_hit_ratio": {"poly", "rdp"},
    "poly.pe_over_budget": {"rdp"},
    "poly.self_share": set(LAYERS),
    "rdp.cut_trials": {"geometry"},
    "rdp.cut_accept_ratio": {"geometry", "rdp"},
    "cli.self_s": {"rdp"},
    "cli.import_s": set(),
    "trace.overhead_frac": set(),
}


def _ratio(a: float, b: float) -> float | None:
    return a / b if b else None


def traced_pass(main, instances, outcomes, cli_import_s):
    """Solve every instance once with per-layer wrappers; return per-layer metrics."""
    tracer = Tracer()
    traced_s = 0.0
    total: Counter = Counter()
    # Sums over the solves that returned stats (the others raised).
    ok: Counter = Counter()
    max_level = 0
    with tracer:
        for inst in instances:
            tracer.begin()
            traced_s += _solve(main, inst.argv, tracer)[3]
            total.update(tracer.counts)
            stats = tracer.stats
            if stats is not None:
                ok.update(
                    pe=stats.pe,
                    budget=stats.budget,
                    offsets=len(stats.offsets),
                    f_evals=tracer.counts["f_evals"],
                    cut_calls=tracer.counts["cut_calls"],
                )
                max_level = max(max_level, stats.max_level)
    self_s = tracer.self_s
    evals = total["f_evals"] + total["df_evals"]
    metrics = {
        "poly.self_s": (self_s["poly"], "s"),
        "poly.self_share": (_ratio(self_s["poly"], sum(self_s.values())), "ratio"),
        "poly.f_evals": (total["f_evals"], "count"),
        "poly.df_evals": (total["df_evals"], "count"),
        "poly.pe": (ok["pe"], "count"),
        "poly.memo_hit_ratio": (1.0 - ok["pe"] / ok["f_evals"] if ok["f_evals"] else None, "ratio"),
        "poly.us_per_eval": (_ratio(1e6 * self_s["poly"], evals), "us"),
        "poly.pe_over_budget": (_ratio(ok["pe"], ok["budget"]), "ratio"),
        "geometry.self_s": (self_s["geometry"], "s"),
        "geometry.cut_calls": (total["cut_calls"], "count"),
        "geometry.boundary_calls": (total["boundary_calls"], "count"),
        "geometry.curve_calls": (total["curve_calls"], "count"),
        "geometry.sector_calls": (total["sector_calls"], "count"),
        "winding.self_s": (self_s["winding"], "s"),
        "winding.ipsr_calls": (total["ipsr_calls"], "count"),
        "winding.insertions": (total["insertions"], "count"),
        "winding.insertions_per_call": (_ratio(total["insertions"], total["ipsr_calls"]), "count"),
        "winding.singular_exits": (total["singular_exits"], "count"),
        "rdp.self_s": (self_s["rdp"], "s"),
        "rdp.regions_split": (ok["offsets"] // 3, "count"),
        "rdp.max_level": (max_level, "count"),
        "rdp.cut_trials": (total["cut_calls"], "count"),
        "rdp.cut_accept_ratio": (_ratio(ok["offsets"], ok["cut_calls"]), "ratio"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.import_s": (cli_import_s, "s"),
        "trace.overhead_frac": (traced_s / sum(o.seconds for o in outcomes) - 1.0, "ratio"),
    }
    return {
        name: (value, unit)
        for name, (value, unit) in metrics.items()
        if value is not None and not _NEEDS.get(name, {name.split(".")[0]}) & tracer.absent
    }, sorted(tracer.absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "windroot" / "__init__.py").is_file():
        print(f"bench: no windroot package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import windroot.cli

    if not Path(windroot.cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported windroot from {windroot.cli.__file__}", file=sys.stderr)
        return 2

    time_imports(1)  # warm-up: fills the file cache and the byte-code cache
    imports = time_imports(SETUP_PAIRS // 2)
    instances = generate(args.workload, args.seed)
    outcomes = run_loop(windroot.cli.main, instances, args.seconds)
    imports += time_imports(SETUP_PAIRS - len(imports))
    wall_setup_s = statistics.median(wall for wall, *_ in imports)
    setup_s = REF_IMPORT_SECONDS * statistics.median(full / ref for _, full, _, ref in imports)
    cli_import_s = REF_IMPORT_SECONDS * statistics.median(part / ref for *_, part, ref in imports)

    failed = [(i, o) for i, o in zip(instances, outcomes) if o.failed]
    wrong = [(i, o) for i, o in zip(instances, outcomes) if o.wrong]
    n = len(instances)
    print(f"workload {args.workload} seed {args.seed}: {n} instances, "
          f"{sum(len(o.times) for o in outcomes)} solves")
    print(f"solve_ms.tail is p{tail(range(n))[1]:.1f} of {n} instances, "
          f"{n - sum(o.solved for o in outcomes)} unsolved charged as the slowest")
    print(f"wall setup_s                 {wall_setup_s:.6g} s")
    print(f"cpu numpy import             {statistics.median(ref for *_, ref in imports):.6g} s")
    for name, (value, unit) in timings(outcomes, lambda o: o.seconds).items():
        print(f"wall {name:23s} {value:.6g} {unit}")
    print(f"fail_frac {len(failed) / n:.6g} ({len(failed)}/{n})")
    print(f"wrong_frac {len(wrong) / n:.6g} ({len(wrong)}/{n})")
    for inst, o in failed:
        print(f"  failed {inst.name} rc={o.rc}: {o.message.splitlines()[-1] if o.message else ''}")
    for inst, o in wrong:
        print(f"  wrong {inst.name}: {'; '.join(o.problems[:3])}")

    if args.trace:
        metrics, absent = traced_pass(windroot.cli.main, instances, outcomes, cli_import_s)
        if absent:
            print(f"absent layers (hook target missing): {', '.join(absent)}")
    else:
        metrics = end_to_end(outcomes, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
