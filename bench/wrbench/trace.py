"""Per-layer spans and counts, taken from outside the package.

The tracer replaces the names callers use to reach each layer with
timing wrappers, and puts the originals back on ``uninstall``.  A
layer's self time is the time inside its wrappers minus the time inside
wrappers entered from them.  Nothing is installed until ``install`` is
called, so an untraced run executes the package unchanged.

A target that cannot be found (a later version may have moved or
batched the call) marks its layer absent instead of failing: the
layer's metrics are then left out of the report.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

__all__ = ["LAYERS", "TARGETS", "Tracer"]

LAYERS = ("poly", "geometry", "winding", "rdp", "cli")

# (layer, module, attribute path, counter): the bound names through
# which each layer is called.  The package attribute ``windroot.rdp`` is
# the solver function, so modules are resolved with importlib.
TARGETS = (
    ("poly", "windroot.winding", ("eval",), "evals"),
    ("geometry", "windroot.winding", ("sector_of",), "sector_calls"),
    ("geometry", "windroot.rdp", ("cut",), "cut_calls"),
    ("geometry", "windroot.rdp", ("boundary",), "boundary_calls"),
    ("geometry", "windroot.geometry", ("BoundaryCurve", "__call__"), "curve_calls"),
    ("winding", "windroot.rdp", ("ipsr",), "ipsr_calls"),
    ("winding", "windroot.rdp", ("initial_samples",), None),
    ("rdp", "windroot.cli", ("rdp",), "rdp_calls"),
)


class Tracer:
    """Self time per layer for a whole run, counts per solver call.

    ``counts`` and ``stats`` describe the current call; ``begin`` clears
    them.  ``stats`` is the ``RdpStats`` the solver returned, or None
    when it raised.
    """

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.stats = None
        self.absent: set[str] = set()
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object, bool]] = []

    def begin(self) -> None:
        self.counts = Counter()
        self.stats = None

    def call(self, layer: str, fn, *args):
        """Run ``fn(*args)`` as a span of ``layer``."""
        return self._wrap(fn, layer, None)(*args)

    def install(self) -> None:
        for layer, module, path, counter in TARGETS:
            try:
                owner = importlib.import_module(module)
                for name in path[:-1]:
                    owner = getattr(owner, name)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.add(layer)
                continue
            wrapper = self._wrap(original, layer, counter)
            own = path[-1] in vars(owner)
            setattr(owner, path[-1], wrapper)
            self._undo.append((owner, path[-1], original, own))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original, own = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, layer, counter):
        stack = self._stack
        self_s = self.self_s
        perf = time.perf_counter
        observe = {
            "ipsr_calls": self._after_ipsr,
            "rdp_calls": self._after_rdp,
        }.get(counter)

        def wrapper(*args, **kwargs):
            if counter == "evals":
                self._count_eval(args, kwargs)
            elif counter is not None:
                self.counts[counter] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count_eval(self, args, kwargs) -> None:
        # eval(f, z, ctr): metered evaluations of f pass the counter;
        # derivative evaluations in the winding test pass none.
        ctr = args[2] if len(args) > 2 else kwargs.get("ctr")
        self.counts["f_evals" if ctr is not None else "df_evals"] += 1

    def _after_ipsr(self, outcome) -> None:
        self.counts["insertions"] += getattr(outcome, "insertions", 0)
        if type(outcome).__name__ == "SingularError":
            self.counts["singular_exits"] += 1

    def _after_rdp(self, result) -> None:
        self.stats = result[1]
