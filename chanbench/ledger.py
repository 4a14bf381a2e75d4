"""Per-layer ledger of the simulated workloads' traced runs.

Each traced slice is run under a :class:`~tracer.Tracer`; the ledger
folds its spans into per-tier totals (self time per span name, wall
time, element count, boundary counts) and keeps the span arrays, which
are written out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from .common import Context, Outcome
from .tracer import NATIVE, Tracer

#: The layer whose self time is the engine loop, per tier: the native
#: loop outside any Python frame, or the scheduler module's own frames
#: (``_run_fast``/``_run_general`` are entered from ``Scheduler.run``, in
#: the same layer, so they open no span of their own).
LOOP_LAYER = {"c": NATIVE, "py": "sim"}
PROGRAM_LAYERS = ("core", "baselines", "concurrent", "bench.workload", "obs")
#: Traced runs move ``1/TRACED_DIVISOR`` of a point's elements: the tracer
#: slows the program ~9x, and full-size traced sweeps would not fit in a run.
TRACED_DIVISOR = 4


def traced_elements(point: Any) -> int:
    return point.elements // TRACED_DIVISOR


@dataclass
class TierTotals:
    wall_ns: int = 0
    untraced_s: float = 0.0
    elements: int = 0
    layer_ns: Counter = field(default_factory=Counter)
    resumes: int = 0
    delegate_calls: int = 0
    callouts: int = 0
    obs_entries: int = 0
    segments: int = 0


class SimLedger:
    def __init__(self, ctx: Context, name: str = "sim"):
        from repro.core.segments import Segment

        native_mod = importlib.import_module("repro._engine._enginec")
        self.native = [
            getattr(native_mod, n) for n in dir(native_mod)
            if not n.startswith("_") and type(getattr(native_mod, n)).__name__ == "builtin_function_or_method"
        ]
        self.segment_init = Segment.__init__.__code__
        self.tiers = {"c": TierTotals(), "py": TierTotals()}
        self.tracers: list[Tracer] = []
        self.path = os.path.join(ctx.out_dir, f"spans-{name}")

    def run(self, tier: str, units: int, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> tuple[Any, Any]:
        """Run ``fn`` untraced, then traced; fold the traced spans into ``tier``'s totals.

        Returns both results.  ``units`` is the elements the call moves.
        """

        t0 = time.perf_counter()
        plain = fn(*args, **kwargs)
        untraced_s = time.perf_counter() - t0
        tracer = Tracer(native=self.native, count_codes=[self.segment_init])
        with tracer:
            result = fn(*args, **kwargs)
        totals = self.tiers[tier]
        totals.wall_ns += tracer.wall_ns
        totals.untraced_s += untraced_s
        totals.elements += units
        totals.layer_ns.update(tracer.layer_self())
        fold_counts(tracer, totals)
        totals.segments += sum(tracer.counts.values())
        self.tracers.append(tracer)
        return plain, result

    def share(self, tier: str, layer: str) -> float:
        t = self.tiers[tier]
        return t.layer_ns[layer] / t.wall_ns if t.wall_ns else 0.0

    def loop_share(self, tier: str) -> float:
        return self.share(tier, LOOP_LAYER[tier])

    def per_elem(self, tier: str, count: int) -> float:
        t = self.tiers[tier]
        return count / t.elements if t.elements else 0.0

    def overhead(self) -> float:
        wall = sum(t.wall_ns for t in self.tiers.values()) / 1e9
        untraced = sum(t.untraced_s for t in self.tiers.values())
        return wall / untraced

    def report(self, out: Outcome, observed: bool = False) -> None:
        c, py = self.tiers["c"], self.tiers["py"]
        if observed:
            out.put("obs.share.c", self.share("c", "obs"))
            out.put("obs.share.py", self.share("py", "obs"))
            out.put("sim.loop.share.obs.c", self.loop_share("c"))
            out.put("sim.loop.share.obs.py", self.loop_share("py"))
            out.put("sim.callouts_per_elem.c", self.per_elem("c", c.callouts))
            out.put("obs.events_per_elem",
                    (c.obs_entries + py.obs_entries) / max(1, c.elements + py.elements))
        else:
            out.put("sim.loop.share.c", self.loop_share("c"))
            out.put("sim.loop.share.py", self.loop_share("py"))
            for layer in ("core", "baselines", "concurrent", "bench.workload"):
                out.put(f"{layer}.share.c", self.share("c", layer))
                out.put(f"{layer}.share.py", self.share("py", layer))
            out.put("sim.resumes_per_elem.c", self.per_elem("c", c.resumes))
            out.put("sim.resumes_per_elem.py", self.per_elem("py", py.resumes))
            out.put("core.delegate_calls_per_elem.c", self.per_elem("c", c.delegate_calls))
            out.put("core.segments_per_kelem",
                    1000 * (c.segments + py.segments) / max(1, c.elements + py.elements))
        out.put("trace.overhead", self.overhead())
        self.write()

    def write(self) -> None:
        for i, tracer in enumerate(self.tracers):
            tracer.write(f"{self.path}/{i:03d}.bin")


def fold_counts(tracer: Tracer, totals: TierTotals) -> None:
    """Boundary counts: resumes, kernel delegate calls, native callouts."""

    layers, names = tracer.layers, tracer.names
    name_of, parent, gen = tracer.name_of, tracer.parent, tracer.gen
    for i in range(len(name_of)):
        layer = layers[name_of[i]]
        p = parent[i]
        parent_layer = layers[name_of[p]] if p >= 0 else ""
        if layer == "obs":
            totals.obs_entries += 1
        if parent_layer == NATIVE:
            totals.callouts += names[name_of[p]] == "native.run_observed"
            if gen[i]:
                totals.resumes += 1
            elif layer in PROGRAM_LAYERS or layer == "runtime":
                totals.delegate_calls += 1
        elif parent_layer == "sim" and gen[i]:
            totals.resumes += 1
