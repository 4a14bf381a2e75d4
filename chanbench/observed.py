"""``profile-observed``: faa and go-channel points under full observation.

Each point runs under ``ObsSession(timeline=True)`` with the contention
profiler's cost-audit tap attached, and its timeline is exported and
validated.  This is the workload where the compiled tier's
``run_observed``, the Python ``_run_general`` loop and ``repro.obs`` do
most of the work.  Every observed point must equal its unobserved twin.
Rates are elements per calibrated second, as in :mod:`fig5`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from . import calib
from .common import TIERS, Context, Outcome, host_metrics, import_breakdown, measure_sweeps
from .points import OBS_POINTS, VARIANTS, Point, run_point


def observed_run(point: Point, variant: int, tier: str, path: str,
                 elements: Optional[int] = None) -> tuple[Any, int]:
    """One observed run plus its timeline export; returns (result, events)."""

    from repro.obs import ObsSession

    session = ObsSession(label=point.impl, timeline=True)
    result = run_point(point, variant, tier, elements=elements, profile=session)
    return result, session.export_timeline(path)


def check_twin(out: Outcome, point: Point, observed: Any, twin: Any) -> bool:
    fields = ("makespan", "steps", "throughput", "channel_stats")
    same = all(getattr(observed, f) == getattr(twin, f) for f in fields)
    return out.check(same, f"{point.key} {observed.engine}: observed run differs from unobserved twin")


def check_timeline(out: Outcome, point: Point, path: str, events: int) -> bool:
    from repro.obs import validate_trace_events

    with open(path) as f:
        data = json.load(f)
    try:
        validate_trace_events(data)
    except ValueError as exc:
        return out.check(False, f"{point.key}: invalid timeline: {exc}")
    return out.check(events > 0, f"{point.key}: empty timeline")


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    variant = ctx.seed % VARIANTS
    order = list(OBS_POINTS)
    ctx.rng.shuffle(order)
    path = os.path.join(ctx.out_dir, "timeline.json")
    twins = {(p.key, t): run_point(p, variant, t) for p in order for t in TIERS}

    def check(point: Point, run: tuple[Any, int]) -> bool:
        result, events = run
        ok = check_twin(out, point, result, twins[(point.key, result.engine)])
        return check_timeline(out, point, path, events) and ok

    measure_sweeps(ctx, out, "profile-observed", order,
                   lambda p, tier: observed_run(p, variant, tier, path), check)
    return out


def trace(ctx: Context) -> Outcome:
    from .ledger import SimLedger, traced_elements

    out = Outcome()
    variant = ctx.seed % VARIANTS
    for name, value in import_breakdown(ctx, "profile-observed").items():
        out.put(name, value)
    path = os.path.join(ctx.out_dir, "timeline.json")
    ledger = SimLedger(ctx, "observed")
    cal = calib.Calibrator()
    export_ns = 0
    for point in OBS_POINTS:
        for tier in TIERS:
            twin = run_point(point, variant, tier)
            (result, events), sl = cal.timed(observed_run, point, variant, tier, path)
            out.attempted += 1
            if not (check_twin(out, point, result, twin) and check_timeline(out, point, path, events)):
                out.failed += 1
            n = traced_elements(point)
            ledger.run(tier, n, observed_run, point, variant, tier, path, elements=n)
    for tracer in ledger.tracers:
        for i in range(len(tracer.name_of)):
            if tracer.names[tracer.name_of[i]].endswith("ObsSession.export_timeline"):
                export_ns += tracer.end[i] - tracer.start[i]
    ledger.report(out, observed=True)
    wall = sum(t.wall_ns for t in ledger.tiers.values())
    out.put("obs.export_share", export_ns / wall)
    out.put("gc.share", cal.gc_share)
    host_metrics(out, cal.refs)
    return out
