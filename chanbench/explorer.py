"""``explore-exhaustive``: stateless DFS to exhaustion over the scenario set.

The unit of work is one complete exhaustion of every scenario in
:mod:`scenarios` at preemption bound 2, so an explorer that needs fewer
schedules for the same coverage raises the rate.  The explorer always
runs the Python general loop (``ControlledPolicy``), so there is a single
engine path: the rate is measured once and reported as both ``rate.c``
and ``rate.py``.

The explorer's work is timed in slices of about ``SLICE_S``: the
per-schedule build callback checks the clock and, when a slice is full,
closes it and runs the reference kernel before the next schedule starts
(see :mod:`calib`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import calib, pins
from .common import (SETUP_PAIRS, Context, Outcome, Passes, SetupProbe, host_metrics,
                     import_breakdown, peak_rss_mb)
from .stats import median

#: Program time per calibrated slice, in seconds.
SLICE_S = 0.5
#: Schedules per scenario in the traced pass (a prefix of the DFS order).
TRACED_SCHEDULES = 800
MAX_SCHEDULES = 1_000_000


@dataclass
class Exhaustion:
    schedules: int = 0
    exhausted: bool = False
    outcomes: set = field(default_factory=set)
    steps: int = 0


def exhaust(build: Callable, outcome: Callable, between: Optional[Callable[[], None]] = None,
            max_schedules: int = MAX_SCHEDULES) -> Exhaustion:
    """Explore one scenario; ``between()`` runs before each schedule's build."""

    from repro.sim import explore

    from .scenarios import PREEMPTION_BOUND

    run = Exhaustion()

    def build_schedule(sched: Any) -> Any:
        if between is not None:
            between()
        return build(sched)

    def check_schedule(ctx: Any, sched: Any) -> None:
        run.outcomes.add(outcome(ctx))
        run.steps += sched.total_steps

    result = explore(build_schedule, check_schedule, max_schedules=max_schedules,
                     preemption_bound=PREEMPTION_BOUND)
    run.schedules = result.schedules
    run.exhausted = result.exhausted
    return run


def check_ticket_bug(out: Outcome) -> None:
    """The explorer must report the seeded read-then-write ticket bug."""

    from repro.sim import ExplorationFailure

    from .scenarios import ticket_bug

    build, outcome = ticket_bug()
    try:
        exhaust(build, outcome)
    except ExplorationFailure as exc:
        out.check(isinstance(exc.cause, AssertionError), f"ticket bug reported as {exc.cause!r}")
    else:
        out.check(False, "explorer missed the seeded read-then-write ticket bug")


def check_exhaustion(out: Outcome, name: str, run: Exhaustion, pinned: dict) -> None:
    out.check(run.exhausted, f"{name}: not exhausted after {run.schedules} schedules")
    got = sorted([list(o) for o in run.outcomes], key=repr)
    out.check(got == pinned.get(name), f"{name}: outcomes {got} != pinned {pinned.get(name)}")


class _Slicer:
    """Closes a calibrated slice whenever ``SLICE_S`` of program time ran."""

    def __init__(self, cal: calib.Calibrator, probe: Optional[SetupProbe]):
        self.cal = cal
        self.probe = probe
        self.slices: list[calib.Slice] = []

    def __call__(self) -> None:
        if self.cal.elapsed() >= SLICE_S:
            self.slices.append(self.cal.stop())
            if self.probe is not None:
                self.probe.maybe()
            self.cal.start(collect=False)


def _exhaust_set(ctx: Context, out: Outcome, cal: calib.Calibrator, probe: Optional[SetupProbe],
                 pinned: dict) -> tuple[list[calib.Slice], dict[str, Exhaustion]]:
    from .scenarios import SCENARIOS

    names = list(SCENARIOS)
    ctx.rng.shuffle(names)
    slicer = _Slicer(cal, probe)
    runs = {}
    cal.start()
    for name in names:
        build, outcome = SCENARIOS[name]
        try:
            run = exhaust(build, outcome, slicer)
        except Exception as exc:  # a contract violation fails the scenario
            out.check(False, f"{name}: {exc}")
            out.failed += 1
            continue
        runs[name] = run
        out.attempted += run.schedules
        check_exhaustion(out, name, run, pinned)
    slicer.slices.append(cal.stop())
    return slicer.slices, runs


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    pinned = pins.load()["explore"]
    check_ticket_bug(out)
    cal = calib.Calibrator()
    probe = SetupProbe(ctx, "explore-exhaustive", SETUP_PAIRS)
    raw_s, cal_s = [], []
    passes = Passes(ctx.seconds)
    while passes.more():
        slices, _ = _exhaust_set(ctx, out, cal, probe, pinned)
        raw_s.append(sum(s.raw for s in slices))
        cal_s.append(sum(s.calibrated for s in slices))
    probe.finish(out)
    raw_rate = 1 / median(raw_s)
    value = 1 / median(cal_s)
    out.put("rate.c", value)
    out.put("rate.py", value)
    out.say(f"rate (one engine path) raw={raw_rate:.5f} set/s calibrated={value:.5f} set/s "
            f"exhaustions={len(raw_s)}")
    out.put("peak_rss_mb", peak_rss_mb())
    host_metrics(out, cal.refs)
    return out


def trace(ctx: Context) -> Outcome:
    """Counts from one untraced exhaustion; shares from a traced DFS prefix."""

    from .scenarios import SCENARIOS
    from .tracer import Tracer

    out = Outcome()
    pinned = pins.load()["explore"]
    for name, value in import_breakdown(ctx, "explore-exhaustive").items():
        out.put(name, value)
    cal = calib.Calibrator()
    slices, runs = _exhaust_set(ctx, out, cal, None, pinned)
    schedules = sum(r.schedules for r in runs.values())
    out.put("explore.schedules", schedules)
    out.put("explore.useful_ratio", sum(len(r.outcomes) for r in runs.values()) / schedules)
    out.put("explore.steps_per_schedule", sum(r.steps for r in runs.values()) / schedules)
    out.put("explore.schedules_per_s", schedules / sum(s.calibrated for s in slices))
    out.put("gc.share", cal.gc_share)
    host_metrics(out, cal.refs)

    untraced = 0.0
    tracers = []
    for name, (build, outcome) in SCENARIOS.items():
        t0 = time.perf_counter()
        exhaust(build, outcome, max_schedules=TRACED_SCHEDULES)
        untraced += time.perf_counter() - t0
        tracer = Tracer()
        with tracer:
            exhaust(build, outcome, max_schedules=TRACED_SCHEDULES)
        tracers.append(tracer)
    wall = sum(t.wall_ns for t in tracers)
    inclusive = {"build": 0, "check": 0}
    dfs = 0
    for tracer in tracers:
        for i in range(len(tracer.name_of)):
            name = tracer.names[tracer.name_of[i]]
            for part in inclusive:
                if name.endswith(f".{part}_schedule"):
                    inclusive[part] += tracer.end[i] - tracer.start[i]
        dfs += tracer.layer_self().get("sim.explore", 0)
    out.put("explore.build.share", inclusive["build"] / wall)
    out.put("explore.check.share", inclusive["check"] / wall)
    out.put("explore.dfs.share", dfs / wall)
    out.put("explore.run.share", 1 - (inclusive["build"] + inclusive["check"] + dfs) / wall)
    out.put("trace.overhead", wall / 1e9 / untraced)
    for i, tracer in enumerate(tracers):
        tracer.write(f"{ctx.out_dir}/spans-explore/{i:03d}.bin")
    return out
