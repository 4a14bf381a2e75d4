"""``fig5-sim``: the paper's Figure 5 producer/consumer points, unobserved.

Every point runs on both engine tiers, alternating point by point, each
run bracketed by reference-kernel slices (see :mod:`calib`).  A tier's
rate is elements per calibrated second over one sweep of all points,
each point contributing its median calibrated time.  Every run's
simulated makespan and throughput must equal the pinned value.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from . import calib, pins
from .common import TIERS, Context, Outcome, host_metrics, import_breakdown, measure_sweeps
from .points import BASELINES, FIG5_POINTS, VARIANTS, Point, run_point


def check_pinned(out: Outcome, point: Point, variant: int, result: Any, pinned: dict) -> bool:
    """The simulated result must equal the pinned one, on either tier."""

    want = pinned.get(f"{point.key}/v{variant}")
    ok = want is not None and [result.makespan, result.throughput] == want
    return out.check(ok, f"{point.key} v{variant} {result.engine}: makespan/throughput "
                          f"{[result.makespan, result.throughput]} != pinned {want}")


def check_paper_claim(out: Outcome, throughput: dict[tuple[str, str, int], float]) -> None:
    """faa-channel beats the best baseline at 64 threads (rendezvous, buffered)."""

    for panel, baselines in BASELINES.items():
        faa = throughput[(panel, "faa-channel", 64)]
        best = max(throughput[(panel, b, 64)] for b in baselines)
        out.check(faa > best, f"{panel} t64: faa-channel {faa:.1f} does not beat best baseline {best:.1f}")


def _sweep_order(ctx: Context) -> list[Point]:
    order = list(FIG5_POINTS)
    ctx.rng.shuffle(order)
    return order


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    pinned = pins.load()["fig5"]
    variant = ctx.seed % VARIANTS
    order = _sweep_order(ctx)
    throughput: dict[tuple[str, str, int], float] = {}

    def check(point: Point, result: Any) -> bool:
        throughput[(point.panel, point.impl, point.threads)] = result.throughput
        return check_pinned(out, point, variant, result, pinned)

    measure_sweeps(ctx, out, "fig5-sim", order, lambda p, tier: run_point(p, variant, tier),
                   check)
    check_paper_claim(out, throughput)
    return out


def trace(ctx: Context) -> Outcome:
    """Per-layer run: each point once calibrated at full size, then untraced
    and traced at the ledger's reduced size, both tiers."""

    from .ledger import SimLedger, traced_elements

    out = Outcome()
    pinned = pins.load()["fig5"]
    variant = ctx.seed % VARIANTS
    for name, value in import_breakdown(ctx, "fig5-sim").items():
        out.put(name, value)
    ledger = SimLedger(ctx)
    cal = calib.Calibrator()
    panel_s: dict[tuple[str, str], float] = defaultdict(float)
    panel_units: dict[tuple[str, str], int] = defaultdict(int)
    steps = elements = 0
    stats_totals: dict[str, float] = defaultdict(float)
    for tier in TIERS:
        run_point(FIG5_POINTS[0], variant, tier, elements=50)
    for point in _sweep_order(ctx):
        for tier in TIERS:
            result, sl = cal.timed(run_point, point, variant, tier)
            out.attempted += 1
            if not check_pinned(out, point, variant, result, pinned):
                out.failed += 1
            panel_s[(tier, point.panel)] += sl.calibrated
            panel_units[(tier, point.panel)] += point.elements
            n = traced_elements(point)
            plain, traced = ledger.run(tier, n, run_point, point, variant, tier, elements=n)
            out.check(traced.makespan == plain.makespan, f"{point.key}: traced run differs")
            if tier == "c":
                steps += result.steps
                elements += point.elements
                for k, v in result.channel_stats.items():
                    stats_totals[k] += v
    for (tier, panel), seconds in panel_s.items():
        out.put(f"fig5.rate.{tier}.{panel}", calib.rate(panel_units[(tier, panel)], seconds))
    ledger.report(out)
    out.put("sim.steps_per_elem", steps / elements)
    cells = stats_totals["cells_processed"]
    out.put("core.cells_per_elem", cells / stats_totals["sends"] if stats_totals["sends"] else 0.0)
    out.put("core.restart_ratio", (stats_totals["send_restarts"] + stats_totals["rcv_restarts"]) / cells)
    ops = stats_totals["sends"] + stats_totals["receives"]
    out.put("core.suspend_ratio", (stats_totals["send_suspends"] + stats_totals["rcv_suspends"]) / ops)
    out.put("core.poisoned_fraction", stats_totals["poisoned"] / cells)
    out.put("gc.share", cal.gc_share)
    host_metrics(out, cal.refs)
    return out
