"""Self-performance harness: wall-clock ops/sec of the simulator itself.

Everything this reproduction produces — Figure 5 panels, ablations, the
model checker, the fuzzers — flows through one hot loop: the scheduler
pulling a task, applying one op, and charging it through the cost model.
This module measures that loop's *wall-clock* throughput (scheduler
steps per second) on a **pinned workload matrix**, so engine speedups
land as numbers and regressions trip a gate instead of rotting silently.

The matrix mixes channel workloads (generator-heavy: measures the loop
plus real algorithm code) with micro workloads (op-dense: measures the
dispatch/cost/apply path almost in isolation)::

    python -m repro.bench selfperf --json            # writes BENCH_03.json
    python -m repro.bench compare OLD.json NEW.json  # nonzero on >15% drop

``compare`` reads two ``--json`` dumps, matches points by name, and
fails when the geometric-mean ops/sec ratio drops by more than the
threshold (default 15%).  Geomean over the whole matrix damps per-point
timer noise; per-point ratios are still printed for diagnosis.

Wall-clock numbers are machine-specific: comparisons are only meaningful
between runs on the same machine (CI compares same-runner runs and uses
the committed ``BENCH_03.json`` only as a non-blocking reference).
"""

from __future__ import annotations

import math
import platform
import sys
import time
from typing import Any, Callable, Generator, Iterable

from ..concurrent.cells import IntCell, RefCell
from ..concurrent.ops import Cas, Faa, GetAndSet, Read, Spin, Work, Write, Yield
from ..sim.costmodel import CostModel
from ..sim.scheduler import DesPolicy, Scheduler

__all__ = [
    "MATRIX",
    "QUICK_MATRIX",
    "ALG_SUBSET",
    "OBS_SUBSET",
    "SUBSET_GATES",
    "run_selfperf",
    "run_selfperf_paired",
    "compare_rows",
    "geomean",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 0.15


# ----------------------------------------------------------------------
# Micro workloads: op-dense generators where scheduler+cost+apply
# overhead dominates (no channel algorithm in the frame).
# ----------------------------------------------------------------------


def _faa_task(counter: IntCell, per_task: int) -> Generator[Any, Any, int]:
    """Hammer one shared counter with FAA — the RMW/serialization path."""

    # Op descriptors are immutable; hoisting the constant ones out of
    # the loop keeps the benchmark measuring the engine, not allocation.
    faa = Faa(counter, 1)
    last = 0
    for _ in range(per_task):
        last = yield faa
    return last


def _read_write_task(
    own: RefCell, shared: IntCell, iters: int
) -> Generator[Any, Any, int]:
    """Mixed read/write/CAS/swap traffic over private and shared lines."""

    read = Read(shared)
    hits = 0
    for i in range(iters):
        v = yield read
        yield Write(own, i)
        if i & 7 == 0:
            ok = yield Cas(shared, v, v + 1)
            if ok:
                hits += 1
        if i & 31 == 0:
            yield GetAndSet(own, -i)
    return hits


def _yield_work_task(iters: int) -> Generator[Any, Any, None]:
    """Scheduling-only traffic: Yield/Spin/Work, no memory effects."""

    yld = Yield()
    work = Work(7)
    spin = Spin("selfperf")
    for i in range(iters):
        yield yld
        yield work
        if i & 3 == 0:
            yield spin


def _sampled_work_task(iters: int, seed: int) -> Generator[Any, Any, None]:
    """Sampler-dense traffic: isolates the workload-residue of the loop.

    Nearly every op is a :class:`SampledWork` draw — the per-op cost is
    the geometric sampler plus dispatch, with no channel algorithm and
    almost no scheduling.  Paired against ``yield-work-t2`` (same shape,
    constant ``Work``) this point isolates what the sampler itself
    costs on each tier.
    """

    from .workload import GeometricWork

    work = GeometricWork(100, seed=seed)
    op = work.op
    yld = Yield()
    for i in range(iters):
        yield op
        if i & 15 == 0:
            yield yld
    return None


def _run_micro(kind: str, tasks: int, per_task: int) -> Scheduler:
    sched = Scheduler(policy=DesPolicy(), cost_model=CostModel(), processors=tasks)
    if kind == "faa":
        counter = IntCell(0, "selfperf.counter")
        for i in range(tasks):
            sched.spawn(_faa_task(counter, per_task), f"faa-{i}")
    elif kind == "geom":
        for i in range(tasks):
            sched.spawn(_sampled_work_task(per_task, seed=i * 2 + 1), f"geom-{i}")
    elif kind == "rw":
        shared = IntCell(0, "selfperf.shared")
        for i in range(tasks):
            sched.spawn(
                _read_write_task(RefCell(None, f"selfperf.own{i}"), shared, per_task),
                f"rw-{i}",
            )
    elif kind == "yield":
        for i in range(tasks):
            sched.spawn(_yield_work_task(per_task), f"yw-{i}")
    else:  # pragma: no cover - matrix is pinned
        raise ValueError(f"unknown micro workload {kind!r}")
    sched.run()
    return sched


def _run_channel(
    impl: str,
    threads: int,
    capacity: int,
    elements: int,
    channel: Any = None,
    work_mean: int = 100,
    observe: str | None = None,
) -> Scheduler:
    # Local import: harness imports selfperf's sibling modules.
    from .harness import make_impl
    from .workload import GeometricWork, consumer_task, producer_task, split_evenly

    chan = channel if channel is not None else make_impl(impl, capacity)
    sched = Scheduler(policy=DesPolicy(), cost_model=CostModel(), processors=threads)
    if observe == "hook":
        # Minimal per-op hook: the observed loop with one Python callout
        # per step — the timeline/event-bus shape.
        sched.add_hook(lambda s, t, op: None)
    elif observe == "audit":
        # Audit tap only: the observed loop where the compiled tier can
        # fill the tap natively without any per-op Python callout.
        from ..sim.costmodel import OpCostAudit

        sched.cost.audit = OpCostAudit()
    pairs = max(2, threads) // 2 or 1
    per_p = split_evenly(elements, pairs)
    per_c = split_evenly(elements, pairs)
    for p in range(pairs):
        sched.spawn(
            producer_task(chan, p, per_p[p], GeometricWork(work_mean, seed=p * 2 + 1)),
            f"prod-{p}",
        )
    for c in range(pairs):
        sched.spawn(
            consumer_task(chan, per_c[c], GeometricWork(work_mean, seed=c * 2 + 2)),
            f"cons-{c}",
        )
    sched.run()
    return sched


def _faaq_producer(q: Any, base: int, n: int) -> Generator[Any, Any, None]:
    for i in range(n):
        yield from q.enqueue(base + i + 1)


def _faaq_consumer(q: Any, n: int) -> Generator[Any, Any, int]:
    yld = Yield()
    got = 0
    while got < n:
        v = yield from q.dequeue()
        if v is None:
            yield yld  # observed empty: back off and let producers run
        else:
            got += 1
    return got


def _run_faaq(threads: int, elements: int) -> Scheduler:
    from ..baselines.faa_queue import FAAQueue
    from .workload import split_evenly

    q = FAAQueue("selfperf.faaq")
    sched = Scheduler(policy=DesPolicy(), cost_model=CostModel(), processors=threads)
    pairs = max(2, threads) // 2 or 1
    per = split_evenly(elements, pairs)
    for p in range(pairs):
        sched.spawn(_faaq_producer(q, p * elements, per[p]), f"faaq-prod-{p}")
    for c in range(pairs):
        sched.spawn(_faaq_consumer(q, per[c]), f"faaq-cons-{c}")
    sched.run()
    return sched


def _run_segchurn(threads: int, elements: int) -> Scheduler:
    """Rendezvous with tiny segments: segment alloc/removal dominates."""

    from ..core import RendezvousChannel

    return _run_channel(
        "faa-channel", threads, 0, elements, channel=RendezvousChannel(seg_size=2)
    )


# ----------------------------------------------------------------------
# The pinned matrix.  Changing an entry invalidates old BENCH files:
# bump the name, never silently repurpose one.
# ----------------------------------------------------------------------

#: name -> zero-argument runner returning the finished scheduler.
MATRIX: dict[str, Callable[[], Scheduler]] = {
    "rendezvous-faa-t16": lambda: _run_channel("faa-channel", 16, 0, 6000),
    "buffered-faa-c64-t16": lambda: _run_channel("faa-channel", 16, 64, 6000),
    "rendezvous-go-t8": lambda: _run_channel("go-channel", 8, 0, 4000),
    "counter-faa-t8": lambda: _run_micro("faa", 8, 6000),
    "read-write-t8": lambda: _run_micro("rw", 8, 4000),
    "yield-work-t8": lambda: _run_micro("yield", 8, 6000),
    # Low-contention points isolate the dispatch path itself: a single
    # op stream (no scheduling decisions at all) and a two-task run
    # whose long stints exercise the fused keep-running path.
    "op-stream-t1": lambda: _run_micro("faa", 1, 40000),
    "yield-work-t2": lambda: _run_micro("yield", 2, 20000),
    # Algorithm-bound points (PR 4): low thread counts so per-op cost is
    # dominated by channel/baseline *algorithm* code — descriptor
    # construction, segment walks, cell state machines — rather than by
    # scheduling decisions.  These are the points the algorithm-layer
    # fast path (flyweight ops, flattened chains) moves.
    "alg-rendezvous-t4": lambda: _run_channel("faa-channel", 4, 0, 8000),
    "alg-buffered-deep-t4": lambda: _run_channel("faa-channel", 4, 256, 8000),
    "alg-segchurn-t4": lambda: _run_segchurn(4, 6000),
    "alg-faaq-t4": lambda: _run_faaq(4, 8000),
    # Observed-mode points (PR 9): the same rendezvous workload with an
    # observer attached, so the run takes the *general* loop.  The
    # audit-tap point lets the compiled tier fill the tap natively (no
    # per-op Python callout); the hook point pays one Python call per
    # op on both tiers — its ratio bounds what hook-heavy observation
    # can ever gain from compilation.
    "obs-audit-rendezvous-t4": lambda: _run_channel(
        "faa-channel", 4, 0, 8000, observe="audit"
    ),
    "obs-hook-rendezvous-t4": lambda: _run_channel(
        "faa-channel", 4, 0, 8000, observe="hook"
    ),
    # Workload-isolation points (PR 9): `workload-geom-t2` is almost
    # pure sampler draws (workload-residue); `alg-rendezvous-lean-t4`
    # is the alg-rendezvous point with work_mean=0, i.e. zero sampler
    # draws (algorithm-residue).  Their ratios bracket where the
    # remaining per-op cost lives.
    "workload-geom-t2": lambda: _run_micro("geom", 2, 30000),
    "alg-rendezvous-lean-t4": lambda: _run_channel(
        "faa-channel", 4, 0, 8000, work_mean=0
    ),
}

#: The algorithm-bound subset: the A/B gate for the algorithm-layer fast
#: path is the geomean over exactly these points.
ALG_SUBSET: tuple[str, ...] = (
    "alg-rendezvous-t4",
    "alg-buffered-deep-t4",
    "alg-segchurn-t4",
    "alg-faaq-t4",
)

#: The observed-mode subset: the A/B gate for the native observed-path
#: core (run_observed) is the geomean over exactly these points.
OBS_SUBSET: tuple[str, ...] = (
    "obs-audit-rendezvous-t4",
    "obs-hook-rendezvous-t4",
)

#: Reduced matrix for CI smoke runs (same names, smaller sizes would
#: break point matching — so a *subset* of the full matrix instead).
QUICK_MATRIX: tuple[str, ...] = ("rendezvous-faa-t16", "counter-faa-t8", "yield-work-t8")

#: Named subsets ``compare`` gates *individually* in addition to the
#: overall geomean.  A broad matrix can hide a focused regression: a
#: 25% loss on the four algorithm-bound points dissolves into a ~4%
#: overall dip across twenty-odd points and sails under the threshold.
#: Gating each named slice at the same threshold closes that gap.
SUBSET_GATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("alg", ALG_SUBSET),
    ("obs", OBS_SUBSET),
)


def run_selfperf(
    quick: bool = False,
    repeat: int = 3,
    names: Iterable[str] | None = None,
    engine: str | None = None,
) -> list[dict[str, Any]]:
    """Run the matrix; return one row per point (best-of-``repeat``).

    Best-of is the standard noise discipline for throughput micro
    benchmarks: interference only ever slows a run down, so the fastest
    repeat is the best estimate of the machine's true rate.

    ``engine`` pins the engine tier for every point (``'py'``, ``'c'``,
    or ``'auto'``; ``None`` defers to the process default /
    ``REPRO_ENGINE``).  Each row carries the *effective* tier in its
    ``engine`` field — never the request — so a dump records what
    actually ran and :func:`compare_rows` can refuse apples-to-oranges
    comparisons.
    """

    from .. import _engine

    # Resolve once up front: an explicit-but-unavailable 'c' must fail
    # loudly here, not produce a silently-py dump labelled c.
    tier = _engine.resolve(engine)
    selected = tuple(names) if names is not None else (QUICK_MATRIX if quick else tuple(MATRIX))
    rows: list[dict[str, Any]] = []
    meta = _row_meta(tier)
    prev = _engine.set_default_engine(tier)
    try:
        for name in selected:
            samples = [_time_point(name) for _ in range(max(1, repeat))]
            rows.append(_summarize_point(name, samples) | meta)
    finally:
        _engine.set_default_engine(prev)
    return rows


def run_selfperf_paired(
    quick: bool = False,
    repeat: int = 3,
    names: Iterable[str] | None = None,
    tiers: tuple[str, ...] = ("py", "c"),
) -> list[dict[str, Any]]:
    """Run the matrix under several tiers with **interleaved** rounds.

    A whole-phase A/B (all py repeats, then all c repeats) lets slow
    drift — thermal throttling, a background indexer spinning up, CPU
    frequency governors — land entirely on one side and bias every
    ratio the same way.  Interleaving rounds per point (py, c, py, c,
    ...) spreads any drift across both tiers so the paired dump's
    ratios measure the tiers, not the weather.

    Returns one row per ``(point, tier)``, each carrying the raw
    per-round ``samples`` (ops/sec, in round order) plus the best-of
    ``ops_per_sec`` and ``median_ops_per_sec``, so :func:`compare_rows`
    can gate on either statistic.
    """

    from .. import _engine

    resolved = tuple(_engine.resolve(t) for t in tiers)  # fail loudly up front
    selected = tuple(names) if names is not None else (QUICK_MATRIX if quick else tuple(MATRIX))
    rows: list[dict[str, Any]] = []
    for name in selected:
        samples: dict[str, list[dict[str, Any]]] = {t: [] for t in resolved}
        for _ in range(max(1, repeat)):
            for tier in resolved:
                prev = _engine.set_default_engine(tier)
                try:
                    samples[tier].append(_time_point(name))
                finally:
                    _engine.set_default_engine(prev)
        for tier in resolved:
            rows.append(_summarize_point(name, samples[tier]) | _row_meta(tier))
    return rows


def _row_meta(tier: str) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "impl": platform.python_implementation(),
        "machine": platform.machine(),
        "engine": tier,
    }


def _time_point(name: str) -> dict[str, Any]:
    """One timed round of one matrix point (under the current default tier)."""

    runner = MATRIX[name]
    t0 = time.perf_counter()
    sched = runner()
    seconds = time.perf_counter() - t0
    ops = sched.total_steps
    rate = ops / seconds if seconds > 0 else float("inf")
    return {"ops": ops, "seconds": seconds, "ops_per_sec": rate}


def _summarize_point(name: str, samples: list[dict[str, Any]]) -> dict[str, Any]:
    """Best-of summary row plus the raw per-round samples and the median.

    Best-of stays the headline statistic (interference only ever slows a
    run down); the median is carried alongside for ``compare --metric
    median``, which damps single-round flukes on noisy machines.
    """

    best = max(samples, key=lambda s: s["ops_per_sec"])
    rates = sorted(s["ops_per_sec"] for s in samples)
    n = len(rates)
    median = rates[n // 2] if n % 2 else (rates[n // 2 - 1] + rates[n // 2]) / 2.0
    return {
        "name": name,
        **best,
        "samples": [round(s["ops_per_sec"], 1) for s in samples],
        "median_ops_per_sec": median,
    }


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _gateable(rows: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The rows ``compare`` gates on (see :func:`_selfperf_points`)."""

    return [
        r
        for r in rows
        if r.get("command") in ("selfperf", "net", "grid") and "ops_per_sec" in r
    ]


def _row_engine(row: dict[str, Any]) -> str:
    """A row's engine tier; dumps predating the tier split ran pure Python."""

    return row.get("engine", "py")


def _metric_value(row: dict[str, Any], metric: str) -> float:
    """The gated statistic of a row: best-of (default) or the median.

    Dumps predating per-round samples carry no median; they fall back
    to the best-of number so old baselines stay comparable.
    """

    if metric == "median":
        return row.get("median_ops_per_sec", row["ops_per_sec"])
    return row["ops_per_sec"]


def _selfperf_points(
    rows: Iterable[dict[str, Any]], by_engine: bool = False
) -> dict[str, dict[str, Any]]:
    """Index a ``--json`` dump's gateable rows by point name.

    ``selfperf`` rows, ``net`` A/B rows (BENCH_05.json), and policy
    ``grid`` rows (BENCH_07.json) share the ``name`` + ``ops_per_sec``
    shape, so one compare gates all three matrices.  Rows tagged
    ``selfperf-baseline`` (the pre-optimization engine's numbers kept in
    BENCH_03.json for the record) are ignored: compare always gates on
    the *current* engine's numbers.  Grid ``skipped`` pseudo-rows carry
    no ``ops_per_sec`` and fall out here.

    With ``by_engine`` points are keyed ``name[engine]`` — required for
    multi-engine dumps (e.g. BENCH_08's paired py/c matrix), where the
    same point name legitimately appears once per tier.
    """

    if by_engine:
        return {f"{r['name']}[{_row_engine(r)}]": r for r in _gateable(rows)}
    return {r["name"]: r for r in _gateable(rows)}


def _compare_paired(
    old_rows: list[dict[str, Any]],
    new_rows: list[dict[str, Any]],
    threshold: float,
    *,
    allow_missing: bool = False,
    metric: str = "best",
) -> tuple[bool, str]:
    """Gate the *within-dump* c/py ratio instead of absolute ops/sec.

    Two dumps recorded on different days differ by the host's speed
    before any code change shows — on this repo's reference box the
    swing is ±30%, larger than the 15% gate.  An ``--engine both`` dump
    records the pure-Python reference tier next to every compiled-tier
    point precisely so the py rate can serve as the control: dividing
    each point's c rate by its own dump's py rate cancels host speed,
    and the geomean of (new c/py) / (old c/py) is gated at the same
    threshold.  A genuine compiled-tier regression still fails (its
    paired ratio drops); a globally slower day passes (both tiers drop
    together).  Named subsets gate individually, as in absolute mode.
    """

    def tier_ratios(
        rows: Iterable[dict[str, Any]], which: str
    ) -> dict[str, float]:
        pts: dict[str, dict[str, dict[str, Any]]] = {}
        for r in _gateable(rows):
            pts.setdefault(r["name"], {})[_row_engine(r)] = r
        out = {}
        for n, d in pts.items():
            if "py" in d and "c" in d:
                out[n] = _metric_value(d["c"], metric) / _metric_value(d["py"], metric)
        if not out:
            raise ValueError(
                f"compare --paired: the {which} dump has no point recorded "
                "under both tiers; paired mode needs `selfperf --engine both` "
                "dumps on both sides"
            )
        return out

    try:
        old = tier_ratios(old_rows, "OLD")
        new = tier_ratios(new_rows, "NEW")
    except ValueError as exc:
        return False, str(exc)
    common = [n for n in old if n in new]
    if not common:
        return False, "compare: no common selfperf points between the two files"
    lines = [
        "paired mode: gating within-dump c/py ratios (host speed cancels)"
        + (" (gating on median ops/s)" if metric == "median" else "")
    ]
    lines.append(f"{'point':24s} {'old c/py':>10s} {'new c/py':>10s} {'ratio':>7s}")
    ratios = []
    subset_ratios: dict[str, list[float]] = {label: [] for label, _ in SUBSET_GATES}
    for name in common:
        ratio = new[name] / old[name]
        ratios.append(ratio)
        for label, points in SUBSET_GATES:
            if name in points:
                subset_ratios[label].append(ratio)
        lines.append(f"{name:24s} {old[name]:9.2f}x {new[name]:9.2f}x {ratio:6.2f}x")
    gm = geomean(ratios)
    ok = gm >= 1.0 - threshold
    lines.append(
        f"{'geomean':24s} {'':10s} {'':10s} {gm:6.2f}x  "
        f"(gate: >= {1.0 - threshold:.2f}x) -> {'OK' if ok else 'REGRESSION'}"
    )
    for label, _points in SUBSET_GATES:
        rs = subset_ratios[label]
        if not rs:
            continue
        sgm = geomean(rs)
        sok = sgm >= 1.0 - threshold
        lines.append(
            f"{f'geomean[{label}]':24s} {'':10s} {'':10s} {sgm:6.2f}x  "
            f"({len(rs)} pts, gate: >= {1.0 - threshold:.2f}x) -> "
            f"{'OK' if sok else 'REGRESSION'}"
        )
        ok = ok and sok
    missing = sorted(set(old) - set(new))
    added = sorted(set(new) - set(old))
    if missing:
        lines.append(f"MISSING from new dump: {', '.join(missing)}")
        if allow_missing:
            lines.append("  (allowed by --allow-missing; not gated)")
        else:
            lines.append("  -> FAIL: every baseline point must be present (--allow-missing to waive)")
            ok = False
    if added:
        lines.append(f"added in new dump (not gated): {', '.join(added)}")
    return ok, "\n".join(lines)


def compare_rows(
    old_rows: list[dict[str, Any]],
    new_rows: list[dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    allow_missing: bool = False,
    allow_engine_mismatch: bool = False,
    metric: str = "best",
    paired: bool = False,
) -> tuple[bool, str]:
    """Compare two selfperf dumps; ``(ok, report)``.

    ``ok`` is ``False`` when the geometric-mean ops/sec over the common
    points regressed by more than ``threshold`` (a fraction, 0.15 = 15%)
    — or when a baseline point is *missing* from the new dump.  A
    silently shrunk intersection would let a dropped (slow) point fake a
    pass, and newly added points could mask it in row counts; both sets
    are therefore reported explicitly.  ``allow_missing=True`` downgrades
    missing baseline points to informational (for comparing a quick
    subset against a full dump).

    Engine tiers gate separately: comparing a pure-Python dump against a
    compiled-tier dump would report the build as a 2x "speedup" (or its
    absence as a regression), so a cross-engine comparison is refused
    unless ``allow_engine_mismatch=True``.  When either dump itself
    spans both tiers (BENCH_08's paired matrix), points are keyed
    ``name[engine]`` on both sides, which matches like tiers to like.

    ``metric`` selects the gated statistic: ``"best"`` (default, the
    best-of-repeats rate) or ``"median"`` (the per-round median, for
    dumps carrying raw ``samples`` — damps single-round flukes).

    Beyond the overall geomean, every named subset in
    :data:`SUBSET_GATES` (the algorithm-bound ``alg`` points, the
    observed-mode ``obs`` points) is gated individually at the same
    threshold over whichever of its points both dumps share — a focused
    regression on four points must not dissolve into a broad matrix's
    average.

    ``paired=True`` switches to within-dump c/py ratio gating (see
    :func:`_compare_paired`): use it when OLD and NEW were recorded on
    different days or machines and the absolute rates are therefore not
    comparable — the py reference tier inside each ``--engine both``
    dump is the control that cancels host speed.
    """

    if metric not in ("best", "median"):
        raise ValueError(f"unknown compare metric {metric!r}; expected best|median")
    if paired:
        return _compare_paired(
            old_rows, new_rows, threshold, allow_missing=allow_missing, metric=metric
        )

    old_engines = sorted({_row_engine(r) for r in _gateable(old_rows)})
    new_engines = sorted({_row_engine(r) for r in _gateable(new_rows)})
    multi = len(old_engines) > 1 or len(new_engines) > 1
    if (
        not multi
        and old_engines
        and new_engines
        and old_engines != new_engines
        and not allow_engine_mismatch
    ):
        return False, (
            f"compare: engine mismatch: OLD ran engine={old_engines[0]}, "
            f"NEW ran engine={new_engines[0]}; cross-engine ratios are not a "
            "regression signal (pass --allow-engine-mismatch to compare anyway)"
        )
    old = _selfperf_points(old_rows, by_engine=multi)
    new = _selfperf_points(new_rows, by_engine=multi)
    common = [n for n in old if n in new]
    if not common:
        return False, "compare: no common selfperf points between the two files"
    lines = [
        f"engines: old={','.join(old_engines) or '?'} new={','.join(new_engines) or '?'}"
        + (" (keyed name[engine])" if multi else "")
        + (" (gating on median ops/s)" if metric == "median" else "")
    ]
    lines.append(f"{'point':24s} {'old ops/s':>14s} {'new ops/s':>14s} {'ratio':>7s}")
    ratios = []
    subset_ratios: dict[str, list[float]] = {label: [] for label, _ in SUBSET_GATES}
    for name in common:
        o, n = _metric_value(old[name], metric), _metric_value(new[name], metric)
        ratio = n / o if o else float("inf")
        ratios.append(ratio)
        base = old[name]["name"]  # strip the [engine] key suffix
        for label, points in SUBSET_GATES:
            if base in points:
                subset_ratios[label].append(ratio)
        lines.append(f"{name:24s} {o:14.0f} {n:14.0f} {ratio:6.2f}x")
    gm = geomean(ratios)
    ok = gm >= 1.0 - threshold
    lines.append(
        f"{'geomean':24s} {'':14s} {'':14s} {gm:6.2f}x  "
        f"(gate: >= {1.0 - threshold:.2f}x) -> {'OK' if ok else 'REGRESSION'}"
    )
    # Named-subset gates: each slice must clear the same bar on its own,
    # so a focused regression cannot hide in a broad matrix's geomean.
    for label, _points in SUBSET_GATES:
        rs = subset_ratios[label]
        if not rs:
            continue
        sgm = geomean(rs)
        sok = sgm >= 1.0 - threshold
        lines.append(
            f"{f'geomean[{label}]':24s} {'':14s} {'':14s} {sgm:6.2f}x  "
            f"({len(rs)} pts, gate: >= {1.0 - threshold:.2f}x) -> "
            f"{'OK' if sok else 'REGRESSION'}"
        )
        ok = ok and sok
    missing = sorted(set(old) - set(new))
    added = sorted(set(new) - set(old))
    if missing:
        lines.append(f"MISSING from new dump: {', '.join(missing)}")
        if allow_missing:
            lines.append("  (allowed by --allow-missing; not gated)")
        else:
            lines.append("  -> FAIL: every baseline point must be present (--allow-missing to waive)")
            ok = False
    if added:
        lines.append(f"added in new dump (not gated): {', '.join(added)}")
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin shim
    """Allow ``python -m repro.bench.selfperf`` as a direct entry point."""

    from .__main__ import main as bench_main

    return bench_main(["selfperf", *(argv or sys.argv[1:])])
