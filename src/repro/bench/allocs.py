"""Descriptor-allocation microbenchmark for the algorithm-layer fast path.

PR 4 replaced the channel algorithms' per-access op allocation with three
flyweight tiers (singletons, per-cell interned descriptors, per-task
reusable :class:`~repro.concurrent.ops.OpKit` descriptors).  This module
measures what that actually buys: **distinct op-descriptor objects per
transferred element**, with the fast path on versus degraded to
fresh-allocation mode.

Methodology
-----------

``tracemalloc`` tracks *live* blocks only, and a yielded descriptor
normally dies the moment the driver consumes it — so a naive snapshot
diff sees nothing.  We therefore attach a **retaining hook** to the
scheduler: it keeps a strong reference to every op the tasks yield.  That
has two effects at once:

* the scheduler is forced onto its general per-op loop (bit-identical to
  the fused fast lane, as ``tests/test_golden_determinism.py`` pins), and
* every distinct descriptor stays alive, so the ``tracemalloc`` diff over
  the run — filtered to the op/cell modules — counts each allocation
  exactly once, and ``len({id(op) for op in retained})`` counts the
  distinct descriptor objects directly.

An interned or reused descriptor appears many times in the retained
stream but contributes **one** object; a fresh-allocating run contributes
one object per yield.  The ratio of the two runs is the figure reported
in EXPERIMENTS.md (acceptance floor: >= 3x for rendezvous transfers).

Logical allocation accounting (``Alloc`` ops, ``segments_allocated``) is
captured from the same runs so callers can assert the fast path does not
change *what* the algorithm logically allocates — only how many Python
objects carry the protocol.
"""

from __future__ import annotations

import tracemalloc
from typing import Any

from ..concurrent import ops as _ops_module
from ..concurrent.ops import fast_ops_enabled, set_fast_ops
from ..sim.costmodel import CostModel
from ..sim.scheduler import DesPolicy, Scheduler
from .harness import make_impl
from .workload import GeometricWork, consumer_task, producer_task, split_evenly

__all__ = ["measure_descriptor_allocs", "run_allocs"]


def measure_descriptor_allocs(
    impl: str = "faa-channel",
    capacity: int = 0,
    threads: int = 4,
    elements: int = 2000,
    fast: bool = True,
    seed: int = 0,
) -> dict[str, Any]:
    """One microbench point: run the §5 workload, count descriptor objects.

    Returns a row with ``ops_total`` (descriptor yields seen),
    ``descriptors`` (distinct descriptor objects among them),
    ``descs_per_element``, the matching ``tracemalloc`` live-block diff
    for the op/cell modules, and the *logical* allocation counters
    (``segments_allocated``) for the invariance check.
    """

    from .. import _engine

    tier = _engine.resolve(None)
    was_fast = fast_ops_enabled()
    set_fast_ops(fast)
    retained: list[Any] = []
    try:
        chan = make_impl(impl, capacity)
        sched = Scheduler(
            policy=DesPolicy(), cost_model=CostModel(), processors=threads, engine=tier
        )
        sched.add_hook(lambda s, t, op: retained.append(op))
        pairs = max(2, threads) // 2
        per_p = split_evenly(elements, pairs)
        per_c = split_evenly(elements, pairs)
        for p in range(pairs):
            work = GeometricWork(100, seed=seed * 7919 + p * 2 + 1)
            sched.spawn(producer_task(chan, p, per_p[p], work), f"prod-{p}")
        for c in range(pairs):
            work = GeometricWork(100, seed=seed * 7919 + c * 2 + 2)
            sched.spawn(consumer_task(chan, per_c[c], work), f"cons-{c}")

        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        before = tracemalloc.take_snapshot()
        sched.run()
        after = tracemalloc.take_snapshot()
        if started_here:
            tracemalloc.stop()
    finally:
        set_fast_ops(was_fast)

    op_file = _ops_module.__file__
    diff = after.filter_traces([tracemalloc.Filter(True, op_file)]).compare_to(
        before.filter_traces([tracemalloc.Filter(True, op_file)]), "filename"
    )
    op_blocks = sum(s.count_diff for s in diff)
    descriptors = len({id(op) for op in retained})
    segments = getattr(getattr(chan, "_list", None), "segments_allocated", None)
    return {
        "impl": impl,
        "capacity": capacity,
        "threads": threads,
        "elements": elements,
        "engine": tier,
        "fast_ops": fast,
        "ops_total": len(retained),
        "descriptors": descriptors,
        "descs_per_element": descriptors / elements,
        "op_module_blocks": op_blocks,
        "segments_allocated": segments,
    }


def run_allocs(elements: int = 2000, threads: int = 4) -> list[dict[str, Any]]:
    """The ``python -m repro.bench allocs`` matrix: fast vs fresh, paired.

    Emits two rows per configuration (``fast_ops`` True/False) plus a
    summary row carrying the allocation-reduction ratio per config.
    """

    rows: list[dict[str, Any]] = []
    for impl, capacity in (("faa-channel", 0), ("faa-channel", 64)):
        pair = {}
        for fast in (True, False):
            row = measure_descriptor_allocs(
                impl=impl, capacity=capacity, threads=threads, elements=elements, fast=fast
            )
            pair[fast] = row
            rows.append(row)
        ratio = pair[False]["descriptors"] / max(1, pair[True]["descriptors"])
        rows.append(
            {
                "impl": impl,
                "capacity": capacity,
                "threads": threads,
                "elements": elements,
                "summary": True,
                "alloc_reduction": ratio,
                "logical_allocs_match": (
                    pair[True]["segments_allocated"] == pair[False]["segments_allocated"]
                ),
            }
        )
    return rows
