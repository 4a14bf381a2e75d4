"""TAB-MEM: §5 "Memory usage" (allocation pressure).

Paper's observations, reproduced as allocation *rates* (cells allocated
per transferred element):

* rendezvous, low contention: our channel ≈ Koval-2019 (segments amortize
  allocation), the Java synchronous queue ~40% above (a node per
  element), the legacy Kotlin channel ~115% above (node + descriptor);
* under high contention our channel allocates the least;
* buffered: the legacy Kotlin array channel wins (pre-allocated ring
  buffer; waiters are rare), ours pays for segments.
"""

import pytest

from repro.bench import measure_alloc_rate

from bench_lib import bench_elements, save_report

# Figure-scale suite: deselected by default, run with `pytest -m slow`.
pytestmark = pytest.mark.slow


def test_memory_usage_table(benchmark):
    elements = bench_elements(0.4)

    def run():
        rows = []
        # Rendezvous, low contention (2 threads) and high contention (64).
        for threads, label in ((2, "low"), (64, "high")):
            for impl in ("faa-channel", "koval-2019", "java-sync-queue", "kotlin-legacy"):
                rows.append((label, measure_alloc_rate(impl, capacity=0, threads=threads, elements=elements)))
        # Buffered(64), moderate contention.
        for impl in ("faa-channel", "go-channel", "kotlin-legacy"):
            rows.append(("buf", measure_alloc_rate(impl, capacity=64, threads=8, elements=elements)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "Allocation pressure (cells allocated per element)\n" + "\n".join(
        f"[{label:4s}] {r.row()}" for label, r in rows
    )
    save_report("memory_usage", text)

    rates = {(label, r.impl): r.rate for label, r in rows}
    # Low contention: segments amortize; ours within 2x of Koval-2019 and
    # clearly below Java and legacy Kotlin.
    assert rates[("low", "faa-channel")] <= rates[("low", "koval-2019")] * 2.0
    assert rates[("low", "faa-channel")] < rates[("low", "java-sync-queue")]
    assert rates[("low", "faa-channel")] < rates[("low", "kotlin-legacy")]
    # Legacy Kotlin pays node + descriptor: the heaviest rendezvous rate.
    assert rates[("low", "kotlin-legacy")] == max(
        rate for (label, _), rate in rates.items() if label == "low"
    )
    # High contention: ours stays within a small factor of the best
    # (contended restarts burn some cells in our cell-units metric; the
    # paper's bytes-level measurement has ours best — see EXPERIMENTS.md),
    # and far below the legacy Kotlin descriptor churn.
    faa_high = rates[("high", "faa-channel")]
    best_other = min(
        rate for (label, impl), rate in rates.items() if label == "high" and impl != "faa-channel"
    )
    assert faa_high <= best_other * 1.6, rates
    assert rates[("high", "kotlin-legacy")] > 3 * faa_high
    # Buffered: the pre-allocated legacy ring allocates least.
    assert rates[("buf", "kotlin-legacy")] <= rates[("buf", "faa-channel")]


def test_segment_allocation_amortizes_with_size(benchmark):
    """Larger segments -> fewer allocation events per element."""

    from repro.bench.memstats import AllocStats
    from repro.core import RendezvousChannel
    from repro.bench.workload import consumer_task, producer_task
    from repro.sim import Scheduler

    def rate_for(seg_size):
        ch = RendezvousChannel(seg_size=seg_size)
        sched = Scheduler()
        stats = AllocStats()
        sched.alloc_stats = stats
        n = bench_elements(0.1)
        sched.spawn(producer_task(ch, 0, n))
        sched.spawn(consumer_task(ch, n))
        sched.run()
        return stats.events / n

    def run():
        return rate_for(2), rate_for(32)

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert large < small

