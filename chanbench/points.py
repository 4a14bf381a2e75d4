"""The simulated points the ``fig5-sim`` and ``profile-observed`` workloads run.

Kept free of heavy imports: set-up launches import this module before
the program's own imports are timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Figure 5 rendezvous series (the paper's panel) and buffered series (c=64).
RZ_IMPLS = ("faa-channel", "java-sync-queue", "koval-2019", "go-channel", "kotlin-legacy")
BUF_IMPLS = ("faa-channel", "faa-channel-eb", "go-channel", "kotlin-legacy")
THREADS = (4, 64)
CAPACITY = 64
#: Elements transferred per point: at least ``MIN_ELEMENTS``, and at least
#: ``MIN_OPS_PER_PRODUCER`` sends per producer, so that the 500 producers
#: of the 1000-coroutine panel each do some work.  Measured in NOTES.md:
#: building the scheduler, channel and tasks is <= 1.5 % of a 4- or
#: 64-thread point and <= 3 % of a 1000-coroutine point at these sizes.
MIN_ELEMENTS = 2000
MIN_OPS_PER_PRODUCER = 16
#: ``--seed`` picks one of this many pinned workload-seed variants.
VARIANTS = 4

#: The paper's claim: faa-channel beats every baseline in these panels.
BASELINES = {
    "rendezvous": ("java-sync-queue", "koval-2019", "go-channel", "kotlin-legacy"),
    "buffered": ("go-channel", "kotlin-legacy"),
}


@dataclass(frozen=True)
class Point:
    panel: str
    impl: str
    threads: int
    capacity: int
    coroutines: Optional[int] = None

    @property
    def pairs(self) -> int:
        """Producer/consumer pairs, as the harness rounds coroutines."""

        return (max(2, self.coroutines or self.threads) + 1) // 2

    @property
    def elements(self) -> int:
        return max(MIN_ELEMENTS, MIN_OPS_PER_PRODUCER * self.pairs)

    @property
    def key(self) -> str:
        return (f"{self.panel}/{self.impl}/t{self.threads}/c{self.capacity}"
                f"/k{self.coroutines or self.threads}/e{self.elements}")


FIG5_POINTS = (
    tuple(Point("rendezvous", i, t, 0) for i in RZ_IMPLS for t in THREADS)
    + tuple(Point("buffered", i, t, CAPACITY) for i in BUF_IMPLS for t in THREADS)
    + (
        Point("cor1000", "faa-channel", 64, 0, 1000),
        Point("cor1000", "faa-channel", 64, CAPACITY, 1000),
    )
)

#: Observed points: the channel kernels' main cases plus one CAS baseline.
OBS_POINTS = (
    Point("observed", "faa-channel", 4, 0),
    Point("observed", "faa-channel", 64, 0),
    Point("observed", "faa-channel", 4, CAPACITY),
    Point("observed", "faa-channel", 64, CAPACITY),
    Point("observed", "go-channel", 4, 0),
)


def run_point(point: Point, variant: int, engine: str, elements: Optional[int] = None,
              profile: Any = None) -> Any:
    """One producer/consumer run of ``point`` (``point.elements`` by default)."""

    from repro.bench.harness import point_seed, run_producer_consumer

    return run_producer_consumer(
        point.impl,
        point.threads,
        capacity=point.capacity,
        coroutines=point.coroutines,
        elements=point.elements if elements is None else elements,
        seed=point_seed(variant, point.impl, point.threads, point.coroutines or point.capacity),
        engine=engine,
        profile=profile,
    )
