"""One set-up launch: a fresh interpreter up to the workload's first op.

Usage: ``python setup_child.py <workload> [port]``.  Prints ``ready`` the
moment the first op of the workload has completed, then one JSON line
with the in-child timings, and exits.  Covers ``import repro``, the
engine probe, and building the channels or scenarios or opening the
connections.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from chanbench.engine import use_built_engine  # noqa: E402


def _sim(observed: bool) -> None:
    from chanbench.points import FIG5_POINTS, OBS_POINTS, run_point
    from repro.bench.harness import make_impl

    points = OBS_POINTS if observed else FIG5_POINTS
    for p in points:
        make_impl(p.impl, p.capacity)
    profile = None
    if observed:
        from repro.obs import ObsSession

        profile = ObsSession(label=points[0].impl, timeline=True)
    run_point(points[0], 0, "c", elements=2, profile=profile)


def _explore() -> None:
    from chanbench.scenarios import PREEMPTION_BOUND, SCENARIOS
    from repro.sim import explore

    build, outcome = next(iter(SCENARIOS.values()))
    explore(build, lambda ctx, sched: outcome(ctx), max_schedules=1,
            preemption_bound=PREEMPTION_BOUND)


def _net(port: int) -> None:
    import asyncio

    from chanbench.netload import CHANNELS, SETUP_CHANNEL
    from repro.net import connect

    async def first_op() -> None:
        producer = await connect("127.0.0.1", port)
        consumer = await connect("127.0.0.1", port)
        try:
            for name, cap in CHANNELS:
                await producer.channel(name, capacity=cap)
            # The load closes its channels when it ends; the first op goes
            # to a channel it never uses, so a late launch still succeeds.
            probe = await consumer.channel(SETUP_CHANNEL)
            await probe.try_receive()
        finally:
            await producer.close()
            await consumer.close()

    asyncio.run(first_op())


def main() -> None:
    workload = sys.argv[1]
    t = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t
    use_built_engine()
    import repro._engine as engine

    if not engine.available():
        raise SystemExit(f"compiled engine tier unavailable: {engine.probe_error()}")
    if workload == "fig5-sim":
        _sim(observed=False)
    elif workload == "profile-observed":
        _sim(observed=True)
    elif workload == "explore-exhaustive":
        _explore()
    elif workload == "net-open":
        _net(int(sys.argv[2]))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    first_op_s = time.perf_counter() - T0
    print("ready", flush=True)
    print('{"import_s": %r, "first_op_s": %r}' % (import_s, first_op_s), flush=True)


if __name__ == "__main__":
    main()
