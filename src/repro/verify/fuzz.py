"""Lincheck-style fuzzing: random concurrent programs vs. the spec.

Generates random per-task operation sequences (send / receive / try-ops /
close), executes them under seeded-random scheduling, and validates:

* small programs — full linearizability of the completed send/receive
  history (:func:`repro.verify.checker.check_linearizable`);
* all programs — conservation: every received value was sent exactly
  once, and values neither duplicate nor materialize.

Programs may legitimately deadlock (e.g. a send with no matching
receive); the run then validates whatever completed — exactly how dual
data structures are specified (pending registrations are unconstrained).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import (
    ChannelClosed,
    ChannelClosedForReceive,
    ChannelClosedForSend,
    DeadlockError,
    Interrupted,
    StepLimitExceeded,
)
from ..sim.costmodel import NullCostModel
from ..sim.scheduler import RandomPolicy, Scheduler
from .checker import Event, check_linearizable

__all__ = [
    "FuzzReport",
    "random_program",
    "run_fuzz_case",
    "fuzz_channel",
    "fuzz_segment_churn",
]

_OP_KINDS = ("send", "receive", "try_send", "try_receive")


@dataclass
class FuzzReport:
    """Outcome of one fuzz case."""

    seed: int
    program: list[list[tuple[str, Any]]]
    events: list[Event] = field(default_factory=list)
    deadlocked: bool = False
    sent: list[Any] = field(default_factory=list)
    received: list[Any] = field(default_factory=list)
    checked_linearizability: bool = False


def random_program(
    rng: random.Random,
    n_tasks: int,
    ops_per_task: int,
    allow_close: bool = True,
) -> list[list[tuple[str, Any]]]:
    """A random program: per task, a list of ``(op_kind, value)``."""

    value = iter(range(1, 10_000))
    program = []
    for _ in range(n_tasks):
        ops = []
        for _ in range(ops_per_task):
            kind = rng.choice(_OP_KINDS + (("close",) if allow_close and rng.random() < 0.08 else ()))
            ops.append((kind, next(value) if "send" in kind else None))
        program.append(ops)
    return program


def run_fuzz_case(
    channel_factory: Callable[[], Any],
    program: list[list[tuple[str, Any]]],
    seed: int,
    capacity: int,
    check_lin: bool = False,
    max_steps: int = 500_000,
    policy_factory: Optional[Callable[[int], Any]] = None,
    cost_model_factory: Optional[Callable[[], Any]] = None,
) -> FuzzReport:
    """Execute one random program and validate its outcome.

    ``policy_factory`` (seed → policy) swaps the scheduling regime the
    program runs under — the policy-parity harness fuzzes every policy
    through here.  Defaults to seeded-random scheduling, the regime with
    the densest interleaving coverage.
    """

    channel = channel_factory()
    policy = policy_factory(seed) if policy_factory is not None else RandomPolicy(seed)
    cost = cost_model_factory() if cost_model_factory is not None else NullCostModel()
    sched = Scheduler(policy=policy, cost_model=cost, max_steps=max_steps)
    report = FuzzReport(seed=seed, program=program)
    now = lambda: sched.total_steps  # noqa: E731

    def task_body(ops):
        for kind, value in ops:
            try:
                if kind == "send":
                    start = now()
                    yield from channel.send(value)
                    report.events.append(Event("send", value, start, now()))
                    report.sent.append(value)
                elif kind == "receive":
                    start = now()
                    got = yield from channel.receive()
                    report.events.append(Event("receive", got, start, now()))
                    report.received.append(got)
                elif kind == "try_send":
                    start = now()
                    ok = yield from channel.try_send(value)
                    if ok:
                        report.events.append(Event("send", value, start, now()))
                        report.sent.append(value)
                elif kind == "try_receive":
                    start = now()
                    ok, got = yield from channel.try_receive()
                    if ok:
                        report.events.append(Event("receive", got, start, now()))
                        report.received.append(got)
                else:  # close
                    yield from channel.close()
            except (ChannelClosedForSend, ChannelClosedForReceive):
                continue  # closed mid-program: later ops may still be legal

    for ops in program:
        sched.spawn(task_body(ops))
    try:
        sched.run()
    except DeadlockError:
        report.deadlocked = True
    except StepLimitExceeded:
        report.deadlocked = True  # treat budget exhaustion like a stall

    _validate(report, capacity, check_lin)
    return report


def _validate(report: FuzzReport, capacity: int, check_lin: bool) -> None:
    # Conservation: receives are a sub-multiset of sends, no duplicates.
    sent = sorted(report.sent)
    received = sorted(report.received)
    assert len(set(sent)) == len(sent), f"duplicate send recorded: {sent}"
    assert len(set(received)) == len(received), f"value received twice: {received}"
    missing = set(received) - set(sent)
    assert not missing, f"values received but never sent: {missing}"
    if check_lin and len(report.events) <= 12:
        check_linearizable(report.events, capacity)
        report.checked_linearizability = True


def fuzz_segment_churn(
    cases: int = 25,
    seed: int = 0,
    seg_size: int = 2,
    max_steps: int = 300_000,
) -> dict[str, int]:
    """Storm-test segment turnover: cancel/close/interrupt while segments churn.

    Tiny segments (``seg_size`` cells) force continuous segment turnover;
    producer/consumer pairs race with interrupters and an occasional
    ``close()``/``cancel()``, so segments are appended, interrupted and
    physically removed while waiters are parked, cells are being
    interrupted, and close/cancel walks are in flight.

    Conservation is checked per case: every received value was sent,
    exactly once.  The aggregate must also show that some case physically
    removed a segment (``alive_count() < segments_allocated``), otherwise
    the storm never reached the removal path and the test is vacuous.
    Returns the aggregated counters.
    """

    from ..core import BufferedChannel, RendezvousChannel
    from ..runtime import interrupt_task

    totals = {"removing_cases": 0, "deadlocks": 0}
    for case in range(cases):
        rng = random.Random(seed * 7919 + case)
        capacity = rng.choice((0, 0, 1, 4))
        if capacity == 0:
            channel: Any = RendezvousChannel(seg_size=seg_size, name=f"fuzz-churn-{case}")
        else:
            channel = BufferedChannel(capacity, seg_size=seg_size, name=f"fuzz-churn-{case}")
        sched = Scheduler(
            policy=RandomPolicy(seed * 99991 + case),
            cost_model=NullCostModel(),
            max_steps=max_steps,
        )
        sent: list[int] = []
        received: list[int] = []
        pairs = rng.randint(1, 3)
        per_task = rng.randint(4, 12)
        base = case * 1_000_000

        def producer(pid: int, n: int):
            for k in range(n):
                value = base + pid * 1000 + k
                try:
                    yield from channel.send(value)
                except (ChannelClosed, Interrupted):
                    return
                sent.append(value)

        def consumer(n: int):
            for _ in range(n):
                try:
                    got = yield from channel.receive()
                except (ChannelClosed, Interrupted):
                    return
                received.append(got)

        def terminator():
            if rng.random() < 0.5:
                yield from channel.close()
            else:
                yield from channel.cancel()

        victims = []
        for p in range(pairs):
            victims.append(sched.spawn(producer(p, per_task), f"prod-{p}"))
            victims.append(sched.spawn(consumer(per_task), f"cons-{p}"))
        for x in range(rng.randint(1, 3)):
            sched.spawn(interrupt_task(rng.choice(victims)), f"x-{x}")
        if rng.random() < 0.4:
            sched.spawn(terminator(), "terminator")
        try:
            sched.run()
        except (DeadlockError, StepLimitExceeded):
            totals["deadlocks"] += 1

        seg_list = channel._list
        assert len(set(received)) == len(received), f"case {case}: value received twice"
        missing = set(received) - set(sent)
        assert not missing, f"case {case}: received but never sent: {missing}"
        if seg_list.alive_count() < seg_list.segments_allocated:
            totals["removing_cases"] += 1
    assert totals["removing_cases"] > 0, "churn never exercised: no segment was removed"
    return totals


def fuzz_channel(
    channel_factory: Callable[[], Any],
    capacity: int,
    cases: int = 50,
    seed: int = 0,
    n_tasks: int = 3,
    ops_per_task: int = 4,
    check_lin: bool = True,
    policy_factory: Optional[Callable[[int], Any]] = None,
    cost_model_factory: Optional[Callable[[], Any]] = None,
) -> list[FuzzReport]:
    """Run many fuzz cases; returns their reports (raises on violation)."""

    rng = random.Random(seed)
    reports = []
    for case in range(cases):
        program = random_program(rng, n_tasks, ops_per_task)
        reports.append(
            run_fuzz_case(
                channel_factory,
                program,
                seed=seed * 99991 + case,
                capacity=capacity,
                check_lin=check_lin,
                policy_factory=policy_factory,
                cost_model_factory=cost_model_factory,
            )
        )
    return reports
