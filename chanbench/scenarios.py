"""Scenarios the ``explore-exhaustive`` workload explores to exhaustion.

Each scenario is ``(build, outcome)``: ``build(sched)`` spawns fresh tasks
on the explorer's scheduler and returns a context, and ``outcome(ctx)``
turns a finished schedule's context into a hashable terminal outcome.
The checker wraps ``outcome`` with the scenario's contract, so a schedule
that breaks the contract fails the exploration.

The set covers the fast path and the abort paths, which CQS-style
algorithms need the most interleaving coverage for: rendezvous 2p1c on
one-cell segments, buffered c=1 2p1c, close racing a send, and an
interrupt racing a parked rendezvous.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.concurrent import IntCell, Read, Write
from repro.core import BufferedChannel, RendezvousChannel
from repro.errors import ChannelClosedForSend, Interrupted
from repro.sim.tasks import TaskState

#: Preemption bound of every exploration.
PREEMPTION_BOUND = 2


def _two_producers_one_consumer(factory: Callable[[], Any]):
    def build(sched):
        ch = factory()
        got: list = []

        def producer(value):
            yield from ch.send(value)

        def consumer():
            for _ in range(2):
                got.append((yield from ch.receive()))

        sched.spawn(producer(1), "p1")
        sched.spawn(producer(2), "p2")
        sched.spawn(consumer(), "c")
        return got

    def outcome(got):
        if sorted(got) != [1, 2]:
            raise AssertionError(f"lost or duplicated element: {got}")
        return tuple(got)

    return build, outcome


def _close_races_send():
    def build(sched):
        ch = RendezvousChannel(seg_size=2)
        res: dict = {}

        def sender():
            try:
                yield from ch.send("x")
                res["send"] = "sent"
            except ChannelClosedForSend:
                res["send"] = "closed"

        def closer():
            res["closed"] = yield from ch.close()

        def rescuer():
            ok, value = yield from ch.receive_catching()
            res["rescue"] = value if ok else None

        sched.spawn(sender(), "s")
        sched.spawn(closer(), "x")
        sched.spawn(rescuer(), "r")
        return res

    def outcome(res):
        if res["closed"] is not True:
            raise AssertionError(f"close() did not report the first close: {res}")
        if (res["send"] == "sent") != (res["rescue"] == "x"):
            raise AssertionError(f"send and receive disagree about the element: {res}")
        return (res["send"], res["rescue"])

    return build, outcome


def _interrupt_races_parked_rendezvous():
    def build(sched):
        ch = RendezvousChannel(seg_size=1)
        res: dict = {}

        def victim():
            try:
                yield from ch.send(9)
                res["send"] = "ok"
            except Interrupted:
                res["send"] = "cancelled"

        task = sched.spawn(victim(), "v")
        while task.state is not TaskState.PARKED:
            sched.step()
        waiter = task.current_waiter

        def canceller():
            res["interrupted"] = yield from waiter.interrupt()
            if res["interrupted"]:
                # Replace the cancelled element so the receiver completes.
                yield from ch.send(77)

        def receiver():
            res["received"] = yield from ch.receive()

        sched.spawn(canceller(), "x")
        sched.spawn(receiver(), "r")
        return res

    def outcome(res):
        expected = ("cancelled", 77) if res["interrupted"] else ("ok", 9)
        if (res["send"], res["received"]) != expected:
            raise AssertionError(f"interrupt outcome inconsistent: {res}")
        return expected

    return build, outcome


SCENARIOS = {
    "rendezvous-2p1c-seg1": _two_producers_one_consumer(lambda: RendezvousChannel(seg_size=1)),
    "buffered-c1-2p1c": _two_producers_one_consumer(lambda: BufferedChannel(1, seg_size=2)),
    "close-races-send": _close_races_send(),
    "interrupt-races-parked-rendezvous": _interrupt_races_parked_rendezvous(),
}


def ticket_bug():
    """A seeded defect: tickets taken by read-then-write instead of FAA.

    Two takers each read the counter and write it back incremented, so
    some interleaving hands both the same ticket.  The explorer must
    report it.
    """

    def build(sched):
        counter = IntCell(0)
        tickets: list = []

        def taker():
            ticket = yield Read(counter)
            yield Write(counter, ticket + 1)
            tickets.append(ticket)

        sched.spawn(taker(), "a")
        sched.spawn(taker(), "b")
        return tickets

    def outcome(tickets):
        if sorted(tickets) != [0, 1]:
            raise AssertionError(f"duplicate ticket: {tickets}")
        return tuple(tickets)

    return build, outcome
