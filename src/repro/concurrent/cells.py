"""Atomic memory locations for the simulated shared memory.

A :class:`Cell` is one independently coherent memory word — the unit at which
the cost model tracks cache-line ownership and at which CAS/FAA serialize.
Cells hold either a reference (:class:`RefCell`, CAS compares by identity,
like an ``AtomicReference``) or an integer (:class:`IntCell`, CAS compares by
value and FAA is supported, like an ``AtomicLong``).

Cells are deliberately dumb: they expose a plain ``value`` attribute that only
drivers mutate (through :func:`repro.concurrent.ops.apply_memory_op`).
Algorithm code never touches ``value`` directly — it yields op descriptors.
Test and verification code may *read* ``value`` between simulator steps, which
is legal because the simulator runs exactly one task step at a time.

Each cell carries cost-model bookkeeping (`last_writer`, `write_time`,
`avail_time`) used by :mod:`repro.sim.costmodel` to charge remote cache
misses and to serialize conflicting RMWs on the same location, mirroring
MESI-style line ping-pong on the paper's 4-socket Xeon.
"""

from __future__ import annotations

import itertools
from typing import Any

__all__ = ["Cell", "RefCell", "IntCell", "CacheLine"]

_cell_ids = itertools.count()


class CacheLine:
    """Coherence-granularity bookkeeping, shareable between cells.

    Real memory layouts co-locate related words: a channel cell's
    ``state`` and ``elem`` are adjacent array slots on one 64-byte line.
    Sharing a :class:`CacheLine` reproduces the resulting interactions —
    e.g. a sender's element store acquires the line exclusively, making
    its subsequent state CAS a local hit while delaying the racing
    receiver's state read.  This line-level timing is load-bearing for
    the paper's <10% poisoning statistic (see EXPERIMENTS.md).
    """

    __slots__ = ("loc_id", "last_writer", "write_time", "avail_time")

    def __init__(self) -> None:
        #: Stable identity for per-task cache maps.
        self.loc_id = next(_cell_ids)
        #: Task id of the last writer, or ``None`` if untouched.
        self.last_writer: int | None = None
        #: Simulated time of the last write.
        self.write_time: int = 0
        #: Earliest simulated time the next write/RMW may start.
        self.avail_time: int = 0


class Cell:
    """One atomic memory location (do not instantiate directly).

    Each cell lives on a :class:`CacheLine`; by default its own, but a
    shared line may be passed to model co-located fields.
    """

    __slots__ = ("value", "_name", "line", "read_op")

    def __init__(self, value: Any, name: Any = "", line: CacheLine | None = None):
        self.value = value
        self._name = name
        self.line = line if line is not None else CacheLine()
        #: Interned ``Read(self)`` descriptor (lazily built by
        #: :func:`repro.concurrent.ops.read_of`); immutable, so it stays
        #: valid for the cell's whole life.
        self.read_op: Any = None

    @property
    def name(self) -> str:
        """The cell's debug label, formatted on first access.

        Hot construction paths (``Segment.__init__``) pass a lazy
        ``(fmt, *args)`` tuple instead of an eagerly built f-string —
        names are only ever read by tracing/observability/debug code,
        never by the simulation itself, so the ``%``-format is deferred
        until someone actually looks.
        """

        n = self._name
        if type(n) is tuple:
            n = n[0] % n[1:]
            self._name = n
        return n

    @name.setter
    def name(self, value: Any) -> None:
        self._name = value

    @property
    def loc_id(self) -> int:
        return self.line.loc_id

    @staticmethod
    def compare(current: Any, expected: Any) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"cell{self.loc_id}"
        return f"<{type(self).__name__} {label}={self.value!r}>"


class RefCell(Cell):
    """An atomic reference; CAS compares by identity (``is``).

    This mirrors reference CAS on the JVM/Go/Rust: two distinct but equal
    objects must *not* match, which the channel algorithm relies on when
    distinguishing waiter objects from state sentinels.
    """

    __slots__ = ()

    @staticmethod
    def compare(current: Any, expected: Any) -> bool:
        return current is expected


class IntCell(Cell):
    """An atomic 64-bit integer; CAS compares by value, FAA is supported."""

    __slots__ = ("faa_inc", "faa_dec")

    def __init__(self, value: int = 0, name: str = "", line: CacheLine | None = None):
        if not isinstance(value, int):
            raise TypeError(f"IntCell requires an int, got {type(value).__name__}")
        super().__init__(value, name, line)
        #: Interned ``Faa(self, ±1)`` descriptors (see ``Cell.read_op``).
        self.faa_inc: Any = None
        self.faa_dec: Any = None

    @staticmethod
    def compare(current: Any, expected: Any) -> bool:
        return current == expected
