"""The infinite array: a linked list of fixed-size segments (§3.3, App. B).

All cells of the channel's conceptually infinite array live in segments of
``K`` cells each (the paper tunes ``K = 32``).  Segments carry a unique
``id``; cell ``i`` of the infinite array is cell ``i % K`` of the segment
with ``id == i // K``.  The list supports:

* **forward traversal with on-demand growth** — :meth:`SegmentList.find_segment`
  walks ``next`` pointers from a start segment, CAS-appending fresh segments
  at the tail as needed (Listing 6, ``findSegment``);
* **anchor advancement** — each operation type keeps an anchor reference
  (``SegmentS``/``SegmentR``/``SegmentB``) to the segment it last used, moved
  forward with :meth:`SegmentList.find_and_move_forward` (``moveForwardSend``);
* **O(1) physical removal of fully-interrupted segments** — the core memory
  guarantee: space depends only on the number of *non-cancelled* waiters.

Removal correctness hinges on the packed ``(pointers, interrupted)`` counter
(Listing 6, line 42): a segment is *logically removed* iff all ``K`` cells
are interrupted **and** no anchor references it.  The two numbers share one
atomic integer — ``value = pointers * (K + 1) + interrupted`` — so both
conditions are checked/updated in a single CAS/FAA, exactly the paper's
``atomic { ... }`` blocks.  Anchors take a "pointer" before they may
reference a segment (:meth:`Segment.try_inc_pointers`, which fails on a
logically-removed segment so removed segments can never come back alive) and
drop it when they move on (:meth:`Segment.dec_pointers`, whose caller must
physically remove the segment when the drop made it logically removed).

The tail segment is never physically removed (it anchors id uniqueness); its
removal is re-checked when the tail advances.

**Reclamation.**  A segment is freed by plain reachability, like the
JVM's GC-based reclamation the paper relies on: once ``clean_prev`` and
anchor advancement cut the last references to a fully-processed or
removed segment, it dies with its cells.  Segments are not pooled (see
DESIGN.md §10); every tail-append builds a fresh :class:`Segment`.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ..concurrent.cells import CacheLine, IntCell, RefCell
from ..concurrent.ops import Alloc, Cas, Faa, Read, Write, read_of

__all__ = [
    "Segment",
    "SegmentList",
    "DEFAULT_SEGMENT_SIZE",
    "KERNEL_DELEGATES",
]

#: The paper's tuned segment size ("we have chosen the segment size of 32").
DEFAULT_SEGMENT_SIZE = 32

#: Compiled-tier delegation boundary (PR 10, DESIGN.md §14): the segment
#: walks stay *Python generators* even under the native kernels.  A
#: kernel that reaches one of these calls the generator function fresh
#: and drives it through the same charge tables (the "delegate
#: executor"), so the walk's op stream — including segment allocation,
#: ``Alloc`` accounting and removal CAS traffic — is produced by exactly
#: this code under both tiers.  Tests introspect this list to pin the
#: boundary.
KERNEL_DELEGATES = (
    "SegmentList.find_segment",
    "SegmentList.find_and_move_forward",
    "Segment.on_interrupted_cell",
)

class Segment:
    """One fixed-size block of ``K`` (state, elem) cell pairs."""

    __slots__ = (
        "owner",
        "id",
        "K",
        "_next",
        "_prev",
        "_cnt",
        "states",
        "elems",
    )

    def __init__(
        self,
        owner: "SegmentList",
        seg_id: int,
        prev: Optional["Segment"],
        pointers: int = 0,
    ):
        self.owner = owner
        self.id = seg_id
        K = owner.seg_size
        self.K = K
        tag = owner.tag
        # Names are lazy ``(fmt, *args)`` tuples (see ``Cell.name``):
        # segment construction is the allocation hot path and the labels
        # are only ever read by tracing/debug code.
        self._next = RefCell(None, name=("%s.seg%d.next", tag, seg_id))
        self._prev = RefCell(prev, name=("%s.seg%d.prev", tag, seg_id))
        # Packed counter: value = pointers * (K + 1) + interrupted.
        self._cnt = IntCell(pointers * (K + 1), name=("%s.seg%d.cnt", tag, seg_id))
        # A cell's state and elem are adjacent slots of one array in the
        # real layout — the same cache line.  Model that: the sender's
        # element store takes the line exclusively, so its state CAS is
        # local while a racing receiver's state read must fetch the line
        # from it (this asymmetry keeps poisoning rare, §5).
        lines = [CacheLine() for _ in range(K)]
        self.states = [
            RefCell(None, name=("%s.seg%d.state[%d]", tag, seg_id, i), line=lines[i])
            for i in range(K)
        ]
        self.elems = [
            RefCell(None, name=("%s.seg%d.elem[%d]", tag, seg_id, i), line=lines[i])
            for i in range(K)
        ]

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def state_cell(self, i: int) -> RefCell:
        """The ``A[_].state`` cell for in-segment index ``i``."""

        return self.states[i]

    def elem_cell(self, i: int) -> RefCell:
        """The ``A[_].elem`` cell for in-segment index ``i``."""

        return self.elems[i]

    # ------------------------------------------------------------------
    # Packed (pointers, interrupted) counter
    # ------------------------------------------------------------------

    def _decode(self, value: int) -> tuple[int, int]:
        unit = self.K + 1
        return value // unit, value % unit

    def _is_removed_value(self, value: int) -> bool:
        pointers, interrupted = self._decode(value)
        return interrupted == self.K and pointers == 0

    @property
    def removed_now(self) -> bool:
        """Non-simulated peek for tests run between scheduler steps."""

        return self._is_removed_value(self._cnt.value)

    def is_removed(self) -> Generator[Any, Any, bool]:
        """Atomic read of the logically-removed predicate."""

        value = yield Read(self._cnt)
        return self._is_removed_value(value)

    def try_inc_pointers(self) -> Generator[Any, Any, bool]:
        """Take a reference; fails iff the segment is logically removed.

        The CAS loop makes "check not-removed, then increment" atomic —
        a removed segment can never be resurrected by a late anchor.
        """

        unit = self.K + 1
        while True:
            value = yield Read(self._cnt)
            if self._is_removed_value(value):
                return False
            ok = yield Cas(self._cnt, value, value + unit)
            if ok:
                return True

    def dec_pointers(self) -> Generator[Any, Any, bool]:
        """Drop a reference; ``True`` iff this made the segment removed.

        The caller must then invoke :meth:`remove` (Listing 6, line 32).
        """

        unit = self.K + 1
        old = yield Faa(self._cnt, -unit)
        return self._is_removed_value(old - unit)

    def on_interrupted_cell(self) -> Generator[Any, Any, None]:
        """Account one cell as interrupted; physically remove if now full.

        Called by cancellation handlers (and, for cells whose
        interrupted state ``expandBuffer()`` still needs to observe, by
        ``expandBuffer()`` itself — the Appendix B delegation rule).
        """

        old = yield Faa(self._cnt, +1)
        if self._is_removed_value(old + 1):
            yield from self.remove()

    # ------------------------------------------------------------------
    # Physical removal (Listing 6, lines 65–93)
    # ------------------------------------------------------------------

    def remove(self) -> Generator[Any, Any, None]:
        """Unlink this logically-removed segment from the list.

        The tail cannot be removed (its removal is re-run by
        ``findSegment`` once the tail advances).  After linking the
        nearest alive neighbours around us, we re-check that neither got
        removed concurrently; if one did, the unlink is retried so the
        broken linking a racing ``remove()`` may have produced is always
        repaired (the paper's "the remove() that led to this error will
        fix the problem").
        """

        while True:
            nxt = yield Read(self._next)
            if nxt is None:
                return  # the tail segment must not be removed
            prev = yield from self._alive_segment_left()
            nxt = yield from self._alive_segment_right()
            yield Write(nxt._prev, prev)
            if prev is not None:
                yield Write(prev._next, nxt)
            # Re-validate both neighbours.
            if (yield from nxt.is_removed()):
                nxt_next = yield Read(nxt._next)
                if nxt_next is not None:
                    continue
            if prev is not None and (yield from prev.is_removed()):
                continue
            return

    def _alive_segment_left(self) -> Generator[Any, Any, Optional["Segment"]]:
        cur = yield Read(self._prev)
        while cur is not None and (yield from cur.is_removed()):
            cur = yield Read(cur._prev)
        return cur

    def _alive_segment_right(self) -> Generator[Any, Any, "Segment"]:
        cur = yield Read(self._next)
        assert cur is not None, "tail segments are never removed"
        while True:
            if not (yield from cur.is_removed()):
                return cur
            nxt = yield Read(cur._next)
            if nxt is None:
                return cur  # the tail, even if logically removed
            cur = nxt

    def clean_prev(self) -> Generator[Any, Any, None]:
        """Null the ``prev`` pointer once earlier segments are processed.

        Keeps fully-processed segments unreachable (Appendix B).  Safe at
        any time — removal treats a ``None`` prev as "no alive segment on
        the left" and merely skips the left-side relink.
        """

        yield Write(self._prev, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pointers, interrupted = self._decode(self._cnt.value)
        return f"<Segment #{self.id} ptrs={pointers} int={interrupted}/{self.K}>"


_list_ids = itertools.count()


class SegmentList:
    """Factory and traversal logic for the segment linked list."""

    def __init__(self, seg_size: int = DEFAULT_SEGMENT_SIZE, anchors: int = 2, name: str = "chan"):
        if seg_size < 1:
            raise ValueError("segment size must be >= 1")
        if anchors < 1:
            raise ValueError("at least one anchor reference is required")
        self.seg_size = seg_size
        self.name = name
        #: Unique per-instance tag prefixed onto every cell name, so
        #: instrumentation can scope itself to one channel's cells.
        self.tag = f"L{next(_list_ids)}"
        #: Number of anchor references (2 for rendezvous: S and R;
        #: 3 for buffered: S, R and B).  The first segment starts with
        #: this many pointers — Listing 6: "Initialized with (3, 0)".
        self.anchors = anchors
        self.first = Segment(self, 0, prev=None, pointers=anchors)
        #: Segments ever allocated (allocation-pressure statistic).
        self.segments_allocated = 1

    def make_anchor(self, label: str) -> RefCell:
        """A new anchor reference cell pointing at the first segment."""

        return RefCell(self.first, name=f"{self.name}.segment{label}")

    # ------------------------------------------------------------------
    # findSegment / moveForward (Listing 6, lines 1–37)
    # ------------------------------------------------------------------
    #
    # Hot-path flattening rule (DESIGN.md §10): these walks inline the
    # bodies of ``is_removed``/``try_inc_pointers``/``dec_pointers``
    # *mechanically* — the emitted op sequence is identical to the
    # delegating form, only the generator frames are gone.  The slow
    # ``remove()`` machinery stays on the readable helpers.

    def find_segment(
        self, start: Segment, seg_id: int, checked_start: bool = False
    ) -> Generator[Any, Any, Segment]:
        """First non-removed segment with ``id >= seg_id``, growing the list.

        May return a segment with a *larger* id when the requested one was
        fully interrupted and physically removed; callers then skip the
        whole interrupted range (Listing 5, lines 5–7).

        ``checked_start=True`` resumes a caller's inlined fast path: the
        caller already performed this walk's first removal check on
        ``start`` (one ``Read(start._cnt)``) and saw it removed, so the
        walk starts directly at ``Read(start._next)`` without re-emitting
        the check.
        """

        K1 = self.seg_size + 1
        cur = start
        skip_check = checked_start
        while True:
            if cur.id >= seg_id and not skip_check:
                value = yield read_of(cur._cnt)  # inlined is_removed()
                if not (value % K1 == self.seg_size and value // K1 == 0):
                    return cur
            skip_check = False
            nxt = yield read_of(cur._next)
            if nxt is None:
                new = Segment(self, cur.id + 1, cur)
                yield Alloc("segment", self.seg_size)
                ok = yield Cas(cur._next, None, new)
                if ok:
                    self.segments_allocated += 1
                    # The old tail may have been waiting for its removal.
                    value = yield read_of(cur._cnt)
                    if value % K1 == self.seg_size and value // K1 == 0:
                        yield from cur.remove()
                continue  # re-read next: it is non-null now
            cur = nxt

    def move_forward(self, anchor: RefCell, to: Segment) -> Generator[Any, Any, bool]:
        """Advance *anchor* to ``to`` (never backwards), managing pointers.

        Returns ``False`` iff ``to`` became logically removed before the
        anchor could take a pointer to it; the caller must re-run
        :meth:`find_segment` (Listing 6, ``moveForwardSend``).
        """

        while True:
            cur: Segment = yield Read(anchor)
            if cur.id >= to.id:
                return True  # someone else advanced it past `to`
            if not (yield from to.try_inc_pointers()):
                return False
            ok = yield Cas(anchor, cur, to)
            if ok:
                if (yield from cur.dec_pointers()):
                    yield from cur.remove()
                return True
            if (yield from to.dec_pointers()):
                yield from to.remove()

    def find_and_move_forward(
        self,
        anchor: RefCell,
        start: Segment,
        seg_id: int,
        checked_start: bool = False,
        resume_cur: Optional[Segment] = None,
    ) -> Generator[Any, Any, Segment]:
        """``findAndMoveForwardSend`` and friends (Listing 6, lines 1–8).

        One flat generator: the find phase delegates to
        :meth:`find_segment` only when walking is actually required, and
        the move phase inlines ``move_forward``/``try_inc_pointers``/
        ``dec_pointers`` so the common advance is a single extra frame.

        Two resume-state parameters let callers inline the uncontended
        case without re-emitting ops (both consumed on first use):

        * ``checked_start`` — as for :meth:`find_segment`;
        * ``resume_cur`` — the caller already found ``start`` alive
          (``start.id >= seg_id``) *and* read the anchor, observing
          ``resume_cur`` with ``resume_cur.id < start.id``; the move
          phase continues at the pointer-increment CAS.
        """

        K = self.seg_size
        K1 = K + 1
        read_anchor = read_of(anchor)
        while True:
            # ---- find phase ----
            if resume_cur is not None:
                segm = start
                pending_cur: Optional[Segment] = resume_cur
                resume_cur = None
            else:
                segm = yield from self.find_segment(start, seg_id, checked_start)
                checked_start = False
                pending_cur = None
            # ---- move phase (inlined move_forward) ----
            moved = False
            while True:
                if pending_cur is not None:
                    cur = pending_cur
                    pending_cur = None
                else:
                    cur = yield read_anchor
                if cur.id >= segm.id:
                    moved = True
                    break
                # Inlined try_inc_pointers(segm).
                inc_ok = False
                while True:
                    value = yield read_of(segm._cnt)
                    if value % K1 == K and value // K1 == 0:
                        break  # logically removed: cannot take a pointer
                    ok = yield Cas(segm._cnt, value, value + K1)
                    if ok:
                        inc_ok = True
                        break
                if not inc_ok:
                    break  # re-run the find phase
                ok = yield Cas(anchor, cur, segm)
                if ok:
                    # Inlined cur.dec_pointers().
                    old = yield Faa(cur._cnt, -K1)
                    if (old - K1) % K1 == K and (old - K1) // K1 == 0:
                        yield from cur.remove()
                    moved = True
                    break
                # Inlined segm.dec_pointers() after the lost anchor CAS.
                old = yield Faa(segm._cnt, -K1)
                if (old - K1) % K1 == K and (old - K1) // K1 == 0:
                    yield from segm.remove()
            if moved:
                return segm

    # ------------------------------------------------------------------
    # Test helpers (non-simulated; run only between scheduler steps)
    # ------------------------------------------------------------------

    def iter_segments(self) -> list[Segment]:
        """Snapshot of segments reachable from the first one (tests)."""

        out = []
        cur: Optional[Segment] = self.first
        while cur is not None:
            out.append(cur)
            cur = cur._next.value
        return out

    def alive_count(self) -> int:
        """Number of reachable, non-removed segments (tests)."""

        return sum(1 for seg in self.iter_segments() if not seg.removed_now)
