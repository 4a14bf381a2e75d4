"""Tests for the segment-list infinite array (Listing 6, Appendix B)."""

import gc

import pytest

from repro.concurrent import Read, RefCell, Write
from repro.core import BufferedChannel, RendezvousChannel
from repro.core.segments import DEFAULT_SEGMENT_SIZE, Segment, SegmentList
from repro.sim import Scheduler, explore, run_all
from repro.verify.fuzz import fuzz_segment_churn

from conftest import run_tasks


def drive(gen):
    """Run a single segment-list operation to completion, return result."""

    sched = Scheduler()

    def body(out):
        out.append((yield from gen))

    out = []
    sched.spawn(body(out))
    sched.run()
    return out[0]


def drive_none(gen):
    sched = Scheduler()

    def body():
        yield from gen

    sched.spawn(body())
    sched.run()


class TestConstruction:
    def test_default_segment_size_is_papers(self):
        assert DEFAULT_SEGMENT_SIZE == 32

    def test_first_segment_holds_anchor_pointers(self):
        sl = SegmentList(seg_size=4, anchors=3)
        assert sl.first._cnt.value == 3 * (4 + 1)
        assert not sl.first.removed_now

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SegmentList(seg_size=0)
        with pytest.raises(ValueError):
            SegmentList(anchors=0)

    def test_make_anchor_points_to_first(self):
        sl = SegmentList(seg_size=4)
        anchor = sl.make_anchor("S")
        assert anchor.value is sl.first


class TestFindSegment:
    def test_grows_list_on_demand(self):
        sl = SegmentList(seg_size=4)
        seg = drive(sl.find_segment(sl.first, 3))
        assert seg.id == 3
        assert [s.id for s in sl.iter_segments()] == [0, 1, 2, 3]
        assert sl.segments_allocated == 4

    def test_finds_existing_segment(self):
        sl = SegmentList(seg_size=4)
        drive(sl.find_segment(sl.first, 2))
        allocated = sl.segments_allocated
        seg = drive(sl.find_segment(sl.first, 1))
        assert seg.id == 1
        assert sl.segments_allocated == allocated  # no new allocation

    def test_concurrent_growth_allocates_each_id_once(self):
        sl = SegmentList(seg_size=2)
        found = []

        def grower(seg_id):
            seg = yield from sl.find_segment(sl.first, seg_id)
            found.append(seg.id)

        run_tasks(*(grower(i) for i in (3, 3, 2, 4, 4)), seed=5)
        assert sorted(found) == [2, 3, 3, 4, 4]
        ids = [s.id for s in sl.iter_segments()]
        assert ids == sorted(set(ids))  # unique, ordered ids


class TestPointerCounting:
    def test_inc_dec_pointers(self):
        sl = SegmentList(seg_size=2, anchors=1)
        seg = drive(sl.find_segment(sl.first, 1))
        assert drive(seg.try_inc_pointers()) is True
        assert drive(seg.dec_pointers()) is False  # not removed: 0 interrupted

    def test_dec_to_zero_with_all_interrupted_reports_removed(self):
        sl = SegmentList(seg_size=2, anchors=1)
        seg = drive(sl.find_segment(sl.first, 1))
        drive(seg.try_inc_pointers())
        # Interrupt both cells (only the counter matters here).
        drive_none(seg.on_interrupted_cell())
        drive_none(seg.on_interrupted_cell())
        assert drive(seg.dec_pointers()) is True
        assert seg.removed_now

    def test_try_inc_fails_on_removed_segment(self):
        sl = SegmentList(seg_size=1, anchors=1)
        seg = drive(sl.find_segment(sl.first, 1))
        drive(sl.find_segment(sl.first, 2))  # ensure seg 1 is not the tail
        drive_none(seg.on_interrupted_cell())
        assert seg.removed_now
        assert drive(seg.try_inc_pointers()) is False


class TestRemoval:
    def _setup(self, seg_size=2, upto=4):
        sl = SegmentList(seg_size=seg_size, anchors=1)
        drive(sl.find_segment(sl.first, upto))
        return sl

    def _interrupt_all(self, seg):
        for _ in range(seg.K):
            drive_none(seg.on_interrupted_cell())

    def test_fully_interrupted_segment_unlinks(self):
        sl = self._setup()
        seg1 = sl.iter_segments()[1]
        self._interrupt_all(seg1)
        assert seg1.removed_now
        ids = [s.id for s in sl.iter_segments() if not s.removed_now]
        assert 1 not in ids
        # Physically unlinked: first.next skips it.
        assert sl.first._next.value.id == 2

    def test_tail_segment_is_never_removed(self):
        sl = self._setup(upto=2)
        tail = sl.iter_segments()[-1]
        self._interrupt_all(tail)
        assert tail.removed_now  # logically removed...
        assert tail in sl.iter_segments()  # ...but still linked

    def test_tail_removal_happens_after_growth(self):
        sl = self._setup(upto=2)
        tail = sl.iter_segments()[-1]
        self._interrupt_all(tail)
        drive(sl.find_segment(sl.first, 3))  # growing past re-runs removal
        assert tail not in sl.iter_segments()

    def test_removing_a_run_of_segments(self):
        sl = self._setup(upto=5)
        segs = sl.iter_segments()
        for seg in segs[1:4]:
            self._interrupt_all(seg)
        alive = [s.id for s in sl.iter_segments() if not s.removed_now]
        assert alive == [0, 4, 5]
        assert sl.first._next.value.id == 4

    def test_prev_pointers_rewired(self):
        sl = self._setup(upto=3)
        segs = sl.iter_segments()
        self._interrupt_all(segs[1])
        self._interrupt_all(segs[2])
        seg3 = sl.iter_segments()[-1]
        prev = seg3._prev.value
        assert prev is None or prev.id == 0

    def test_clean_prev_unlinks_backwards(self):
        sl = self._setup(upto=2)
        seg2 = sl.iter_segments()[2]
        drive_none(seg2.clean_prev())
        assert seg2._prev.value is None


class TestMoveForward:
    def test_anchor_advances(self):
        sl = SegmentList(seg_size=2, anchors=1)
        anchor = sl.make_anchor("S")
        seg = drive(sl.find_and_move_forward(anchor, sl.first, 3))
        assert seg.id == 3
        assert anchor.value.id == 3

    def test_anchor_never_moves_backwards(self):
        sl = SegmentList(seg_size=2, anchors=1)
        anchor = sl.make_anchor("S")
        drive(sl.find_and_move_forward(anchor, sl.first, 3))
        seg = drive(sl.find_and_move_forward(anchor, sl.first, 1))
        assert seg.id == 1  # the segment is found ...
        assert anchor.value.id == 3  # ... but the anchor stays ahead

    def test_moving_off_interrupted_segment_removes_it(self):
        sl = SegmentList(seg_size=1, anchors=1)
        anchor = sl.make_anchor("S")
        drive(sl.find_segment(sl.first, 2))
        seg1 = sl.iter_segments()[1]
        drive_none(seg1.on_interrupted_cell())  # K=1: fully interrupted
        # With no anchor pointers, the segment is logically removed at
        # once; moving the anchor past it must leave it unlinked.
        drive(sl.find_and_move_forward(anchor, sl.first, 2))
        assert seg1.removed_now or seg1 not in sl.iter_segments()
        assert 1 not in [s.id for s in sl.iter_segments() if not s.removed_now]

    def test_find_skips_removed_segment(self):
        sl = SegmentList(seg_size=1, anchors=1)
        anchor = sl.make_anchor("S")
        drive(sl.find_segment(sl.first, 3))
        seg2 = sl.iter_segments()[2]
        drive_none(seg2.on_interrupted_cell())
        assert seg2.removed_now
        found = drive(sl.find_and_move_forward(anchor, sl.first, 2))
        assert found.id == 3  # skipped the removed id-2 segment

    def test_concurrent_move_forward_explored(self):
        def build(sched):
            sl = SegmentList(seg_size=1, anchors=1)
            anchor = sl.make_anchor("S")
            results = []

            def mover(seg_id):
                seg = yield from sl.find_and_move_forward(anchor, sl.first, seg_id)
                results.append((seg_id, seg.id))

            sched.spawn(mover(1))
            sched.spawn(mover(2))
            return (anchor, results)

        def check(ctx, sched):
            anchor, results = ctx
            assert anchor.value.id == 2
            for want, got in results:
                assert got >= want

        result = explore(build, check, max_schedules=100_000, preemption_bound=2)
        assert result.exhausted


class TestCells:
    def test_cells_start_empty(self):
        sl = SegmentList(seg_size=3)
        seg = sl.first
        for i in range(3):
            assert seg.state_cell(i).value is None
            assert seg.elem_cell(i).value is None

    def test_cells_are_independent(self):
        sl = SegmentList(seg_size=2)

        def writer():
            yield Write(sl.first.state_cell(0), "a")
            yield Write(sl.first.elem_cell(1), "b")

        run_all([writer()])
        assert sl.first.state_cell(0).value == "a"
        assert sl.first.state_cell(1).value is None
        assert sl.first.elem_cell(1).value == "b"


class TestReclamation:
    """Segments are freed by reachability alone (the paper's GC model)."""

    @staticmethod
    def _churn(channels: int) -> None:
        # Pure-Python tier: the compiled tier's kernel cache deliberately
        # holds a bounded number of recent channels.
        for i in range(channels):
            if i % 2:
                ch = BufferedChannel(2, seg_size=4)
            else:
                ch = RendezvousChannel(seg_size=4)
            sched = Scheduler(engine="py")

            def producer(ch=ch):
                for v in range(40):
                    yield from ch.send(v)

            def consumer(ch=ch):
                for _ in range(40):
                    yield from ch.receive()

            sched.spawn(producer())
            sched.spawn(consumer())
            sched.run()

    @staticmethod
    def _live_segments() -> int:
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is Segment)

    def test_dropped_channels_leave_no_segments_behind(self):
        # Compared against the 10-channel count, not zero: the pooled op
        # kits may still reference the most recent channel's segments.
        base = self._live_segments()
        self._churn(10)
        after_10 = self._live_segments() - base
        self._churn(30)
        after_30 = self._live_segments() - base
        assert after_30 <= after_10, (after_10, after_30)


class TestChurnFuzz:
    def test_storm_conserves_elements_and_removes_segments(self):
        totals = fuzz_segment_churn(cases=20, seed=1, seg_size=2)
        assert totals["removing_cases"] > 0
