"""Tests of the benchmark's own code.

Run from the repository root (the compiled tier is not needed)::

    PYTHONPATH=src python3 -m pytest -q chanbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from chanbench import calib, explorer, fig5, netload, observed, stats  # noqa: E402
from chanbench.common import Outcome  # noqa: E402
from chanbench.points import FIG5_POINTS, OBS_POINTS, run_point  # noqa: E402
from chanbench.tracer import Tracer, layer_of, self_times  # noqa: E402


# -- percentiles --------------------------------------------------------------


def test_nearest_rank_picks_measured_values():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 0.5) == 50
    assert stats.nearest_rank(values, 0.99) == 99
    assert stats.nearest_rank(values, 1.0) == 100
    assert stats.nearest_rank([7.0], 0.99) == 7.0
    assert stats.nearest_rank([3, 1, 2], 0.34) == 2


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        stats.nearest_rank([1], 0.0)


def test_tail_needs_ten_samples_beyond():
    assert stats.percentile_or_none(list(range(1000)), 0.99) == 989
    # 999 samples: rank 990, nine beyond -> no p99.
    assert stats.percentile_or_none(list(range(999)), 0.99) is None
    assert stats.percentile_or_none(list(range(20)), 0.5) == 9
    assert stats.percentile_or_none(list(range(15)), 0.5) is None
    assert stats.beyond(100, 0.9) == 10


def test_iqr_share():
    assert stats.iqr_share([10.0]) == 0.0
    assert stats.iqr_share([10.0] * 5) == 0.0
    assert stats.iqr_share([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


# -- calibrated-rate arithmetic --------------------------------------------------


def test_calibrated_seconds_scales_by_reference():
    nominal = calib.REF_NOMINAL_S
    assert calib.calibrated_seconds(1.0, nominal) == pytest.approx(1.0)
    # A host running 1.6x slow doubles neither: both slices slow alike.
    assert calib.calibrated_seconds(1.6, 1.6 * nominal) == pytest.approx(1.0)
    assert calib.Slice(0.5, 2 * nominal).calibrated == pytest.approx(0.25)
    with pytest.raises(ValueError):
        calib.calibrated_seconds(1.0, 0.0)


def test_sweep_rate_uses_per_point_medians():
    samples = {"a": [1.0, 3.0, 2.0], "b": [0.5, 100.0, 0.5]}
    assert calib.sweep_seconds(samples) == pytest.approx(2.5)
    assert calib.rate(500, 2.5) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        calib.rate(1, 0.0)


def test_calibrated_setup_is_median_ratio_times_nominal():
    pairs = [(0.5, 0.25), (0.6, 0.25), (10.0, 0.25)]
    assert calib.calibrated_setup_s(pairs) == pytest.approx(2.4 * calib.REF_LAUNCH_NOMINAL_S)
    with pytest.raises(ValueError):
        calib.calibrated_setup_s([])


def test_calibrator_brackets_each_slice():
    class FakeKernel:
        times = iter([0.02, 0.04, 0.06])

        def slice(self):
            return next(self.times)

    cal = calib.Calibrator(FakeKernel())
    try:
        _, first = cal.timed(lambda: None)
        _, second = cal.timed(lambda: None)
    finally:
        cal.close()
    assert first.ref == pytest.approx(0.03)
    assert second.ref == pytest.approx(0.05)
    assert cal.refs == [0.02, 0.04, 0.06]



def test_sampled_seconds_calibrates_each_sub_slice_by_its_references():
    nominal = calib.REF_NOMINAL_S
    assert calib.sampled_seconds([1.0], [nominal, nominal]) == pytest.approx(1.0)
    # The host slows to 2x after the first sub-slice: the second one is
    # calibrated by the mean of the references around it (1.5x).
    got = calib.sampled_seconds([1.0, 1.5], [nominal, nominal, 2 * nominal])
    assert got == pytest.approx(1.0 + 1.0)
    with pytest.raises(ValueError):
        calib.sampled_seconds([1.0, 1.0], [nominal, nominal])


def test_calibrator_takes_references_inside_a_long_slice():
    class SlowHost:
        """A host at half speed: every reference slice takes twice nominal."""

        steps = 1000

        def run(self, steps):
            return 2 * calib.REF_NOMINAL_S

        def slice(self):
            return self.run(self.steps)

    cal = calib.Calibrator(SlowHost())
    try:
        _, sl = cal.timed(time.sleep, 3.5 * calib.SAMPLE_INTERVAL_S)
    finally:
        cal.close()
    # Before and after the slice, and at least three from the timer.
    assert len(cal.refs) >= 5
    assert sl.raw == pytest.approx(3.5 * calib.SAMPLE_INTERVAL_S, rel=0.5)
    assert sl.calibrated == pytest.approx(sl.raw / 2)


def test_net_pass_rate_is_calibrated_by_the_server_core_reference():
    nominal = calib.REF_NOMINAL_S
    assert netload.calibrated_pass_rate(3000, 1000.0, nominal, nominal) == pytest.approx(1000.0)
    # A host running 2x slow on the server's core halved the raw rate.
    assert netload.calibrated_pass_rate(3000, 1000.0, nominal, 3 * nominal) == pytest.approx(2000.0)


def test_server_core_reference_pins_the_server_and_moves_back():
    class Kernel:
        times = iter([0.03, 0.01, 0.02])

        def slice(self):
            return next(self.times)

    home = os.sched_getaffinity(0)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        ref = netload.ServerCoreReference(child.pid, Kernel())
        assert ref.measure() == pytest.approx(0.02)
        assert os.sched_getaffinity(0) == home
        if len(home) > 1:
            assert ref.pinned and os.sched_getaffinity(child.pid) == {max(home)}
    finally:
        child.kill()
        child.wait()



# -- spans and self time ---------------------------------------------------------


def test_self_time_subtracts_children():
    # root [0, 100) with children [10, 30) and [40, 90); grandchild [50, 60).
    parent = [-1, 0, 0, 2]
    start = [0, 10, 40, 50]
    end = [100, 30, 90, 60]
    assert self_times(parent, start, end) == [30, 20, 40, 10]


def test_layer_of_maps_modules():
    sep = os.sep
    base = f"{sep}x{sep}src{sep}repro{sep}"
    assert layer_of(base + f"core{sep}buffered.py") == "core"
    assert layer_of(base + f"bench{sep}workload.py") == "bench.workload"
    assert layer_of(base + f"bench{sep}harness.py") == "bench"
    assert layer_of(base + f"net{sep}protocol.py") == "net.protocol"
    assert layer_of(base + f"sim{sep}explore.py") == "sim.explore"
    assert layer_of(base + f"sim{sep}scheduler.py") == "sim"
    assert layer_of(f"{sep}usr{sep}lib{sep}asyncio{sep}events.py") == "asyncio"
    assert layer_of(calib.__file__) == "harness"


def test_tracer_opens_spans_at_layer_boundaries_only():
    from repro.core import RendezvousChannel
    from repro.sim import Scheduler

    def scenario():
        sched = Scheduler()
        ch = RendezvousChannel()

        def p():
            yield from ch.send(1)

        def c():
            return (yield from ch.receive())

        sched.spawn(p())
        sched.spawn(c())
        sched.run()

    tracer = Tracer()
    with tracer:
        scenario()
    layers = tracer.layer_self()
    assert layers["core"] > 0 and layers["sim"] > 0
    assert sum(layers.values()) == tracer.wall_ns
    for i in range(len(tracer.name_of)):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.layers[tracer.name_of[p]] != tracer.layers[tracer.name_of[i]]
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


# -- correctness checks fail on their seeded defects -----------------------------


def _fake_result(**kw):
    base = dict(makespan=100, throughput=5.0, steps=10, channel_stats={}, engine="py")
    base.update(kw)
    return types.SimpleNamespace(**base)


def test_pinned_check_catches_a_changed_makespan():
    point = FIG5_POINTS[0]
    pinned = {f"{point.key}/v0": [100, 5.0]}
    out = Outcome()
    assert fig5.check_pinned(out, point, 0, _fake_result(), pinned)
    assert out.correct
    assert not fig5.check_pinned(out, point, 0, _fake_result(makespan=101), pinned)
    assert not out.correct


def test_pinned_check_holds_for_a_real_point():
    from chanbench import pins

    point = next(p for p in FIG5_POINTS if p.impl == "faa-channel" and p.threads == 4)
    out = Outcome()
    fig5.check_pinned(out, point, 1, run_point(point, 1, "py"), pins.load()["fig5"])
    assert out.correct, out.problems


def test_paper_claim_check_catches_a_baseline_win():
    tp = {
        ("rendezvous", "faa-channel", 64): 10.0, ("rendezvous", "java-sync-queue", 64): 3.0,
        ("rendezvous", "koval-2019", 64): 2.0, ("rendezvous", "go-channel", 64): 4.0,
        ("rendezvous", "kotlin-legacy", 64): 1.0, ("buffered", "faa-channel", 64): 9.0,
        ("buffered", "go-channel", 64): 5.0, ("buffered", "kotlin-legacy", 64): 6.0,
    }
    out = Outcome()
    fig5.check_paper_claim(out, tp)
    assert out.correct
    tp[("buffered", "kotlin-legacy", 64)] = 9.5
    fig5.check_paper_claim(out, tp)
    assert not out.correct


def test_twin_check_catches_an_observed_difference():
    point = OBS_POINTS[0]
    out = Outcome()
    assert observed.check_twin(out, point, _fake_result(), _fake_result())
    assert not observed.check_twin(out, point, _fake_result(steps=11), _fake_result())
    assert not out.correct


def test_timeline_check_catches_an_invalid_export(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"traceEvents": []}')
    out = Outcome()
    assert not observed.check_timeline(out, OBS_POINTS[0], str(path), 0)
    assert not out.correct


def test_explorer_reports_the_seeded_ticket_bug():
    out = Outcome()
    explorer.check_ticket_bug(out)
    assert out.correct, out.problems


def test_ticket_check_fails_when_the_bug_goes_unreported(monkeypatch):
    from chanbench import scenarios

    seeded = scenarios.ticket_bug

    def fixed_bug():
        build, outcome = seeded()
        return build, lambda tickets: tuple(sorted(tickets))

    monkeypatch.setattr(scenarios, "ticket_bug", fixed_bug)
    out = Outcome()
    explorer.check_ticket_bug(out)
    assert not out.correct


def test_exhaustion_check_catches_missing_outcomes_and_budget_cuts():
    from chanbench.scenarios import SCENARIOS

    build, outcome = SCENARIOS["close-races-send"]
    run = explorer.exhaust(build, outcome)
    pinned = {"close-races-send": [["closed", None], ["sent", "x"]]}
    out = Outcome()
    explorer.check_exhaustion(out, "close-races-send", run, pinned)
    assert out.correct, out.problems
    cut = explorer.exhaust(build, outcome, max_schedules=3)
    explorer.check_exhaustion(out, "close-races-send", cut, pinned)
    assert not out.correct
    out = Outcome()
    explorer.check_exhaustion(out, "close-races-send", run, {"close-races-send": [["sent", "x"]]})
    assert not out.correct


def test_net_accounting_catches_loss_and_duplicates():
    load = types.SimpleNamespace(seq=10, delivered=set(range(1, 11)), duplicates=0, corrupt=0)
    out = Outcome()
    netload.check_accounting(out, load)
    assert out.correct
    load.delivered.discard(3)
    netload.check_accounting(out, load)
    assert not out.correct and out.failed == 1
    out = Outcome()
    netload.check_accounting(out, types.SimpleNamespace(seq=2, delivered={1, 2}, duplicates=1, corrupt=0))
    assert not out.correct


def test_ladder_ignores_steps_whose_generator_lagged():
    good = netload.Step(1000.0, lag_ms=[0.1] * 100, p99=5.0)
    lagged = netload.Step(2000.0, lag_ms=[netload.LAG_LIMIT_MS * 4] * 100, p99=5.0)
    slow = netload.Step(3000.0, lag_ms=[0.1] * 100, p99=netload.P99_LIMIT_MS * 2)
    assert not lagged.valid
    assert netload.ladder([good, lagged, slow]) is good
    assert netload.ladder([lagged]) is None
    backlog = netload.Step(1500.0, lag_ms=[0.1] * 100, p99=1.0, drained=False)
    assert netload.ladder([good, backlog]) is good


def test_ladder_step_meets_the_limit_on_its_measured_p99():
    assert netload.Step(1000.0, lag_ms=[0.1] * 100, p99=netload.P99_LIMIT_MS).meets
    assert not netload.Step(1000.0, lag_ms=[0.1] * 100, p99=netload.P99_LIMIT_MS * 1.01).meets
    assert not netload.Step(1000.0, lag_ms=[0.1] * 100, p99=None).meets
