"""Run context, result record and the set-up launch schedule."""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from . import calib
from .stats import iqr_share, median

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CHILD = os.path.join(HERE, "setup_child.py")

#: Every per-layer metric and its unit.  A traced run reports all of them;
#: a layer the workload does not exercise reads 0.
PER_LAYER_UNITS: dict[str, str] = {
    "setup.import_s": "s",
    "setup.import.numpy_s": "s",
    "setup.import.asyncio_s": "s",
    "setup.import.repro.net_s": "s",
    "setup.import.repro.sim_s": "s",
    "setup.import.repro.obs_s": "s",
    "setup.first_op_s": "s",
    "sim.loop.share.c": "share",
    "sim.loop.share.py": "share",
    "core.share.c": "share",
    "core.share.py": "share",
    "baselines.share.c": "share",
    "baselines.share.py": "share",
    "concurrent.share.c": "share",
    "concurrent.share.py": "share",
    "bench.workload.share.c": "share",
    "bench.workload.share.py": "share",
    "sim.resumes_per_elem.c": "1/elem",
    "sim.resumes_per_elem.py": "1/elem",
    "core.delegate_calls_per_elem.c": "1/elem",
    "fig5.rate.c.rendezvous": "1/s",
    "fig5.rate.c.buffered": "1/s",
    "fig5.rate.c.cor1000": "1/s",
    "fig5.rate.py.rendezvous": "1/s",
    "fig5.rate.py.buffered": "1/s",
    "fig5.rate.py.cor1000": "1/s",
    "sim.steps_per_elem": "1/elem",
    "core.cells_per_elem": "1/elem",
    "core.restart_ratio": "share",
    "core.suspend_ratio": "share",
    "core.poisoned_fraction": "share",
    "core.segments_per_kelem": "1/kelem",
    "obs.share.c": "share",
    "obs.share.py": "share",
    "obs.export_share": "share",
    "obs.events_per_elem": "1/elem",
    "sim.callouts_per_elem.c": "1/elem",
    "sim.loop.share.obs.c": "share",
    "sim.loop.share.obs.py": "share",
    "explore.schedules": "count",
    "explore.useful_ratio": "share",
    "explore.steps_per_schedule": "1/schedule",
    "explore.schedules_per_s": "1/s",
    "explore.build.share": "share",
    "explore.check.share": "share",
    "explore.run.share": "share",
    "explore.dfs.share": "share",
    "net.delivery_p50_ms.low": "ms",
    "net.delivery_p99_ms.low": "ms",
    "net.delivery_p99_ms.high": "ms",
    "net.ack_p99_ms.low": "ms",
    "net.server_cpu_us_per_msg": "us/msg",
    "net.client_cpu_us_per_msg": "us/msg",
    "net.server_syscalls_per_msg": "1/msg",
    "net.server_bytes_per_msg": "B/msg",
    "net.wire_bytes_per_msg": "B/msg",
    "net.wire_packets_per_msg": "1/msg",
    "net.server.protocol.share": "share",
    "net.server.registry.share": "share",
    "net.server.server.share": "share",
    "net.server.iobuf.share": "share",
    "net.server.aio.share": "share",
    "net.server.core.share": "share",
    "net.server.asyncio.share": "share",
    "net.ladder_rate": "1/s",
    "net.lag_p99_ms": "ms",
    "net.backlog_max": "count",
    "gc.share": "share",
    "host.ref_ms": "ms",
    "host.ref_spread": "share",
    "trace.overhead": "ratio",
}

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "rate.c": "1/s", "rate.py": "1/s"}

#: Engine tiers of the simulated workloads.
TIERS = ("c", "py")
#: Set-up launch pairs per run.
SETUP_PAIRS = 6


@dataclass
class Context:
    root: str
    seed: int
    seconds: float
    ext_dir: str
    out_dir: str
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def env(self) -> dict:
        return calib.child_env(self.root, self.ext_dir)


@dataclass
class Outcome:
    """What a run reports: correctness, op counts and named metrics."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.correct = False
            self.problems.append(problem)
        return ok

    def put(self, name: str, value: float, unit: Optional[str] = None) -> None:
        if unit is None:
            unit = PER_LAYER_UNITS.get(name) or END_TO_END_UNITS[name]
        self.metrics[name] = (float(value), unit)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def result(self, names: list[str]) -> dict:
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]} for n in names
            },
        }


def fill_unexercised(out: Outcome) -> None:
    """Per-layer metrics a workload does not exercise read 0."""

    for name, unit in PER_LAYER_UNITS.items():
        out.metrics.setdefault(name, (0.0, unit))


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""

    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


class Passes:
    """Whole passes of a workload, repeated while another one fits.

    A pass is never cut short.  Another pass starts only while at least
    half of the last pass's duration remains, so a run ends within about
    half a pass of ``seconds``.
    """

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.count = 0
        self._start = 0.0

    def more(self) -> bool:
        now = time.perf_counter()
        if self.count and self.end - now < (now - self._start) / 2:
            return False
        self.count += 1
        self._start = now
        return True


class SetupProbe:
    """Set-up launches spread through a run, each paired with a reference.

    ``maybe()`` is called between program slices and launches one pair
    when the next launch is due, so launches sample the host at many
    points of the run.  Pairs alternate which side launches first.
    """

    def __init__(self, ctx: Context, workload: str, pairs: int, extra: tuple[str, ...] = ()):
        self.ctx = ctx
        self.argv = [sys.executable, SETUP_CHILD, workload, *extra]
        self.target = pairs
        self.pairs: list[tuple[float, float]] = []
        self._start = time.perf_counter()

    def due(self) -> bool:
        if len(self.pairs) >= self.target:
            return False
        interval = self.ctx.seconds / self.target
        return time.perf_counter() - self._start >= interval * len(self.pairs)

    def launch_pair(self) -> None:
        env, cwd = self.ctx.env(), self.ctx.root
        gc.collect()
        if len(self.pairs) % 2:
            ref = calib.reference_launch(env, cwd)
            prog = calib.time_launch(self.argv, env, cwd)[0]
        else:
            prog = calib.time_launch(self.argv, env, cwd)[0]
            ref = calib.reference_launch(env, cwd)
        self.pairs.append((prog, ref))

    def maybe(self) -> None:
        if self.due():
            self.launch_pair()

    def finish(self, out: Outcome) -> None:
        while len(self.pairs) < self.target:
            self.launch_pair()
        raw = median([p for p, _ in self.pairs])
        value = calib.calibrated_setup_s(self.pairs)
        out.put("setup_s", value)
        out.say(f"setup_s raw={raw:.4f}s calibrated={value:.4f}s pairs={len(self.pairs)}")


def import_breakdown(ctx: Context, workload: str, extra: tuple[str, ...] = (), runs: int = 3) -> dict:
    """Median ``-X importtime`` and in-child timings of a set-up launch."""

    wanted = {
        "repro": "setup.import_s",
        "numpy": "setup.import.numpy_s",
        "asyncio": "setup.import.asyncio_s",
        "repro.net": "setup.import.repro.net_s",
        "repro.sim": "setup.import.repro.sim_s",
        "repro.obs": "setup.import.repro.obs_s",
    }
    samples: dict[str, list[float]] = {v: [] for v in wanted.values()}
    samples["setup.first_op_s"] = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", SETUP_CHILD, workload, *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ctx.env(), cwd=ctx.root,
            text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        seen: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (s.strip() for s in line[len("import time:"):].split("|"))
            if name in wanted and cumulative.isdigit():
                seen.setdefault(name, int(cumulative) / 1e6)
        for mod, metric in wanted.items():
            samples[metric].append(seen.get(mod, 0.0))
        timings = json.loads(proc.stdout.splitlines()[1])
        samples["setup.first_op_s"].append(timings["first_op_s"])
    return {k: median(v) for k, v in samples.items()}


def host_metrics(out: Outcome, refs: list[float]) -> None:
    out.put("host.ref_ms", median(refs) * 1000)
    out.put("host.ref_spread", iqr_share(refs))


def measure_sweeps(ctx: Context, out: Outcome, workload: str, points: Sequence[Any],
                   run: Callable[[Any, str], Any], check: Callable[[Any, Any], bool]) -> None:
    """End-to-end metrics of a simulated workload.

    Sweeps ``points`` until ``ctx.seconds`` is used, every point on both
    tiers in alternating order, each ``run(point, tier)`` a calibrated
    slice whose result ``check(point, result)`` must accept.  A tier's
    rate is the points' elements over the sum of the points' median
    calibrated times.
    """

    # The first full-size run in a process is slower (fresh heap); run the
    # heaviest point once per tier, untimed.
    heaviest = max(points, key=lambda p: (p.elements, p.pairs))
    for tier in TIERS:
        run(heaviest, tier)
    cal = calib.Calibrator()
    probe = SetupProbe(ctx, workload, SETUP_PAIRS)
    samples = {(t, kind): defaultdict(list) for t in TIERS for kind in ("raw", "cal")}
    passes = Passes(ctx.seconds)
    while passes.more():
        for i, point in enumerate(points):
            probe.maybe()
            for tier in (TIERS if (i + passes.count) % 2 else TIERS[::-1]):
                result, sl = cal.timed(run, point, tier)
                out.attempted += 1
                if not check(point, result):
                    out.failed += 1
                samples[(tier, "raw")][i].append(sl.raw)
                samples[(tier, "cal")][i].append(sl.calibrated)
    probe.finish(out)
    units = sum(p.elements for p in points)
    for tier in TIERS:
        raw = calib.rate(units, calib.sweep_seconds(samples[(tier, "raw")]))
        value = calib.rate(units, calib.sweep_seconds(samples[(tier, "cal")]))
        out.put(f"rate.{tier}", value)
        out.say(f"rate.{tier} raw={raw:.1f} elem/s calibrated={value:.1f} elem/s "
                f"sweeps={passes.count}")
    out.put("peak_rss_mb", peak_rss_mb())
    host_metrics(out, cal.refs)
