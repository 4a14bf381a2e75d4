"""``net-open``: one ``repro.net`` worker under open- and closed-loop load.

The server is one ``python -m repro.net`` process.  This process holds
two connections to it: a producer that sends over eight named channels
(half rendezvous, half buffered at c=64; payloads of 64 B, or 4 KiB one
time in eight; protocol v2), and a consumer that keeps ``RECV_WINDOW``
receives pipelined per channel.  Nothing may be lost or duplicated.

``rate.*`` is the saturated throughput: the median over closed-loop
passes that keep ``SATURATION_WINDOW`` sends in flight, each pass in
calibrated seconds.  A saturated server is bound by the core it runs on,
and the host's speed phases differ between cores, so the reference
kernel is timed on the server's core (:class:`ServerCoreReference`):
the server is pinned to one CPU, and between passes, while it is idle,
this process moves onto that CPU for its reference slices.  A reference
kernel timed on the client's core did not track the server (see
NOTES.md).  The open-loop ladder the service metric calls for -- the
highest Poisson offered rate whose delivery p99 meets ``P99_LIMIT_MS``
with no growing backlog -- runs in the traced pass and is reported as
``net.ladder_rate``: the server's collector stalls for 30-300 ms every
few seconds, so whether a one-second step meets a p99 limit is a
lottery, and the ladder's result spread by 40 % between runs (see
NOTES.md).

Open-loop latency is timed from each message's *due* time, so a stall of
the generator or the server is charged to every message it delays; the
generator's own lateness is ``net.lag_p99_ms``.  A ladder step whose
generator lag p99 exceeds ``LAG_LIMIT_MS`` is invalid: it neither meets
nor misses the limit, and is run again once.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from . import calib
from .common import (HERE, SETUP_PAIRS, Context, Outcome, Passes, SetupProbe, host_metrics,
                     import_breakdown, peak_rss_mb)
from .stats import median, percentile_or_none

#: The eight named channels: (name, capacity).
CHANNELS = tuple((f"rz{i}", 0) for i in range(4)) + tuple((f"buf{i}", 64) for i in range(4))
#: Channel of the set-up launches' first op.
SETUP_CHANNEL = "setup"
SMALL, LARGE = 64, 4096
RECV_WINDOW = 4
P99_LIMIT_MS = 25.0
LAG_LIMIT_MS = 5.0
STEP_S = 1.0
#: Fixed offered rates (msg/s) of the low- and high-load latency points.
LOW_RATE = 1200.0
HIGH_RATE = 2400.0
#: Ladder: start, growth factor, and bisection steps after the first miss.
LADDER_START = 1200.0
LADDER_FACTOR = 1.25
BISECT_STEPS = 3
DRAIN_TIMEOUT_S = 3.0
#: Reference-kernel slices taken before and after the traced run's load,
#: reported as ``host.ref_*`` diagnostics only.
REF_SLICES = 3
#: Closed-loop saturation passes: sends in flight, messages per pass.
#: A pass (~0.35 s) is shorter than the host's speed phases, so the
#: reference slices around it see the same phase.
SATURATION_WINDOW = 64
PASS_MESSAGES = 2000
#: Reference slices timed on the server's core after each pass; their
#: median is that side's reference time.
CORE_REF_SLICES = 3
#: The server's peak RSS grows with the messages it has served, so it is
#: read after this many passes (30000 messages), which every run completes.
RSS_PASSES = 15
_SEQ = struct.Struct("!Q")


@dataclass
class Step:
    offered: float
    sent: int = 0
    achieved: float = 0.0
    delivery_ms: list = field(default_factory=list)
    ack_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    backlog_max: int = 0
    backlog_mid: int = 0
    backlog_end: int = 0
    drained: bool = True
    p99: Optional[float] = None

    @property
    def lag_p99(self) -> float:
        return percentile_or_none(self.lag_ms, 0.99) or max(self.lag_ms, default=0.0)

    @property
    def valid(self) -> bool:
        return self.lag_p99 <= LAG_LIMIT_MS

    @property
    def growing(self) -> bool:
        """Backlog at the end of the step more than doubled since its middle."""

        return self.backlog_end > max(16, 2 * self.backlog_mid)

    @property
    def meets(self) -> bool:
        """Drained, no growing backlog, and delivery p99 within the limit."""

        return (self.drained and not self.growing and self.p99 is not None
                and self.p99 <= P99_LIMIT_MS)


class Load:
    """The client side: producer and consumer connections, loss accounting."""

    def __init__(self, port: int, rng: random.Random):
        self.port = port
        self.rng = rng
        self.seq = 0
        self.due: dict[int, float] = {}
        self.delivered: set[int] = set()
        self.duplicates = 0
        self.corrupt = 0
        self.step: Optional[Step] = None
        self._send_tasks: set = set()
        self._recv_tasks: list = []

    async def open(self) -> None:
        from repro.net import connect

        self.producer = await connect("127.0.0.1", self.port)
        self.consumer = await connect("127.0.0.1", self.port)
        self.out_chans = [await self.producer.channel(n, capacity=c) for n, c in CHANNELS]
        self.in_chans = [await self.consumer.channel(n, capacity=c) for n, c in CHANNELS]
        for ch in self.in_chans:
            for _ in range(RECV_WINDOW):
                self._recv_tasks.append(asyncio.get_running_loop().create_task(self._receive(ch)))

    async def _receive(self, ch: Any) -> None:
        from repro.errors import ChannelClosedForReceive

        while True:
            try:
                payload = await ch.receive()
            except ChannelClosedForReceive:
                return
            now = time.perf_counter()
            (seq,) = _SEQ.unpack_from(payload)
            if len(payload) not in (SMALL, LARGE):
                self.corrupt += 1
            if seq in self.delivered:
                self.duplicates += 1
                continue
            self.delivered.add(seq)
            due = self.due.pop(seq, None)
            if due is None:
                self.corrupt += 1
            elif self.step is not None:
                self.step.delivery_ms.append((now - due) * 1000)

    async def _send(self, ch: Any, payload: bytes, due: float, step: Step) -> None:
        await ch.send(payload)
        step.ack_ms.append((time.perf_counter() - due) * 1000)

    def _payload(self, seq: int) -> bytes:
        size = LARGE if self.rng.random() < 1 / 8 else SMALL
        return _SEQ.pack(seq) + bytes(size - _SEQ.size)

    async def run_step(self, offered: float, seconds: float) -> Step:
        step = Step(offered)
        self.step = step
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        due = start
        end = start + seconds
        mid = start + seconds / 2
        while True:
            due += self.rng.expovariate(offered)
            if due >= end:
                break
            if due < mid:
                step.backlog_mid = len(self.due)
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            step.lag_ms.append((now - due) * 1000)
            self.seq += 1
            self.due[self.seq] = due
            ch = self.out_chans[self.rng.randrange(len(self.out_chans))]
            task = loop.create_task(self._send(ch, self._payload(self.seq), due, step))
            self._send_tasks.add(task)
            task.add_done_callback(self._send_tasks.discard)
            step.sent += 1
            step.backlog_max = max(step.backlog_max, len(self.due))
        step.achieved = step.sent / seconds
        step.backlog_end = len(self.due)
        step.drained = await self.drain()
        step.p99 = percentile_or_none(step.delivery_ms, 0.99)
        self.step = None
        return step

    async def run_saturated(self, messages: int) -> Step:
        """Closed loop: ``messages`` sends, ``SATURATION_WINDOW`` in flight."""

        step = Step(0.0)
        self.step = step
        loop = asyncio.get_running_loop()
        slots = asyncio.Semaphore(SATURATION_WINDOW)
        start = time.perf_counter()
        for _ in range(messages):
            await slots.acquire()
            now = time.perf_counter()
            self.seq += 1
            self.due[self.seq] = now
            ch = self.out_chans[self.rng.randrange(len(self.out_chans))]
            task = loop.create_task(self._send(ch, self._payload(self.seq), now, step))
            self._send_tasks.add(task)
            task.add_done_callback(self._send_tasks.discard)
            task.add_done_callback(lambda _: slots.release())
            step.sent += 1
        step.drained = await self.drain()
        step.achieved = messages / (time.perf_counter() - start)
        self.step = None
        return step

    async def drain(self) -> bool:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while (self.due or self._send_tasks) and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        return not self.due and not self._send_tasks

    async def close(self) -> None:
        for ch in self.out_chans:
            await ch.close()
        await asyncio.wait_for(asyncio.gather(*self._recv_tasks), timeout=10)
        for task in self._send_tasks:
            await task
        await self.producer.close()
        await self.consumer.close()


class Server:
    """One ``repro.net`` worker process (optionally behind the tracing launcher)."""

    def __init__(self, ctx: Context, trace_path: Optional[str] = None):
        if trace_path is None:
            argv = [sys.executable, "-m", "repro.net", "--port", "0"]
        else:
            argv = [sys.executable, os.path.join(HERE, "net_server.py"), trace_path, "--port", "0"]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     env=ctx.env(), cwd=ctx.root, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.port = int(line)
        self.pid = self.proc.pid

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def io(self) -> dict[str, int]:
        with open(f"/proc/{self.pid}/io") as f:
            return {k: int(v) for k, v in (line.split(": ") for line in f)}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class ServerCoreReference:
    """Reference-kernel slices timed on the core the server is pinned to.

    The server is pinned to the last CPU of this process's affinity set.
    ``measure()`` -- called between passes, while the server is idle --
    moves this process onto that CPU, times ``CORE_REF_SLICES`` slices of
    the reference kernel, and moves it back; it returns their median.
    With a single usable CPU, or where pinning is refused, nothing is
    pinned and the slices run wherever the scheduler puts them.
    """

    def __init__(self, server_pid: int, kernel: Optional[calib.RefKernel] = None):
        self.kernel = kernel if kernel is not None else calib.RefKernel()
        self.home = os.sched_getaffinity(0)
        self.cpu = max(self.home)
        self.pinned = False
        if len(self.home) > 1:
            try:
                os.sched_setaffinity(server_pid, {self.cpu})
                self.pinned = True
            except OSError:
                pass
        self.refs: list[float] = []

    def measure(self) -> float:
        if self.pinned:
            os.sched_setaffinity(0, {self.cpu})
        try:
            t = median([self.kernel.slice() for _ in range(CORE_REF_SLICES)])
        finally:
            if self.pinned:
                os.sched_setaffinity(0, self.home)
        self.refs.append(t)
        return t


def calibrated_pass_rate(messages: int, raw_rate: float, before: float, after: float) -> float:
    """A pass's rate in messages per calibrated second."""

    return calib.rate(messages, calib.calibrated_seconds(messages / raw_rate, (before + after) / 2))


def loopback() -> tuple[int, int]:
    """(bytes, packets) sent over the loopback interface so far.

    Linux does not count socket ``send``/``recv`` in ``/proc/<pid>/io``,
    so the wire traffic between client and server is read here; in this
    benchmark's network namespace only the client and server use it.
    """

    with open("/proc/net/dev") as f:
        for line in f:
            name, _, rest = line.partition(":")
            if name.strip() == "lo":
                fields = rest.split()
                return int(fields[8]), int(fields[9])
    return 0, 0


def client_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def ladder(steps: list[Step]) -> Optional[Step]:
    """The best valid step that meets the limit, if any."""

    ok = [s for s in steps if s.valid and s.meets]
    return max(ok, key=lambda s: s.offered) if ok else None


async def _ladder(load: Load, out: Outcome) -> list[Step]:
    steps: list[Step] = []

    async def run(rate: float) -> Step:
        for _ in range(2):
            step = await load.run_step(rate, STEP_S)
            if step.valid:
                break
        steps.append(step)
        out.attempted += step.sent
        return step

    lo, hi = 0.0, None
    rate = LADDER_START
    while hi is None:
        step = await run(rate)
        if step.valid and step.meets:
            lo, rate = rate, rate * LADDER_FACTOR
        else:
            hi = rate
    # Below the first step a p99 has too few samples to meet the limit.
    for _ in range(BISECT_STEPS if lo else 0):
        rate = (lo + hi) / 2
        step = await run(rate)
        if step.valid and step.meets:
            lo = rate
        else:
            hi = rate
    return steps


def check_accounting(out: Outcome, load: Load) -> None:
    lost = load.seq - len(load.delivered)
    out.check(lost == 0, f"{lost} messages lost")
    out.check(load.duplicates == 0, f"{load.duplicates} messages duplicated")
    out.check(load.corrupt == 0, f"{load.corrupt} messages corrupt or unknown")
    out.failed += lost + load.duplicates + load.corrupt


def measure(ctx: Context) -> Outcome:
    """Saturated throughput, in msg per calibrated second, over repeated passes."""

    out = Outcome()
    server = Server(ctx)
    try:
        probe = SetupProbe(ctx, "net-open", SETUP_PAIRS, (str(server.port),))
        core = ServerCoreReference(server.pid)

        async def main() -> tuple[list[Step], list[float], Load, float]:
            load = Load(server.port, ctx.rng)
            await load.open()
            await load.run_step(LOW_RATE, STEP_S)  # warm-up, not reported
            steps: list[Step] = []
            rates: list[float] = []
            passes = Passes(ctx.seconds)
            before = core.measure()
            while passes.more() or len(steps) < RSS_PASSES:
                if probe.due():
                    probe.launch_pair()
                    before = core.measure()
                step = await load.run_saturated(PASS_MESSAGES)
                after = core.measure()
                out.attempted += step.sent
                steps.append(step)
                rates.append(calibrated_pass_rate(PASS_MESSAGES, step.achieved, before, after))
                before = after
                if len(steps) == RSS_PASSES:
                    rss = server.peak_rss_mb()
            probe.finish(out)
            await load.close()
            return steps, rates, load, rss

        steps, rates, load, rss = asyncio.run(main())
        check_accounting(out, load)
        out.check(all(s.drained for s in steps), "a saturated pass did not drain")
        raw = median([s.achieved for s in steps])
        value = median(rates)
        out.put("rate.c", value)
        out.put("rate.py", value)
        out.say(f"rate (one engine path) raw={raw:.1f} msg/s calibrated={value:.1f} msg/s "
                f"passes={len(steps)} ref on server core={median(core.refs) * 1000:.2f}ms "
                f"pinned={core.pinned}")
        out.put("peak_rss_mb", rss)
    finally:
        server.stop()
    return out


def trace(ctx: Context) -> Outcome:
    """Fixed-rate points with /proc accounting, then a traced server pass."""

    import json

    out = Outcome()
    server = Server(ctx)
    try:
        for name, value in import_breakdown(ctx, "net-open", (str(server.port),)).items():
            out.put(name, value)
        cal = calib.Calibrator()

        async def main() -> dict:
            load = Load(server.port, ctx.rng)
            await load.open()
            await load.run_step(LOW_RATE, STEP_S)
            cpu0, io0, ccpu0, lo0, sent0 = (server.cpu_s(), server.io(), client_cpu_s(),
                                            loopback(), load.seq)
            low = await load.run_step(LOW_RATE, 3 * STEP_S)
            high = await load.run_step(HIGH_RATE, 3 * STEP_S)
            msgs = load.seq - sent0
            cpu1, io1, ccpu1, lo1 = server.cpu_s(), server.io(), client_cpu_s(), loopback()
            steps = await _ladder(load, out)
            await load.close()
            return {"load": load, "low": low, "high": high, "msgs": msgs, "ladder": ladder(steps),
                    "cpu": cpu1 - cpu0, "ccpu": ccpu1 - ccpu0,
                    "syscalls": (io1["syscr"] + io1["syscw"]) - (io0["syscr"] + io0["syscw"]),
                    "bytes": (io1["rchar"] + io1["wchar"]) - (io0["rchar"] + io0["wchar"]),
                    "wire": (lo1[0] - lo0[0], lo1[1] - lo0[1])}

        for _ in range(REF_SLICES):
            cal.reference()
        r = asyncio.run(main())
        for _ in range(REF_SLICES):
            cal.reference()
        check_accounting(out, r["load"])
        low, high, msgs = r["low"], r["high"], r["msgs"]
        out.attempted += msgs
        out.put("net.delivery_p50_ms.low", median(low.delivery_ms))
        out.put("net.delivery_p99_ms.low", low.p99 or max(low.delivery_ms))
        out.put("net.delivery_p99_ms.high", high.p99 or max(high.delivery_ms))
        out.put("net.ack_p99_ms.low", percentile_or_none(low.ack_ms, 0.99) or max(low.ack_ms))
        out.put("net.server_cpu_us_per_msg", r["cpu"] * 1e6 / msgs)
        out.put("net.client_cpu_us_per_msg", r["ccpu"] * 1e6 / msgs)
        out.put("net.server_syscalls_per_msg", r["syscalls"] / msgs)
        out.put("net.server_bytes_per_msg", r["bytes"] / msgs)
        out.put("net.wire_bytes_per_msg", r["wire"][0] / msgs)
        out.put("net.wire_packets_per_msg", r["wire"][1] / msgs)
        out.put("net.lag_p99_ms", max(low.lag_p99, high.lag_p99))
        out.put("net.backlog_max", max(low.backlog_max, high.backlog_max))
        out.put("net.ladder_rate", r["ladder"].achieved if r["ladder"] else 0.0)
        host_metrics(out, cal.refs)
    finally:
        server.stop()

    # Traced pass: the same low-rate point against a traced server.
    spans = os.path.join(ctx.out_dir, "spans-net")
    t0 = time.perf_counter()
    untraced = _fixed_rate_server_cpu(ctx, out, None)
    traced = _fixed_rate_server_cpu(ctx, out, spans)
    with open(spans + ".json") as f:
        shares = json.load(f)
    for layer in ("protocol", "registry", "server", "iobuf"):
        out.put(f"net.server.{layer}.share", shares.get(f"net.{layer}", 0.0))
    for layer in ("aio", "core", "asyncio"):
        out.put(f"net.server.{layer}.share", shares.get(layer, 0.0))
    out.put("trace.overhead", traced / untraced)
    out.say(f"traced server pass took {time.perf_counter() - t0:.1f}s")
    return out


def _fixed_rate_server_cpu(ctx: Context, out: Outcome, trace_path: Optional[str]) -> float:
    """Server CPU seconds for one fixed low-rate step."""

    server = Server(ctx, trace_path)
    try:
        async def main() -> tuple[float, Load]:
            load = Load(server.port, random.Random(ctx.seed))
            await load.open()
            cpu0 = server.cpu_s()
            step = await load.run_step(LOW_RATE, 3 * STEP_S)
            cpu = server.cpu_s() - cpu0
            out.attempted += step.sent
            await load.close()
            return cpu, load

        cpu, load = asyncio.run(main())
        check_accounting(out, load)
        return cpu
    finally:
        server.stop()
