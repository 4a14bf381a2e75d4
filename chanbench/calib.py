"""Host-drift calibration: a reference kernel timed next to the program.

The host this benchmark was tuned on runs at between ~1.05x and ~1.6x of
its best speed and switches every few seconds; CPU time drifts exactly
like wall time.  Raw rates therefore spread by 40-75 % between runs of
identical code.  The remedy is pairing: every timed slice of program work
is bracketed by slices of a fixed *reference kernel* that this benchmark
owns, and the program's time is reported in calibrated seconds::

    calibrated = raw * REF_NOMINAL_S / ref

where ``ref`` is the mean of the two reference slices around the program
slice.  A calibrated second is a second on a host whose reference slice
takes exactly ``REF_NOMINAL_S``.  The kernel resembles the interpreter
work the program does -- it resumes generators from a heap and churns
dicts and attributes -- so it slows down with the host in the same way a
spin loop does not, and its working set is larger than L2.

The host's speed phases change within a fraction of a second, so a
program slice that runs for a second is not tracked by the two
reference slices at its ends.  An interval timer therefore interrupts a
program slice every ``SAMPLE_INTERVAL_S``, and the signal handler runs
one more reference slice: the program slice is cut into sub-slices,
each calibrated by the reference slices on either side
(:func:`sampled_seconds`), and the handler's time is taken out of the
raw time.  A slice shorter than the interval is calibrated by the two
around it alone.  The reference slices evict some of the program's
cache; that cost is the same in every run and stays in the program's
time.

Set-up time is calibrated the same way at process granularity: each
launch of the program is paired with an adjacent launch of a reference
interpreter that imports a similar stdlib+numpy mix
(:func:`time_launch`, :func:`calibrated_setup_s`).
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .stats import median

#: Nominal duration of one reference slice, in seconds.
REF_NOMINAL_S = 0.025

#: Interval of the reference slices taken inside a long program slice.
SAMPLE_INTERVAL_S = 0.2

#: Nominal duration of one reference launch, in seconds.
REF_LAUNCH_NOMINAL_S = 0.25

#: What the reference launch imports: roughly the stdlib+numpy mix that
#: ``import repro`` pulls in, so that disk-cache and loader effects pair up.
REF_LAUNCH_CODE = (
    "import asyncio, argparse, dataclasses, hashlib, heapq, json, random, "
    "struct, typing, numpy\n"
    "print('ready', flush=True)\n"
)


class _Node:
    """One record of the kernel's table; attributes live in its __dict__."""

    def __init__(self, key: str, rng: random.Random):
        self.key = key
        self.hits = 0
        self.weight = rng.random()
        self.tag = {"a": 0, "b": 1}


def _worker(table: dict, keys: list, start: int, stride: int):
    """Generator task: touches scattered records, yields its next wake time."""

    i = start
    n = len(keys)
    now = 0
    while True:
        node = table[keys[i]]
        node.hits += 1
        tag = node.tag
        tag["a"] = tag["b"] + node.hits
        tag["b"] = tag["a"] & 0xFFFF
        peer = table[keys[(i * 7 + node.hits) % n]]
        peer.weight = node.weight * 0.5 + peer.weight * 0.5
        i = (i + stride) % n
        now = yield now + 1 + (tag["b"] & 7)


class RefKernel:
    """The reference kernel: a heap of generator tasks over a large table.

    ``slice()`` runs a fixed number of resumes and returns its wall time.
    A large program heap left live by the previous program slice must not
    move the kernel's time.  So the young generations are collected
    before the timer starts and the collector is off while the slice runs
    (the kernel makes no cyclic garbage).  A full collection is not used:
    it costs O(heap), and the explorer's heap grows with every schedule.
    Nothing is frozen (``gc.freeze`` would also freeze the program's
    objects and change what its own collections cost).
    """

    def __init__(self, records: int = 1 << 14, tasks: int = 64, steps: int = 8_000):
        rng = random.Random(20230225)
        keys = [f"rec-{i:06d}" for i in range(records)]
        rng.shuffle(keys)
        self.table = {k: _Node(k, rng) for k in keys}
        self.steps = steps
        self.heap: list = []
        for t in range(tasks):
            g = _worker(self.table, keys, rng.randrange(records), 2 * rng.randrange(1, 4096) + 1)
            self.heap.append((next(g), t, g))
        heapq.heapify(self.heap)

    def slice(self) -> float:
        gc.collect(1)
        return self.run(self.steps)

    def run(self, steps: int) -> float:
        """Wall time of ``steps`` resumes, with the collector off meanwhile."""

        heap = self.heap
        pop, push = heapq.heappop, heapq.heappush
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(steps):
                when, t, g = pop(heap)
                push(heap, (g.send(when), t, g))
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


@dataclass
class Slice:
    """One timed program slice and the reference time that calibrates it.

    ``ref`` is the mean of the reference slices around the program slice,
    or, when reference slices ran inside it, the single reference time
    that gives the same calibrated seconds as its sub-slices together.
    """

    raw: float
    ref: float

    @property
    def calibrated(self) -> float:
        return calibrated_seconds(self.raw, self.ref)


def calibrated_seconds(raw: float, ref: float) -> float:
    """``raw`` seconds expressed on a host whose reference slice is nominal."""

    if raw < 0 or ref <= 0:
        raise ValueError(f"bad slice times raw={raw} ref={ref}")
    return raw * REF_NOMINAL_S / ref


def sampled_seconds(subs: Sequence[float], refs: Sequence[float]) -> float:
    """Calibrated seconds of a program slice cut into sub-slices.

    ``subs[i]`` is the raw time of sub-slice ``i``, and ``refs[i]`` and
    ``refs[i + 1]`` are the reference slices before and after it.
    """

    if len(refs) != len(subs) + 1:
        raise ValueError(f"{len(subs)} sub-slices need {len(subs) + 1} references, got {len(refs)}")
    return sum(calibrated_seconds(sub, (a + b) / 2) for sub, a, b in zip(subs, refs, refs[1:]))


def rate(units: float, seconds: float) -> float:
    """Work units per second; a run that measured nothing is an error."""

    if seconds <= 0:
        raise ValueError("rate over zero seconds")
    return units / seconds


def sweep_seconds(samples: dict[Any, Sequence[float]]) -> float:
    """Sum over points of each point's median seconds."""

    return sum(median(v) for v in samples.values())


class Calibrator:
    """Brackets program slices with reference slices.

    One reference slice runs between consecutive program slices and
    serves both: it is the "after" of one and the "before" of the next.
    A program slice longer than ``SAMPLE_INTERVAL_S`` gets more reference
    slices inside it, from a ``SIGALRM`` handler (see the module
    docstring).
    """

    def __init__(self, kernel: Optional[RefKernel] = None):
        self.kernel = kernel if kernel is not None else RefKernel()
        self.refs: list[float] = []
        self._last: Optional[float] = None
        #: Collector time inside program slices, and those slices' total.
        self.gc_ns = 0
        self.program_s = 0.0
        self._in_program = False
        self._gc_t0 = 0
        self._t0 = 0.0
        self._bounds: list[float] = []
        self._subs: list[float] = []
        self._resume = 0.0
        self._handler_s = 0.0
        self._old_handler: Any = None
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._in_program:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_t0

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    @property
    def gc_share(self) -> float:
        return self.gc_ns / 1e9 / self.program_s if self.program_s else 0.0

    def reference(self) -> float:
        t = self.kernel.slice()
        self.refs.append(t)
        self._last = t
        return t

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if not self._in_program:
            return
        now = time.perf_counter()
        self._subs.append(now - self._resume)
        t = self.kernel.run(self.kernel.steps)
        self.refs.append(t)
        self._bounds.append(t)
        self._resume = time.perf_counter()
        self._handler_s += self._resume - now

    def start(self, collect: bool = True) -> None:
        """Begin a program slice (after a reference slice, if none ran yet).

        ``collect`` runs a full collection first, so that garbage of the
        previous slice is not collected inside this one.
        """

        self._bounds = [self._last if self._last is not None else self.reference()]
        self._subs, self._handler_s = [], 0.0
        if collect:
            gc.collect()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._in_program = True
        self._t0 = self._resume = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def stop(self) -> Slice:
        """End the program slice and run the reference slice after it."""

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        self._in_program = False
        signal.signal(signal.SIGALRM, self._old_handler)
        raw = end - self._t0 - self._handler_s
        self.program_s += raw
        self._subs.append(end - self._resume)
        self._bounds.append(self.reference())
        calibrated = sampled_seconds(self._subs, self._bounds)
        return Slice(raw, raw * REF_NOMINAL_S / calibrated if calibrated else self._bounds[-1])

    def timed(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, Slice]:
        """Run ``fn`` as one program slice; return (result, Slice)."""

        self.start()
        try:
            out = fn(*args, **kwargs)
        finally:
            sl = self.stop()
        return out, sl


# -- set-up launches ---------------------------------------------------------


def time_launch(argv: list[str], env: dict, cwd: str, timeout: float = 60.0) -> tuple[float, str]:
    """Seconds from spawning ``argv`` until it prints its ``ready`` line.

    The child exits right after; this waits for it, fails on a bad exit,
    and also returns what the child printed after ``ready``.
    """

    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)
    try:
        line = proc.stdout.readline()
        t = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"launch {argv[1:3]} failed: rc={proc.returncode} first line={line!r}")
    return t, rest


def reference_launch(env: dict, cwd: str) -> float:
    return time_launch([sys.executable, "-c", REF_LAUNCH_CODE], env, cwd)[0]


def calibrated_setup_s(pairs: Sequence[tuple[float, float]]) -> float:
    """Median of (program launch / reference launch) times the nominal."""

    if not pairs:
        raise ValueError("no set-up launches were measured")
    return median([p / r for p, r in pairs]) * REF_LAUNCH_NOMINAL_S


def child_env(root: str, ext_dir: Optional[str]) -> dict:
    """Environment for a child interpreter that runs the program."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_ENGINE", None)
    if ext_dir:
        env["CHANBENCH_EXT"] = ext_dir
    return env
