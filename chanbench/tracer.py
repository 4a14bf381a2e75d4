"""Layer-boundary span tracer for the traced (``--trace 1``) runs.

A ``sys.setprofile`` hook opens a span whenever a frame of one layer is
entered from another layer, or from the compiled engine's native loop,
and closes it when that frame returns or yields.  A span records its
name (``layer.function``), start, end and parent.  Spans stay in memory
(compact arrays) and are written out when the run ends.  A layer's self
time is its spans' durations minus the time their child spans cover.

Layers are named after the program's modules (``core``, ``baselines``,
``concurrent``, ``sim``, ``bench.workload``, ``obs``, ``net.protocol``,
...).  Calls into the compiled engine (``repro._engine._enginec``) open a
``native`` span, so its self time is the native loop's time outside any
Python frame.  Frames of this benchmark are the ``harness`` layer.

Builtin methods named in ``idle_methods`` (an event loop's poll) open an
``idle`` span, so a server's waiting can be taken out of its shares.

Only boundary crossings open spans; ``count_codes`` additionally counts
every entry of chosen functions (for example ``Segment.__init__``), which
are called from inside their own layer.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from typing import Any, Iterable

_HERE = os.path.dirname(os.path.abspath(__file__))
_ASYNCIO = os.sep + "asyncio" + os.sep
_CO_GENERATOR = 0x20

HARNESS = "harness"
NATIVE = "native"
IDLE = "idle"


def layer_of(filename: str) -> str:
    """Map a code object's file to its layer name."""

    if filename.startswith(_HERE):
        return HARNESS
    marker = os.sep + "repro" + os.sep
    i = filename.rfind(marker)
    if i >= 0:
        parts = filename[i + len(marker):].split(os.sep)
        pkg = parts[0]
        mod = parts[1][:-3] if len(parts) > 1 and parts[1].endswith(".py") else ""
        if pkg == "bench":
            return "bench.workload" if mod == "workload" else "bench"
        if pkg == "net":
            return "net." + (mod or "cluster")
        if pkg == "sim" and mod == "explore":
            return "sim.explore"
        if pkg.endswith(".py"):
            return "repro"
        return pkg
    if _ASYNCIO in filename:
        return "asyncio"
    return "other"


class Tracer:
    """Records layer-boundary spans of the calling thread."""

    def __init__(self, native: Iterable[Any] = (), count_codes: Iterable[Any] = (),
                 idle_methods: Iterable[str] = ()):
        self._native = {id(f): f for f in native}
        # Builtin methods (by qualified name) whose time is idle waiting.
        self._idle = frozenset(idle_methods)
        self._count_codes = set(count_codes)
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._code_info: dict[Any, tuple[str, int, bool]] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.gen = array("b")
        # Open spans: (frame or native callable, span index, layer).
        self._open: list[tuple[Any, int, str]] = []
        self.wall_ns = 0
        self._root = -1

    # -- recording ----------------------------------------------------------

    def _name_id(self, layer: str, func: str) -> int:
        name = f"{layer}.{func}"
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _info(self, code: Any) -> tuple[str, int, bool]:
        info = self._code_info.get(code)
        if info is None:
            layer = layer_of(code.co_filename)
            func = getattr(code, "co_qualname", code.co_name)
            info = (layer, self._name_id(layer, func), bool(code.co_flags & _CO_GENERATOR))
            self._code_info[code] = info
        return info

    def _push(self, key: Any, nid: int, layer: str, gen: bool) -> None:
        self.name_of.append(nid)
        self.parent.append(self._open[-1][1] if self._open else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.gen.append(gen)
        self._open.append((key, len(self.name_of) - 1, layer))

    def _close_top(self) -> None:
        _, idx, _ = self._open.pop()
        self.end[idx] = time.perf_counter_ns()

    def _hook(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            layer, nid, gen = self._info(code)
            if code in self._count_codes:
                self.counts[self.names[nid]] += 1
            if not self._open or self._open[-1][2] != layer:
                self._push(frame, nid, layer, gen)
        elif event == "return":
            if self._open and self._open[-1][0] is frame:
                self._close_top()
        elif event == "c_call":
            if id(arg) in self._native:
                self._push(arg, self._name_id(NATIVE, arg.__name__), NATIVE, False)
            elif self._idle and getattr(arg, "__qualname__", "") in self._idle:
                self._push(arg, self._name_id(IDLE, arg.__qualname__), IDLE, False)
        elif event == "c_return" or event == "c_exception":
            if self._open and self._open[-1][0] is arg:
                self._close_top()

    def __enter__(self) -> "Tracer":
        self._push(None, self._name_id(HARNESS, "root"), HARNESS, False)
        self._root = len(self.name_of) - 1
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)
        while self._open:
            self._close_top()
        self.wall_ns += self.end[self._root] - self.start[self._root]

    # -- analysis -----------------------------------------------------------

    def layer_self(self) -> dict[str, int]:
        """Self time in ns per layer (see :func:`self_times`)."""

        out: Counter = Counter()
        for i, ns in enumerate(self_times(self.parent, self.start, self.end)):
            out[self.layers[self.name_of[i]]] += ns
        return dict(out)

    def write(self, path: str) -> None:
        """Write the spans: ``path`` holds the name/parent/start/end arrays
        back to back (native byte order), ``path.names`` the span names."""

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            for a in (self.name_of, self.parent, self.start, self.end):
                a.tofile(f)
        with open(path + ".names", "w") as f:
            f.write("\n".join(self.names) + "\n")


def self_times(parent: Any, start: Any, end: Any) -> list[int]:
    """Per-span self time: duration minus the time its children cover.

    Children of one span never overlap (a thread runs one frame at a
    time), so their covered time is the sum of their durations.
    """

    n = len(start)
    out = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
