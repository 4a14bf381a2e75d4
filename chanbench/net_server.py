"""Traced ``repro.net`` worker: installs the span tracer, then runs the server.

Usage: ``python net_server.py <spans-path> [repro.net options]``.  On
SIGINT the server shuts down as ``python -m repro.net`` does; the spans
are then written to ``<spans-path>/`` and the per-layer self-time shares
(over traced time outside the event loop's idle poll) to
``<spans-path>.json``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from chanbench.tracer import IDLE, Tracer  # noqa: E402


def main() -> int:
    path = sys.argv[1]
    from repro.net.server import main as serve

    tracer = Tracer(idle_methods=("epoll.poll", "select.select"))
    with tracer:
        rc = serve(sys.argv[2:])
    layers = tracer.layer_self()
    busy = tracer.wall_ns - layers.get(IDLE, 0)
    shares = {layer: ns / busy for layer, ns in layers.items() if layer != IDLE}
    tracer.write(os.path.join(path, "server.bin"))
    with open(path + ".json", "w") as f:
        json.dump(shares, f, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
