"""Benchmark entry point: one workload, one JSON result line.

Usage (from the repository root)::

    python3 chanbench/run.py --workload fig5-sim --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced pass and reports every per-layer metric.  Human-readable lines
(raw and calibrated rates side by side, failed checks) come first; the
last line of standard output is the JSON result.  The compiled engine
tier is built from source into ``.bench_build`` (or
``$CARGO_TARGET_DIR``) on first use.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Import this directory as the ``chanbench`` package, not as loose modules.
sys.path[0] = ROOT

WORKLOADS = ("fig5-sim", "profile-observed", "explore-exhaustive", "net-open")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="chanbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")) or not os.path.isfile(
        os.path.join(ROOT, "setup.py")
    ):
        print("chanbench: run from a checkout of the repository (src/repro and setup.py missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))

    from chanbench import engine

    ext_dir = engine.build_extension(ROOT)
    engine.use_built_engine(ext_dir)
    engine.require_c_tier()

    from chanbench import explorer, fig5, netload, observed
    from chanbench.common import END_TO_END_UNITS, PER_LAYER_UNITS, Context, fill_unexercised

    module = {
        "fig5-sim": fig5,
        "profile-observed": observed,
        "explore-exhaustive": explorer,
        "net-open": netload,
    }[args.workload]
    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds, ext_dir=ext_dir,
                  out_dir=os.path.join(engine.build_dir(ROOT), "chanbench", args.workload))
    os.makedirs(ctx.out_dir, exist_ok=True)
    if args.trace:
        out = module.trace(ctx)
        fill_unexercised(out)
        names = list(PER_LAYER_UNITS)
    else:
        out = module.measure(ctx)
        names = list(END_TO_END_UNITS)
    for line in out.lines:
        print(line)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(out.result(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
