"""Regenerate ``pins.json``: the expected outputs the benchmark checks.

Run from the repository root after building the compiled tier::

    python3 chanbench/make_pins.py

Every Figure 5 point is run for every seed variant on both engine tiers,
which must agree; the explorer's distinct outcomes are recorded per
scenario.  Only rerun this when the program's simulated semantics are
meant to change.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from chanbench import engine  # noqa: E402


def main() -> None:
    engine.use_built_engine(engine.build_extension(ROOT))
    engine.require_c_tier()
    from chanbench.explorer import exhaust
    from chanbench.pins import PATH
    from chanbench.points import FIG5_POINTS, VARIANTS, run_point
    from chanbench.scenarios import SCENARIOS

    fig5 = {}
    for variant in range(VARIANTS):
        for point in FIG5_POINTS:
            c = run_point(point, variant, "c")
            py = run_point(point, variant, "py")
            if [c.makespan, c.throughput] != [py.makespan, py.throughput]:
                raise SystemExit(f"tiers disagree on {point.key} v{variant}")
            fig5[f"{point.key}/v{variant}"] = [c.makespan, c.throughput]
    explore = {}
    for name, (build, outcome) in SCENARIOS.items():
        run = exhaust(build, outcome)
        explore[name] = sorted([list(o) for o in run.outcomes], key=repr)
    with open(PATH, "w") as f:
        json.dump({"fig5": fig5, "explore": explore}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
