"""Build the compiled engine tier from source and make the program use it.

The checkout a benchmark run starts from holds sources only, so the
extension is compiled here with the repository's own ``setup.py`` into
the build directory (``$CARGO_TARGET_DIR`` or ``.bench_build``), never
into ``src/``.  Interpreters that run the program then append that
directory to ``repro._engine.__path__`` before the engine probe runs,
which is where an installed build would have put the module.

This module imports nothing from ``repro`` at import time: set-up
launches import it before ``import repro`` is timed.
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import sys

ENV_VAR = "CHANBENCH_EXT"


def build_dir(root: str) -> str:
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_extension(root: str) -> str:
    """Compile ``repro._engine._enginec`` if its source changed; return its dir."""

    src = os.path.join(root, "src", "repro", "_engine", "_enginec.c")
    base = os.path.join(build_dir(root), "ext")
    ext_dir = os.path.join(base, "repro", "_engine")
    with open(src, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    stamp = os.path.join(base, "source.sha256")
    built = glob.glob(os.path.join(ext_dir, "_enginec*.so"))
    if built and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return ext_dir
    os.makedirs(base, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", base, "--build-temp", os.path.join(build_dir(root), "tmp"), "--force"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    if proc.returncode != 0 or not glob.glob(os.path.join(ext_dir, "_enginec*.so")):
        raise RuntimeError("building the compiled engine tier failed:\n" + proc.stdout[-4000:])
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return ext_dir


def use_built_engine(ext_dir: str | None = None) -> None:
    """Point ``repro._engine`` at the built extension (before its probe)."""

    ext_dir = ext_dir or os.environ.get(ENV_VAR)
    if not ext_dir:
        return
    import repro._engine as engine

    if ext_dir not in engine.__path__:
        engine.__path__.append(ext_dir)


def require_c_tier() -> None:
    import repro._engine as engine

    if not engine.available():
        raise RuntimeError(f"compiled engine tier unavailable: {engine.probe_error()}")
