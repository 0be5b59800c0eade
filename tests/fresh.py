"""The one way the tests run octachar in a fresh interpreter."""

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # an eager expansion fails, not the host


def fresh(code: str, *argv, timeout=60) -> subprocess.CompletedProcess:
    """`python -S -c code *argv` in a fresh interpreter, without the host's site
    hooks, with octachar's source first on the path and its address space capped at 1 GB."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True, text=True, timeout=timeout, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )
