"""Benchmark harness for cvcat: workloads, outside-in tracer and statistics."""

import os
from pathlib import Path

#: Directory holding ``run.py`` and this package.
BENCH_DIR = Path(__file__).resolve().parent.parent
#: Root of the checkout the benchmark measures.
ROOT = BENCH_DIR.parent
#: Source tree of the package under test.
SRC = ROOT / "src"
#: Scratch space for child-process output, removed after each run.
TMP_DIR = ROOT / ".bench_tmp"


def child_env() -> dict:
    """Environment for child interpreters: this checkout's package first,
    ``CVCAT_THREADS`` unset."""
    env = {k: v for k, v in os.environ.items() if k != "CVCAT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env
