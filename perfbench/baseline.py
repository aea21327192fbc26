#!/usr/bin/env python3
"""Reproduce the baseline rows of ROADMAP.md that the benchmark workloads cover.

    python3 perfbench/baseline.py > baseline.json

Times are medians over repeats on fixed inputs, with the environment
recorded beside them.  The results of one run are kept in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, SRC, child_env, environment  # noqa: E402
from harness.workloads import BENCHMARK_R, TeleportSweep  # noqa: E402


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cli_wall(argv: list[str], repeats: int) -> float:
    cmd = [sys.executable, "-m", "cvcat.cli", *argv]
    return _median_time(lambda: subprocess.run(cmd, env=child_env(), cwd=str(ROOT), check=True,
                                               stdout=subprocess.DEVNULL), repeats)


def rows() -> dict:
    from cvcat import protocols, states

    out: dict = {}
    for n in (2, 8, 16, 32):
        signal = states.SignalParams(0.6, 0.8, TeleportSweep.amplitude(n), BENCHMARK_R)
        res = protocols.ApproxResource(n)
        protocols.teleport(signal, res)
        out[f"teleport_n{n}_ms"] = _median_time(lambda: protocols.teleport(signal, res), 21) * 1e3

    cat = protocols.IdealCat(0.3, BENCHMARK_R)
    out["ideal_chain_terms_alpha0.3"] = [len(o.output.terms)
                                        for o in protocols.amplify_iterate(cat, 5)]
    five = _median_time(lambda: protocols.amplify_iterate(cat, 5), 5)
    four = _median_time(lambda: protocols.amplify_iterate(cat, 4), 5)
    out["ideal_chain_step5_ms"] = (five - four) * 1e3

    for n in (2, 16):
        def cold_fit(n=n):
            states.fit_effective_params.cache_clear()
            states.fit_effective_params(n)
        out[f"fit_effective_params_cold_n{n}_s"] = _median_time(cold_fit, 3)

    out["cli_version_s"] = _cli_wall(["--version"], 5)
    out["cli_amplify_approx_steps3_s"] = _cli_wall(
        ["amplify", "--kind", "approx", "--n", "1", "--steps", "3"], 3)
    out["cli_fidelity_map_oracle_s"] = _cli_wall(["fidelity-map", "--oracle"], 3)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    os.environ.pop("CVCAT_THREADS", None)
    print(json.dumps({"environment": environment.record("as left by earlier runs"),
                      "rows": rows()}, indent=2))
