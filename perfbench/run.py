#!/usr/bin/env python3
"""cvcat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop with one caller that runs ops for S seconds
of wall time and checks every output outside the timed interval.
``--trace 1`` runs the workload's fixed op list untraced, then again with the
outside-in layer tracer installed, and reports the per-layer metrics.

The line before the last holds the details (units, sample counts, tail
percentile, failures, environment, diagnostics); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    BENCH_DIR, ROOT, SRC, TMP_DIR, child_env, environment, stats, tracer)
from harness.metrics import END_TO_END, per_layer, per_layer_units  # noqa: E402
from harness.workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed per run for set-up; the median is reported.
SETUP_PROBES = 7
#: Fresh interpreters timed under -X importtime per traced run.
IMPORT_PROBES = 3


def warm_bytecode() -> str:
    """Compile the package and the harness so that every interpreter this run
    starts finds an up-to-date bytecode cache."""
    ok = compileall.compile_dir(str(SRC / "cvcat"), quiet=1)
    ok = compileall.compile_dir(str(BENCH_DIR / "harness"), quiet=1) and ok
    return "warm: src/cvcat and perfbench/harness compiled in set-up" if ok else "cold"


def setup_times(name: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until it has imported and
    built the workload's inputs, once per probe."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", "--workload", name,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=str(ROOT))
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


def _importtime(stderr: str) -> tuple[float, float]:
    """(cvcat import, scipy import on behalf of non-scipy modules) in ms from
    ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    cvcat_us = sum(c for d, n, c in rows if d == 0 and (n == "cvcat" or n.startswith("cvcat.")))
    scipy_us = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            scipy_us += cumulative
    return cvcat_us / 1e3, scipy_us / 1e3


def import_times() -> tuple[float, float]:
    """Medians over fresh interpreters of the ``import cvcat.cli`` time and
    of its scipy share, in ms."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import cvcat.cli"]
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=str(ROOT), check=True)
        samples.append(_importtime(proc.stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def machine_speed_ms() -> float:
    """Median time of a fixed pure-Python kernel (dict and complex arithmetic,
    like the engine's inner loops).  Printed next to the results because this
    kind of code runs up to 1.9x slower when the host is busy."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(2000):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, 0j) + complex(i, 1) * (1.5 - 0.5j)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_op(wl, inp):
    """Run one op; returns (output or None, latency in s, error or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # a failed op is counted, not fatal
        return None, time.perf_counter() - t0, repr(exc)
    return out, time.perf_counter() - t0, None


def check_op(wl, inp, out, err) -> tuple[bool, dict]:
    if err is not None:
        return False, {"error": err}
    try:
        return wl.check(inp, out)
    except Exception as exc:  # a check that raises is a failed op
        return False, {"error": repr(exc)}


def timed_loop(wl, seconds: float):
    """Closed loop with one caller for ``seconds`` of wall time (checks
    included, only op intervals timed).  Returns records
    ``(input, latency_s, ok, diagnostics)`` and the largest child RSS (KiB)."""
    records, child_rss = [], 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k % wl.cycle or time.perf_counter() < deadline:
        inp = wl.input(k)
        out, latency, err = run_op(wl, inp)
        ok, diag = check_op(wl, inp, out, err)
        if out is not None and not wl.in_process:
            child_rss = max(child_rss, out[3])
        records.append((inp, latency, ok, diag))
        k += 1
    return records, child_rss


def warm_up(wl) -> None:
    for k in range(wl.warmup_ops):
        run_op(wl, wl.input(k))


def summarize_diagnostics(records) -> dict:
    """Largest value of every numeric diagnostic, and the errors seen."""
    out: dict = {}
    errors = []
    for _, _, _, diag in records:
        for key, val in diag.items():
            if key == "error":
                errors.append(val)
            elif isinstance(val, float):
                out[key] = max(out.get(key, 0.0), val)
    if errors:
        out["errors"] = errors[:5]
    return out


def untraced(wl, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    setups = setup_times(wl.name, seed)
    wl.setup(seed)
    warm_up(wl)
    speed_before = machine_speed_ms()
    records, child_rss = timed_loop(wl, seconds)
    speed = {"before": speed_before, "after": machine_speed_ms()}
    lat_ms = [r[1] * 1e3 for r in records]
    failed = sum(1 for r in records if not r[2])
    tail, pct, beyond = stats.tail(lat_ms)
    rates = stats.window_rates([r[1] for r in records], wl.window)
    rss_kib = child_rss if not wl.in_process else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "latency_p50_ms": (statistics.median(lat_ms), len(lat_ms)),
        "latency_tail_ms": (tail, len(lat_ms)),
        "ops_per_s": (statistics.median(rates), len(rates)),
        "peak_rss_mb": (rss_kib / 1024.0, 1 if wl.in_process else len(records)),
    }
    detail = {
        "workload": wl.name, "seed": seed, "trace": 0, "seconds": seconds,
        "metrics": {k: {"value": v, "unit": END_TO_END[k], "samples": n}
                    for k, (v, n) in values.items()},
        "fail_ratio": {"value": failed / len(records), "failed": failed,
                       "attempted": len(records)},
        "latency_tail": {"percentile": pct, "ops_beyond": beyond, "ops": len(lat_ms)},
        "ops_per_s_windows": {"ops_per_window": wl.window, "windows": len(rates)},
        "setup_samples_s": setups,
        "reference_kernel_ms": speed,
        "diagnostics": summarize_diagnostics(records),
        "environment": env,
    }
    if not wl.in_process:
        walls: dict = {}
        for inp, latency, _, _ in records:
            walls.setdefault(inp[0], []).append(round(latency * 1e3, 1))
        detail["command_wall_ms"] = walls
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}}
    return detail, result


def traced(wl, seed: int, env: dict) -> tuple[dict, dict]:
    imports = import_times()
    wl.setup(seed)
    warm_up(wl)
    inputs = [wl.input(k) for k in range(wl.trace_ops)]

    plain = []
    for inp in inputs:
        out, latency, err = run_op(wl, inp)
        plain.append((inp, out, latency, err))

    # In-process workloads are traced here; cli_cold children trace themselves.
    tr = tracer.Tracer()
    sums: dict = {}
    records, failed, mismatched = [], 0, 0
    if wl.in_process:
        tr.install()
    else:
        wl.trace_dir = wl.workdir
    try:
        for inp, base, base_latency, base_err in plain:
            tr.phase = "op"
            out, latency, err = run_op(wl, inp)
            tr.phase = "check"
            ok, diag = check_op(wl, inp, out, err)
            same = err is None and base_err is None and wl.fingerprint(out) == wl.fingerprint(base)
            mismatched += not same
            failed += not (ok and same)
            records.append((inp, base_latency, ok, diag, latency))
            if not wl.in_process and out is not None and out[4] is not None:
                tracer.merge_sums(sums, out[4])
    finally:
        restored = tr.uninstall()
        wl.trace_dir = None
    if wl.in_process:
        sums = tracer.summarize(tr.spans)
        clean = tracer.restored_cleanly(restored)
    else:
        clean = sums.pop("restored_cleanly", 0) == len(inputs)
    if not clean:
        failed = len(inputs)

    untraced_wall = sum(r[1] for r in records)
    traced_wall = sum(r[4] for r in records)
    metrics = per_layer(sums, [r[:4] for r in records], wl, traced_wall / untraced_wall, imports)
    units = per_layer_units()
    detail = {
        "workload": wl.name, "seed": seed, "trace": 1, "ops": len(inputs),
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "outputs_identical": mismatched == 0, "bindings_restored": clean,
        "check_phase_spans": sum(1 for s in tr.spans if s[tracer.PHASE] == "check"),
        "diagnostics": summarize_diagnostics([r[:4] for r in records]),
        "environment": env,
    }
    result = {"correct": failed == 0, "attempted": len(inputs), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cvcat" / "__init__.py").is_file():
        print(f"error: no cvcat source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CVCAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()

    if args.probe:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    bytecode = warm_bytecode()
    import cvcat

    if Path(cvcat.__file__).resolve().parent != (SRC / "cvcat").resolve():
        print(f"error: imported cvcat from {cvcat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment.record(bytecode)

    def measure():
        return traced(wl, args.seed, env) if args.trace else \
            untraced(wl, args.seed, args.seconds, env)

    if wl.in_process:
        detail, result = measure()
    else:
        TMP_DIR.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=TMP_DIR) as workdir:
                wl.workdir = Path(workdir)
                detail, result = measure()
        finally:
            try:
                TMP_DIR.rmdir()
            except OSError:  # another run still uses it
                pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
