"""Tests of the benchmark machinery and of its correctness checks.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from harness import stats, tracer  # noqa: E402
from harness.metrics import END_TO_END, per_layer_units  # noqa: E402
from harness.workloads import (  # noqa: E402
    AmplifyChain,
    CliCold,
    OracleCrosscheck,
    TeleportSweep,
)

from cvcat import gausspoly  # noqa: E402


# ---------------------------------------------------------------------------
# statistics and span arithmetic
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_ops_beyond():
    value, pct, beyond = stats.tail([float(x) for x in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    values = [float(x) for x in range(1, 1001)]
    value, pct, beyond = stats.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 99.0


def test_tail_never_drops_below_the_median():
    value, pct, beyond = stats.tail([float(x) for x in range(1, 21)])
    assert (value, pct, beyond) == (10.0, 50.0, 10)
    value, pct, beyond = stats.tail([float(x) for x in range(1, 20)])
    assert (value, pct, beyond) == (10.0, 50.0, 9)
    assert stats.tail([3.0]) == (3.0, 50.0, 0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_window_rates_split_into_whole_windows():
    rates = stats.window_rates([0.1, 0.3, 0.2, 0.2, 0.5], 2)
    assert rates == pytest.approx([5.0, 5.0, 2.0])
    for cls in (TeleportSweep, AmplifyChain, OracleCrosscheck, CliCold):
        assert cls.window % cls.cycle == 0


def _span(name, start, end, parent):
    return [name, start, end, parent, "op", None]


def test_self_time_is_span_minus_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("a.x", 12, 20, 1),
        _span("b", 40, 50, 0),
    ]
    assert tracer.self_times(spans) == [70, 12, 8, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0, 100, -1), _span("a", 10, 30, 0), _span("b", 20, 40, 0),
             _span("c", 90, 120, 0)]
    assert tracer.self_times(spans)[0] == 100 - 30 - 10


def test_summarize_keeps_check_spans_apart():
    spans = [_span("x", 0, 10, -1), ["x", 20, 25, -1, "check", None]]
    assert tracer.summarize(spans)["x.calls"] == 1
    assert tracer.summarize(spans, phase="check")["x.self_ns"] == 5


# ---------------------------------------------------------------------------
# the outside-in tracer
# ---------------------------------------------------------------------------

def _load_all():
    import cvcat.cli  # noqa: F401  (binds names in every module)

    return [m for name, m in sorted(sys.modules.items())
            if name == "cvcat" or name.startswith("cvcat.")]


def test_every_wrapped_binding_is_restored():
    modules = _load_all()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    cls = gausspoly.GaussPolyState
    class_before = {k: cls.__dict__[k] for k in ("from_terms", "evaluate")}

    tr = tracer.Tracer()
    tr.install()
    try:
        from cvcat import protocols

        assert protocols.inner_product is not before[("cvcat.protocols", "inner_product")]
        assert cls.__dict__["from_terms"] is not class_before["from_terms"]
    finally:
        restored = tr.uninstall()

    assert tracer.restored_cleanly(restored)
    # every target was bound somewhere, and protocols' own binding was patched
    patched = {(getattr(o, "__name__", ""), a) for o, a, _ in restored}
    assert ("cvcat.protocols", "inner_product") in patched
    assert ("cvcat", "inner_product") in patched
    assert ("GaussPolyState", "from_terms") in patched
    for m in modules:
        for k, v in vars(m).items():
            assert before.get((m.__name__, k), v) is v, (m.__name__, k)
    for k, v in class_before.items():
        assert cls.__dict__[k] is v


def test_traced_teleport_n2_is_accounted_for():
    wl = TeleportSweep()
    wl.setup(3)
    inp = wl.input(0)
    assert inp[0] == 2
    tr = tracer.Tracer()
    tr.install()
    try:
        wl.run(inp)
    finally:
        tr.uninstall()
    roots = [i for i, s in enumerate(tr.spans) if s[tracer.NAME] == "protocols.teleport"]
    assert len(roots) == 1 and tr.spans[roots[0]][tracer.PARENT] == -1
    selfs = tracer.self_times(tr.spans)
    root = tr.spans[roots[0]]
    assert len(tr.spans) > 10
    assert all(s[tracer.START] >= root[tracer.START] and s[tracer.END] <= root[tracer.END]
               for s in tr.spans)
    assert sum(selfs) == root[tracer.END] - root[tracer.START]
    names = {s[tracer.NAME] for s in tr.spans}
    assert {"gausspoly.inner_product", "gausspoly.project_p", "gausspoly.condition_x",
            "gausspoly.beam_splitter", "gausspoly.multiply", "gausspoly.from_terms"} <= names


@pytest.mark.parametrize("cls, ops", [(TeleportSweep, 5), (AmplifyChain, 1),
                                      (OracleCrosscheck, 1)])
def test_traced_and_untraced_outputs_are_identical(cls, ops):
    wl = cls()
    wl.setup(11)
    plain = [wl.fingerprint(wl.run(wl.input(k))) for k in range(ops)]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [wl.fingerprint(wl.run(wl.input(k))) for k in range(ops)]
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.spans


def test_traced_cli_child_matches_plain_cli():
    wl = CliCold()
    wl.setup(11)
    wl.workdir = Path(tempfile.mkdtemp())
    try:
        inp = wl.inputs[CliCold.COMMANDS.index("avg_fidelity_ideal")]
        plain = wl.run(inp)
        wl.trace_dir = wl.workdir
        traced = wl.run(inp)
    finally:
        shutil.rmtree(wl.workdir)
    assert plain[0] == 0 and wl.fingerprint(traced) == wl.fingerprint(plain)
    assert plain[4] is None
    sums = traced[4]
    assert sums["restored_cleanly"] == 1
    assert sums["tableio.render_table.calls"] == 1
    assert sums["gausspoly.inner_product.calls"] > 0
    assert wl.check(inp, plain)[0]


# ---------------------------------------------------------------------------
# the checks are not vacuous
# ---------------------------------------------------------------------------

def _run_and_check(wl, ks):
    results = []
    for k in ks:
        inp = wl.input(k)
        out = wl.run(inp)
        results.append((out, *wl.check(inp, out)))
    return results


def test_checks_pass_on_the_unperturbed_engine():
    for cls, ks in ((TeleportSweep, range(TeleportSweep.cycle)), (AmplifyChain, [0]),
                    (OracleCrosscheck, [0])):
        wl = cls()
        wl.setup(5)
        assert all(ok for _, ok, _ in _run_and_check(wl, ks)), cls.name


def test_perturbed_first_moment_fails_oracle_crosscheck():
    wl = OracleCrosscheck()
    wl.setup(5)
    with gausspoly.perturb_first_moment(1e-6):
        results = _run_and_check(wl, [0])
    assert not results[0][1]


def test_perturbed_first_moment_moves_teleport_fidelity_off_the_oracle():
    # The perturbation enters the pipeline, the channel and the closed form
    # alike, so the gates agree with each other; only the quadrature of the
    # output state sees the shifted fidelity.  Recorded as a diagnostic.
    wl = TeleportSweep()
    wl.setup(5)
    clean = _run_and_check(wl, range(4))
    with gausspoly.perturb_first_moment(1e-6):
        perturbed = _run_and_check(wl, range(4))
    for (_, _, d0), (_, _, d1) in zip(clean, perturbed):
        assert d0["oracle_f_gap"] < 1e-12 < 1e-7 < d1["oracle_f_gap"]


def test_perturbed_first_moment_does_not_reach_the_ideal_cat_chain():
    # Ideal-cat chains carry degree-0 polynomials, so no first moment is ever
    # taken: the outputs are bit-identical and the check rightly passes.
    wl = AmplifyChain()
    wl.setup(5)
    clean = wl.fingerprint(wl.run(wl.input(0)))
    with gausspoly.perturb_first_moment(1e-6):
        assert wl.fingerprint(wl.run(wl.input(0))) == clean


def test_corrupted_outputs_fail_every_in_process_check():
    from cvcat import gausspoly as gp
    from cvcat.protocols import AmplifyOutcome, TeleportOutcome

    wl = TeleportSweep()
    wl.setup(5)
    inp = wl.input(0)
    out = wl.run(inp)
    bad_f = TeleportOutcome(out.output, out.herald_weight, out.fidelity_vs_signal * (1 + 1e-6))
    assert not wl.check(inp, bad_f)[0]
    t = out.output.terms[0]
    key = next(iter(t.poly))
    poly = dict(t.poly)
    poly[key] = poly[key] * (1 + 1e-2)
    state = gp.GaussPolyState(out.output.modes,
                              (gp.GaussTerm(poly, t.quad, t.lin, t.offset),)
                              + out.output.terms[1:])
    bad_state = TeleportOutcome(state, out.herald_weight, out.fidelity_vs_signal)
    assert not wl.check(inp, bad_state)[0]

    wl = AmplifyChain()
    wl.setup(5)
    alpha = wl.input(0)
    seq = wl.run(alpha)
    last = seq[-1]
    bad = seq[:-1] + [AmplifyOutcome(last.output, last.fidelity_vs_target * (1 + 1e-6))]
    assert wl.check(alpha, seq)[0] and not wl.check(alpha, bad)[0]

    wl = OracleCrosscheck()
    wl.setup(5)
    inp = wl.input(0)
    out = wl.run(inp)
    assert not wl.check(inp, (out[0] * (1 + 1e-6),) + out[1:])[0]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the runner
# ---------------------------------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    from harness.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "teleport_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_importtime_parser():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy",
        "import time:        20 |         30 |     scipy.optimize",
        "import time:         5 |         35 |   cvcat.states",
        "import time:         5 |         40 |   cvcat",
        "import time:         7 |          7 |   click",
        "import time:         3 |         50 | cvcat.cli",
    ])
    cvcat_ms, scipy_ms = run._importtime(text)
    assert math.isclose(cvcat_ms, 0.05) and math.isclose(scipy_ms, 0.03)
