"""Metric names and units, and the per-layer metrics of a traced run."""

from __future__ import annotations

import statistics

from .workloads import AmplifyChain, CliCold, TeleportSweep

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SHAPE_OPS = ("project_p", "condition_x", "beam_splitter", "multiply")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {
        "gausspoly.inner_product.calls": "count",
        "gausspoly.inner_product.self_ms": "ms",
    }
    for op in _SHAPE_OPS:
        units[f"gausspoly.{op}.self_ms"] = "ms"
    units["gausspoly.coeffs_out"] = "count"
    units.update({
        "gausspoly.from_terms.calls": "count",
        "gausspoly.from_terms.self_ms": "ms",
        "gausspoly.from_terms.terms_in": "count",
        "gausspoly.from_terms.terms_out": "count",
        "gausspoly.from_terms.merge_ratio": "ratio",
        "gausspoly.evaluate.calls": "count",
        "gausspoly.evaluate.self_ms": "ms",
        "gausspoly.evaluate.term_points": "count",
        "protocols.teleport.self_ms": "ms",
    })
    for n in TeleportSweep.NS:
        units[f"protocols.teleport.n{n}.p50_ms"] = "ms"
    units["protocols.teleport.oracle_f_gap_max"] = "fidelity"
    units["protocols.amplify_iterate.self_ms"] = "ms"
    for k in range(1, AmplifyChain.STEPS + 1):
        units[f"protocols.amplify_iterate.step{k}.terms"] = "count"
    units["protocols.amplify_iterate.term_excess"] = "ratio"
    units.update({
        "states.fit_effective_params.calls": "count",
        "states.fit_effective_params.self_ms": "ms",
        "states.fit_effective_params.cache_misses": "count",
        "states.fit_effective_params.objective_calls": "count",
        "oracle.sample.self_ms": "ms",
        "oracle.sample.points": "count",
        "oracle.sample.bytes_computed": "B",
        "oracle.quad_inner.self_ms": "ms",
        "oracle.quad_teleport.self_ms": "ms",
        "oracle.quad_teleport.bytes_computed": "B",
        "oracle.required_bound.self_ms": "ms",
        "fock.squeezed_cat_trunc02_fidelity.self_ms": "ms",
        "tableio.render_table.self_ms": "ms",
        "tableio.render_table.bytes_out": "B",
        "cli.import_ms": "ms",
        "cli.import_scipy_ms": "ms",
    })
    for cmd in CliCold.COMMANDS:
        units[f"cli.{cmd}.wall_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_layer(sums: dict, records: list, workload, overhead: float,
              imports: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics from the op-phase span sums of the traced pass, the
    records ``(input, latency_s, ok, diagnostics)`` of the untraced pass, the
    traced/untraced wall ratio and the (import, scipy import) times in ms."""
    def ms(span: str) -> float:
        return sums.get(f"{span}.self_ns", 0) / 1e6

    def count(key: str) -> float:
        return sums.get(key, 0)

    m = {
        "gausspoly.inner_product.calls": count("gausspoly.inner_product.calls"),
        "gausspoly.inner_product.self_ms": ms("gausspoly.inner_product"),
    }
    for op in _SHAPE_OPS:
        m[f"gausspoly.{op}.self_ms"] = ms(f"gausspoly.{op}")
    m["gausspoly.coeffs_out"] = sum(count(f"gausspoly.{op}.coeffs_out") for op in _SHAPE_OPS)
    t_in, t_out = count("gausspoly.from_terms.terms_in"), count("gausspoly.from_terms.terms_out")
    m.update({
        "gausspoly.from_terms.calls": count("gausspoly.from_terms.calls"),
        "gausspoly.from_terms.self_ms": ms("gausspoly.from_terms"),
        "gausspoly.from_terms.terms_in": t_in,
        "gausspoly.from_terms.terms_out": t_out,
        "gausspoly.from_terms.merge_ratio": t_out / t_in if t_in else 0.0,
        "gausspoly.evaluate.calls": count("gausspoly.evaluate.calls"),
        "gausspoly.evaluate.self_ms": ms("gausspoly.evaluate"),
        "gausspoly.evaluate.term_points": count("gausspoly.evaluate.term_points"),
        "protocols.teleport.self_ms": ms("protocols.teleport"),
    })

    by_n: dict[int, list[float]] = {}
    gap = 0.0
    steps: dict[int, list[int]] = {}
    walls: dict[str, list[float]] = {}
    for inp, latency, _, diag in records:
        if isinstance(workload, TeleportSweep):
            by_n.setdefault(inp[0], []).append(latency)
            gap = max(gap, diag.get("oracle_f_gap", 0.0))
        elif isinstance(workload, AmplifyChain):
            for k, terms in enumerate(diag.get("terms", ()), start=1):
                steps.setdefault(k, []).append(terms)
        elif isinstance(workload, CliCold):
            walls.setdefault(inp[0], []).append(latency)
    for n in TeleportSweep.NS:
        vals = by_n.get(n)
        m[f"protocols.teleport.n{n}.p50_ms"] = statistics.median(vals) * 1e3 if vals else 0.0
    m["protocols.teleport.oracle_f_gap_max"] = gap
    m["protocols.amplify_iterate.self_ms"] = ms("protocols.amplify_iterate")
    for k in range(1, AmplifyChain.STEPS + 1):
        vals = steps.get(k)
        m[f"protocols.amplify_iterate.step{k}.terms"] = statistics.mean(vals) if vals else 0.0
    exact = sum(len(v) * (2 ** k + 1) for k, v in steps.items())
    m["protocols.amplify_iterate.term_excess"] = (
        sum(sum(v) for v in steps.values()) / exact if exact else 0.0)

    m.update({
        "states.fit_effective_params.calls": count("states.fit_effective_params.calls"),
        "states.fit_effective_params.self_ms": ms("states.fit_effective_params"),
        "states.fit_effective_params.cache_misses":
            count("states.fit_effective_params.cache_misses"),
        "states.fit_effective_params.objective_calls":
            count("states.fit_effective_params.objective_calls"),
        "oracle.sample.self_ms": ms("oracle.sample"),
        "oracle.sample.points": count("oracle.sample.points"),
        "oracle.sample.bytes_computed": count("oracle.sample.bytes_computed"),
        "oracle.quad_inner.self_ms": ms("oracle.quad_inner"),
        "oracle.quad_teleport.self_ms": ms("oracle.quad_teleport"),
        "oracle.quad_teleport.bytes_computed": count("oracle.quad_teleport.bytes_computed"),
        "oracle.required_bound.self_ms": ms("oracle.required_bound"),
        "fock.squeezed_cat_trunc02_fidelity.self_ms": ms("fock.squeezed_cat_trunc02_fidelity"),
        "tableio.render_table.self_ms": ms("tableio.render_table"),
        "tableio.render_table.bytes_out": count("tableio.render_table.bytes_out"),
        "cli.import_ms": imports[0],
        "cli.import_scipy_ms": imports[1],
    })
    for cmd in CliCold.COMMANDS:
        vals = walls.get(cmd)
        m[f"cli.{cmd}.wall_ms"] = statistics.median(vals) * 1e3 if vals else 0.0
    m["trace.overhead_ratio"] = overhead
    return m
