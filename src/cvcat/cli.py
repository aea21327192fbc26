"""Command-line surface: every benchmark number and figure dataset as CSV/JSON.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numeric/domain
error.  Identical invocations (including --seed) produce byte-identical
output; emitted files carry a metadata header with parameter values and the
engine's conventions.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__, fock, oracle, protocols, states
from .errors import CapacityError, DomainError, UsageError
from .gausspoly import hermite_gauss
from .tableio import render_table
from .validate import BENCHMARK_R, REFERENCES, SIGNAL_ALPHA, run_validation

CONVENTIONS = {
    "quadrature": "x = (a + a^dag)/sqrt(2); vacuum x-variance 1/2",
    "squeezing": "g = exp(-2r); x quadrature squeezed",
    "projection_kernel": "(2 pi)^-1/2 integral exp(+i beta x) psi(x) dx",
}


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Eager ``--config`` callback: each ``key = value`` line, keyed by a long
    option name, becomes that option's default; unknown keys are ignored."""
    if not path:
        return
    names = {opt.lstrip("-").replace("-", "_"): p.name
             for p in ctx.command.params for opt in p.opts if opt.startswith("--")}
    cfg: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line {raw!r} is not key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in names:
            cfg[names[key]] = val
    ctx.default_map = cfg


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), callback=_load_config,
    is_eager=True, expose_value=False, help="key=value config file")


def _parse_range(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(",")
        values = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise click.UsageError(f"range {text!r} must be start,stop,count") from exc
    if not len(values):
        raise click.UsageError(f"range {text!r} needs a count of at least 1")
    if not np.all(np.isfinite(values)):
        raise click.UsageError(f"range {text!r} must be finite")
    return values


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise click.UsageError(f"grid {text!r} must be NxM") from exc


def _emit(text: str, out: str | None):
    if out and out != "-":
        Path(out).write_text(text)
    else:
        click.get_text_stream("stdout").write(text)


def _meta(command: str, params: dict, extra: dict | None = None) -> dict:
    meta = {
        "command": command,
        "engine_version": __version__,
        "oracle_version": __version__,
        "params": params,
        "conventions": dict(CONVENTIONS),
    }
    if extra:
        meta.update(extra)
    return meta


def _guard(fn: Callable) -> Callable:
    """Map engine errors onto the documented exit codes."""
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except UsageError as exc:
            raise click.UsageError(str(exc)) from exc
        except (DomainError, CapacityError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


#: Widest grid, in points per axis, that an --oracle spot check widens to.
_SPOT_MAX_POINTS = 4 * oracle.DEFAULT_POINTS_1D


def _spot_grid(need: float) -> oracle.GridSpec:
    """The default oracle grid, or one at least as fine that reaches +-need."""
    grid = oracle.GridSpec()
    if need <= grid.hi:
        return grid
    points = math.ceil(2.0 * need / grid.step) + 1
    if points > _SPOT_MAX_POINTS:
        raise DomainError(f"the oracle spot check needs a grid of [-{need:.2f}, {need:.2f}], "
                          f"more than {_SPOT_MAX_POINTS} points at the default step")
    return oracle.GridSpec(-need, need, points)


def _spot_check(where: dict, engine: float, quadrature: float) -> dict:
    """The --oracle record: where it was taken, both values and their gap."""
    return {**where, "engine": engine, "quadrature": quadrature,
            "difference": abs(engine - quadrature)}


def _resource_from_flags(resource: str, n: int, parity: str) -> protocols.Resource:
    if resource == "ideal":
        return protocols.IdealResource(parity)  # type: ignore[arg-type]
    if resource == "approx":
        return protocols.ApproxResource(n)
    if resource == "identity":
        return protocols.IdentityResource()
    raise click.UsageError(f"unknown resource {resource!r}")


@click.group()
@click.version_option(version=__version__, prog_name="cvcat")
def main():
    """Squeezed cat-state protocol simulator: truncation fidelities,
    post-selected teleportation, homodyne-heralded amplification."""


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

@main.command()
@click.option("--alpha-range", default="0,2.5,26", help="start,stop,count [0,2.5,26]")
@click.option("--r", type=float, default=0.0, help="squeezing parameter [0]")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--oracle", "use_oracle", is_flag=True,
              help="add a quadrature cross-check column")
@click.option("--out", default=None, help="output path [stdout]")
@_config_option
@_guard
def truncation(alpha_range, r, fmt, use_oracle, out):
    """Fidelity of two-level truncations of the even cat, against amplitude."""
    alphas = _parse_range(alpha_range)
    g = states.squeezing_g(r, UsageError)
    fock.even_cat_cosh(max(alphas, key=abs), UsageError)
    if use_oracle:
        # the cat's bound grows with |alpha|, so the widest cat sets the grid
        widest = states.make_ideal_squeezed_cat(max(alphas, key=abs), r, "even")
        grid = _spot_grid(max(map(oracle.required_bound, (widest, hermite_gauss(2)))))
        levels = [oracle.sample(hermite_gauss(k), grid) for k in (0, 2)]

    rows = []
    for alpha in alphas:
        vec = fock.even_cat_fock(alpha, fock.DEFAULT_DIM)
        row = {
            "alpha": float(alpha),
            "F_formula": fock.cat_trunc02_formula(alpha),
            "F_fock": fock.truncation_fidelity(vec, {0, 2}),
            "F_squeezed": fock.squeezed_cat_trunc02_fidelity(alpha, r),
            "F_squeezed_alt": fock.squeezed_trunc02_closed_form_alt(alpha, g),
        }
        if use_oracle:
            cat_vals = oracle.sample(states.make_ideal_squeezed_cat(alpha, r, "even"), grid)
            row["F_squeezed_oracle"] = sum(oracle.quad_fidelity(h, cat_vals, grid)
                                           for h in levels)
        rows.append(row)
    columns = list(rows[0].keys())
    meta = _meta("truncation", {
        "alpha_range": f"{alphas[0]:.17g},{alphas[-1]:.17g},{len(alphas)}",
        "r": r, "kept_levels": "0,2", "dim": fock.DEFAULT_DIM,
    }, {"notes": "F_squeezed_alt carries a sqrt(2)-inflated prefactor; "
                 "see `cvcat validate` reference notes"})
    _emit(render_table(meta, columns, rows, fmt), out)


# ---------------------------------------------------------------------------
# fidelity map
# ---------------------------------------------------------------------------

@main.command("fidelity-map")
@click.option("--resource", type=click.Choice(["ideal", "approx", "identity"]),
              default="approx")
@click.option("--parity", type=click.Choice(["even", "odd"]), default="even")
@click.option("--n", type=int, default=2, help="resource excitation number [2]")
@click.option("--alpha", type=float, default=SIGNAL_ALPHA, help="signal amplitude [sqrt(1.3)]")
@click.option("--r", type=float, default=BENCHMARK_R, help="signal squeezing [0.4029]")
@click.option("--beta", type=float, default=None, help="projection value [auto]")
@click.option("--grid", default="33x65", help="theta x phi points [33x65]")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--oracle", "use_oracle", is_flag=True)
@click.option("--out", default=None)
@_config_option
@_guard
def fidelity_map(resource, parity, n, alpha, r, beta, grid, fmt, use_oracle, out):
    """Teleport fidelity over signals a = cos(theta), b = e^{i phi} sin(theta)."""
    nt, nph = _parse_grid(grid)
    res = _resource_from_flags(resource, n, parity)
    sweep = protocols.SweepGrid(nt, nph)
    rows = [{"theta": t, "phi": p, "fidelity": f}
            for t, p, f in protocols.fidelity_map(res, alpha, r, sweep, beta)]
    extra = {"bloch_parametrization": "a = cos(theta), b = exp(i phi) sin(theta)"}
    if use_oracle and resource == "approx":
        p = states.SignalParams(math.cos(math.pi / 4), math.sin(math.pi / 4), alpha, r)
        chan = protocols.teleport_channel(alpha, r, res, beta)
        grid = _spot_grid(oracle._teleport_bound(p))
        direct = oracle.quad_fidelity(oracle.sample(states.make_signal(p), grid),
                                      oracle.quad_teleport(p, n, chan.beta, grid), grid)
        extra["oracle_spot_check"] = _spot_check({"theta": math.pi / 4, "phi": 0.0},
                                                 chan.fidelity(p.a, p.b), direct)
    elif use_oracle:
        extra["oracle_spot_check"] = "only available for the approx resource"
    meta = _meta("fidelity-map", {
        "resource": resource, "parity": parity, "n": n, "alpha": alpha, "r": r,
        "beta": "auto" if beta is None else beta, "grid": f"{nt}x{nph}",
    }, extra)
    _emit(render_table(meta, ["theta", "phi", "fidelity"], rows, fmt), out)


# ---------------------------------------------------------------------------
# average fidelity
# ---------------------------------------------------------------------------

@main.command("avg-fidelity")
@click.option("--resource", type=click.Choice(["ideal", "approx", "identity"]),
              default="approx")
@click.option("--parity", type=click.Choice(["even", "odd"]), default="even")
@click.option("--n", type=int, default=2)
@click.option("--alpha", type=float, default=SIGNAL_ALPHA)
@click.option("--r", type=float, default=BENCHMARK_R)
@click.option("--grid", default="32x64", help="starting theta x phi quadrature [32x64]")
@click.option("--tol", type=float, default=1e-5, help="convergence tolerance [1e-5]")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json")
@click.option("--out", default=None)
@_config_option
@_guard
def avg_fidelity(resource, parity, n, alpha, r, grid, tol, fmt, out):
    """Signal-sphere average of the teleport fidelity, both parametrizations."""
    if not tol > 0.0:
        raise click.UsageError(f"--tol must be positive, got {tol}")
    nt, nph = _parse_grid(grid)

    res = _resource_from_flags(resource, n, parity)
    quadrature = protocols.BlochQuadrature(nt, nph, tol)
    results = protocols.average_fidelity_both(res, alpha, r, quadrature)
    ref, band = REFERENCES["average_fidelity"]
    rows = [{"parametrization": p, "value": a.value, "n_theta": a.n_theta,
             "n_phi": a.n_phi, "converged": a.converged}
            for p, a in results.items()]
    selected = min(results, key=lambda p: abs(results[p].value - ref))
    meta = _meta("avg-fidelity", {
        "resource": resource, "parity": parity, "n": n, "alpha": alpha, "r": r,
        "grid": f"{nt}x{nph}", "tol": tol,
    }, {
        "selected_parametrization": selected,
        "reference_value": ref,
        "reference_band": band,
        "within_band": bool(abs(results[selected].value - ref) <= band),
    })
    _emit(render_table(meta, ["parametrization", "value", "n_theta", "n_phi",
                              "converged"], rows, fmt), out)


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------

@main.command()
@click.option("--kind", type=click.Choice(["ideal", "approx"]), default="ideal")
@click.option("--alpha-range", default="0,2.5,26",
              help="ideal sweep: start,stop,count [0,2.5,26]")
@click.option("--r", type=float, default=BENCHMARK_R)
@click.option("--n", type=int, default=1, help="approx input excitation [1]")
@click.option("--steps", type=int, default=1, help="iterations per input [1]")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--oracle", "use_oracle", is_flag=True)
@click.option("--out", default=None)
@_config_option
@_guard
def amplify(kind, alpha_range, r, n, steps, fmt, use_oracle, out):
    """Heralded amplification: fidelity against the sqrt(2)-amplified target."""
    extra: dict = {}

    if kind == "ideal":
        alphas = _parse_range(alpha_range)
        rows, firsts = [], []
        for alpha in map(float, alphas):
            seq = protocols.amplify_iterate(protocols.IdealCat(alpha, r), steps)
            firsts.append(seq[0])
            rows += [{"alpha": alpha, "step": k + 1, "fidelity": o.fidelity_vs_target,
                      "spurious": protocols.amplification_spurious(alpha * 2.0 ** (k / 2.0), r)}
                     for k, o in enumerate(seq)]
        columns = ["alpha", "step", "fidelity", "spurious"]
        params = {"kind": kind, "alpha_range":
                  f"{alphas[0]:.17g},{alphas[-1]:.17g},{len(alphas)}",
                  "r": r, "steps": steps}
        if use_oracle:
            mid, outcome = float(alphas[len(alphas) // 2]), firsts[len(alphas) // 2]
            target = states.make_ideal_squeezed_cat(math.sqrt(2) * mid, r, "even", "1")
            grid = _spot_grid(max(map(oracle.required_bound, (target, outcome.output))))
            direct = oracle.quad_fidelity(oracle.sample(target, grid),
                                          oracle.sample(outcome.output, grid), grid)
            extra["oracle_spot_check"] = _spot_check({"alpha": mid},
                                                     outcome.fidelity_vs_target, direct)
    else:
        seq = protocols.amplify_iterate(protocols.ApproxResource(n), steps)
        rows = []
        exc = n
        for k, o in enumerate(seq):
            ladder = states.make_approx(2 * exc, "1")
            rows.append({"step": k + 1, "excitation_in": exc, "excitation_out": 2 * exc,
                         "fidelity_vs_fitted_cat": o.fidelity_vs_target,
                         "ladder_match": protocols.fidelity(o.output, ladder)})
            exc *= 2
        columns = ["step", "excitation_in", "excitation_out",
                   "fidelity_vs_fitted_cat", "ladder_match"]
        params = {"kind": kind, "n": n, "r": r, "steps": steps}
        if use_oracle:
            extra["oracle_spot_check"] = "only available for the ideal sweep"

    meta = _meta("amplify", params, extra or None)
    _emit(render_table(meta, columns, rows, fmt), out)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@main.command()
@click.option("--seed", type=int, default=20260808, help="corpus seed [20260808]")
@click.option("--trials", type=int, default=30, help="random corpus size [30]")
@click.option("--perturb", type=float, default=0.0,
              help="negative control: mis-scale first moments by (1+eps)")
@click.option("--out", default=None)
@_config_option
@_guard
def validate(seed, trials, perturb, out):
    """Run the oracle-vs-engine regression corpus and benchmark suite."""
    report = run_validation(seed=seed, trials=trials, perturbation=perturb)
    payload = _meta("validate", {"seed": seed, "trials": trials, "perturb": perturb})
    payload.update(report.to_dict())
    import json

    _emit(json.dumps(payload, indent=2) + "\n", out)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        click.echo(f"{status} {check.name} (margin {check.margin:.3e} "
                   f"<= {check.tolerance:.1e})", err=True)
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
