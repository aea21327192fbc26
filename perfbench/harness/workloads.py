"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (which also does
the imports), runs one operation per ``run`` call and checks one output per
``check`` call.  ``check`` runs outside the timed interval and returns
``(ok, diagnostics)``.  cvcat is imported lazily so that a set-up probe in a
fresh interpreter measures the imports.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from . import BENCH_DIR, child_env

#: Squeezing of the paper's benchmark parameter set (cvcat.validate.BENCHMARK_R).
BENCHMARK_R = 0.4029
#: Signal amplitude matched to the n = 2 ladder resource (sqrt(2.6)/sqrt(2)).
SIGNAL_ALPHA = math.sqrt(1.3)


def _bloch(rng) -> tuple[complex, complex]:
    """Uniform point on the Bloch sphere as amplitudes (a, b)."""
    theta = math.acos(1.0 - 2.0 * float(rng.random()))
    phi = 2.0 * math.pi * float(rng.random())
    b = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)
    return complex(math.cos(theta / 2.0)), b


def oracle_fidelity(u, v, grid) -> float:
    """|<u|v>|^2 / (<u|u><v|v>) by trapezoidal quadrature of sampled states."""
    from cvcat import oracle

    su, sv = oracle.sample(u, grid), oracle.sample(v, grid)
    cross = oracle.quad_inner(su, sv, grid).value
    return abs(cross) ** 2 / (oracle.quad_inner(su, su, grid).value.real
                              * oracle.quad_inner(sv, sv, grid).value.real)


def state_fingerprint(u) -> tuple:
    """Exact, hashable content of a GaussPolyState (None stays None)."""
    if u is None:
        return None
    return (u.modes,) + tuple(
        (tuple(sorted(t.poly.items())), t.quad.tobytes(), t.lin.tobytes(), t.offset)
        for t in u.terms)


class Workload:
    """Base class: ``setup`` must fill ``self.inputs``."""

    name = ""
    in_process = True
    #: ops run before timing starts (caches and lazy set-up)
    warmup_ops = 0
    #: fixed number of ops of a traced run, so that its counts repeat exactly
    trace_ops = 1
    #: ops a time-bounded loop may only stop in front of a multiple of this
    cycle = 1
    #: ops per throughput window, a multiple of ``cycle``
    window = 1

    def __init__(self):
        self.inputs: list = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def input(self, k: int):
        return self.inputs[k % len(self.inputs)]

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, dict]:
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# teleport_sweep
# ---------------------------------------------------------------------------

class TeleportSweep(Workload):
    """One ``protocols.teleport`` per op; the ladder n cycles through 2, 4,
    8, 16, 32."""

    name = "teleport_sweep"
    NS = (2, 4, 8, 16, 32)
    #: n of the ops of one cycle.  The median op is the last n = 8 op of the
    #: cycle in rank.  A spell of the fast host state moves the ops of every
    #: class down by about 1.7x; with two ops below the n = 8 class and four
    #: above it, the median stays among the n = 8 ops of the usual state
    #: until more than 80 % of a run is fast (a cycle with one n = 8 op in
    #: five leaves them at 50 %).
    CYCLE = (2, 4, 8, 8, 8, 16, 16, 32, 32)
    POOL_CYCLES = 200
    warmup_ops = len(CYCLE)
    trace_ops = 20 * len(CYCLE)
    cycle = len(CYCLE)
    window = len(CYCLE)

    @staticmethod
    def amplitude(n: int) -> float:
        return SIGNAL_ALPHA if n == 2 else math.sqrt(n / 2.0)

    def setup(self, seed: int) -> None:
        import numpy as np
        from cvcat import oracle, protocols, states  # noqa: F401  (oracle: checks)

        rng = np.random.default_rng(seed)
        self.resources = {n: protocols.ApproxResource(n) for n in self.NS}
        self.inputs = []
        for k in range(self.POOL_CYCLES * self.cycle):
            n = self.CYCLE[k % self.cycle]
            a, b = _bloch(rng)
            self.inputs.append((n, states.SignalParams(a, b, self.amplitude(n), BENCHMARK_R)))
        self._channels: dict = {}

    def run(self, inp):
        from cvcat import protocols

        n, signal = inp
        return protocols.teleport(signal, self.resources[n])

    def check(self, inp, out) -> tuple[bool, dict]:
        from cvcat import gausspoly, oracle, protocols, states

        n, signal = inp
        res = self.resources[n]
        if n not in self._channels:
            self._channels[n] = protocols.teleport_channel(signal.alpha, signal.r, res)
        f = out.fidelity_vs_signal
        channel_gap = abs(f - self._channels[n].fidelity(signal.a, signal.b))
        closed = protocols.output_closed_form(signal, n, protocols.default_beta(signal, res))
        closed_gap = 1.0 - gausspoly.fidelity(out.output, closed)
        # Not gated: F by quadrature of the engine's own output state.  It
        # moves with a perturbed first moment, which the two gates above
        # cannot see, and it exposes the coefficient pruning at n = 32.
        ref = gausspoly.relabel(states.make_signal(signal), {"s": "2"})
        grid = oracle.GridSpec(-18.0, 18.0, oracle.DEFAULT_POINTS_1D)
        oracle_gap = abs(f - oracle_fidelity(ref, out.output, grid))
        ok = bool(out.accepted and channel_gap <= 1e-10 and closed_gap <= 1e-8)
        return ok, {"n": n, "oracle_f_gap": oracle_gap}

    def fingerprint(self, out):
        return (out.herald_weight, out.fidelity_vs_signal, out.accepted,
                state_fingerprint(out.output))


# ---------------------------------------------------------------------------
# amplify_chain
# ---------------------------------------------------------------------------

class AmplifyChain(Workload):
    """One five-step ``amplify_iterate`` of an ideal squeezed cat per op."""

    name = "amplify_chain"
    STEPS = 5
    #: alpha values per cycle, evenly spaced over [0.3, 2.5]
    GRID = 16
    warmup_ops = 1
    trace_ops = GRID
    cycle = GRID
    window = GRID

    @classmethod
    def alphas(cls) -> list[float]:
        return [0.3 + 2.2 * k / (cls.GRID - 1) for k in range(cls.GRID)]

    def setup(self, seed: int) -> None:
        import numpy as np
        from cvcat import oracle, protocols, states  # noqa: F401

        # The seed orders a fixed alpha grid; runs stop only after whole
        # cycles.  The op cost follows the number of terms kept, and that
        # changes at random with the last bits of alpha (terms merge only
        # when their forms are bitwise equal), so a seeded draw of alphas
        # would change the cost mix, and the timings, from seed to seed.
        grid = self.alphas()
        self.inputs = [grid[i] for i in np.random.default_rng(seed).permutation(self.GRID)]
        self.grid = oracle.GridSpec(-18.0, 18.0, oracle.DEFAULT_POINTS_1D)

    def run(self, alpha):
        from cvcat import protocols

        return protocols.amplify_iterate(protocols.IdealCat(alpha, BENCHMARK_R), self.STEPS)

    def check(self, alpha, out) -> tuple[bool, dict]:
        from cvcat import states

        worst = 0.0
        for k, outcome in enumerate(out, start=1):
            amp = alpha * 2.0 ** (k / 2.0)
            target = states.make_ideal_squeezed_cat(amp, BENCHMARK_R, "even", "1")
            direct = oracle_fidelity(target, outcome.output, self.grid)
            worst = max(worst, abs(direct - outcome.fidelity_vs_target))
        ok = len(out) == self.STEPS and worst <= 1e-7
        return ok, {"oracle_f_gap": worst, "terms": [len(o.output.terms) for o in out]}

    def fingerprint(self, out):
        return tuple((o.fidelity_vs_target, state_fingerprint(o.output)) for o in out)


# ---------------------------------------------------------------------------
# oracle_crosscheck
# ---------------------------------------------------------------------------

class OracleCrosscheck(Workload):
    """One round of the engine-vs-oracle corpus per op: a 1-mode pair, a
    2-mode pair and one teleport-vs-direct-quadrature comparison."""

    name = "oracle_crosscheck"
    POOL = 48
    trace_ops = 4
    window = 3
    #: The 2-mode pair is drawn until u and v have this many terms and both
    #: this many monomials in total, so every round does the same grid work
    #: in the same order; the values (forms, centres, exponents,
    #: coefficients) stay random.
    PAIR_TERMS = (1, 2)
    PAIR_MONOMIALS = 6

    def setup(self, seed: int) -> None:
        import numpy as np
        from cvcat import oracle, protocols, states

        rng = np.random.default_rng(seed)
        self.grid1 = oracle.GridSpec(-18.0, 18.0, oracle.DEFAULT_POINTS_1D)
        self.grid2 = oracle.GridSpec(-18.0, 18.0, oracle.DEFAULT_POINTS_2D)
        self.tgrid = oracle.GridSpec(points=oracle.DEFAULT_POINTS_1D)
        self.xs = np.linspace(-8.0, 8.0, 161)
        self.resource = protocols.ApproxResource(2)
        g = math.exp(-2.0 * BENCHMARK_R)
        beta_star = math.pi / (4.0 * SIGNAL_ALPHA * math.sqrt(g))
        self.inputs = []
        for _ in range(self.POOL):
            u1 = oracle.random_gauss_poly(rng, n_modes=1)
            v1 = oracle.random_gauss_poly(rng, n_modes=1, modes=u1.modes)
            while True:
                u2 = oracle.random_gauss_poly(rng, n_modes=2)
                v2 = oracle.random_gauss_poly(rng, n_modes=2, modes=u2.modes)
                if ((len(u2.terms), len(v2.terms)) == self.PAIR_TERMS
                        and sum(len(t.poly) for t in u2.terms + v2.terms)
                        == self.PAIR_MONOMIALS):
                    break
            a, b = _bloch(rng)
            beta = beta_star if rng.random() < 0.5 else 0.0
            signal = states.SignalParams(a, b, SIGNAL_ALPHA, BENCHMARK_R)
            self.inputs.append((u1, v1, u2, v2, signal, beta))

    def run(self, inp):
        from cvcat import gausspoly, oracle, protocols

        u1, v1, u2, v2, signal, beta = inp
        out = []
        for u, v, grid in ((u1, v1, self.grid1), (u2, v2, self.grid2)):
            su, sv = oracle.sample(u, grid), oracle.sample(v, grid)
            out.append(oracle.quad_inner(su, sv, grid).value)
            out.append(gausspoly.inner_product(u, v))
        engine = protocols.teleport(signal, self.resource, beta=beta).output
        out.append(engine.evaluate(self.xs))
        out.append(oracle.quad_teleport(signal, 2, beta, self.tgrid, out_axis=self.xs))
        return tuple(out)

    def check(self, inp, out) -> tuple[bool, dict]:
        import numpy as np
        from cvcat import gausspoly

        u1, v1, u2, v2, _, _ = inp
        q1, e1, q2, e2, ve, vo = out
        gaps = []
        for u, v, q, e in ((u1, v1, q1, e1), (u2, v2, q2, e2)):
            scale = math.sqrt(gausspoly.norm_squared(u) * gausspoly.norm_squared(v))
            gaps.append(abs(e - q) / scale)
        vo = vo / math.sqrt(float(np.trapezoid(np.abs(vo) ** 2, self.xs)))
        phase = np.vdot(vo, ve)
        vo = vo * (phase / abs(phase))
        gaps.append(float(np.max(np.abs(ve - vo)) / np.max(np.abs(ve))))
        return max(gaps) <= 1e-7, {"gap_1mode": gaps[0], "gap_2mode": gaps[1],
                                   "gap_teleport": gaps[2]}

    def fingerprint(self, out):
        return tuple(x.tobytes() if hasattr(x, "tobytes") else complex(x) for x in out)


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def parse_table(text: str) -> tuple[dict, list[dict]]:
    """(meta, rows) of a CSV or JSON table emitted by the cvcat CLI; CSV
    metadata values stay strings."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return payload["meta"], payload["rows"]
    meta: dict = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            body.append(line)
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return meta, rows


class CliCold(Workload):
    """One ``python -m cvcat.cli`` subprocess per op, cycling seven commands."""

    name = "cli_cold"
    in_process = False
    trace_ops = 7
    COMMANDS = ("version", "truncation_oracle", "fidelity_map_approx", "avg_fidelity_ideal",
                "amplify_ideal_oracle", "amplify_approx", "fidelity_map_oracle")
    #: the commands differ in cost up to 6x, so runs stop only after whole cycles
    cycle = len(COMMANDS)
    window = len(COMMANDS)

    def __init__(self):
        super().__init__()
        #: directory the children run in; set by the runner
        self.workdir: Path | None = None
        #: when set, children run under the tracer and leave their sums here
        self.trace_dir: Path | None = None
        self._refs: dict = {}

    def setup(self, seed: int) -> None:
        import numpy as np
        import cvcat.cli  # noqa: F401  (set-up time of this workload is this import)

        rng = np.random.default_rng(seed)
        r_trunc = f"{rng.uniform(0.0, 0.5):.4f}"
        alpha = f"{rng.uniform(1.0, 1.3):.4f}"
        r_amp = f"{rng.uniform(0.2, 0.6):.4f}"
        self.inputs = [
            ("version", ("--version",)),
            ("truncation_oracle", ("truncation", "--oracle", "--r", r_trunc)),
            ("fidelity_map_approx", ("fidelity-map", "--resource", "approx", "--n", "2",
                                     "--alpha", alpha)),
            ("avg_fidelity_ideal", ("avg-fidelity", "--resource", "ideal")),
            ("amplify_ideal_oracle", ("amplify", "--kind", "ideal", "--oracle", "--r", r_amp)),
            ("amplify_approx", ("amplify", "--kind", "approx", "--n", "1", "--steps", "3")),
            ("fidelity_map_oracle", ("fidelity-map", "--oracle")),
        ]

    def run(self, inp):
        """Run one command; returns (exit code, stdout, stderr, peak RSS in KiB,
        op-phase span sums or None)."""
        key, argv = inp
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        if self.trace_dir is not None:
            sums_path = self.trace_dir / "sums.json"
            cmd = [sys.executable, str(BENCH_DIR / "harness" / "cli_child.py"),
                   str(sums_path), *argv]
        else:
            sums_path = None
            cmd = [sys.executable, "-m", "cvcat.cli", *argv]
        with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
            proc = subprocess.Popen(cmd, stdout=out_fh, stderr=err_fh, stdin=subprocess.DEVNULL,
                                    env=child_env(), cwd=str(self.workdir))
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        sums = None
        if sums_path is not None and sums_path.exists():
            sums = json.loads(sums_path.read_text())
            sums_path.unlink()
        return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                usage.ru_maxrss, sums)

    # -- checks --------------------------------------------------------------

    def _reference(self, key: str, argv: tuple):
        """Library result for a command, computed once per run."""
        if key in self._refs:
            return self._refs[key]
        from cvcat import protocols, validate  # validate holds the CLI's defaults

        if key == "fidelity_map_approx":
            alpha = float(argv[argv.index("--alpha") + 1])
            ref = protocols.fidelity_map(protocols.ApproxResource(2), alpha,
                                         validate.BENCHMARK_R)
        elif key == "fidelity_map_oracle":
            ref = protocols.fidelity_map(protocols.ApproxResource(2), validate.SIGNAL_ALPHA,
                                         validate.BENCHMARK_R)
        elif key == "avg_fidelity_ideal":
            both = protocols.average_fidelity_both(protocols.IdealResource("even"),
                                                   validate.SIGNAL_ALPHA, validate.BENCHMARK_R)
            ref = {p: a.value for p, a in both.items()}
        elif key == "amplify_ideal_oracle":
            import numpy as np

            r = float(argv[argv.index("--r") + 1])
            ref = [protocols.amplify_iterate(protocols.IdealCat(float(a), r), 1)[0]
                   .fidelity_vs_target for a in np.linspace(0.0, 2.5, 26)]
        else:
            ref = None
        self._refs[key] = ref
        return ref

    def check(self, inp, out) -> tuple[bool, dict]:
        key, argv = inp
        code, stdout, stderr, _, _ = out
        if code != 0:
            return False, {"command": key, "exit_code": code,
                           "error": stderr.decode(errors="replace")[-500:]}
        text = stdout.decode()
        if key == "version":
            import cvcat

            return text.strip() == f"cvcat, version {cvcat.__version__}", {"command": key}
        meta, rows = parse_table(text)
        ref = self._reference(key, argv)
        if key == "truncation_oracle":
            gap = max(abs(float(r["F_formula"]) - float(r["F_fock"])) for r in rows)
            spot = max(abs(float(r["F_squeezed_oracle"]) - float(r["F_squeezed"]))
                       for r in rows)
            ok = len(rows) == 26 and gap <= 1e-10 and spot <= 1e-7
            gap = max(gap, spot)
        elif key in ("fidelity_map_approx", "fidelity_map_oracle"):
            gap = max(abs(float(r["fidelity"]) - f) for r, (_, _, f) in zip(rows, ref))
            ok = len(rows) == len(ref) and gap <= 1e-12
            if key == "fidelity_map_oracle":
                spot = float(meta["oracle_spot_check.difference"])
                gap, ok = max(gap, spot), ok and spot <= 1e-7
        elif key == "avg_fidelity_ideal":
            gap = max(abs(r["value"] - ref[r["parametrization"]]) for r in rows)
            ok = meta["within_band"] is True and len(rows) == len(ref) and gap <= 1e-12
        elif key == "amplify_ideal_oracle":
            spot = float(meta["oracle_spot_check.difference"])
            gap = max(abs(float(r["fidelity"]) - f) for r, f in zip(rows, ref))
            ok = len(rows) == len(ref) and gap <= 1e-12 and spot <= 1e-7
        else:  # amplify_approx
            gap = max(1.0 - float(r["ladder_match"]) for r in rows)
            ok = len(rows) == 3 and gap <= 1e-10
        return bool(ok), {"command": key, "gap": gap}

    def fingerprint(self, out):
        return (out[0], out[1])


WORKLOADS = {w.name: w for w in (TeleportSweep, AmplifyChain, OracleCrosscheck, CliCold)}
