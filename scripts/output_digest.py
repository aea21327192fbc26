#!/usr/bin/env python3
"""Print a SHA-256 digest of the engine's exact outputs, one line per family.

Usage: python scripts/output_digest.py

Each line reads ``<family> <count> <sha256>``.  The digest covers the exact
bytes of every output: the exponents, coefficients, Q, L and offset of each
term of a state, complex amplitudes as their two doubles, and weights and
fidelities as ``float.hex``.  An error counts as its class name.  A change
meant to leave every output bitwise as it was prints the same lines before
and after.  The families:

* ``teleport``: ladder resources n = 1..32, three signals, beta auto and 0.7;
* ``ideal_teleport``: even and odd ideal resources at alpha = 0.5, sqrt(1.3)
  and 1.5, the same signals and beta values;
* ``channel``: the resolved beta, the overlap matrix and the basis and
  output Gram matrices of ``teleport_channel`` for the resources and beta
  values of the two teleport families;
* ``ideal_chain``: five-step ideal-cat amplify chains over the 16-alpha grid
  of ``perfbench``'s ``amplify_chain`` plus alpha = 0, 1.0 and 1.0 + 1e-12,
  at r = 0.4 and 0.4029;
* ``ladder_chain``: ladder amplify chains from n = 1, 2, 4 and 8 up to n = 32;
* ``operations``: a seeded corpus of 1..3-mode operations, with same-mode,
  permuted and disjoint ``multiply`` and ``evaluate`` on a few points.
"""

import hashlib
import math
import struct

import numpy as np

from cvcat import gausspoly as gp
from cvcat import oracle, protocols, states
from cvcat.errors import EngineError

R_BENCH = 0.4029
SEED = 20081


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, *parts: bytes) -> None:
        self.count += 1
        for p in parts:
            self.sha.update(p)

    def line(self, family: str) -> str:
        return f"{family} {self.count} {self.sha.hexdigest()}"


def c2b(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def f2b(x: float) -> bytes:
    return float(x).hex().encode()


def state_bytes(u) -> bytes:
    if u is None:
        return b"none"
    if not isinstance(u, gp.GaussPolyState):
        return c2b(u)
    out = [",".join(u.modes).encode()]
    for t in u.terms:
        for e, c in t.poly.items():
            out.append(struct.pack(f"<{len(e)}i", *e) + c2b(c))
        out += [b"|", t.quad.tobytes(), t.lin.tobytes(), c2b(t.offset), b";"]
    return b"".join(out)


def guarded(fn, *args) -> bytes:
    try:
        return state_bytes(fn(*args))
    except EngineError as exc:
        return type(exc).__name__.encode()


def teleports(cases) -> Digest:
    d = Digest()
    signals = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j * complex(math.cos(1.1), math.sin(1.1)))]
    for alpha, resource in cases:
        for a, b in signals:
            sig = states.SignalParams(a, b, alpha, R_BENCH)
            for beta in (None, 0.7):
                try:
                    o = protocols.teleport(sig, resource, beta)
                except EngineError as exc:
                    d.add(type(exc).__name__.encode())
                    continue
                d.add(state_bytes(o.output), f2b(o.herald_weight),
                      f2b(o.fidelity_vs_signal), bytes([o.accepted]))
    return d


LADDER_CASES = [(math.sqrt(n / 2.0), protocols.ApproxResource(n)) for n in range(1, 33)]
IDEAL_CASES = [(alpha, protocols.IdealResource(parity))
               for parity in ("even", "odd") for alpha in (0.5, math.sqrt(1.3), 1.5)]


def ladder_teleports() -> Digest:
    return teleports(LADDER_CASES)


def ideal_teleports() -> Digest:
    return teleports(IDEAL_CASES)


def channels() -> Digest:
    d = Digest()
    for alpha, resource in LADDER_CASES + IDEAL_CASES:
        for beta in (None, 0.7):
            try:
                c = protocols.teleport_channel(alpha, R_BENCH, resource, beta)
            except EngineError as exc:
                d.add(type(exc).__name__.encode())
                continue
            d.add(f2b(c.beta), c.overlap.tobytes(), c.basis_gram.tobytes(),
                  c.out_gram.tobytes())
    return d


def chains(sources, steps) -> Digest:
    d = Digest()
    for source, k in zip(sources, steps):
        try:
            outs = protocols.amplify_iterate(source, k)
        except EngineError as exc:
            d.add(type(exc).__name__.encode())
            continue
        for o in outs:
            d.add(state_bytes(o.output), f2b(o.fidelity_vs_target))
    return d


def ideal_chains() -> Digest:
    alphas = [0.3 + 2.2 * k / 15 for k in range(16)] + [0.0, 1.0, 1.0 + 1e-12]
    sources = [protocols.IdealCat(a, r) for r in (0.4, R_BENCH) for a in alphas]
    return chains(sources, [5] * len(sources))


def ladder_chains() -> Digest:
    return chains([protocols.ApproxResource(n) for n in (1, 2, 4, 8)], [5, 4, 3, 2])


def operations() -> Digest:
    d = Digest()
    rng = np.random.default_rng(SEED)
    names = ("x", "y", "z")

    def state(m, modes=None):
        return oracle.random_gauss_poly(rng, m, max_degree=4, modes=modes)

    for _ in range(6):
        for m in (1, 2, 3):
            modes = names[:m]
            u, v = state(m), state(m)
            d.add(guarded(gp.multiply, u, v))
            d.add(guarded(gp.multiply, u, state(m, modes[::-1])))
            d.add(guarded(gp.inner_product, u, v))
            d.add(guarded(gp.superpose, [u, v], [0.3 - 0.2j, 1.1]))
            d.add(guarded(gp.condition_x, u, modes[-1], 0.37))
            d.add(guarded(gp.project_p, u, modes[0], -0.45))
            if m > 1:
                d.add(guarded(gp.beam_splitter, u, modes[0], modes[-1]))
            pts = [np.linspace(-1.5, 1.2, 5) + 0.1 * i for i in range(m)]
            d.add(u.evaluate(*pts).tobytes())
        for mu, mv in ((1, 1), (1, 2), (2, 1)):
            u = state(mu, names[:mu])
            v = state(mv, names[mu:mu + mv])
            d.add(guarded(gp.multiply, u, v))
            d.add(guarded(gp.multiply, v, u))
    return d


def main() -> None:
    for family, make in (("teleport", ladder_teleports), ("ideal_teleport", ideal_teleports),
                         ("channel", channels),
                         ("ideal_chain", ideal_chains), ("ladder_chain", ladder_chains),
                         ("operations", operations)):
        print(make().line(family), flush=True)


if __name__ == "__main__":
    main()
