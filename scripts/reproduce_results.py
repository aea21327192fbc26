#!/usr/bin/env python3
"""Print every headline number of the benchmark parameter set in one run.

Usage: python scripts/reproduce_results.py [--fast]

--fast skips the spherical averages (the slowest part, a few seconds).
"""

import argparse
import sys

from cvcat import fock, protocols, states
from cvcat.gausspoly import fidelity
from cvcat.validate import BENCHMARK_ALPHA_EFF, BENCHMARK_R, SIGNAL_ALPHA


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="skip spherical averages")
    args = parser.parse_args(argv)

    print("== two-level truncation of the even cat ==")
    for alpha in (1.0, 1.5):
        print(f"  F(alpha={alpha}) = {fock.cat_trunc02_formula(alpha):.6f}")
    print(f"  squeezed cat (alpha={BENCHMARK_ALPHA_EFF:.4f}, r={BENCHMARK_R}): "
          f"F = {fock.squeezed_cat_trunc02_fidelity(BENCHMARK_ALPHA_EFF, BENCHMARK_R):.6f}")

    print("== ladder state as an approximate squeezed cat ==")
    cat = states.make_ideal_squeezed_cat(BENCHMARK_ALPHA_EFF, BENCHMARK_R, "even")
    print(f"  fidelity(ladder n=2, cat) = {fidelity(states.make_approx(2), cat):.6f}")
    fit = states.fit_effective_params(2)
    print(f"  fitted parameters: alpha^2 = {fit.alpha ** 2:.4f}, r = {fit.r:.4f}, "
          f"F = {fit.fidelity:.6f}")

    print("== post-selected teleportation ==")
    ideal = protocols.teleport(states.SignalParams(1, 1, SIGNAL_ALPHA, BENCHMARK_R),
                               protocols.IdealResource("even"))
    print(f"  ideal resource, a=b:      F = {ideal.fidelity_vs_signal:.6f}")
    res = protocols.ApproxResource(2)
    for label, (a, b) in (("a=b", (1, 1)), ("a=-b", (1, -1))):
        out = protocols.teleport(states.SignalParams(a, b, SIGNAL_ALPHA, BENCHMARK_R), res)
        print(f"  ladder resource, {label:5s}:   F = {out.fidelity_vs_signal:.6f}")
    ratio = protocols.signal_content_ratio(SIGNAL_ALPHA, "even")
    print(f"  content ratio exp(2 alpha^2) = {ratio:.4f}; "
          f"lower bound = {protocols.fidelity_lower_bound(ratio):.6f}")

    if not args.fast:
        print("== spherical averages ==")
        for name, resource in (("ideal", protocols.IdealResource("even")),
                               ("ladder", res)):
            both = protocols.average_fidelity_both(resource, SIGNAL_ALPHA, BENCHMARK_R)
            line = ", ".join(f"{p}: {a.value:.6f}" for p, a in both.items())
            print(f"  {name:6s} resource: {line}")

    print("== heralded amplification ==")
    for alpha in (0.3, 0.75, 1.5, 2.0):
        out = protocols.amplify(protocols.IdealCat(alpha, BENCHMARK_R))
        flag = " (spurious regime)" if protocols.amplification_spurious(alpha, BENCHMARK_R) else ""
        print(f"  alpha={alpha:4.2f}: F vs sqrt(2)-amplified cat = "
              f"{out.fidelity_vs_target:.6f}{flag}")
    seq = protocols.amplify_iterate(protocols.ApproxResource(1), 3)
    outs = ", ".join(f"n={2 ** (k + 1)}: F_fit={o.fidelity_vs_target:.5f}"
                     for k, o in enumerate(seq))
    print(f"  ladder doubling chain: {outs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
