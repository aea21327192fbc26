"""Ideal-cat amplify chains against an engine-free coherent-branch reference.

An amplify step mixes two copies of a state on a balanced beam splitter and
keeps x = 0 in one arm.  On a sum of squeezed coherent states it acts branch
by branch:

    sum_i w_i S|a_i>  ->  sum_ij w_i w_j exp(-(a_i - a_j)^2 / 2) S|(a_i + a_j)/sqrt2>

up to normalisation, with the overlaps <S a|S b> = exp(-(a - b)^2 / 2) for
real a and b.  Starting from the even cat S(|alpha> + |-alpha>), the branch
amplitudes after k steps are alpha q 2^(-k/2) for integers q, so branches are
merged exactly by q.  Everything is evaluated in 40-digit mpmath; the
reference knows nothing of ``gausspoly``.
"""

import math

import mpmath
import pytest

from cvcat import protocols

R = 0.4029
STEPS = 5
ALPHAS = [0.3 + 2.2 * k / 15 for k in range(16)]  # perfbench's amplify_chain grid


def branch_chain(alpha, steps):
    """(branch count, fidelity against the even cat of amplitude
    alpha 2^(k/2)) after each step k = 1 .. steps."""
    with mpmath.workdps(40):
        alpha = mpmath.mpf(alpha)
        branches = {1: mpmath.mpf(1), -1: mpmath.mpf(1)}  # q -> weight
        out = []
        for k in range(1, steps + 1):
            prev_unit = alpha * mpmath.mpf(2) ** (-mpmath.mpf(k - 1) / 2)
            grown = {}
            for qi, wi in branches.items():
                for qj, wj in branches.items():
                    d = (qi - qj) * prev_unit
                    grown[qi + qj] = grown.get(qi + qj, 0) + wi * wj * mpmath.exp(-d * d / 2)
            branches = grown
            unit = alpha * mpmath.mpf(2) ** (-mpmath.mpf(k) / 2)

            def overlap(q, p):
                return mpmath.exp(-((q - p) * unit) ** 2 / 2)

            norm = sum(wi * wj * overlap(qi, qj)
                       for qi, wi in branches.items() for qj, wj in branches.items())
            target = {2 ** k: 1, -(2 ** k): 1}  # S|A> + S|-A>, A = alpha 2^(k/2)
            t_norm = sum(overlap(qi, qj) for qi in target for qj in target)
            cross = sum(wi * overlap(qi, qt) for qi, wi in branches.items() for qt in target)
            out.append((len(branches), float(cross * cross / (norm * t_norm))))
        return out


# Largest |F_engine - F_branch| over the 80 fidelities: 1.71e-13 (alpha = 2.06,
# step 5), both with the beam-splitter step and with the dilated square; the
# residual is the rounding of the large offsets that meet in the integrals.
CHAIN_TOL = 1.8e-13


@pytest.mark.parametrize("alpha", ALPHAS, ids=[f"{a:.4f}" for a in ALPHAS])
def test_ideal_chain_matches_branch_reference(alpha):
    ref = branch_chain(alpha, STEPS)
    outs = protocols.amplify_iterate(protocols.IdealCat(alpha, R), STEPS)
    assert [len(o.output.terms) for o in outs] == [n for n, _ in ref] == [3, 5, 9, 17, 33]
    for o, (_, f) in zip(outs, ref):
        assert abs(o.fidelity_vs_target - f) <= CHAIN_TOL


@pytest.mark.parametrize("alpha, r", [(1.3, -0.3), (1.3, 0.0), (0.7, 0.8)])
def test_chain_reference_is_squeezing_independent(alpha, r):
    # the branch reference has no r: every squeezing gives the same chain
    ref = branch_chain(alpha, STEPS)
    outs = protocols.amplify_iterate(protocols.IdealCat(alpha, r), STEPS)
    for o, (_, f) in zip(outs, ref):
        assert abs(o.fidelity_vs_target - f) <= CHAIN_TOL


def test_first_step_closed_form():
    # one step from the even cat: three branches with weights 1, 2 e^{-2 alpha^2}, 1
    alpha = 1.1
    (n, f), = branch_chain(alpha, 1)
    e = math.exp(-2.0 * alpha * alpha)
    a = math.sqrt(2.0) * alpha
    k = math.exp(-a * a / 2.0)  # <S|a>|S|0>>
    norm = 2.0 + 2.0 * math.exp(-2.0 * a * a) + 4.0 * e * e + 8.0 * e * k
    cross = 2.0 * (1.0 + math.exp(-2.0 * a * a)) + 4.0 * e * k
    assert n == 3
    assert f == pytest.approx(cross ** 2 / (norm * (2.0 + 2.0 * math.exp(-2.0 * a * a))),
                              rel=1e-14)
