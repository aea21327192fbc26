import cmath
import math

import numpy as np
import pytest
from pytest import approx

from cvcat import gausspoly, oracle, protocols, states
from cvcat.errors import CapacityError, DomainError, UsageError
from cvcat.gausspoly import (
    beam_splitter,
    condition_x,
    fidelity,
    inner_product,
    multiply,
    norm_squared,
    relabel,
)


ALPHA = math.sqrt(1.3)
R = 0.4029
G = math.exp(-2 * R)


def signal(a, b, alpha=ALPHA, r=R):
    return states.SignalParams(a, b, alpha, r)


class TestTeleportIdeal:
    def test_equal_amplitudes_perfect(self):
        out = protocols.teleport(signal(1, 1, alpha=math.sqrt(2.6)), protocols.IdealResource("even"))
        assert out.accepted
        assert out.fidelity_vs_signal == approx(1.0, abs=1e-9)

    def test_opposite_amplitudes_perfect(self):
        out = protocols.teleport(signal(1, -1), protocols.IdealResource("even"))
        assert out.fidelity_vs_signal == approx(1.0, abs=1e-9)

    def test_output_is_normalised_mode_two(self):
        out = protocols.teleport(signal(0.8, 0.3j), protocols.IdealResource("even"))
        assert out.output.modes == ("2",)
        assert norm_squared(out.output) == approx(1.0, abs=1e-10)
        assert out.herald_weight > 0

    def test_generic_signal_above_lower_bound(self):
        ratio = protocols.signal_content_ratio(ALPHA, "even")
        bound = protocols.fidelity_lower_bound(ratio)
        for a, b in [(1, 0), (1, 1j), (0.3, -0.9)]:
            out = protocols.teleport(signal(a, b), protocols.IdealResource("even"))
            assert bound - 1e-12 <= out.fidelity_vs_signal <= 1 + 1e-10

    def test_odd_resource_runs_with_matched_projection(self):
        res = protocols.IdealResource("odd")
        beta = protocols.default_beta(signal(1, 1), res)
        assert beta == approx(math.pi / (4 * ALPHA * math.sqrt(G)))
        out = protocols.teleport(signal(1, 1), res)
        assert out.accepted
        assert 0.0 <= out.fidelity_vs_signal <= 1 + 1e-10


def branch_weights(alpha, g, parity, beta):
    """The ideal-resource teleport, derived without the engine.  Every stage
    maps products of squeezed coherent states to products of squeezed
    coherent states, so the signal branch S|s alpha> leaves
    sum_t w[s, t] S|t alpha>_2 on mode 2, with

        w_st = N_R p_t pi^-1/2 exp(-(t - s)^2 alpha^2 / 2
                                   + i beta (s + t) alpha sqrt(g) - g beta^2 / 2),

    p_+ = 1, p_- = +/-1 for the even/odd resource and
    N_R = (2 +/- 2 exp(-4 alpha^2))^-1/2.  Branch overlaps are 1 for equal
    branches and exp(-2 alpha^2) for opposite ones: returns (w, their Gram
    matrix), rows and columns ordered s, t = +1, -1."""
    sign = 1.0 if parity == "even" else -1.0
    n_r = (2.0 + 2.0 * sign * math.exp(-4.0 * alpha ** 2)) ** -0.5
    branches = (1.0, -1.0)
    w = np.array([[n_r * (1.0 if t > 0 else sign) / math.sqrt(math.pi)
                   * cmath.exp(-(t - s) ** 2 * alpha ** 2 / 2.0
                               + 1j * beta * (s + t) * alpha * math.sqrt(g) - g * beta ** 2 / 2.0)
                   for t in branches] for s in branches])
    k = math.exp(-2.0 * alpha ** 2)
    return w, np.array([[1.0, k], [k, 1.0]])


def ideal_teleport_closed_form(p, parity, beta):
    """(fidelity, herald weight) of the ideal-resource teleport from
    ``branch_weights``."""
    w, gram = branch_weights(p.alpha, p.g, parity, beta)
    d = np.array([p.a, p.b], dtype=complex)
    d = d / math.sqrt((d.conj() @ gram @ d).real)
    c = d @ w
    weight = (c.conj() @ gram @ c).real
    return abs(d.conj() @ gram @ c) ** 2 / weight, weight


class TestTeleportIdealClosedForm:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("beta", [None, 0.37])
    @pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (1, 1), (0.8, 0.3j),
                                      (0.3, -0.7 + 0.2j)])
    def test_fidelity_and_weight_match(self, parity, beta, a, b):
        p = signal(a, b)
        res = protocols.IdealResource(parity)
        out = protocols.teleport(p, res, beta)
        used = protocols.default_beta(p, res) if beta is None else beta
        fid, weight = ideal_teleport_closed_form(p, parity, used)
        assert abs(out.fidelity_vs_signal - fid) <= 1e-13
        assert abs(out.herald_weight - weight) <= 1e-13 * weight

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("beta", [None, 0.37])
    @pytest.mark.parametrize("alpha, r", [(0.5, R), (ALPHA, R), (1.5, R), (ALPHA, -0.3),
                                          (1.5, 0.0)])
    def test_channel_matrices_match(self, parity, beta, alpha, r):
        # M = <basis_i|out_j>, S = <basis_i|basis_j>, H = <out_i|out_j> with
        # out_s = sum_t w[s, t] S|t alpha>; every entry of these cases agrees
        # to 2.6e-15 of its own size
        chan = protocols.teleport_channel(alpha, r, protocols.IdealResource(parity), beta)
        w, gram = branch_weights(alpha, math.exp(-2.0 * r), parity, chan.beta)
        for got, ref in ((chan.overlap, gram @ w.T), (chan.basis_gram, gram),
                         (chan.out_gram, w.conj() @ gram @ w.T)):
            assert np.all(np.abs(got - ref) <= 5e-15 * np.abs(ref))


def pipeline_teleport(p, resource, beta):
    """Reference: the protocol as one pipeline run on the normalised two-term
    signal, then (output, herald weight, fidelity) of the normalised result."""
    sig = states.make_signal(p, mode="s")
    raw = protocols._pipeline(sig, protocols.resource_state(resource, p), beta)
    out = raw.normalized()
    return out, norm_squared(raw), fidelity(relabel(sig, {"s": "2"}), out)


class TestTeleportApprox:
    def test_equal_amplitudes_benchmark(self):
        out = protocols.teleport(signal(1, 1), protocols.ApproxResource(2))
        assert out.fidelity_vs_signal == approx(0.9996, abs=0.0003)

    def test_opposite_amplitudes_benchmark(self):
        out = protocols.teleport(signal(1, -1), protocols.ApproxResource(2))
        assert out.fidelity_vs_signal == approx(0.9974, abs=0.0005)

    def test_identity_resource(self):
        out = protocols.teleport(signal(0.6, 0.4), protocols.IdentityResource())
        assert out.fidelity_vs_signal == approx(1.0)

    def test_channel_matches_direct_teleport(self):
        res = protocols.ApproxResource(2)
        chan = protocols.teleport_channel(ALPHA, R, res)
        for a, b in [(1, 1), (1, -1), (0.7, 0.3j), (0.2, 1)]:
            fid = pipeline_teleport(signal(a, b), res, chan.beta)[2]
            assert chan.fidelity(a, b) == approx(fid, abs=1e-12)

    def test_channel_refuses_vanishing_herald(self):
        # at alpha = 1e6 every heralded branch output underflows to zero
        chan = protocols.teleport_channel(1e6, R, protocols.ApproxResource(2))
        assert not np.any(chan.out_gram)
        with pytest.raises(DomainError, match="herald weight"):
            chan.fidelity_grid(np.array([1.0, 0.6]), np.array([0.0, 0.8]))

    def test_teleport_rejects_vanishing_herald(self):
        # at alpha = 40 the herald weight of a = 1, b = 0 is not above HERALD_FLOOR
        res = protocols.ApproxResource(2)
        out = protocols.teleport(signal(1, 0, alpha=40.0, r=0.0), res)
        assert (out.accepted, out.output) == (False, None)
        assert (out.herald_weight, out.fidelity_vs_signal) == (0.0, 0.0)
        with pytest.raises(DomainError, match="herald weight"):
            protocols.teleport_channel(40.0, 0.0, res).fidelity(1, 0)


class TestTeleportOracle:
    @pytest.mark.parametrize("n", [16, 32])
    def test_fidelity_matches_quadrature(self, n):
        # signal amplitude matched to the ladder, sqrt(n/2); the quadrature
        # on this 1024-point grid agrees with a 4096-point grid on [-18, 18]
        # to 5e-16 at both n
        p = signal(math.cos(math.pi / 4), math.sin(math.pi / 4), alpha=math.sqrt(n / 2))
        res = protocols.ApproxResource(n)
        grid = oracle.GridSpec(points=1024)
        direct = oracle.quad_fidelity(
            oracle.sample(states.make_signal(p), grid),
            oracle.quad_teleport(p, n, protocols.default_beta(p, res), grid), grid)
        assert abs(protocols.teleport(p, res).fidelity_vs_signal - direct) < 1e-7

    def test_output_is_the_normalised_pipeline_state(self):
        # teleport reads everything from the branch channel; it agrees with
        # the pipeline run on the whole signal to the last bits
        resources = [protocols.ApproxResource(n) for n in range(1, 33)] \
            + [protocols.IdealResource("even"), protocols.IdealResource("odd")]
        for res in resources:
            n = res.n if isinstance(res, protocols.ApproxResource) else 2
            p = signal(0.6, 0.8j * cmath.exp(1.1j), alpha=math.sqrt(n / 2))
            for beta in (protocols.default_beta(p, res), 0.7):
                out = protocols.teleport(p, res, beta)
                ref, weight, fid = pipeline_teleport(p, res, beta)
                assert out.output.modes == ref.modes
                for t, u in zip(out.output.terms, ref.terms, strict=True):
                    assert t.quad.tobytes() == u.quad.tobytes()
                    assert t.lin.tobytes() == u.lin.tobytes()
                assert 1.0 - fidelity(out.output, ref) <= 1e-14
                assert abs(out.fidelity_vs_signal - fid) <= 1e-14
                assert abs(out.herald_weight - weight) <= 1e-14 * weight


def two_branch_channel(alpha, r, resource, beta):
    """Reference: the channel with the pipeline run once per branch and all
    twelve inner products taken.  Returns (beta, M, S, H, branch outputs)."""
    probe = states.SignalParams(1.0, 0.0, alpha, r)
    if beta is None:
        beta = protocols.default_beta(probe, resource)
    branches = [states.make_squeezed_coherent(s * alpha, r, "s") for s in (1.0, -1.0)]
    basis = [relabel(b, {"s": "2"}) for b in branches]
    if isinstance(resource, protocols.IdentityResource):
        outs = basis
    else:
        res = protocols.resource_state(resource, probe)
        outs = [protocols._pipeline(b, res, beta) for b in branches]
    m = np.array([[inner_product(bi, oj) for oj in outs] for bi in basis])
    s = np.array([[inner_product(bi, bj) for bj in basis] for bi in basis])
    h = np.array([[inner_product(oi, oj) for oj in outs] for oi in outs])
    return beta, m, s, h, outs


def term_bytes(u):
    """Each term of a state as the bytes of its Q, L, offset and sorted
    coefficients, every number as a complex double."""
    return [b"".join([q.tobytes(), lin.tobytes(), np.complex128(off).tobytes()]
                     + [repr(e).encode() + np.complex128(c).tobytes()
                        for e, c in sorted(poly.items())])
            for poly, q, lin, off in zip(u._polys, u._quads, u._lins, u._offsets)]


LADDER_MIRROR_CASES = [(math.sqrt(max(n, 1) / 2), R, protocols.ApproxResource(n), beta)
                       for n in range(33) for beta in (None, 0.7)]
IDEAL_MIRROR_CASES = [(alpha, r, protocols.IdealResource(parity), beta)
                      for parity in ("even", "odd") for r in (R, 0.0, -0.3)
                      for alpha, beta in ((ALPHA, None), (1.5, 0.37))]
IDENTITY_MIRROR_CASES = [(ALPHA, R, protocols.IdentityResource(), None)]

# |Im H_ij - Im H_ij(reference)| <= 6.4e-20 |H_ij| over these cases with the
# extended-precision sums of x86-64: H_11 = H_00 and H_10 = conj(H_01) differ
# from the contractions <o_-|o_-> and <o_-|o_+> only in their rounding residue
H_IMAG_RTOL = 2.0 * float(np.finfo(np.longdouble).eps)

PARITY_CASES = [protocols.IdealResource("even"), protocols.IdealResource("odd"),
                *(protocols.ApproxResource(n) for n in (0, 1, 2, 3, 8, 17)),
                protocols.IdentityResource()]


class TestMirroredBranch:
    """``teleport_channel`` runs the pipeline for S|alpha> only and takes the
    other branch output and half of the matrix entries from the resource's
    parity under x -> -x."""

    @pytest.mark.parametrize("alpha, r, resource, beta",
                             LADDER_MIRROR_CASES + IDEAL_MIRROR_CASES + IDENTITY_MIRROR_CASES)
    def test_matches_the_two_branch_channel(self, alpha, r, resource, beta):
        ref_beta, m, s, h, outs = two_branch_channel(alpha, r, resource, beta)
        chan = protocols.teleport_channel(alpha, r, resource, beta)
        assert chan.beta == ref_beta
        assert chan.overlap.tobytes() == m.tobytes()
        assert chan.basis_gram.tobytes() == s.tobytes()
        assert chan.out_gram.real.tobytes() == h.real.tobytes()
        assert np.all(np.abs(chan.out_gram.imag - h.imag) <= H_IMAG_RTOL * np.abs(h))
        assert term_bytes(chan.outputs[0]) == term_bytes(outs[0])
        if isinstance(resource, protocols.IdealResource):
            # the mirror lists the two coherent terms in the other order
            assert sorted(term_bytes(chan.outputs[1])) == sorted(term_bytes(outs[1]))
        else:
            assert term_bytes(chan.outputs[1]) == term_bytes(outs[1])

    @pytest.mark.parametrize("resource", PARITY_CASES, ids=repr)
    def test_resource_has_its_parity(self, resource):
        # res(-x1, -x2) = p res(x1, x2); the identity resource passes the
        # signal on, so its branches must be mirror images
        p = signal(1, 0)
        x1, x2 = np.meshgrid(np.linspace(-3.1, 2.9, 13), np.linspace(-2.7, 3.3, 11))
        if isinstance(resource, protocols.IdentityResource):
            plus = states.make_squeezed_coherent(ALPHA, R, "2")
            minus = states.make_squeezed_coherent(-ALPHA, R, "2")
            got, want = minus.evaluate(x1), plus.evaluate(-x1)
        else:
            res = protocols.resource_state(resource, p)
            got = res.evaluate(-x1, -x2)
            want = protocols._parity(resource) * res.evaluate(x1, x2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_every_resource_kind_has_a_parity_case(self):
        assert {type(res) for res in PARITY_CASES} == set(protocols.Resource.__args__)

    @pytest.mark.parametrize("resource", [protocols.ApproxResource(2),
                                          protocols.IdealResource("odd")], ids=repr)
    def test_one_pipeline_run_and_six_inner_products(self, monkeypatch, resource):
        calls = {"pipeline": 0, "inner": 0}
        pipeline, inner = protocols._pipeline, protocols.inner_product

        def counted_pipeline(*args):
            calls["pipeline"] += 1
            return pipeline(*args)

        def counted_inner(*args):
            calls["inner"] += 1
            return inner(*args)

        monkeypatch.setattr(protocols, "_pipeline", counted_pipeline)
        monkeypatch.setattr(protocols, "inner_product", counted_inner)
        protocols.teleport_channel(ALPHA, R, resource)
        assert calls == {"pipeline": 1, "inner": 6}

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_a_usage_error(self, beta):
        with pytest.raises(UsageError, match="beta"):
            protocols.teleport_channel(ALPHA, R, protocols.ApproxResource(2), beta)
        with pytest.raises(UsageError, match="beta"):
            protocols.teleport(signal(1, 0), protocols.IdealResource("even"), beta)


class TestClosedForm:
    def test_vacuum_resource_single_term(self):
        state = protocols.output_closed_form(signal(1, 0), 0, 0.0)
        assert len(state.terms) == 1

    def test_agreement_with_pipeline(self):
        beta_star = math.pi / (4 * ALPHA * math.sqrt(G))
        for beta in (0.0, beta_star):
            for theta in np.linspace(0.2, 1.4, 5):
                for phi in np.linspace(0.0, 5.5, 5):
                    p = signal(math.cos(theta), math.sin(theta) * np.exp(1j * phi))
                    eng = protocols.teleport(p, protocols.ApproxResource(2), beta=beta).output
                    ref = protocols.output_closed_form(p, 2, beta)
                    assert fidelity(eng, ref) >= 1 - 1e-8

    def test_alt_beta_terms_disagree_off_axis(self):
        p = signal(0.7, 0.3j)
        eng = protocols.teleport(p, protocols.ApproxResource(2), beta=0.3).output
        alt = protocols.output_closed_form(p, 2, 0.3, alt_beta_terms=True)
        assert fidelity(eng, alt) < 1 - 1e-4

    def test_random_amplitudes_at_nonzero_beta(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(a) + abs(b) < 0.2:
                continue
            p = signal(a, b)
            eng = protocols.teleport(p, protocols.ApproxResource(2), beta=0.3).output
            assert fidelity(eng, protocols.output_closed_form(p, 2, 0.3)) >= 1 - 1e-8


class TestContentRatio:
    def test_even_formula(self):
        assert protocols.signal_content_ratio(math.sqrt(2.6), "even") \
            == approx(math.exp(5.2), rel=1e-14)

    def test_small_amplitude_limit(self):
        assert protocols.signal_content_ratio(1e-8, "even") == approx(1.0, abs=1e-16 + 1e-7)

    def test_odd_below_even(self):
        for alpha in (0.5, 1.0, 2.0):
            even = protocols.signal_content_ratio(alpha, "even")
            odd = protocols.signal_content_ratio(alpha, "odd")
            assert odd < even
            assert odd / even == approx(math.sqrt(math.tanh(2 * alpha ** 2)), rel=1e-12)

    def test_parity_gap_closes_with_amplitude(self):
        gaps = [1 - protocols.signal_content_ratio(a, "odd") / protocols.signal_content_ratio(a, "even")
                for a in (0.5, 1.0, 1.5, 2.0)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_engine_agreement(self):
        for alpha in (0.5, 1.0, math.sqrt(2.6)):
            engine = protocols.engine_content_ratio(alpha, R)
            assert engine == approx(math.exp(2 * alpha ** 2), rel=1e-8)

    def test_squeezing_invariance(self):
        base = protocols.engine_content_ratio(1.0, 0.0)
        for r in (0.2, R, 0.8):
            assert protocols.engine_content_ratio(1.0, r) == approx(base, rel=1e-10)

    def test_heralding_amplitude_relations(self):
        amp = protocols.signal_content_amplitudes(ALPHA, R)
        assert amp["x_vac"] == approx((math.pi * G) ** -0.25, rel=1e-12)
        assert amp["p_vac"] == approx((G / math.pi) ** 0.25, rel=1e-12)
        # the vacuum branch dominates the quadrature amplitude pair
        assert amp["x_vac"] == approx(0.5 * math.exp(2 * ALPHA ** 2) * amp["x_even"], rel=1e-12)
        assert amp["p_vac"] == approx(0.5 * amp["p_even"], rel=1e-12)
        assert abs(amp["p_beta_even"]) < 1e-12
        beta = math.pi / (4 * ALPHA * math.sqrt(G))
        expected_odd = 2j * math.sin(2 * ALPHA * beta * math.sqrt(G)) * amp["p_beta_vac"]
        assert amp["p_beta_odd"] == approx(expected_odd, rel=1e-12)


class TestLowerBound:
    def test_midpoint(self):
        assert protocols.fidelity_lower_bound(1.0) == approx(0.5)

    def test_benchmark_value(self):
        val = protocols.fidelity_lower_bound(math.exp(2 * 2.6))
        assert val == approx(0.99997, abs=1e-5)

    def test_monotone(self):
        rs = np.linspace(0.1, 10.0, 40)
        vals = [protocols.fidelity_lower_bound(r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            protocols.fidelity_lower_bound(0.0)


class TestFidelityMap:
    def test_ideal_max_at_equal_amplitudes(self):
        grid = protocols.SweepGrid(9, 9)
        rows = protocols.fidelity_map(protocols.IdealResource("even"), ALPHA, R, grid)
        best = max(rows, key=lambda row: row[2])
        assert best[0] == approx(math.pi / 4)
        assert best[2] == approx(1.0, abs=1e-9)

    def test_phi_periodicity(self):
        grid = protocols.SweepGrid(5, 9)
        rows = protocols.fidelity_map(protocols.ApproxResource(2), ALPHA, R, grid)
        by_theta: dict = {}
        for theta, phi, f in rows:
            by_theta.setdefault(theta, []).append(f)
        for vals in by_theta.values():
            assert vals[0] == approx(vals[-1], rel=1e-12)

    def test_all_values_are_valid_fidelities(self):
        grid = protocols.SweepGrid(7, 7)
        for res in (protocols.IdealResource("even"), protocols.ApproxResource(2)):
            for _, _, f in protocols.fidelity_map(res, ALPHA, R, grid):
                assert 0.0 <= f <= 1.0 + 1e-10

    def test_benchmark_extremes(self):
        grid = protocols.SweepGrid(5, 5)  # contains (pi/4, 0) and (pi/4, pi)
        rows = protocols.fidelity_map(protocols.ApproxResource(2), ALPHA, R, grid)
        lookup = {(round(t, 10), round(p, 10)): f for t, p, f in rows}
        q = math.pi / 4
        assert lookup[(round(q, 10), 0.0)] == approx(0.9996, abs=0.0003)
        assert lookup[(round(q, 10), round(math.pi, 10))] == approx(0.9974, abs=0.0005)

    def test_grid_validation(self):
        with pytest.raises(UsageError):
            protocols.SweepGrid(1, 5)


class TestAverageFidelity:
    def test_identity_channel(self):
        res = protocols.average_fidelity(protocols.IdentityResource(), ALPHA, R)
        assert res.value == approx(1.0, abs=1e-9)
        assert res.converged

    def test_ideal_benchmark(self):
        res = protocols.average_fidelity(protocols.IdealResource("even"), ALPHA, R)
        assert res.value == approx(0.9963, abs=0.002)
        assert res.parametrization == "half-angle"

    def test_approx_benchmark_both_parametrizations(self):
        both = protocols.average_fidelity_both(protocols.ApproxResource(2), ALPHA, R)
        assert set(both) == {"half-angle", "figure-angle"}
        assert both["half-angle"].value == approx(0.9963, abs=0.002)
        # ideal and approximate resources give nearly the same average
        ideal = protocols.average_fidelity(protocols.IdealResource("even"), ALPHA, R)
        assert abs(ideal.value - both["half-angle"].value) < 2e-4

    def test_both_parametrizations_share_one_channel(self, monkeypatch):
        calls = []
        channel = protocols.teleport_channel

        def counted(*args):
            calls.append(args)
            return channel(*args)

        monkeypatch.setattr(protocols, "teleport_channel", counted)
        both = protocols.average_fidelity_both(protocols.ApproxResource(2), ALPHA, R)
        assert len(calls) == 1
        for p, avg in both.items():
            ref = protocols.average_fidelity(protocols.ApproxResource(2), ALPHA, R,
                                             parametrization=p)
            assert avg == ref

    def test_non_convergence_raises(self):
        quad = protocols.BlochQuadrature(8, 16, tol=0.0, max_doublings=1)
        with pytest.raises(DomainError):
            protocols.average_fidelity(protocols.IdealResource("even"), ALPHA, R, quad)


def splitter_amplify(u):
    """Reference: the amplify step as a two-mode product, a balanced beam
    splitter and x_2 = 0, normalised."""
    pair = multiply(relabel(u, {u.modes[0]: "1"}), relabel(u, {u.modes[0]: "2"}))
    return condition_x(beam_splitter(pair, "1", "2"), "2", 0.0).normalized()


class TestAmplify:
    @pytest.mark.parametrize("source, steps", [
        (protocols.IdealCat(0.3, R), 5), (protocols.IdealCat(1.3, R), 5),
        (protocols.IdealCat(2.5, R), 5), (protocols.IdealCat(1.3, -0.3), 5),
        (protocols.ApproxResource(1), 5), (protocols.ApproxResource(3), 3),
        (protocols.ApproxResource(8), 2)])
    def test_step_matches_the_beam_splitter_route(self, source, steps):
        # the reference merges only equal forms, so it keeps a lattice
        # point's rounding twins apart (27 terms against 17 at alpha = 0.3,
        # step 4); each of its forms lies within 8.1e-16 of its largest entry
        # of a form of ``out``, and 1 - F within 1.8e-15 (measured)
        ideal = isinstance(source, protocols.IdealCat)
        if ideal:
            cur = states.make_ideal_squeezed_cat(source.alpha, source.r, "even", "1")
        else:
            cur = states.make_approx(source.n, "1")
        for k in range(1, steps + 1):
            out, ref = protocols._amplify_state(cur), splitter_amplify(cur)
            assert len(out.terms) == (2 ** k + 1 if ideal else 1)
            forms = np.concatenate([out._quads.reshape(len(out._quads), -1), out._lins], axis=1)
            for want in np.concatenate([ref._quads.reshape(len(ref._quads), -1), ref._lins],
                                       axis=1):
                assert np.min(np.max(np.abs(forms - want), axis=1)) \
                    <= 1e-15 * np.max(np.abs(want))
            assert 1.0 - fidelity(out, ref) <= 1e-14
            if isinstance(source, protocols.IdealCat):
                target = states.make_ideal_squeezed_cat(source.alpha * 2 ** (k / 2), source.r,
                                                        "even", "1")
            else:
                target = states.make_approx(source.n * 2 ** k, "1")
            assert abs(fidelity(out, target) - fidelity(ref, target)) <= 1e-14
            cur = out

    def test_step_builds_no_two_mode_state(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the amplify step mixes no modes")

        monkeypatch.setattr(protocols, "beam_splitter", refuse)
        monkeypatch.setattr(protocols, "condition_x", refuse)
        for source in (protocols.IdealCat(1.3, R), protocols.ApproxResource(2)):
            protocols.amplify_iterate(source, 3)

    def test_ladder_doubling_exact(self):
        for n in (1, 2, 4):
            out = protocols.amplify(protocols.ApproxResource(n))
            assert fidelity(out.output, states.make_approx(2 * n, "1")) \
                == approx(1.0, abs=1e-10)

    def test_ladder_fitted_target_reported(self):
        out = protocols.amplify(protocols.ApproxResource(1))
        fit = states.fit_effective_params(2)
        assert out.fidelity_vs_target == approx(fit.fidelity, abs=1e-9)

    def test_vacuum_input_trivial(self):
        out = protocols.amplify(protocols.IdealCat(0.0, R))
        assert out.fidelity_vs_target == approx(1.0, abs=1e-12)
        assert protocols.amplification_spurious(0.0, R)

    def test_large_amplitude_faithful(self):
        for alpha in (1.5, 2.0, 2.5):
            out = protocols.amplify(protocols.IdealCat(alpha, R))
            assert out.fidelity_vs_target > 0.99
            assert not protocols.amplification_spurious(alpha, R)

    def test_squeezing_independent(self):
        vals = [protocols.amplify(protocols.IdealCat(0.9, r)).fidelity_vs_target
                for r in (0.0, 0.3, 0.8)]
        assert vals[0] == approx(vals[1], rel=1e-12)
        assert vals[0] == approx(vals[2], rel=1e-12)

    def test_iterate_small_amplitude_decays(self):
        seq = protocols.amplify_iterate(protocols.IdealCat(0.3, R), 3)
        fids = [o.fidelity_vs_target for o in seq]
        assert fids[1] < fids[0]
        assert fids[2] < fids[1]

    def test_iterate_large_beats_small(self):
        small = protocols.amplify_iterate(protocols.IdealCat(0.3, R), 2)
        large = protocols.amplify_iterate(protocols.IdealCat(1.5, R), 2)
        for s, b in zip(small, large):
            assert b.fidelity_vs_target >= s.fidelity_vs_target

    def test_iterate_ladder_doubles_exactly(self):
        seq = protocols.amplify_iterate(protocols.ApproxResource(1), 3)
        for k, out in enumerate(seq, start=1):
            ladder = states.make_approx(2 ** k, "1")
            assert fidelity(out.output, ladder) == approx(1.0, abs=1e-10)

    def test_ideal_chains_keep_exact_term_counts(self):
        grid = [0.3 + 2.2 * k / 15 for k in range(16)]
        for alpha in grid + [1.0, 1.0 + 1e-12, float(np.nextafter(1.0, 2.0)), 1.3000000000000003]:
            seq = protocols.amplify_iterate(protocols.IdealCat(alpha, R), 5)
            assert [len(o.output.terms) for o in seq] == [3, 5, 9, 17, 33], alpha

    def test_tiny_cat_keeps_both_branches(self):
        # its branches' forms differ by 1e-13 of their largest entry, yet are distinct
        assert len(states.make_ideal_squeezed_cat(1e-13, R).terms) == 2
        seq = protocols.amplify_iterate(protocols.IdealCat(1e-13, R), 5)
        assert [len(o.output.terms) for o in seq] == [3, 5, 9, 17, 33]
        for o in seq:
            assert abs(o.fidelity_vs_target - 1.0) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_fifth_step_fidelity_matches_quadrature(self, alpha):
        out = protocols.amplify_iterate(protocols.IdealCat(alpha, R), 5)[-1]
        target = states.make_ideal_squeezed_cat(alpha * 2 ** 2.5, R, "even", "1")
        grid = oracle.GridSpec(-18.0, 18.0, 4096)
        direct = oracle.quad_fidelity(oracle.sample(target, grid),
                                      oracle.sample(out.output, grid), grid)
        assert out.fidelity_vs_target == approx(direct, abs=1e-7)

    def test_capacity_error_carries_step(self):
        with pytest.raises(CapacityError) as err:
            protocols.amplify_iterate(protocols.ApproxResource(8), 3)
        assert "step 3" in str(err.value)

    def test_pair_cap_refuses_before_the_first_step(self, monkeypatch):
        # step 11 squares 1025 terms; no step runs before the refusal
        calls = []
        real = protocols._amplify_state
        monkeypatch.setattr(protocols, "_amplify_state", lambda u: calls.append(1) or real(u))
        with pytest.raises(CapacityError) as err:
            protocols.amplify_iterate(protocols.IdealCat(1.0, 0.4), 11)
        assert str(err.value) == "term-pair cap 1048576 exceeded: 1025 x 1025 terms at step 11"
        assert calls == []

    def test_ten_step_chain_fits_the_pair_cap(self, monkeypatch):
        # the steps themselves are stubbed out: only the capacity check runs in full
        monkeypatch.setattr(protocols, "_amplify_state", lambda u: u)
        out = protocols.amplify_iterate(protocols.IdealCat(1.0, 0.4), 10)
        assert len(out) == 10

    def test_pair_cap_names_capacity_and_step(self, monkeypatch):
        # steps 1-3 square 2, 3 and 5 terms: 4, 9 and 25 pairs
        monkeypatch.setattr(gausspoly, "_PAIR_CAP", 16)
        with pytest.raises(CapacityError) as err:
            protocols.amplify_iterate(protocols.IdealCat(1.0, R), 3)
        assert "term-pair cap 16" in str(err.value)
        assert "step 3" in str(err.value)

    def test_amplify_capacity(self):
        with pytest.raises(CapacityError):
            protocols.amplify(protocols.ApproxResource(32))

    def test_steps_validation(self):
        with pytest.raises(UsageError):
            protocols.amplify_iterate(protocols.IdealCat(1.0, R), 0)

    @pytest.mark.parametrize("alpha, r", [(-1.0, R), (-1e-300, R), (math.nan, R),
                                          (math.inf, R), (1.0, math.nan), (1.0, math.inf),
                                          (1.0, 400.0), (1.0, -400.0)])
    def test_input_rejects_negative_or_non_finite(self, alpha, r):
        with pytest.raises(UsageError):
            protocols.IdealCat(alpha, r)


class TestSweepCurve:
    def test_single_step_curve_shape(self):
        alphas = np.linspace(0.0, 2.5, 26)
        fids = [protocols.amplify(protocols.IdealCat(float(a), R)).fidelity_vs_target
                for a in alphas]
        diffs = np.abs(np.diff(fids))
        assert float(np.max(diffs)) < 0.05  # continuous on this grid
        assert fids[0] == approx(1.0, abs=1e-12)  # spurious near-unity point
        assert protocols.amplification_spurious(float(alphas[0]), R)
        for a, f in zip(alphas, fids):
            if a >= 1.5:
                assert f > 0.99
        assert min(fids) < 0.97  # genuine dip at intermediate amplitude
