import cmath
import math

import numpy as np
import pytest
from pytest import approx

from cvcat import oracle, protocols, states
from cvcat.errors import CapacityError, DomainError, UsageError
from cvcat.gausspoly import (
    beam_splitter,
    condition_x,
    fidelity,
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
        # Q and L agree to one rounding of their largest entry (1.1e-16
        # measured, on ladder inputs), and 1 - F to 3.6e-15
        if isinstance(source, protocols.IdealCat):
            cur = states.make_ideal_squeezed_cat(source.alpha, source.r, "even", "1")
        else:
            cur = states.make_approx(source.n, "1")
        for k in range(1, steps + 1):
            out, ref = protocols._amplify_state(cur), splitter_amplify(cur)
            assert len(out.terms) == len(ref.terms)
            for got, want in ((out._quads, ref._quads), (out._lins, ref._lins)):
                assert np.max(np.abs(got - want), initial=0.0) \
                    <= 1e-15 * np.max(np.abs(want), initial=0.0)
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
        for alpha in grid + [1.0, 1.0 + 1e-12]:
            seq = protocols.amplify_iterate(protocols.IdealCat(alpha, R), 5)
            assert [len(o.output.terms) for o in seq] == [3, 5, 9, 17, 33], alpha

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
