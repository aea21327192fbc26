import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from cvcat import fock, protocols, states
from cvcat.errors import DomainError, UsageError
from cvcat.gausspoly import (
    beam_splitter,
    condition_x,
    fidelity,
    inner_product,
    multiply,
    norm_squared,
    perturb_first_moment,
    relabel,
    superpose,
)


class TestSignalParams:
    def test_rejects_double_zero(self):
        with pytest.raises(UsageError):
            states.SignalParams(0, 0, 1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(UsageError):
            states.SignalParams(1, 1, 0.0)

    @pytest.mark.parametrize("field", ["a", "b", "alpha", "r"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        params = {"a": 0.6, "b": 0.8, "alpha": 1.1, "r": 0.2, field: bad}
        with pytest.raises(UsageError):
            states.SignalParams(**params)

    def test_rejects_degenerate_combination(self):
        # a = -b at alpha -> 0 annihilates the state
        with pytest.raises(UsageError):
            states.SignalParams(1, -1, 1e-12)

    @pytest.mark.parametrize("r", [400.0, -400.0, 372.0])
    def test_rejects_out_of_range_squeezing(self, r):
        with pytest.raises(UsageError):
            states.SignalParams(0.6, 0.8, 1.1, r)

    def test_g_relation(self):
        p = states.SignalParams(1, 0, 1.0, r=0.4029)
        assert p.g == approx(math.exp(-2 * 0.4029))

    def test_normalisation_formula(self):
        p = states.SignalParams(0.8, 0.6j, 1.1, 0.2)
        raw = superpose([states.make_squeezed_coherent(1.1, 0.2),
                         states.make_squeezed_coherent(-1.1, 0.2)], [0.8, 0.6j])
        assert norm_squared(raw) == approx(p.norm_constant_squared(), rel=1e-12)


class TestMakeSignal:
    def test_single_branch_is_coherent(self):
        sig = states.make_signal(states.SignalParams(1, 0, 1.2, 0.0))
        vec = fock.fock_from_wavefunction(relabel(sig, {"s": "x"}), 30)
        assert fock.fidelity(vec, fock.coherent_fock(1.2, 30)) == approx(1.0, abs=1e-10)

    def test_equal_amplitudes_match_even_cat(self):
        sig = states.make_signal(states.SignalParams(1, 1, 1.3, 0.35), mode="x")
        cat = states.make_ideal_squeezed_cat(1.3, 0.35, "even")
        assert fidelity(sig, cat) == approx(1.0, abs=1e-10)

    def test_branch_swap_overlap_closed_form(self):
        # overlap of the signal with its branch-swapped companion:
        # [(|a|^2+|b|^2) k + 2 Re(a b*)] / [|a|^2+|b|^2 + 2 k Re(a b*)], k = e^{-2 a^2}
        p = states.SignalParams(1, 1j, 1.0, 0.25)
        swapped = states.SignalParams(p.b, p.a, p.alpha, p.r)
        val = inner_product(states.make_signal(p), states.make_signal(swapped))
        k = math.exp(-2.0)
        expected = (2 * k + 0.0) / (2 + 0.0)
        assert val == approx(expected, rel=1e-10)

    def test_branch_swap_overlap_generic(self):
        a, b = 0.8, 0.3 - 0.4j
        p = states.SignalParams(a, b, 0.9, 0.1)
        swapped = states.SignalParams(p.b, p.a, p.alpha, p.r)
        val = inner_product(states.make_signal(p), states.make_signal(swapped))
        k = math.exp(-2 * 0.81)
        num = (abs(a) ** 2 + abs(b) ** 2) * k + 2 * (a * np.conj(b)).real
        den = abs(a) ** 2 + abs(b) ** 2 + 2 * k * (a * np.conj(b)).real
        assert val == approx(num / den, rel=1e-10)


class TestMakeApprox:
    def test_zero_is_vacuum(self):
        assert fidelity(states.make_approx(0), states.make_squeezed_vacuum(1.0)) \
            == approx(1.0, abs=1e-12)

    def test_printed_prefactor_normalises(self):
        for n in (1, 2, 5, 16, 32):
            assert norm_squared(states.make_approx(n)) == approx(1.0, abs=1e-12)

    def test_benchmark_fidelity(self, benchmark_params):
        cat = states.make_ideal_squeezed_cat(benchmark_params["alpha_eff"],
                                             benchmark_params["r"], "even")
        assert fidelity(states.make_approx(2), cat) == approx(0.99, abs=0.005)

    def test_cap(self):
        with pytest.raises(UsageError):
            states.make_approx(33)


class TestSqueezedVacuum:
    def test_identity_at_unit_g(self):
        from cvcat.gausspoly import hermite_gauss
        assert fidelity(states.make_squeezed_vacuum(1.0), hermite_gauss(0)) \
            == approx(1.0, abs=1e-13)

    def test_conditioned_amplitude(self):
        g = 0.4466
        assert condition_x(states.make_squeezed_vacuum(g), "x", 0.0) \
            == approx((math.pi * g) ** -0.25)

    def test_position_variance(self):
        # second moment of |psi|^2 equals g/2; quadrature oracle
        from cvcat import oracle
        g = 0.4466
        grid = oracle.GridSpec()
        xs = grid.axis()
        density = np.abs(states.make_squeezed_vacuum(g).evaluate(xs)) ** 2
        assert float(xs * xs * density @ oracle.trapezoid_weights(xs.size, grid.step)) == approx(g / 2, rel=1e-10)

    def test_rejects_bad_g(self):
        with pytest.raises(DomainError):
            states.make_squeezed_vacuum(0.0)

    @pytest.mark.parametrize("g", [math.inf, math.nan, 5e-324])
    def test_rejects_g_out_of_float_range(self, g):
        with pytest.raises(DomainError):
            states.make_squeezed_vacuum(g)

    @pytest.mark.parametrize("r", [400.0, -400.0, math.inf, math.nan])
    def test_coherent_rejects_out_of_range_squeezing(self, r):
        with pytest.raises(DomainError):
            states.make_squeezed_coherent(1.0, r)

    @pytest.mark.parametrize("r", [-354.0, 354.0])
    def test_squeezing_g_range_edges(self, r):
        g = states.squeezing_g(r)
        assert math.isfinite(g) and math.isfinite(1.0 / g)


class TestIdealCat:
    def test_small_amplitude_tends_to_vacuum(self):
        cat = states.make_ideal_squeezed_cat(1e-6, 0.3, "even")
        vac = states.make_squeezed_vacuum(math.exp(-0.6))
        assert fidelity(cat, vac) == approx(1.0, abs=1e-10)

    def test_parities_orthogonal(self):
        even = states.make_ideal_squeezed_cat(1.1, 0.2, "even")
        odd = states.make_ideal_squeezed_cat(1.1, 0.2, "odd")
        assert abs(inner_product(even, odd)) < 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.4029, -0.3])
    def test_zero_amplitude_even_is_squeezed_vacuum(self, r):
        cat = states.make_ideal_squeezed_cat(0.0, r, "even", "1")
        vac = states.make_squeezed_vacuum(math.exp(-2.0 * r), "1")
        assert cat.modes == vac.modes
        for t, u in zip(cat.terms, vac.terms, strict=True):
            assert dict(t.poly) == dict(u.poly) and t.offset == u.offset
            assert np.array_equal(t.quad, u.quad) and np.array_equal(t.lin, u.lin)

    def test_odd_needs_positive_alpha(self):
        with pytest.raises(DomainError):
            states.make_ideal_squeezed_cat(0.0, 0.2, "odd")

    def test_even_fock_support(self):
        amps = fock.fock_from_wavefunction(
            states.make_ideal_squeezed_cat(1.2, 0.4029, "even"), 40).amps
        assert np.max(np.abs(amps[1::2])) < 1e-10


def ideal_resource(alpha, r, parity="even"):
    return protocols.resource_state(protocols.IdealResource(parity),
                                    states.SignalParams(1.0, 0.0, alpha, r))


class TestEntangledResource:
    def test_zero_amplitude_is_squeezed_vacuum_pair(self):
        res = ideal_resource(1e-7, 0.4029)
        g = math.exp(-2 * 0.4029)
        pair = multiply(states.make_squeezed_vacuum(g, "1"),
                        states.make_squeezed_vacuum(g, "2"))
        assert fidelity(res, pair) == approx(1.0, abs=1e-10)

    def test_recomputed_normalisation(self):
        # norm of the unnormalised pair superposition: [2 + 2 e^{-4 a^2}]
        alpha, r = 1.0, 0.0
        plus = multiply(states.make_squeezed_coherent(alpha, r, "1"),
                        states.make_squeezed_coherent(alpha, r, "2"))
        minus = multiply(states.make_squeezed_coherent(-alpha, r, "1"),
                         states.make_squeezed_coherent(-alpha, r, "2"))
        raw = superpose([plus, minus], [1.0, 1.0])
        assert norm_squared(raw) == approx(2 + 2 * math.exp(-4), rel=1e-12)
        assert norm_squared(ideal_resource(alpha, r)) == approx(1.0, abs=1e-12)

    def test_two_mode_overlap_value(self):
        plus = multiply(states.make_squeezed_coherent(1.0, 0.3, "1"),
                        states.make_squeezed_coherent(1.0, 0.3, "2"))
        minus = multiply(states.make_squeezed_coherent(-1.0, 0.3, "1"),
                         states.make_squeezed_coherent(-1.0, 0.3, "2"))
        assert inner_product(plus, minus) == approx(math.exp(-4.0), rel=1e-12)

    def test_splitter_construction_equivalent(self, benchmark_params):
        alpha, r, g = 1.0, benchmark_params["r"], benchmark_params["g"]
        cat = states.make_ideal_squeezed_cat(math.sqrt(2) * alpha, r, "even", "1")
        mixed = beam_splitter(multiply(cat, states.make_squeezed_vacuum(g, "2")), "2", "1")
        assert fidelity(mixed, ideal_resource(alpha, r)) == approx(1.0, abs=1e-10)

    def test_odd_resource_defined(self):
        res = ideal_resource(0.8, 0.2, "odd")
        assert norm_squared(res) == approx(1.0, abs=1e-12)

    def test_rejects_unknown_parity(self):
        with pytest.raises(UsageError):
            protocols.IdealResource("mixed")


class TestFit:
    def test_benchmark_recovery(self):
        f = states.fit_effective_params(2)
        assert f.converged
        assert f.alpha ** 2 == approx(2.6, abs=0.1)
        assert f.r == approx(0.40, abs=0.02)
        assert f.fidelity == approx(0.99, abs=0.005)

    def test_single_excitation_optimum_exists(self):
        # x exp(-x^2/2) is |1>, the alpha -> 0, g -> 1 limit of the odd cat
        f = states.fit_effective_params(1)
        assert f == states.EffectiveParams(0.0, 1.0, 1.0, True)
        near = states.make_ideal_squeezed_cat(1e-4, 0.0, "odd")
        assert fidelity(states.make_approx(1), near) > 1.0 - 1e-7
        assert f.fidelity > 0.97

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
    def test_fit_is_stationary_in_40_digits(self, n):
        mpmath = pytest.importorskip("mpmath")
        f = states.fit_effective_params(n)
        assert f.converged
        with mpmath.workdps(40):
            u, v = mpmath.log(f.alpha), mpmath.log(f.g)
            grad = [mpmath.diff(lambda t: _log_fidelity_40(mpmath, n, t, v), u),
                    mpmath.diff(lambda t: _log_fidelity_40(mpmath, n, u, t), v)]
            assert max(abs(d) for d in grad) <= 1e-9
            exact = float(mpmath.exp(_log_fidelity_40(mpmath, n, u, v)))
        parity = "even" if n % 2 == 0 else "odd"
        engine = fidelity(states.make_approx(n),
                          states.make_ideal_squeezed_cat(f.alpha, f.r, parity))
        assert abs(engine - exact) <= 1e-13
        assert abs(f.fidelity - exact) <= 1e-13

    def test_local_optimality(self):
        f = states.fit_effective_params(2)
        ladder = states.make_approx(2)
        rng = np.random.default_rng(7)
        best = f.fidelity
        for _ in range(200):
            alpha = f.alpha * (1 + rng.uniform(-0.02, 0.02))
            g = f.g * (1 + rng.uniform(-0.02, 0.02))
            val = fidelity(ladder, states.make_ideal_squeezed_cat(
                alpha, -0.5 * math.log(g), "even"))
            assert val <= best + 1e-9
            best = max(best, val)

    def test_fit_follows_the_first_moment_perturbation(self):
        # a fit made under a perturbation is not served to unperturbed calls,
        # nor an unperturbed one to perturbed calls, whichever comes first
        with perturb_first_moment(1e-3):
            perturbed = states.fit_effective_params(2)
        plain = states.fit_effective_params(2)
        with perturb_first_moment(1e-3):
            again = states.fit_effective_params(2)
        assert perturbed.alpha != plain.alpha
        assert again == perturbed
        assert plain.alpha == approx(1.6251120003, abs=1e-9)
        assert perturbed.alpha == approx(1.6262646894, abs=1e-9)

    def test_requires_positive_n(self):
        with pytest.raises(UsageError):
            states.fit_effective_params(0)
        with pytest.raises(UsageError):
            states.fit_effective_params(states.MAX_EXCITATION + 1)


def _log_fidelity_40(mp, n, log_alpha, log_g):
    """log F of x^n exp(-x^2/2) against the squeezed cat of n's parity at
    (alpha, g), in the working precision of ``mp``.  I_n comes from the
    binomial sum of Normal(b/a, 1/2a) moments, not from the engine."""
    alpha, g = mp.exp(log_alpha), mp.exp(log_g)
    a, b = (1 + 1 / g) / 2, alpha / mp.sqrt(2 * g)
    mu, var = b / a, 1 / (2 * a)
    moment = mp.fsum(mp.binomial(n, j) * mu ** (n - j) * var ** (j // 2) * mp.fac2(j - 1)
                     for j in range(0, n + 1, 2))
    overlap = mp.sqrt(mp.pi / a) * mp.exp(b * b / a) * moment
    cat_norm = 1 + (-1) ** n * mp.exp(-2 * alpha ** 2)
    return (mp.log(2) - mp.loggamma(n + mp.mpf(1) / 2) - mp.log(mp.pi * g) / 2
            - 2 * alpha ** 2 + 2 * mp.log(overlap) - mp.log(cat_norm))


@given(
    a_re=st.floats(-1, 1), a_im=st.floats(-1, 1),
    b_re=st.floats(-1, 1), b_im=st.floats(-1, 1),
    alpha=st.floats(0.1, 2.5), r=st.floats(-0.3, 0.8),
)
@settings(max_examples=30)
def test_constructor_norms(a_re, a_im, b_re, b_im, alpha, r):
    a, b = complex(a_re, a_im), complex(b_re, b_im)
    try:
        p = states.SignalParams(a, b, alpha, r)
    except UsageError:
        return
    assert abs(norm_squared(states.make_signal(p)) - 1.0) < 1e-10
    assert abs(norm_squared(states.make_ideal_squeezed_cat(alpha, r, "even")) - 1.0) < 1e-10
    assert abs(norm_squared(ideal_resource(alpha, r)) - 1.0) < 1e-10
