import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from cvcat import fock, states
from cvcat.errors import DomainError, UsageError
from cvcat.gausspoly import hermite_gauss, inner_product, norm_squared, superpose


class TestCoherentFock:
    def test_vacuum(self):
        vec = fock.coherent_fock(0.0, 10)
        assert vec.amps[0] == 1.0
        assert np.all(vec.amps[1:] == 0.0)

    def test_consecutive_ratio(self):
        for alpha in (0.3, 1.7, -1.1):
            vec = fock.coherent_fock(alpha, 12)
            assert vec.amps[1] / vec.amps[0] == approx(alpha, rel=1e-14)

    def test_poissonian_mass(self):
        assert fock.coherent_fock(1.0, 20).norm_squared() == approx(1.0, abs=1e-12)


class TestEvenCatFock:
    def test_vacuum_limit(self):
        vec = fock.even_cat_fock(0.0, 8)
        assert vec.amps[0] == 1.0
        assert np.all(vec.amps[1:] == 0.0)

    def test_amplitude_ratio(self):
        alpha = 1.3
        vec = fock.even_cat_fock(alpha, 12)
        assert vec.amps[2] / vec.amps[0] == approx(alpha ** 2 / math.sqrt(2), rel=1e-14)

    def test_odd_levels_empty(self):
        assert np.all(fock.even_cat_fock(1.4, 21).amps[1::2] == 0.0)

    def test_trunc_fidelity_near_097_at_alpha_1(self):
        vec = fock.even_cat_fock(1.0, 40)
        assert fock.truncation_fidelity(vec, {0, 2}) == approx(0.97, abs=0.005)


    def test_overflowing_norm_raises(self):
        # cosh(alpha^2) leaves the float range above alpha ~ 26.6
        assert fock.even_cat_cosh(26.6) < math.inf
        for call in (lambda: fock.even_cat_fock(26.7, 8),
                     lambda: fock.cat_trunc02_formula(40.0)):
            with pytest.raises(DomainError, match="out of range"):
                call()


class TestFockFromWavefunction:
    def test_vacuum(self):
        amps = fock.fock_from_wavefunction(hermite_gauss(0), 8).amps
        assert amps[0] == approx(1.0, rel=1e-13)
        assert np.max(np.abs(amps[1:])) < 1e-13

    def test_ladder_two_level_support(self):
        amps = fock.fock_from_wavefunction(states.make_approx(2), 12).amps
        assert abs(amps[0]) == approx(1 / math.sqrt(3), rel=1e-12)
        assert abs(amps[2]) == approx(math.sqrt(2.0 / 3.0), rel=1e-12)
        body = np.delete(np.abs(amps), [0, 2])
        assert np.max(body) < 1e-12

    def test_exact_ladder_ratio(self):
        amps = fock.fock_from_wavefunction(states.make_approx(2), 4).amps
        assert amps[2] / amps[0] == approx(math.sqrt(2), rel=1e-12)

    def test_squeezed_cat_benchmark(self, benchmark_params):
        cat = states.make_ideal_squeezed_cat(benchmark_params["alpha_eff"],
                                             benchmark_params["r"], "even")
        vec = fock.fock_from_wavefunction(cat, 40)
        value = abs(vec.amps[0]) ** 2 + abs(vec.amps[2]) ** 2
        assert value == approx(0.99, abs=0.005)

    def test_matches_literal_inner_products(self):
        # literal Hermite-monomial inner products are well conditioned to n ~ 25
        u = states.make_signal(states.SignalParams(0.8, -0.6j, 1.1, 0.25))
        amps = fock.fock_from_wavefunction(u, 24).amps
        for n in (0, 1, 2, 7, 15, 23):
            literal = inner_product(hermite_gauss(n, u.modes[0]), u)
            assert amps[n] == approx(literal, rel=1e-9, abs=1e-12)

    def test_even_cat_parity(self):
        cat = states.make_ideal_squeezed_cat(1.2, 0.3, "even")
        amps = fock.fock_from_wavefunction(cat, 40).amps
        assert np.max(np.abs(amps[1::2])) < 1e-10

    def test_reconstruction_roundtrip(self):
        # dim kept small: the rebuilt state carries a degree dim-1 polynomial,
        # and generic coefficient algebra is well conditioned only to ~ 15
        dim = 14
        u = states.make_ideal_squeezed_cat(0.7, 0.15, "even")
        vec = fock.fock_from_wavefunction(u, dim)
        assert vec.norm_squared() > 1.0 - 1e-10
        rebuilt = superpose([hermite_gauss(n, "x") for n in range(dim)], list(vec.amps))
        overlap = abs(inner_product(u, rebuilt)) ** 2 / norm_squared(rebuilt)
        assert overlap >= 1.0 - 1e-8

    def test_requires_single_mode(self):
        from cvcat.gausspoly import multiply
        two = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        with pytest.raises(UsageError):
            fock.fock_from_wavefunction(two, 4)


class TestTruncationFidelity:
    def test_full_support_is_one(self):
        vec = fock.coherent_fock(0.9, 30)
        assert fock.truncation_fidelity(vec, range(30)) == approx(1.0, abs=1e-12)

    def test_index_bounds(self):
        with pytest.raises(UsageError):
            fock.truncation_fidelity(fock.coherent_fock(1.0, 5), {7})

    @given(seed=st.integers(0, 100_000), i=st.integers(0, 9), j=st.integers(0, 9),
           t=st.floats(0, math.pi / 2), phase=st.floats(0, 2 * math.pi))
    def test_two_level_optimality(self, seed, i, j, t, phase):
        # no amplitude pair on levels {i, j} can beat the retained-mass bound
        rng = np.random.default_rng(seed)
        target = fock.FockVector(rng.normal(size=10) + 1j * rng.normal(size=10)).normalized()
        approx_vec = np.zeros(10, dtype=complex)
        approx_vec[i] += math.cos(t)
        approx_vec[j] += math.sin(t) * np.exp(1j * phase)
        trial = fock.FockVector(approx_vec)
        if trial.norm_squared() < 1e-12:
            return
        bound = fock.truncation_fidelity(target, {i, j})
        assert fock.fidelity(target, trial) <= bound + 1e-9


class TestClosedForms:
    def test_formula_values(self):
        # frozen from the exact expression; the two-decimal reference values
        # 0.97 and 0.73 are reproduced at 0.972081 and 0.736204
        assert fock.cat_trunc02_formula(0.0) == 1.0
        assert fock.cat_trunc02_formula(1.0) == approx(0.9720814104958282, rel=1e-12)
        assert fock.cat_trunc02_formula(1.5) == approx(0.7362035408810772, rel=1e-12)

    def test_formula_matches_fock_sum(self):
        for alpha in np.linspace(0.0, 3.0, 16):
            vec = fock.even_cat_fock(alpha, 40)
            assert fock.truncation_fidelity(vec, {0, 2}) == approx(
                fock.cat_trunc02_formula(alpha), abs=1e-10)

    def test_unsqueezed_limit(self):
        assert fock.squeezed_cat_trunc02_fidelity(1.0, 0.0) == approx(
            fock.cat_trunc02_formula(1.0), abs=1e-10)

    def test_squeezed_benchmark(self, benchmark_params):
        val = fock.squeezed_cat_trunc02_fidelity(benchmark_params["alpha_eff"],
                                                 benchmark_params["r"])
        assert val == approx(0.99, abs=0.005)

    def test_closed_form_matches_fock_route(self, benchmark_params):
        for alpha, r in [(0.7, 0.1), (1.4, 0.4029), (benchmark_params["alpha_eff"], 0.3)]:
            direct = fock.squeezed_cat_trunc02_fidelity(alpha, r)
            closed = fock.squeezed_trunc02_closed_form(alpha, math.exp(-2 * r))
            assert direct == approx(closed, abs=1e-11)

    def test_alt_form_is_sqrt2_inflated(self):
        a, g = 1.2, 0.5
        assert fock.squeezed_trunc02_closed_form_alt(a, g) == approx(
            math.sqrt(2) * fock.squeezed_trunc02_closed_form(a, g), rel=1e-14)

    def test_squeezed_vacuum_content_vs_quadrature(self):
        # alpha = 0: only the squeezed vacuum remains; compare with quadrature
        from cvcat import oracle
        r = 0.5
        g = math.exp(-2 * r)
        val = fock.squeezed_cat_trunc02_fidelity(1e-12, r)
        grid = oracle.GridSpec()
        sv = oracle.sample(states.make_squeezed_vacuum(g), grid)
        a0, a2 = (oracle.quad_inner(oracle.sample(hermite_gauss(k), grid), sv, grid).value
                  for k in (0, 2))
        assert val == approx(abs(a0) ** 2 + abs(a2) ** 2, abs=1e-9)

    @pytest.mark.parametrize("alpha", [3.5, 4.0, 10.0, 26.0])
    def test_large_cat_matches_the_closed_form(self, alpha):
        # most of these cats lies far above level 2; levels 0 and 2 do not care
        assert fock.squeezed_cat_trunc02_fidelity(alpha, 0.0) == approx(
            fock.squeezed_trunc02_closed_form(alpha, 1.0), rel=1e-12)

    def test_extreme_cats_match_the_closed_form(self):
        # no Fock expansion of practical size holds these states, and none is needed
        for alpha, r in ((1.0, 5.3), (1.0, -5.3), (2.0, 8.0)):
            assert fock.squeezed_cat_trunc02_fidelity(alpha, r) == approx(
                fock.squeezed_trunc02_closed_form(alpha, states.squeezing_g(r)), rel=1e-12)
        # the amplitudes underflow, like the closed form's exponential
        assert fock.squeezed_cat_trunc02_fidelity(40.0, 0.0) == 0.0
        assert fock.squeezed_trunc02_closed_form(40.0, 1.0) == 0.0


class TestFidelity:
    def test_identical_states(self):
        vec = fock.coherent_fock(0.8, 25)
        assert fock.fidelity(vec, vec) == approx(1.0, abs=1e-12)

    def test_orthogonal_levels(self):
        zero = fock.FockVector(np.eye(5)[0])
        one = fock.FockVector(np.eye(5)[1])
        assert fock.fidelity(zero, one) == 0.0

    def test_opposite_coherent_states(self):
        f = fock.fidelity(fock.coherent_fock(1.0, 30), fock.coherent_fock(-1.0, 30))
        assert f == approx(math.exp(-4.0), rel=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(UsageError):
            fock.fidelity(fock.coherent_fock(1.0, 5), fock.coherent_fock(1.0, 6))

    @given(seed=st.integers(0, 100_000), phase=st.floats(0, 2 * math.pi))
    def test_symmetry_and_phase_invariance(self, seed, phase):
        rng = np.random.default_rng(seed)
        u = fock.FockVector(rng.normal(size=6) + 1j * rng.normal(size=6))
        v = fock.FockVector(rng.normal(size=6) + 1j * rng.normal(size=6))
        f1 = fock.fidelity(u, v)
        assert fock.fidelity(v, u) == approx(f1, rel=1e-12)
        rotated = fock.FockVector(u.amps * np.exp(1j * phase))
        assert fock.fidelity(rotated, v) == approx(f1, rel=1e-12)
