import cmath
import math
import pickle
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from cvcat import (
    CapacityError,
    DomainError,
    GaussianMomentSpec,
    GaussPolyState,
    GaussTerm,
    UsageError,
    beam_splitter,
    condition_x,
    dilate,
    fidelity,
    gaussian_moment_integral,
    hermite_gauss,
    inner_product,
    multiply,
    norm_squared,
    project_p,
    relabel,
    superpose,
)
from cvcat import gausspoly, oracle, protocols, states
from cvcat.gausspoly import perturb_first_moment


def gaussian_term(q, lin, c=0j, poly=None, m=1):
    return GaussTerm(poly or {(0,) * m: 1.0 + 0j},
                     np.array(q, dtype=complex).reshape(m, m),
                     np.array(lin, dtype=complex).reshape(m), c)


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

class TestMoments:
    def test_plain_gaussian(self):
        assert gaussian_moment_integral(GaussianMomentSpec(1, 0, 0)) == approx(math.sqrt(math.pi))

    def test_odd_symmetry(self):
        assert gaussian_moment_integral(GaussianMomentSpec(1, 0, 1)) == 0

    def test_second_moment_vs_adaptive_quadrature(self):
        # oracle: mpmath's adaptive quadrature over the real line
        expected = float(mpmath.quad(lambda x: x * x * mpmath.exp(-x * x + x),
                                     [-mpmath.inf, mpmath.inf]))
        value = gaussian_moment_integral(GaussianMomentSpec(1.0, 0.5, 2))
        assert value.imag == 0
        assert value.real == approx(expected, rel=1e-10)

    def test_complex_case_vs_quadrature(self):
        a, b, k = 1.3 - 0.4j, 0.2 + 0.7j, 5
        expected = complex(mpmath.quad(lambda x: x ** k * mpmath.exp(-a * x * x + 2 * b * x),
                                       [-mpmath.inf, mpmath.inf]))
        value = gaussian_moment_integral(GaussianMomentSpec(a, b, k))
        assert value == approx(expected, rel=1e-10)

    def test_rejects_non_integrable(self):
        with pytest.raises(DomainError):
            GaussianMomentSpec(-1.0, 0.0, 2)
        with pytest.raises(UsageError):
            GaussianMomentSpec(1.0, 0.0, -1)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (1.0, math.inf), (math.inf, 0.0),
                                      (1.0, complex(0.0, math.nan))])
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(DomainError):
            GaussianMomentSpec(a, b, 2)

    def test_perturbation_stays_in_its_thread(self):
        spec = GaussianMomentSpec(1.0, 0.5, 1)
        exact = gaussian_moment_integral(spec)
        seen = []
        with perturb_first_moment(1e-6):
            perturbed = gaussian_moment_integral(spec)
            worker = threading.Thread(target=lambda: seen.append(gaussian_moment_integral(spec)))
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert perturbed == approx(exact * (1 + 1e-6), rel=1e-12)
        assert seen == [exact]
        assert gaussian_moment_integral(spec) == exact

    def test_zero_perturbation_is_exact(self):
        spec = GaussianMomentSpec(1.3 - 0.4j, 0.2 + 0.7j, 5)
        u, v = hermite_gauss(3), states.make_squeezed_coherent(0.7, 0.3)
        exact = (gaussian_moment_integral(spec), inner_product(u, v))
        with perturb_first_moment(0.0):
            assert (gaussian_moment_integral(spec), inner_product(u, v)) == exact

    @given(
        a_re=st.floats(0.2, 3.0), a_im=st.floats(-1.0, 1.0),
        b_re=st.floats(-1.5, 1.5), b_im=st.floats(-1.5, 1.5),
        k=st.integers(2, 16),
    )
    def test_two_term_recurrence(self, a_re, a_im, b_re, b_im, k):
        a, b = complex(a_re, a_im), complex(b_re, b_im)
        i = [gaussian_moment_integral(GaussianMomentSpec(a, b, n)) for n in (k - 2, k - 1, k)]
        rec = (2 * b * i[1] + (k - 1) * i[0]) / (2 * a)
        assert i[2] == approx(rec, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class TestMultiply:
    def test_vacuum_tensor_vacuum(self):
        two = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        assert two.modes == ("1", "2")
        (term,) = two.terms
        assert term.quad == approx(np.eye(2))
        assert norm_squared(two) == approx(1.0)

    def test_ladder_tensor_ladder_poly(self):
        u = multiply(states.make_approx(1, "1"), states.make_approx(1, "2"))
        (term,) = u.terms
        assert set(term.poly) == {(1, 1)}

    def test_same_mode_square_matches_quartic_quadrature(self):
        u = states.make_approx(2)
        sq = multiply(u, u)
        grid = oracle.GridSpec()
        quartic = oracle.quad_inner(oracle.sample(sq, grid), oracle.sample(sq, grid), grid)
        assert norm_squared(sq) == approx(quartic.value.real, rel=1e-8)

    def test_degree_cap(self):
        u = states.make_approx(32)
        with pytest.raises(CapacityError):
            multiply(multiply(u, u), u)

    def test_term_pair_cap(self):
        # 1025^2 pairs, the product step 11 of an ideal-cat chain would build,
        # are refused before any pair array is allocated
        u = superpose([states.make_squeezed_coherent(0.01 * k) for k in range(1025)],
                      [1.0] * 1025)
        assert len(u.terms) == 1025
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="term-pair cap 1048576"):
            multiply(u, u)
        assert time.perf_counter() - start < 1.0

    def test_overlapping_mode_sets_rejected(self):
        u = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        v = multiply(hermite_gauss(0, "2"), hermite_gauss(0, "3"))
        with pytest.raises(UsageError):
            multiply(u, v)
        with pytest.raises(UsageError):
            multiply(u, hermite_gauss(1, "2"))  # a subset overlaps too

    def test_product_beyond_three_modes_rejected(self):
        u = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        v = multiply(hermite_gauss(0, "3"), hermite_gauss(0, "4"))
        with pytest.raises(UsageError, match="three modes"):
            multiply(u, v)


class TestDilate:
    def test_evaluates_the_state_at_scaled_points(self):
        # largest deviation measured: 1.5e-15 of the peak
        rng = np.random.default_rng(130)
        xs = np.linspace(-6.0, 6.0, 241)
        for _ in range(12):
            u = oracle.random_gauss_poly(rng, 1)
            for d in (1.0 / math.sqrt(2.0), 1.7, -0.6):
                ref = u.evaluate(d * xs)
                out = dilate(u, d)
                assert out.modes == u.modes and len(out.terms) == len(u.terms)
                assert np.max(np.abs(out.evaluate(xs) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [0.0, math.inf, math.nan])
    def test_rejects_zero_or_non_finite_factor(self, d):
        with pytest.raises(UsageError):
            dilate(hermite_gauss(1), d)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

class TestInnerProduct:
    def test_hermite_orthonormality(self):
        for i in range(4):
            for j in range(4):
                val = inner_product(hermite_gauss(i), hermite_gauss(j))
                assert val == approx(1.0 if i == j else 0.0, abs=1e-13)

    def test_ladder_states_normalised(self):
        for n in range(4):
            assert norm_squared(states.make_approx(n)) == approx(1.0, abs=1e-12)

    def test_coherent_overlap(self):
        val = inner_product(states.make_squeezed_coherent(1.0),
                            states.make_squeezed_coherent(-1.0))
        assert abs(val) ** 2 == approx(math.exp(-4.0), rel=1e-12)

    def test_mode_mismatch(self):
        with pytest.raises(UsageError):
            inner_product(hermite_gauss(0, "a"), hermite_gauss(0, "b"))

    def test_mode_order_irrelevant(self):
        u = multiply(states.make_approx(1, "1"), states.make_squeezed_coherent(0.7, 0.1, "2"))
        v_swapped = multiply(states.make_squeezed_coherent(0.3, 0.0, "2"), states.make_approx(2, "1"))
        v_direct = multiply(states.make_approx(2, "1"), states.make_squeezed_coherent(0.3, 0.0, "2"))
        assert v_swapped.modes == ("2", "1")
        assert inner_product(u, v_swapped) == approx(inner_product(u, v_direct), rel=1e-12)

    @pytest.mark.parametrize("coeff, offset", [(1e300, 300.0), (1.0, 800.0)],
                             ids=["inf-amplitude", "offset-overflow"])
    def test_non_finite_result_raises(self, coeff, offset):
        u = GaussPolyState(("x",), (gaussian_term([1.0], [0.0], offset, {(0,): coeff}),))
        with pytest.raises(DomainError):
            inner_product(u, u)

    def test_overflowing_contraction_raises(self):
        # the n = 2 ladder channel at r = 200 overflows while integrating
        # modes, which made every entry of its Gram matrices nan
        with pytest.raises(DomainError):
            protocols.teleport_channel(math.sqrt(1.3), 200.0, protocols.ApproxResource(2))

    @pytest.mark.parametrize("n", range(24))
    def test_high_degree_hermite_norm(self, n):
        # cancellation in the monomial basis: off 1 by 1.7e-11 at n = 23, and
        # by -3.9e-8 where long double is plain double
        assert abs(norm_squared(hermite_gauss(n)) - 1.0) < 1e-6

    @pytest.mark.parametrize("n", [24, 40])
    def test_hermite_refuses_degrees_it_cannot_normalise(self, n):
        # refused on every platform: where long double is plain double,
        # norm^2 - 1 would reach 2.0e-6 at n = 26 and 0.16 at n = 40
        with pytest.raises(DomainError):
            hermite_gauss(n)

    @given(seed=st.integers(0, 10_000))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u = oracle.random_gauss_poly(rng, 1, max_degree=4)
        v = oracle.random_gauss_poly(rng, 1, max_degree=4, modes=u.modes)
        scale = math.sqrt(norm_squared(u) * norm_squared(v))
        assert inner_product(u, v) == approx(inner_product(v, u).conjugate(),
                                             rel=1e-10, abs=1e-12 * scale)


class TestContract:
    def test_no_caller_integrates_a_last_mode(self, monkeypatch):
        seen = []
        integrate = gausspoly._integrate_index

        def recording(u, j):
            seen.append(u.n_modes)
            return integrate(u, j)

        monkeypatch.setattr(gausspoly, "_integrate_index", recording)
        rng = np.random.default_rng(140)
        for m in (1, 2, 3):
            u = oracle.random_gauss_poly(rng, m)
            inner_product(u, oracle.random_gauss_poly(rng, m, modes=u.modes))
            project_p(u, u.modes[0], 0.3)
        gaussian_moment_integral(GaussianMomentSpec(1.0, 0.2, 3))
        protocols.teleport(states.SignalParams(1, 1j, 1.1, 0.4), protocols.ApproxResource(2))
        protocols.amplify_iterate(protocols.ApproxResource(2), 2)
        assert seen and min(seen) >= 2

    def test_degree_zero_reads_no_first_moment(self):
        u = states.make_ideal_squeezed_cat(1.2, 0.4029)
        v = states.make_squeezed_coherent(0.7, 0.1)
        exact = inner_product(u, v), project_p(u, "x", 0.4)
        with perturb_first_moment(1e-3):
            assert (inner_product(u, v), project_p(u, "x", 0.4)) == exact

    def test_empty_state_contracts_to_zero(self):
        zero = GaussPolyState(("x",), ())
        assert inner_product(zero, hermite_gauss(3)) == 0
        assert project_p(zero, "x", 0.5) == 0


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------

class TestBeamSplitter:
    def test_vacuum_invariance(self):
        two = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        assert fidelity(beam_splitter(two, "1", "2"), two) == approx(1.0, abs=1e-12)

    def test_coherent_pair_combines(self):
        alpha = 0.9
        pair = multiply(states.make_squeezed_coherent(alpha, 0.0, "1"),
                        states.make_squeezed_coherent(alpha, 0.0, "2"))
        mixed = beam_splitter(pair, "1", "2")
        target = multiply(states.make_squeezed_coherent(math.sqrt(2) * alpha, 0.0, "1"),
                          hermite_gauss(0, "2"))
        assert inner_product(target, mixed) == approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        u = oracle.random_gauss_poly(rng, 2, max_degree=4)
        v = oracle.random_gauss_poly(rng, 2, max_degree=4, modes=u.modes)
        before = inner_product(u, v)
        after = inner_product(beam_splitter(u, *u.modes), beam_splitter(v, *u.modes))
        scale = math.sqrt(norm_squared(u) * norm_squared(v))
        assert after == approx(before, rel=1e-10, abs=1e-12 * scale)
        assert norm_squared(beam_splitter(u, *u.modes)) == approx(norm_squared(u), rel=1e-10)

    def test_needs_distinct_modes(self):
        two = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        with pytest.raises(UsageError):
            beam_splitter(two, "1", "1")


# ---------------------------------------------------------------------------
# conditioning and projection
# ---------------------------------------------------------------------------

class TestConditionX:
    def test_squeezed_vacuum_amplitude(self):
        g = 0.4466
        val = condition_x(states.make_squeezed_vacuum(g), "x", 0.0)
        assert val == approx((math.pi * g) ** -0.25, rel=1e-14)

    def test_two_mode_vacuum(self):
        two = multiply(hermite_gauss(0, "1"), hermite_gauss(0, "2"))
        rest = condition_x(two, "2", 0.0)
        assert rest.modes == ("1",)
        assert inner_product(hermite_gauss(0, "1"), rest) == approx(math.pi ** -0.25, rel=1e-13)

    def test_odd_state_conditions_to_zero(self):
        odd = states.make_ideal_squeezed_cat(1.0, 0.2, "odd")
        assert condition_x(odd, "x", 0.0) == approx(0.0, abs=1e-15)

    def test_mixed_cat_pair_matches_two_branch_form(self, benchmark_params):
        # post-selecting one splitter arm leaves
        # (amplitude of the vacuum branch) * grown cat + (cat branch) * vacuum
        alpha, r, g = 1.1, benchmark_params["r"], benchmark_params["g"]
        cat = states.make_ideal_squeezed_cat(alpha, r, "even", "1")
        pair = multiply(cat, relabel(cat, {"1": "2"}))
        conditioned = condition_x(beam_splitter(pair, "1", "2"), "2", 0.0)
        plus = states.make_squeezed_coherent(math.sqrt(2) * alpha, r, "1")
        minus = states.make_squeezed_coherent(-math.sqrt(2) * alpha, r, "1")
        vac = states.make_squeezed_vacuum(g, "1")
        p_vac = (math.pi * g) ** -0.25
        p_cat = 2.0 * math.exp(-2.0 * alpha ** 2) * p_vac
        target = superpose([plus, minus, vac], [p_vac, p_vac, p_cat])
        assert fidelity(conditioned, target) == approx(1.0, abs=1e-10)


class TestProjectP:
    def test_squeezed_vacuum_at_zero(self):
        g = 0.4466
        val = project_p(states.make_squeezed_vacuum(g), "x", 0.0)
        assert val == approx((g / math.pi) ** 0.25, rel=1e-13)

    def test_even_superposition_null_point(self, benchmark_params):
        alpha, r, g = 0.9, benchmark_params["r"], benchmark_params["g"]
        beta = math.pi / (4.0 * alpha * math.sqrt(g))
        cat = states.make_ideal_squeezed_cat(math.sqrt(2) * alpha, r, "even")
        assert abs(project_p(cat, "x", beta)) < 1e-10

    def test_ladder_projection_vs_quadrature(self):
        u = states.make_approx(2)
        val = project_p(u, "x", 0.7)
        grid = oracle.GridSpec()
        xs = grid.axis()
        w = oracle.trapezoid_weights(xs.size, grid.step)
        direct = np.exp(0.7j * xs) * u.evaluate(xs) @ w / math.sqrt(2 * math.pi)
        assert val == approx(direct, rel=1e-8)

    def test_missing_mode(self):
        with pytest.raises(UsageError):
            project_p(hermite_gauss(0, "x"), "y", 0.0)


# ---------------------------------------------------------------------------
# oracle equivalence on random states
# ---------------------------------------------------------------------------

class TestOracleEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_inner_product_single_mode(self, seed):
        rng = np.random.default_rng(seed)
        u = oracle.random_gauss_poly(rng, 1)
        v = oracle.random_gauss_poly(rng, 1, modes=u.modes)
        grid = oracle.GridSpec(-18, 18, 4096)
        q = oracle.quad_inner(oracle.sample(u, grid), oracle.sample(v, grid), grid)
        scale = math.sqrt(norm_squared(u) * norm_squared(v))
        assert abs(inner_product(u, v) - q.value) <= 1e-8 * scale

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_projection_two_modes(self, seed):
        rng = np.random.default_rng(seed)
        u = oracle.random_gauss_poly(rng, 2)
        beta = float(rng.uniform(-1.5, 1.5))
        proj = project_p(u, u.modes[0], beta)
        grid = oracle.GridSpec(-18, 18, 1024)
        xs = grid.axis()
        w = oracle.trapezoid_weights(xs.size, grid.step)
        kernel = np.exp(1j * beta * xs) / math.sqrt(2 * math.pi)
        direct = (kernel * w) @ u.evaluate(xs[:, None], xs[None, :])
        engine = proj.evaluate(xs)
        peak = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(engine - direct))) <= 1e-8 * peak


# ---------------------------------------------------------------------------
# state plumbing
# ---------------------------------------------------------------------------

class TestStateBasics:
    def test_normalized_rejects_zero_state(self):
        zero = GaussPolyState(("x",), ())
        with pytest.raises(DomainError):
            zero.normalized()

    @pytest.mark.parametrize("n2", [0.0, -1.0, math.inf, math.nan])
    def test_rescaling_rejects_zero_or_non_finite_norm(self, n2):
        with pytest.raises(DomainError):
            gausspoly._unit_scaled(hermite_gauss(1), n2)

    def test_merge_drops_only_exact_zeros(self):
        u = GaussPolyState.from_terms(("x",), [
            gaussian_term(1.0, 0.0, poly={(0,): 1.0 + 0j, (1,): 1e-30 + 0j, (2,): 0j}),
            gaussian_term(2.0, 0.0, poly={(0,): 0j}),
        ])
        assert len(u.terms) == 1
        assert dict(u.terms[0].poly) == {(0,): 1.0 + 0j, (1,): 1e-30 + 0j}

    def test_renormalisation(self):
        u = superpose([states.make_squeezed_coherent(0.5), hermite_gauss(2)], [0.4, 1.7])
        assert norm_squared(u.normalized()) == approx(1.0, abs=1e-12)

    def test_compaction_merges_shared_gaussians(self):
        u = hermite_gauss(3)
        doubled = superpose([u, u], [0.5, 0.5])
        assert len(doubled.terms) == 1
        assert fidelity(doubled, u) == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lin", [np.nextafter(2.8, 3.0), 2.8 * (1 + 1e-9)])
    def test_unequal_forms_stay_separate(self, lin):
        # one ulp apart is apart: merging is exact equality
        u = GaussPolyState.from_terms(("x",), [gaussian_term(1.3, 2.8), gaussian_term(1.3, lin)])
        assert [t.lin[0] for t in u.terms] == [2.8, lin]

    def test_signed_zeros_merge(self):
        u = GaussPolyState.from_terms(("x", "y"), [
            gaussian_term([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], m=2),
            gaussian_term([[1.0, -0.0], [-0.0, 1.0]], [-0.0, 0.0], m=2)])
        assert len(u.terms) == 1
        assert u.terms[0].poly == {(0, 0): 2.0 + 0j}

    @pytest.mark.parametrize("coeff", [2.0 ** 1000, -1j * 2.0 ** -1000])
    def test_merged_scale_moves_into_the_offset(self, coeff):
        u = GaussPolyState.from_terms(("x",), [gaussian_term(1.0, 0.3, poly={(1,): coeff})])
        assert 1e-30 <= abs(u.terms[0].poly[(1,)]) <= 1e30
        xs = np.array([-1.5, 0.5, 2.0])
        expected = coeff * xs * np.exp(-xs * xs / 2 + 0.3 * xs)
        assert u.evaluate(xs) == approx(expected, rel=1e-12)

    def test_small_odd_cat_keeps_both_branches(self):
        u = states.make_ideal_squeezed_cat(1e-3, 0.4029, "odd")
        assert len(u.terms) == 2
        assert norm_squared(u) == approx(1.0, abs=1e-9)

    def test_relabel(self):
        u = relabel(hermite_gauss(1, "x"), {"x": "s"})
        assert u.modes == ("s",)

    def test_constructor_rejects_four_modes(self):
        with pytest.raises(UsageError):
            GaussPolyState(("a", "b", "c", "d"), ())

    def test_constructor_rejects_zero_modes(self):
        constant = GaussTerm({(): 2.0}, np.zeros((0, 0)), np.zeros(0), 0)
        with pytest.raises(UsageError):
            GaussPolyState((), [constant])

    def test_evaluate_matches_manual_gaussian(self):
        u = states.make_squeezed_coherent(0.8, 0.1)
        xs = np.linspace(-3, 3, 11)
        g = math.exp(-0.2)
        mu = 0.8 * math.sqrt(2 * g)
        expected = (math.pi * g) ** -0.25 * np.exp(-((xs - mu) ** 2) / (2 * g))
        assert u.evaluate(xs) == approx(expected, rel=1e-12)


def dense_seeded_evaluate(u, *coords):
    """Reference evaluation that seeds every factor on the full grid."""
    xs = np.broadcast_arrays(*[np.asarray(c) for c in coords])
    out = np.zeros(xs[0].shape, dtype=complex)
    for t in u.terms:
        expo = np.full_like(out, t.offset)
        for i, xi in enumerate(xs):
            expo = expo + t.lin[i] * xi - 0.5 * t.quad[i, i] * xi * xi
            for j in range(i + 1, len(xs)):
                expo = expo - t.quad[i, j] * xi * xs[j]
        poly = np.zeros_like(out)
        for e, c in t.poly.items():
            mono = np.full_like(out, c)
            for i, k in enumerate(e):
                if k:
                    mono = mono * xs[i] ** k
            poly = poly + mono
        out = out + poly * np.exp(expo)
    return out


class TestOpenGridEvaluate:
    def test_one_mode_matches_dense_seeding_bitwise(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(-9.0, 9.0, 513)
        for _ in range(10):
            u = oracle.random_gauss_poly(rng, 1)
            assert np.array_equal(u.evaluate(xs), dense_seeded_evaluate(u, xs))

    @pytest.mark.parametrize("n_modes, points", [(2, 96), (3, 24)])
    def test_open_grid_matches_dense_grid(self, n_modes, points):
        rng = np.random.default_rng(12 + n_modes)
        axis = np.linspace(-7.0, 7.0, points)
        for _ in range(6):
            u = oracle.random_gauss_poly(rng, n_modes)
            open_vals = u.evaluate(*np.meshgrid(*[axis] * n_modes, indexing="ij",
                                                sparse=True))
            dense = np.meshgrid(*[axis] * n_modes, indexing="ij")
            for ref in (u.evaluate(*dense), dense_seeded_evaluate(u, *dense)):
                assert open_vals.shape == ref.shape
                assert np.max(np.abs(open_vals - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_zero_terms_give_zeros_of_broadcast_shape(self):
        zero = GaussPolyState(("x", "y"), ())
        vals = zero.evaluate(np.zeros((4, 1)), np.zeros((1, 5)))
        assert vals.shape == (4, 5) and vals.dtype == complex
        assert not np.any(vals)

    def test_scalar_coordinate_gives_complex_scalar(self):
        assert isinstance(hermite_gauss(2).evaluate(0.3), np.complex128)
        pair = multiply(hermite_gauss(1, "x"), hermite_gauss(0, "y"))
        assert isinstance(pair.evaluate(0.3, -0.2), np.complex128)


def pairwise_multiply_reference(u, v):
    """Reference product that builds one GaussTerm per pair of terms."""
    terms = [GaussTerm(gausspoly._poly_mul(dict(tu.poly), dict(tv.poly)),
                       tu.quad + tv.quad, tu.lin + tv.lin, tu.offset + tv.offset)
             for tu in u.terms for tv in v.terms]
    return GaussPolyState.from_terms(u.modes, terms)


def term_bytes(u):
    return [(coeff_bytes(t.poly), t.quad.tobytes(), t.lin.tobytes(),
             np.complex128(t.offset).tobytes()) for t in u.terms]


class TestArrayProduct:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_matches_pairwise_reference_bitwise(self, n_modes):
        rng = np.random.default_rng(40 + n_modes)
        for _ in range(8):
            u = oracle.random_gauss_poly(rng, n_modes, max_terms=4)
            v = oracle.random_gauss_poly(rng, n_modes, max_terms=4)
            for a, b in ((u, v), (u, u), (gausspoly._conj_state(u), v)):
                assert term_bytes(gausspoly._raw_multiply(a, b)) \
                    == term_bytes(pairwise_multiply_reference(a, b))
            reversed_v = reference_aligned(v, v.modes[::-1])
            assert term_bytes(multiply(u, reversed_v)) \
                == term_bytes(pairwise_multiply_reference(u, v))

    def test_shared_forms_match_pairwise_reference_bitwise(self):
        cat = states.make_ideal_squeezed_cat(1.2, 0.3)
        for a, b in ((cat, cat), (gausspoly._conj_state(cat), cat)):
            out = gausspoly._raw_multiply(a, b)
            assert len(out.terms) == 3
            assert term_bytes(out) == term_bytes(pairwise_multiply_reference(a, b))

    def test_empty_factor_gives_empty_product(self):
        zero = GaussPolyState(("x",), ())
        assert gausspoly._raw_multiply(zero, hermite_gauss(2)).terms == ()
        assert gausspoly._raw_multiply(hermite_gauss(2), zero).terms == ()


# ---------------------------------------------------------------------------
# stacked storage: per-term references and the read-only term view
# ---------------------------------------------------------------------------

def coeff_bytes(poly):
    return sorted((e, np.complex128(c).tobytes()) for e, c in poly.items())


def exact_bytes(u):
    """Every bit of a state (or of a complex amplitude)."""
    if not isinstance(u, GaussPolyState):
        return np.complex128(u).tobytes()
    return u.modes, term_bytes(u)


def reference_conj(u):
    return GaussPolyState(u.modes, [
        GaussTerm({e: c.conjugate() for e, c in t.poly.items()},
                  t.quad.conjugate(), t.lin.conjugate(), t.offset.conjugate())
        for t in u.terms])


def reference_aligned(v, modes):
    if v.modes == modes:
        return v
    perm = [v.modes.index(m) for m in modes]
    idx = np.array(perm)
    return GaussPolyState(modes, [
        GaussTerm({tuple(e[p] for p in perm): c for e, c in t.poly.items()},
                  t.quad[np.ix_(idx, idx)], t.lin[idx], t.offset)
        for t in v.terms])


def reference_disjoint_multiply(u, v):
    mu, mv = u.n_modes, v.n_modes
    terms = []
    for tu in u.terms:
        for tv in v.terms:
            poly = {eu + ev: cu * cv for eu, cu in tu.poly.items() for ev, cv in tv.poly.items()}
            quad = np.zeros((mu + mv, mu + mv), dtype=complex)
            quad[:mu, :mu] = tu.quad
            quad[mu:, mu:] = tv.quad
            terms.append(GaussTerm(poly, quad, np.concatenate([tu.lin, tv.lin]),
                                   tu.offset + tv.offset))
    return GaussPolyState.from_terms(u.modes + v.modes, terms)


def reference_beam_splitter(u, mode_i, mode_j):
    i, j = u.modes.index(mode_i), u.modes.index(mode_j)
    rot = np.eye(u.n_modes, dtype=complex)
    rot[i, i] = rot[j, j] = rot[j, i] = 1.0 / math.sqrt(2.0)
    rot[i, j] = -1.0 / math.sqrt(2.0)
    terms = []
    for t in u.terms:
        poly = {}
        for e, c in t.poly.items():
            p, q = e[i], e[j]
            base = c / math.sqrt(2.0) ** (p + q)
            for s in range(p + 1):
                for r in range(q + 1):
                    coef = base * math.comb(p, s) * math.comb(q, r) * (-1.0) ** (p - s)
                    e2 = list(e)
                    e2[i], e2[j] = s + r, (p - s) + (q - r)
                    poly[tuple(e2)] = poly.get(tuple(e2), 0j) + coef
        terms.append(GaussTerm(poly, rot.T @ t.quad @ rot, rot.T @ t.lin, t.offset))
    return GaussPolyState.from_terms(u.modes, terms)


def reference_condition_x(u, mode, value):
    j = u.modes.index(mode)
    others = [i for i in range(u.n_modes) if i != j]
    terms, total = [], 0j
    for t in u.terms:
        poly = {}
        for e, c in t.poly.items():
            rest = tuple(e[i] for i in others)
            poly[rest] = poly.get(rest, 0j) + (c * value ** e[j] if e[j] else c)
        off = t.offset - 0.5 * t.quad[j, j] * value * value + t.lin[j] * value
        if others:
            idx = np.array(others)
            terms.append(GaussTerm(poly, t.quad[np.ix_(idx, idx)],
                                   t.lin[idx] - t.quad[idx, j] * value, off))
        else:
            total += poly.get((), 0j) * cmath.exp(off)
    if others:
        return GaussPolyState.from_terms(tuple(u.modes[i] for i in others), terms)
    return total


def reference_integrate(u, j):
    others = [i for i in range(u.n_modes) if i != j]
    zero_key = (0,) * len(others)
    units = [tuple(1 if t == i else 0 for t in range(len(others))) for i in range(len(others))]
    terms, total = [], 0j
    for t in u.terms:
        a = t.quad[j, j] / 2.0
        b0 = t.lin[j] / 2.0
        bvec = np.array([-t.quad[j, i] / 2.0 for i in others])
        by_k = {}
        for e, c in t.poly.items():
            sub = by_k.setdefault(e[j], {})
            rest = tuple(e[i] for i in others)
            sub[rest] = sub.get(rest, 0j) + c
        b_poly = {zero_key: complex(b0)}
        for i, unit in enumerate(units):
            if bvec[i] != 0:
                b_poly[unit] = complex(bvec[i])
        moments = gausspoly._moment_polys(complex(a), b_poly, max(by_k, default=0), zero_key)
        poly = {}
        for k, sub in by_k.items():
            poly = gausspoly._poly_add(poly, gausspoly._poly_mul(sub, moments[k]))
        poly = gausspoly._poly_scale(poly, cmath.sqrt(cmath.pi / complex(a)))
        off = t.offset + b0 * b0 / a
        if others:
            qn = t.quad[np.ix_(others, others)] - 2.0 * np.outer(bvec, bvec) / a
            terms.append(GaussTerm(poly, qn, t.lin[others] + 2.0 * b0 * bvec / a, off))
        else:
            total += poly.get((), 0j) * cmath.exp(off)
    if others:
        return GaussPolyState.from_terms(tuple(u.modes[i] for i in others), terms)
    return total


def reference_project_p(u, mode, beta):
    j = u.modes.index(mode)
    shifted = []
    for t in u.terms:
        lin = t.lin.copy()
        lin[j] = lin[j] + 1j * beta
        shifted.append(GaussTerm(t.poly, t.quad, lin, t.offset))
    res = reference_integrate(GaussPolyState(u.modes, shifted), j)
    scale = 1.0 / math.sqrt(2.0 * math.pi)
    if isinstance(res, GaussPolyState):
        return GaussPolyState(res.modes, [
            GaussTerm(gausspoly._poly_scale(t.poly, scale), t.quad, t.lin, t.offset)
            for t in res.terms])
    return res * scale


def reference_inner_product(u, v):
    """The former route: build conj(u) * v and integrate every mode, the last
    one down to a scalar."""
    w = pairwise_multiply_reference(reference_conj(u), reference_aligned(v, u.modes))
    for _ in range(w.n_modes):
        w = reference_integrate(w, 0)
    return w


FLOAT_OPS = (complex, cmath.sqrt, cmath.exp, math.pi)
MP_OPS = (mpmath.mpc, mpmath.sqrt, mpmath.exp, mpmath.pi)


def reference_contract(u, v, ops=FLOAT_OPS):
    """Per-pair reference of ``gausspoly._contract`` on two 1-mode states:
    each term pair contributes sqrt(pi/A) exp(C + B^2/A) sum_k s_k E[x^k], with
    s_k the sum of conj(c_p) c_q over p + q = k.  Returns the sum and the sum
    of the contributions' absolute values, its scale.  ``MP_OPS`` runs it in
    mpmath at the working precision."""
    lift, sqrt, exp, pi = ops
    total = scale = 0
    for tu in u.terms:
        for tv in v.terms:
            a = (lift(tu.quad[0, 0]).conjugate() + lift(tv.quad[0, 0])) / 2
            b = (lift(tu.lin[0]).conjugate() + lift(tv.lin[0])) / 2
            c = lift(tu.offset).conjugate() + lift(tv.offset)
            sums = {}
            for (p,), cp in tu.poly.items():
                for (q,), cq in tv.poly.items():
                    sums[p + q] = sums.get(p + q, 0) + lift(cp).conjugate() * lift(cq)
            moments = [lift(1), b / a]
            for k in range(2, max(sums) + 1):
                moments.append((2 * b * moments[k - 1] + (k - 1) * moments[k - 2]) / (2 * a))
            front = sqrt(pi / a) * exp(c + b * b / a)
            total += front * sum(moments[k] * sk for k, sk in sums.items())
            scale += abs(front) * sum(abs(moments[k] * sk) for k, sk in sums.items())
    return complex(total), float(scale)


# Largest error measured over the seeded corpus below, in units of the
# reference's absolute pair sum: 1.9e-16 against 40-digit mpmath and 5.5e-16
# against the float reference, or 7.7e-16 and 6.6e-16 where long double is
# plain double.
CONTRACT_RTOL = 2e-15


def assert_contracts_to(got, u, v, factor=1.0):
    """``got`` is factor * contract(u, v) per the float reference and per a
    40-digit evaluation of the same float states."""
    ref, scale = reference_contract(u, v)
    with mpmath.workdps(40):
        exact, _ = reference_contract(u, v, MP_OPS)
    tol = CONTRACT_RTOL * scale * abs(factor)
    assert abs(got - factor * ref) <= tol
    assert abs(got - factor * exact) <= tol


ONE = GaussPolyState(("x",), [gaussian_term([0.0], [0.0])])


def last_mode_of_product(u, v):
    """conj(u) * v with every mode but its last integrated out, per the
    references above (which match the engine bitwise)."""
    w = pairwise_multiply_reference(reference_conj(u), reference_aligned(v, u.modes))
    for _ in range(w.n_modes - 1):
        w = reference_integrate(w, 0)
    return w


def quads_symmetric(u):
    """Every Q of a state is bitwise symmetric (true of a complex amplitude)."""
    return not isinstance(u, GaussPolyState) or all(
        t.quad.tobytes() == t.quad.T.copy().tobytes() for t in u.terms)


def with_rounding_twins(u):
    """``u`` plus a copy of each term whose L is one ulp away, unmerged."""
    twins = [GaussTerm(t.poly, t.quad, np.nextafter(t.lin.real, np.inf) + 1j * t.lin.imag,
                       t.offset + 0.1) for t in u.terms]
    return GaussPolyState(u.modes, u.terms + tuple(twins))


def stacked_samples(n_modes, seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        yield oracle.random_gauss_poly(rng, n_modes, max_terms=4)
    u = oracle.random_gauss_poly(rng, n_modes, max_terms=3)
    yield with_rounding_twins(u)
    yield superpose([u, u], [0.5, 1j])  # shared forms, merged


class TestStackedOperationsMatchPerTermReferences:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_conditioning_projection_and_integration(self, n_modes):
        for u in stacked_samples(n_modes, 70 + n_modes):
            for mode in u.modes:
                j = u.modes.index(mode)
                for value in (0.0, 0.37):
                    out = condition_x(u, mode, value)
                    assert exact_bytes(out) == exact_bytes(reference_condition_x(u, mode, value))
                    assert quads_symmetric(out)
                for beta in (0.0, -0.8):
                    out = project_p(u, mode, beta)
                    if n_modes == 1:  # a contraction against the plane wave
                        plane = GaussPolyState(("x",), [gaussian_term([0.0], [-1j * beta])])
                        assert_contracts_to(out, plane, u, 1.0 / math.sqrt(2.0 * math.pi))
                        continue
                    assert exact_bytes(out) == exact_bytes(reference_project_p(u, mode, beta))
                    assert quads_symmetric(out)
                if n_modes > 1:
                    out = gausspoly._integrate_index(u, j)
                    assert exact_bytes(out) == exact_bytes(reference_integrate(u, j))
                    assert quads_symmetric(out)

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_beam_splitter(self, n_modes):
        for u in stacked_samples(n_modes, 80 + n_modes):
            for a, b in ((0, 1), (1, 0), (n_modes - 1, 0)):
                mi, mj = u.modes[a], u.modes[b]
                out = beam_splitter(u, mi, mj)
                assert exact_bytes(out) == exact_bytes(reference_beam_splitter(u, mi, mj))
                assert quads_symmetric(out)

    @pytest.mark.parametrize("mu, mv", [(1, 1), (1, 2), (2, 1)])
    def test_disjoint_multiply(self, mu, mv):
        us = list(stacked_samples(mu, 90 + mu))
        vs = [relabel(v, {m: m.upper() for m in v.modes})
              for v in stacked_samples(mv, 95 + mv)]
        for u, v in zip(us, vs):
            out = multiply(u, v)
            assert exact_bytes(out) == exact_bytes(reference_disjoint_multiply(u, v))
            assert quads_symmetric(out)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_inner_products_and_normalisation(self, n_modes):
        samples = list(stacked_samples(n_modes, 100 + n_modes))
        for u, v in zip(samples, samples[1:] + samples[:1]):
            v = reference_aligned(v, u.modes[::-1])  # inner products realign v
            got = inner_product(u, v)
            if n_modes == 1:
                assert_contracts_to(got, u, v)
            else:  # the last mode is contracted against the constant 1
                assert_contracts_to(got, ONE, last_mode_of_product(u, v))
            scale = math.sqrt(norm_squared(u) * norm_squared(v))
            assert abs(got - reference_inner_product(u, v)) <= 1e-14 * scale
            shift = -0.5 * math.log(inner_product(u, u).real)
            ref = GaussPolyState(u.modes, [GaussTerm(t.poly, t.quad, t.lin, t.offset + shift)
                                           for t in u.terms])
            assert exact_bytes(u.normalized()) == exact_bytes(ref)
            assert quads_symmetric(u.normalized())

    def test_amplify_step_with_shared_forms(self):
        cat = states.make_ideal_squeezed_cat(1.1, 0.4029, "even", "1")
        pair = multiply(cat, relabel(cat, {"1": "2"}))
        assert exact_bytes(pair) == exact_bytes(
            reference_disjoint_multiply(cat, relabel(cat, {"1": "2"})))
        mixed = beam_splitter(pair, "1", "2")
        assert exact_bytes(mixed) == exact_bytes(reference_beam_splitter(pair, "1", "2"))
        out = condition_x(mixed, "2", 0.0)
        assert len(out.terms) == 3
        assert exact_bytes(out) == exact_bytes(reference_condition_x(mixed, "2", 0.0))
        assert all(quads_symmetric(w) for w in (pair, mixed, out))


class TestTermView:
    def test_term_polynomials_are_read_only(self):
        u = states.make_approx(2, "x")
        v = relabel(u, {"x": "y"})
        with pytest.raises(TypeError):
            v.terms[0].poly[(0,)] = 5.0
        assert norm_squared(u) == approx(1.0, abs=1e-12)

    def test_terms_copy_their_input_polynomial(self):
        poly = {(0,): 1.0 + 0j}
        term = gaussian_term(1.0, 0.0, poly=poly)
        poly[(0,)] = 5.0
        assert term.poly == {(0,): 1.0 + 0j}

    def test_term_arrays_are_read_only(self):
        (term,) = multiply(hermite_gauss(1, "a"), hermite_gauss(0, "b")).terms
        with pytest.raises(ValueError):
            term.quad[0, 0] = 2.0
        with pytest.raises(ValueError):
            term.lin[0] = 2.0

    def test_amplify_step_builds_no_terms_until_read(self, monkeypatch):
        cur = states.make_ideal_squeezed_cat(1.2, 0.4029, "even", "1")
        for _ in range(4):
            cur = protocols._amplify_state(cur)
        assert len(cur.terms) == 17
        built = []
        post_init = GaussTerm.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GaussTerm, "__post_init__", counting)
        out = protocols._amplify_state(cur)
        assert built == []
        first, second = term_bytes(out), term_bytes(out)
        assert first == second and len(first) == 33

    def test_states_cannot_be_reassigned(self):
        u = hermite_gauss(1)
        with pytest.raises(AttributeError):
            u.modes = ("y",)

    def test_states_pickle_bitwise(self):
        u = beam_splitter(multiply(states.make_approx(2, "a"), hermite_gauss(1, "b")), "a", "b")
        back = pickle.loads(pickle.dumps(u))
        assert exact_bytes(back) == exact_bytes(u)
        with pytest.raises(ValueError):
            back.terms[0].quad[0, 0] = 1.0
