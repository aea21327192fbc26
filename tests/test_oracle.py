import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from cvcat import oracle, protocols, states
from cvcat.errors import DomainError, UsageError
from cvcat.gausspoly import (GaussPolyState, GaussTerm, hermite_gauss, inner_product,
                             norm_squared)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(UsageError):
            oracle.GridSpec(1.0, -1.0, 128)
        with pytest.raises(UsageError):
            oracle.GridSpec(-1.0, 1.0, 8)

    def test_axis_endpoints(self):
        g = oracle.GridSpec(-2.0, 2.0, 101)
        xs = g.axis()
        assert xs[0] == -2.0 and xs[-1] == 2.0
        assert g.step == approx(0.04)


def _per_term_bound(u):
    """required_bound as a loop over the terms, the reference for the
    stacked version."""
    bound = 1.0
    degs = u.degrees()
    for t in u.terms:
        rq = t.quad.real
        try:
            cov = np.linalg.inv(rq)
        except np.linalg.LinAlgError as exc:
            raise DomainError("term covariance is singular") from exc
        if np.any(np.linalg.eigvalsh(rq) <= 0.0):
            raise DomainError("term has non-integrable real quadratic form")
        centre = cov @ t.lin.real
        sig = np.sqrt(np.abs(np.diag(cov)))
        for i in range(u.n_modes):
            reach = abs(centre[i]) + (math.sqrt(2.0 * degs[i]) + oracle._COVERAGE_SIGMAS) * sig[i]
            bound = max(bound, reach)
    return bound


def _outcome(fn, u):
    try:
        return fn(u)
    except DomainError as exc:
        return str(exc)


class TestRequiredBound:
    def test_matches_per_term_loop_bitwise(self, benchmark_params):
        rng = np.random.default_rng(2024)
        corpus = [oracle.random_gauss_poly(rng, m, max_terms=4)
                  for m in (1, 2, 3) for _ in range(60)]
        corpus += [states.make_approx(n) for n in (0, 1, 2, 5, 16, 32)]
        p = states.SignalParams(1, 0.5j, benchmark_params["signal_alpha"], benchmark_params["r"])
        corpus += [states.make_signal(p), protocols.teleport(p, protocols.ApproxResource(4)).output,
                   protocols.resource_state(protocols.ApproxResource(3), p),
                   GaussPolyState(("x",), ())]
        for u in corpus:
            assert oracle.required_bound(u) == _per_term_bound(u)

    @pytest.mark.parametrize("forms, message", [
        ([[[1.0, 0.2], [0.2, 1.5]], [[1.0, 1.0], [1.0, 1.0]]], "singular"),
        ([[[1.0, 0.2], [0.2, 1.5]], [[1.0, 0.0], [0.0, -1.0]]], "non-integrable"),
        ([[[1.0, 0.0], [0.0, -1.0]], [[1.0, 1.0], [1.0, 1.0]]], "non-integrable"),
        ([[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]], "singular"),
        ([[[0.0, 0.0], [0.0, 0.0]]], "singular"),
    ], ids=["good-singular", "good-indefinite", "indefinite-singular",
            "singular-indefinite", "zero"])
    def test_first_bad_term_decides_the_error(self, forms, message):
        u = GaussPolyState(("x", "y"), tuple(
            GaussTerm({(0, 0): 1.0}, np.array(q, dtype=complex), np.full(2, k + 1.0 + 0j))
            for k, q in enumerate(forms)))
        assert message in _outcome(oracle.required_bound, u)
        assert _outcome(oracle.required_bound, u) == _outcome(_per_term_bound, u)


class TestSample:
    def test_vacuum_mass(self):
        grid = oracle.GridSpec(-8.0, 8.0, 1024)
        vals = oracle.sample(hermite_gauss(0), grid)
        mass = np.sum(np.abs(vals) ** 2) * grid.step
        assert mass == approx(1.0, abs=1e-8)

    def test_ladder_peaks_symmetric(self):
        grid = oracle.GridSpec(-8.0, 8.0, 4097)
        vals = np.abs(oracle.sample(states.make_approx(2), grid)) ** 2
        xs = grid.axis()
        left = xs[np.argmax(vals[xs < 0])]
        right = xs[xs >= 0][np.argmax(vals[xs >= 0])]
        assert left == approx(-right, abs=2 * grid.step)

    def test_signal_peak_separation(self, benchmark_params):
        alpha, r, g = benchmark_params["alpha_eff"], benchmark_params["r"], benchmark_params["g"]
        sig = states.make_signal(states.SignalParams(1, 1, alpha, r))
        grid = oracle.GridSpec(-10.0, 10.0, 8192)
        vals = np.abs(oracle.sample(sig, grid)) ** 2
        xs = grid.axis()
        left = xs[np.argmax(vals[xs < 0])]
        right = xs[xs >= 0][np.argmax(vals[xs >= 0])]
        assert right - left == approx(2 * alpha * math.sqrt(2 * g), abs=0.02)

    def test_coverage_error_reports_bounds(self):
        wide = states.make_squeezed_coherent(6.0)
        with pytest.raises(DomainError) as err:
            oracle.sample(wide, oracle.GridSpec(-4.0, 4.0, 256))
        assert "use at least" in str(err.value)

    @pytest.mark.parametrize("n_modes, points, block", [
        (1, 40000, 1 << 14),   # a ragged 7232-point tail joins its neighbour
        (2, 1024, 1 << 14),
        (2, 1024, 3 << 13),    # a 16-row tail of 2^14 points stays a block
        (2, 1024, 1 << 15),
        (2, 1000, 1 << 15),    # an 8-row tail of 8000 points joins its neighbour
        (3, 64, 1 << 14),
        (3, 100, 1 << 15),     # a lone 10^4-point tail row joins its neighbour
    ])
    def test_row_blocks_match_one_block_bitwise(self, monkeypatch, n_modes, points, block):
        rng = np.random.default_rng(7 + n_modes)
        grid = oracle.GridSpec(-18.0, 18.0, points)
        states_ = [oracle.random_gauss_poly(rng, n_modes, max_terms=3) for _ in range(3)]
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 1 << 40)
        whole = [oracle.sample(u, grid) for u in states_]
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", block)
        assert len(oracle._row_edges(points, points ** (n_modes - 1))) > 2
        for u, ref in zip(states_, whole):
            assert np.array_equal(oracle.sample(u, grid), ref)

    @pytest.mark.parametrize("rows", [100, 161, 1000, 1024, 40000])
    @pytest.mark.parametrize("row_points", [1, 100, 1000, 4096, 20000])
    def test_row_edges_keep_blocks_of_2_to_the_14_points(self, rows, row_points):
        # numpy computes products with temporaries of 2^14 complex values or
        # more in place, and rounds them differently from smaller ones
        edges = oracle._row_edges(rows, row_points)
        assert edges[0] == 0 and edges[-1] == rows
        sizes = np.diff(edges)
        assert np.all(sizes > 0)
        if len(sizes) > 1:
            assert np.all(sizes >= 2)
            assert np.all(sizes * row_points >= 1 << 14)
        assert np.all(sizes * row_points < 2 * oracle._BLOCK_POINTS + 2 * row_points)

    def test_two_mode_peak_memory(self):
        # the 1024^2 grid of the oracle corpus: the output is 16 MB, and
        # whole-grid temporaries would take that peak to 80-96 MB
        rng = np.random.default_rng(3)
        u = oracle.random_gauss_poly(rng, 2, max_terms=3)
        grid = oracle.GridSpec(-18.0, 18.0, oracle.DEFAULT_POINTS_2D)
        tracemalloc.start()
        try:
            oracle.sample(u, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_non_integrable_state_rejected(self):
        import numpy as np
        from cvcat.gausspoly import GaussPolyState, GaussTerm
        bad = GaussPolyState(("x",), (GaussTerm({(0,): 1.0},
                                                np.array([[-1.0]], dtype=complex),
                                                np.zeros(1, dtype=complex)),))
        with pytest.raises(DomainError):
            oracle.sample(bad, oracle.GridSpec())


class TestQuadInner:
    def test_vacuum_norm(self):
        grid = oracle.GridSpec()
        vals = oracle.sample(hermite_gauss(0), grid)
        res = oracle.quad_inner(vals, vals, grid)
        assert res.value.real == approx(1.0, abs=1e-8)
        assert res.delta < 1e-10

    def test_benchmark_overlap(self, benchmark_params):
        cat = states.make_ideal_squeezed_cat(benchmark_params["alpha_eff"],
                                             benchmark_params["r"], "even")
        grid = oracle.GridSpec()
        a = oracle.sample(states.make_approx(2), grid)
        b = oracle.sample(cat, grid)
        res = oracle.quad_inner(a, b, grid)
        assert abs(res.value) ** 2 == approx(0.99, abs=0.005)

    def test_shape_mismatch(self):
        grid = oracle.GridSpec(points=128)
        with pytest.raises(UsageError):
            oracle.quad_inner(np.zeros(128), np.zeros(64), grid)

    def test_random_states_agree_with_engine(self):
        rng = np.random.default_rng(42)
        grid = oracle.GridSpec(-18.0, 18.0, 4096)
        worst = 0.0
        for _ in range(25):
            u = oracle.random_gauss_poly(rng, 1)
            v = oracle.random_gauss_poly(rng, 1, modes=u.modes)
            res = oracle.quad_inner(oracle.sample(u, grid), oracle.sample(v, grid), grid)
            scale = math.sqrt(norm_squared(u) * norm_squared(v))
            worst = max(worst, abs(inner_product(u, v) - res.value) / scale)
        assert worst < 1e-7

    def test_resolution_doubling_self_consistency(self):
        u = states.make_approx(4)
        fine = oracle.GridSpec(points=4096)
        coarse = oracle.GridSpec(points=2048)
        rf = oracle.quad_inner(oracle.sample(u, fine), oracle.sample(u, fine), fine)
        rc = oracle.quad_inner(oracle.sample(u, coarse), oracle.sample(u, coarse), coarse)
        assert abs(rf.value - rc.value) < 1e-9


class TestQuadTeleport:
    def test_vacuum_resource_gaussian_output(self):
        # n = 0 resource and single-branch signal: output stays a smooth
        # single-peak profile
        p = states.SignalParams(1, 0, 1.0, 0.2)
        grid = oracle.GridSpec()
        vals = oracle.quad_teleport(p, 0, 0.0, grid)
        mags = np.abs(vals)
        peak = np.argmax(mags)
        assert np.all(np.diff(mags[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(mags[peak:]) <= 1e-12)

    def test_refuses_a_grid_short_of_the_signal(self):
        # the anti-squeezed signal confines t only to +-28.5; on +-12 the
        # quadrature missed the engine output by 4.6e-5
        p = states.SignalParams(1, 1, 1.0, -1.0)
        with pytest.raises(DomainError) as err:
            oracle.quad_teleport(p, 4, 0.0, oracle.GridSpec())
        assert "use at least [-28.50, 28.50]" in str(err.value)

    def test_matches_engine_pointwise(self, benchmark_params):
        alpha, r = benchmark_params["signal_alpha"], benchmark_params["r"]
        p = states.SignalParams(1, 1, alpha, r)
        grid = oracle.GridSpec()
        out_grid = oracle.GridSpec(-8.0, 8.0, 101)
        xs = out_grid.axis()
        engine = protocols.teleport(p, protocols.ApproxResource(2)).output.evaluate(xs)
        direct = oracle.quad_teleport(p, 2, 0.0, grid, out_axis=xs)
        direct = direct / math.sqrt(oracle.quad_inner(direct, direct, out_grid).value.real)
        phase = np.vdot(direct, engine)
        direct = direct * (phase / abs(phase))
        assert float(np.max(np.abs(engine - direct))) < 1e-7 * float(np.max(np.abs(engine)))

    def test_opposite_amplitude_fidelity(self, benchmark_params):
        alpha, r = benchmark_params["signal_alpha"], benchmark_params["r"]
        p = states.SignalParams(1, -1, alpha, r)
        grid = oracle.GridSpec()
        out = oracle.quad_teleport(p, 2, 0.0, grid)
        f = oracle.quad_fidelity(oracle.sample(states.make_signal(p), grid), out, grid)
        assert f == approx(0.9974, abs=0.0005)

    def test_row_blocks_match_one_block_bitwise(self, monkeypatch, benchmark_params):
        p = states.SignalParams(1, 0.5j, benchmark_params["signal_alpha"],
                                benchmark_params["r"])
        grid = oracle.GridSpec(points=512)
        xs = np.linspace(-8.0, 8.0, 101)
        results = []
        # 2 and 7 rows per block (ragged last blocks of 1 and 3 rows), then
        # one block
        for block in (2 * grid.points, 7 * grid.points, 1 << 40):
            monkeypatch.setattr(oracle, "_BLOCK_POINTS", block)
            results.append((oracle.quad_teleport(p, 2, 0.4, grid),
                            oracle.quad_teleport(p, 2, 0.4, grid, out_axis=xs)))
        for blocked in results[:-1]:
            for a, b in zip(blocked, results[-1]):
                assert np.array_equal(a, b)

    def test_default_grid_peak_memory(self, benchmark_params):
        # the 4096^2 grid of `fidelity-map --oracle`; the whole integrand at
        # once peaks near 1.8 GB
        p = states.SignalParams(1, 1, benchmark_params["signal_alpha"],
                                benchmark_params["r"])
        tracemalloc.start()
        try:
            oracle.quad_teleport(p, 2, 0.0, oracle.GridSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 20
