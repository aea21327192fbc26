import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from cvcat import oracle, protocols, states
from cvcat.errors import DomainError, UsageError
from cvcat.gausspoly import hermite_gauss, inner_product, norm_squared


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

    def test_matches_engine_pointwise(self, benchmark_params):
        alpha, r = benchmark_params["signal_alpha"], benchmark_params["r"]
        p = states.SignalParams(1, 1, alpha, r)
        grid = oracle.GridSpec()
        xs = np.linspace(-8.0, 8.0, 101)
        engine = protocols.teleport(p, protocols.ApproxResource(2)).output.evaluate(xs)
        direct = oracle.quad_teleport(p, 2, 0.0, grid, out_axis=xs)
        direct = direct / math.sqrt(float(np.trapezoid(np.abs(direct) ** 2, xs)))
        phase = np.vdot(direct, engine)
        direct = direct * (phase / abs(phase))
        assert float(np.max(np.abs(engine - direct))) < 1e-7 * float(np.max(np.abs(engine)))

    def test_opposite_amplitude_fidelity(self, benchmark_params):
        alpha, r = benchmark_params["signal_alpha"], benchmark_params["r"]
        p = states.SignalParams(1, -1, alpha, r)
        grid = oracle.GridSpec()
        xs = grid.axis()
        out = oracle.quad_teleport(p, 2, 0.0, grid)
        sig = states.make_signal(p).evaluate(xs)
        w = np.full(xs.size, grid.step)
        w[0] = w[-1] = grid.step / 2.0
        f = abs(np.sum(np.conj(sig) * out * w)) ** 2 / np.sum(np.abs(out) ** 2 * w)
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
