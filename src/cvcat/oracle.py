"""Brute-force numerical integration used to validate the closed-form engine.

Everything here works on pointwise samples and composite trapezoidal sums on
uniform grids.  The integrands are entire functions times Gaussians, for which
the trapezoidal rule converges faster than any power of the step size, so a
plain uniform rule is both accurate and easy to audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .gausspoly import GaussPolyState, GaussTerm
from .states import SignalParams, make_approx, make_signal, make_squeezed_vacuum

#: Default 1-D grid: [-12, 12] with 4096 points.
DEFAULT_POINTS_1D = 4096
#: Default per-axis points for two-mode grids.
DEFAULT_POINTS_2D = 1024
DEFAULT_BOUND = 12.0

#: Sigma multiple beyond the farthest polynomial-weighted Gaussian peak that
#: the grid must cover.  The amplitude falls like exp(-k^2/2) at k sigma, so
#: the squared-mass tail at 6 sigma is ~ exp(-36) << 1e-12 even after
#: polynomial widening.
_COVERAGE_SIGMAS = 6.0

#: Grid points per row block in sample and quad_teleport: a block's 512 kB
#: temporaries stay in cache, where whole-grid ones of 16 MB are page-faulted.
_BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with the same bounds and point count on every axis."""

    lo: float = -DEFAULT_BOUND
    hi: float = DEFAULT_BOUND
    points: int = DEFAULT_POINTS_1D

    def __post_init__(self):
        if not self.hi > self.lo:
            raise UsageError("grid needs hi > lo")
        if self.points < 64:
            raise UsageError("grid needs at least 64 points per axis")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)


def required_bound(u: GaussPolyState) -> float:
    """Smallest symmetric bound that captures all but ~1e-12 of the state.

    For each term the Gaussian factor is centred at Re(Q)^-1 Re(L) with
    per-axis standard deviations from the diagonal of Re(Q)^-1; a polynomial
    of degree d widens the support by about sqrt(2 d) standard deviations.
    """
    rq = u._quads.real
    bad = np.any(np.linalg.eigvalsh(rq) <= 0.0, axis=-1)
    # terms are checked in order, each for a singular covariance first
    first_bad = int(np.argmax(bad)) if bad.any() else len(bad)
    try:
        cov = np.linalg.inv(rq[:first_bad + 1])
    except np.linalg.LinAlgError as exc:
        raise DomainError("term covariance is singular") from exc
    if first_bad < len(bad):
        raise DomainError("term has non-integrable real quadratic form")
    centre = (cov @ u._lins.real[:, :, None])[:, :, 0]
    sig = np.sqrt(np.abs(np.diagonal(cov, axis1=1, axis2=2)))
    widen = np.sqrt(2.0 * np.array(u.degrees(), dtype=float)) + _COVERAGE_SIGMAS
    return float(np.max(np.abs(centre) + widen * sig, initial=1.0))


def _teleport_bound(signal: SignalParams) -> float:
    """Bound the t axis of ``quad_teleport`` must reach: the factor
    psi_sig(t/sqrt2) confines t to sqrt2 times the signal's own bound."""
    return math.sqrt(2.0) * required_bound(make_signal(signal))


def _check_covers(grid: GridSpec, need: float, what: str) -> None:
    if grid.lo > -need or grid.hi < need:
        raise DomainError(f"grid [{grid.lo}, {grid.hi}] does not cover the {what}; "
                          f"use at least [-{need:.2f}, {need:.2f}]")


def sample(u: GaussPolyState, grid: GridSpec) -> np.ndarray:
    """Wavefunction values on the tensor grid, after a coverage check.

    The state is evaluated on an open grid (``np.meshgrid(..., sparse=True)``),
    so per-axis factors are computed once per axis point rather than once per
    grid point; the result still has the full tensor-grid shape.  It is filled
    in row blocks of 2^15 points, so temporaries stay in cache, not 16 MB each.
    """
    _check_covers(grid, required_bound(u), "state")
    axes = np.meshgrid(*[grid.axis()] * u.n_modes, indexing="ij", sparse=True)
    out = np.empty((grid.points,) * u.n_modes, dtype=complex)
    edges = _row_edges(grid.points, grid.points ** (u.n_modes - 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        out[lo:hi] = u.evaluate(axes[0][lo:hi], *axes[1:])
    return out


def _row_edges(rows: int, row_points: int) -> list[int]:
    """Edges of row blocks of about ``_BLOCK_POINTS`` points.  A ragged last
    block of one row (``@`` would sum it with its dot path, not gemv) or of
    under 2^14 points (numpy then computes products out of place, rounding
    them differently) joins the block before, so the values stay bitwise."""
    edges = list(range(0, rows, max(2, _BLOCK_POINTS // row_points))) + [rows]
    tail = edges[-1] - edges[-2]
    if len(edges) > 2 and (tail == 1 or tail * row_points < 1 << 14):
        del edges[-2]
    return edges


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """The oracle's one rule, composite trapezoidal weights on n points spaced
    ``step`` apart: ``samples @ trapezoid_weights(n, step)`` integrates."""
    w = np.full(n, step)
    w[0] = w[-1] = step / 2.0
    return w


@dataclass(frozen=True)
class QuadResult:
    """Integral value together with its half-resolution companion."""

    value: complex
    half_value: complex

    @property
    def delta(self) -> float:
        return abs(self.value - self.half_value)


def quad_inner(u_samples: np.ndarray, v_samples: np.ndarray, grid: GridSpec) -> QuadResult:
    """Trapezoidal integral of conj(u) * v, with a half-resolution check."""
    if u_samples.shape != v_samples.shape:
        raise UsageError("sample arrays must share their grid")
    integrand = np.conjugate(u_samples) * v_samples

    def integrate(arr: np.ndarray, step: float) -> complex:
        for _ in range(arr.ndim):
            w = trapezoid_weights(arr.shape[-1], step)
            arr = arr @ w
        return complex(arr)

    full = integrate(integrand, grid.step)
    half = integrate(integrand[(slice(None, None, 2),) * integrand.ndim], 2.0 * grid.step)
    return QuadResult(full, half)


def quad_fidelity(u_samples: np.ndarray, v_samples: np.ndarray, grid: GridSpec) -> float:
    """Fidelity |<u|v>|^2 / (<u|u> <v|v>) of two sampled states by quad_inner."""
    overlap = quad_inner(u_samples, v_samples, grid).value
    return float(abs(overlap) ** 2 / (quad_inner(v_samples, v_samples, grid).value.real
                                      * quad_inner(u_samples, u_samples, grid).value.real))


def random_gauss_poly(rng: np.random.Generator, n_modes: int = 1,
                      max_degree: int = 8, max_terms: int = 2,
                      modes: tuple[str, ...] | None = None) -> GaussPolyState:
    """Well-conditioned random state for oracle-vs-engine regression runs.

    Real quadratic forms have eigenvalues in roughly [0.8, 3], centres stay
    within a few units of the origin, and polynomial degrees are bounded, so
    the default oracle grids cover the states comfortably.
    """
    if modes is None:
        modes = tuple("xyz"[:n_modes])
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        a = rng.uniform(-0.7, 0.7, (n_modes, n_modes))
        re_q = a @ a.T + np.eye(n_modes) * rng.uniform(0.8, 1.6)
        im_q = rng.uniform(-0.25, 0.25, (n_modes, n_modes))
        quad = re_q + 0.5j * (im_q + im_q.T)
        lin = rng.uniform(-1.0, 1.0, n_modes) + 1j * rng.uniform(-0.8, 0.8, n_modes)
        poly = {}
        for _ in range(int(rng.integers(1, 4))):
            expo = tuple(int(k) for k in rng.integers(0, max_degree + 1, n_modes))
            poly[expo] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        terms.append(GaussTerm(poly, quad, lin,
                               complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))))
    return GaussPolyState.from_terms(modes, terms)


def quad_teleport(signal: SignalParams, n: int, beta: float, grid: GridSpec,
                  out_axis: np.ndarray | None = None) -> np.ndarray:
    """Direct quadrature of the conditioned teleportation output

        psi_out(x) = integral exp(i beta t) psi_vac(x/sqrt2 - t/2)
                     * psi_ladder(t/2 + x/sqrt2) * psi_sig(t/sqrt2) dt,

    evaluated for every x on ``out_axis`` (defaults to the grid axis), after
    checking that the grid reaches ``_teleport_bound(signal)`` in t.  The
    argument scalings are used exactly as written above; agreement with the
    beam-splitter-derived engine output is one of the validation checks.
    The integrand is built in the row blocks of ``sample``, so temporaries
    stay in cache and memory stays bounded on a 4096^2 grid; each row's sum
    is the same as with the whole integrand at once.
    """
    _check_covers(grid, _teleport_bound(signal), "teleport integrand")
    ladder = make_approx(n)
    vac = make_squeezed_vacuum(signal.g)
    sig = make_signal(signal)
    xs = grid.axis() if out_axis is None else np.asarray(out_axis)
    ts = grid.axis()
    t = ts[None, :]
    phase = np.exp(1j * beta * t)
    sig_t = sig.evaluate(t / math.sqrt(2.0))
    w = trapezoid_weights(ts.size, grid.step)
    out = np.empty(xs.size, dtype=complex)
    edges = _row_edges(xs.size, ts.size)
    for lo, hi in zip(edges[:-1], edges[1:]):
        x2 = xs[lo:hi, None] / math.sqrt(2.0)
        integrand = (phase
                     * vac.evaluate(x2 - t / 2.0)
                     * ladder.evaluate(t / 2.0 + x2)
                     * sig_t)
        out[lo:hi] = integrand @ w
    return out
