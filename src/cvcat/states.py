"""Constructors for the wavefunctions used by the protocols.

Every constructor returns a normalised GaussPolyState; normalisation is always
recomputed from the exact inner product rather than taken from a printed
constant.  Squeezing never appears as a Fock-space operator: squeezed states
enter exclusively through their wavefunctions, with g = exp(-2r) and the x
quadrature squeezed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import DomainError, EngineError, UsageError
from .gausspoly import (
    GaussianMomentSpec,
    GaussPolyState,
    GaussTerm,
    gaussian_moment_integral,
    superpose,
)

#: Largest initial excitation number accepted by make_approx; keeps the
#: polynomial degree cap honoured even after one doubling step.
MAX_EXCITATION = 32

Parity = Literal["even", "odd"]


@dataclass(frozen=True)
class SignalParams:
    """Qubit-like signal a * S(r)|alpha> + b * S(r)|-alpha>."""

    a: complex
    b: complex
    alpha: float
    r: float = 0.0

    def __post_init__(self):
        if not all(cmath.isfinite(complex(v)) for v in (self.a, self.b, self.alpha, self.r)):
            raise UsageError("signal parameters (a, b, alpha, r) must be finite")
        if self.a == 0 and self.b == 0:
            raise UsageError("signal amplitudes (a, b) must not both vanish")
        if self.alpha <= 0.0:
            raise UsageError("signal alpha must be positive")
        squeezing_g(self.r, UsageError)
        if self.norm_constant_squared() <= 1e-300:
            raise UsageError("degenerate signal: normalisation diverges")

    @property
    def g(self) -> float:
        return squeezing_g(self.r)

    def norm_constant_squared(self) -> float:
        """1 / N_sig^2 = |a|^2 + |b|^2 + 2 exp(-2 alpha^2) Re(a conj(b))."""
        a, b = complex(self.a), complex(self.b)
        return (abs(a) ** 2 + abs(b) ** 2
                + 2.0 * math.exp(-2.0 * self.alpha ** 2) * (a * b.conjugate()).real)


def _checked_g(g: float, error: type[EngineError]) -> float:
    """``g``, or ``error`` unless g and 1/g are both finite and positive."""
    if not (0.0 < g < math.inf and 1.0 / g < math.inf):
        raise error(f"squeezing g = exp(-2r) = {g!r} is out of range: "
                    "g and 1/g must be finite and positive")
    return g


def squeezing_g(r: float, error: type[EngineError] = DomainError) -> float:
    """g = exp(-2r) of squeezing r; raises ``error`` when r is not finite or
    g or 1/g leaves the float range (|r| above about 354)."""
    try:
        g = math.exp(-2.0 * r)
    except OverflowError:
        g = math.inf
    return _checked_g(g, error)


def make_squeezed_coherent(alpha: float, r: float = 0.0, mode: str = "x") -> GaussPolyState:
    """S(r)|alpha>: Gaussian of x-variance g/2 centred at alpha*sqrt(2g)."""
    g = squeezing_g(r)
    mu = alpha * math.sqrt(2.0 * g)
    term = GaussTerm({(0,): (math.pi * g) ** -0.25},
                     np.array([[1.0 / g]], dtype=complex),
                     np.array([mu / g], dtype=complex),
                     -alpha * alpha)
    return GaussPolyState((mode,), (term,))


def make_squeezed_vacuum(g: float, mode: str = "x") -> GaussPolyState:
    """Squeezed vacuum (pi g)^-1/4 exp(-x^2 / 2g)."""
    _checked_g(g, DomainError)
    term = GaussTerm({(0,): (math.pi * g) ** -0.25},
                     np.array([[1.0 / g]], dtype=complex),
                     np.zeros(1, dtype=complex), 0j)
    return GaussPolyState((mode,), (term,))


def make_signal(p: SignalParams, mode: str = "s") -> GaussPolyState:
    """Normalised signal state for the given (a, b, alpha, r)."""
    plus = make_squeezed_coherent(p.alpha, p.r, mode)
    minus = make_squeezed_coherent(-p.alpha, p.r, mode)
    return superpose([plus, minus], [p.a, p.b]).normalized()


def make_approx(n: int, mode: str = "x") -> GaussPolyState:
    """The n-th rung of the quadrature ladder x^n exp(-x^2/2), normalised.

    This is the state produced by splitting an n-photon Fock state on a
    balanced beam splitter and post-selecting a zero homodyne outcome in one
    arm; it approximates a squeezed even cat of amplitude ~ sqrt(2n).
    """
    if n < 0:
        raise UsageError("excitation number must be >= 0")
    if n > MAX_EXCITATION:
        raise UsageError(f"excitation number capped at {MAX_EXCITATION}")
    log_norm = 0.5 * (2 * n * math.log(2.0) + math.lgamma(n + 1)
                      - math.lgamma(2 * n + 1)) - 0.25 * math.log(math.pi)
    term = GaussTerm({(n,): math.exp(log_norm)},
                     np.eye(1, dtype=complex), np.zeros(1, dtype=complex), 0j)
    return GaussPolyState((mode,), (term,))


def make_ideal_squeezed_cat(alpha: float, r: float, parity: Parity = "even",
                            mode: str = "x") -> GaussPolyState:
    """Normalised S(r)(|alpha> +/- |-alpha>); the even cat at alpha = 0 is the
    squeezed vacuum."""
    if parity not in ("even", "odd"):
        raise UsageError("parity must be 'even' or 'odd'")
    if alpha == 0.0:
        if parity == "odd":
            raise DomainError("the odd superposition is undefined at alpha = 0")
        return make_squeezed_vacuum(squeezing_g(r), mode)
    sign = 1.0 if parity == "even" else -1.0
    plus = make_squeezed_coherent(alpha, r, mode)
    minus = make_squeezed_coherent(-alpha, r, mode)
    return superpose([plus, minus], [1.0, sign]).normalized()


@dataclass(frozen=True)
class EffectiveParams:
    """Best (alpha, g) of an ideal squeezed cat matching a ladder state."""

    alpha: float
    g: float
    fidelity: float
    converged: bool

    @property
    def r(self) -> float:
        return -0.5 * math.log(self.g)


# Caches nothing (a fit follows perturb_first_moment, which a key of n misses);
# the wrapper keeps the cache_info() and cache_clear() that perfbench calls.
@lru_cache(maxsize=0)
def fit_effective_params(n: int) -> EffectiveParams:
    """Maximise fidelity(make_approx(n), ideal squeezed cat) over (alpha, g).

    The comparison cat carries the parity of n (x^n exp(-x^2/2) is an even
    function for even n and odd otherwise; the opposite-parity overlap
    vanishes identically), so F = 2 O^2 / (1 +/- exp(-2 alpha^2)) with
    O = N_n (pi g)^(-1/4) exp(-alpha^2) I_n, N_n^2 = 1 / Gamma(n + 1/2) and
    I_k = integral x^k exp(-a x^2 + 2 b x) dx at a = (1 + 1/g) / 2,
    b = alpha / sqrt(2 g).  Since dI_k/db = 2 I_{k+1} and dI_k/da = -I_{k+2},
    the gradient and Hessian of log F in (log alpha, log g) are exact in the
    moments I_n .. I_{n+4}, which ``gaussian_moment_integral`` computes.
    Newton's method from (sqrt(n), 1/2) solves grad log F = 0 within a factor
    e of that start; ``converged`` says that max |grad log F| <= 1e-12 was
    reached.

    n = 1 has no interior optimum: x exp(-x^2/2) is the Fock state |1>, the
    alpha -> 0, g -> 1 limit of the odd squeezed cat, where F = 1.  That
    limit is returned as EffectiveParams(0.0, 1.0, 1.0, True).
    """
    if not 1 <= n <= MAX_EXCITATION:
        raise UsageError(f"fit is defined for 1 <= n <= {MAX_EXCITATION}")
    if n == 1:
        return EffectiveParams(0.0, 1.0, 1.0, True)
    sign = 1.0 if n % 2 == 0 else -1.0
    start = p = np.log([math.sqrt(n), 0.5])
    for _ in range(20):
        alpha, g = math.exp(p[0]), math.exp(p[1])
        a, b = (1.0 + 1.0 / g) / 2.0, alpha / math.sqrt(2.0 * g)
        moments = [gaussian_moment_integral(GaussianMomentSpec(a, b, n + k)).real
                   for k in range(5)]
        m = np.array(moments) / moments[0]
        e = sign * math.exp(-2.0 * alpha * alpha)
        # log F = 2 log I_n - 2 alpha^2 - log(1 + e) - log(g) / 2 + const.  The
        # rows of phi are d/d(log alpha) and d/d(log g) of -a x^2 + 2 b x, as
        # coefficients of 1, x, x^2: log I_n has their mean under the weight
        # x^n exp(-a x^2 + 2 b x) as gradient, and their covariance plus the
        # mean of their own derivatives as Hessian.
        phi = np.array([[0.0, 2.0 * b, 0.0], [0.0, -b, 0.5 / g]])
        mean = phi @ m[:3]
        grad = 2.0 * mean + [-4.0 * alpha * alpha / (1.0 + e), -0.5]
        converged = np.max(np.abs(grad)) <= 1e-12
        if converged:
            break
        hankel = np.array([m[k:k + 3] for k in range(3)])
        own = b * m[1] * np.array([[2.0, -1.0], [-1.0, 0.5]])
        own[1, 1] -= m[2] / (2.0 * g)
        hess = 2.0 * (phi @ hankel @ phi.T - np.outer(mean, mean) + own)
        hess[0, 0] -= 8.0 * alpha ** 2 / (1.0 + e) + 16.0 * alpha ** 4 * e / (1.0 + e) ** 2
        p = p - np.linalg.solve(hess, grad)
        if np.max(np.abs(p - start)) > 1.0:
            break  # only a perturbed integrator moves the optimum this far
    log_f = (math.log(2.0) - math.lgamma(n + 0.5) - 0.5 * math.log(math.pi * g)
             - 2.0 * alpha * alpha + 2.0 * math.log(moments[0]) - math.log1p(e))
    return EffectiveParams(alpha, g, math.exp(log_f), bool(converged))
