"""Post-selected teleportation and heralded amplification of squeezed cats.

Teleportation pipeline (modes s = signal, 1 and 2 = entangled resource):
build signal x resource, mix modes (s, 1) on a balanced beam splitter,
post-select the quadrature outcome x_1 = 0, then project mode s on the
plane-wave kernel exp(i beta x_s).  The surviving mode 2 is the teleported
state.  With the even two-mode resource the matching projection value is
beta = 0; with the odd resource (or an odd-excitation approximate resource)
it is beta = pi / (4 alpha sqrt(g)).  The pipeline is linear in the signal,
so it runs once per branch S|+-alpha> (``teleport_channel``), and every
teleport number, ``teleport``'s too, comes from the two branch outputs.

The approximate resource replaces the ideal even cat of amplitude
sqrt(2)*alpha entering the resource beam splitter by the ladder state
x^n exp(-x^2/2).  Reproducing the headline fidelities therefore requires the
signal amplitude alpha = alpha_eff(n)/sqrt(2), where alpha_eff is the cat
amplitude the ladder state approximates.

Everything a protocol reports is a renormalised ratio; heralding weights are
relative squared norms of the unnormalised conditioned states (densities of
the continuous measurement outcomes, not probabilities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import CapacityError, DomainError, UsageError
from .gausspoly import (
    GaussPolyState,
    GaussTerm,
    _moment_polys,
    _poly_add,
    _poly_mul,
    _unit_scaled,
    beam_splitter,
    condition_x,
    dilate,
    fidelity,
    inner_product,
    multiply,
    project_p,
    relabel,
    superpose,
)
from .states import (
    MAX_EXCITATION,
    Parity,
    SignalParams,
    fit_effective_params,
    make_approx,
    make_ideal_squeezed_cat,
    make_squeezed_coherent,
    make_squeezed_vacuum,
    squeezing_g,
)

HERALD_FLOOR = 1e-28


# ---------------------------------------------------------------------------
# resource and outcome types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealResource:
    """Two-mode entangled resource built from ideal squeezed cats."""

    parity: Parity = "even"

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise UsageError("parity must be 'even' or 'odd'")


@dataclass(frozen=True)
class ApproxResource:
    """Resource built from the n-excitation ladder state; also used as the
    amplification input of the same state."""

    n: int


@dataclass(frozen=True)
class IdentityResource:
    """Debug resource: the channel returns the signal unchanged."""


@dataclass(frozen=True)
class IdealCat:
    """Amplification input: ideal squeezed even cat of amplitude alpha >= 0
    (alpha = 0 is the squeezed vacuum)."""

    alpha: float
    r: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise UsageError("cat amplitude alpha must be finite and >= 0")
        squeezing_g(self.r, UsageError)


Resource = IdealResource | ApproxResource | IdentityResource


@dataclass(frozen=True)
class TeleportOutcome:
    output: GaussPolyState | None
    herald_weight: float
    fidelity_vs_signal: float
    accepted: bool = True


@dataclass(frozen=True)
class AmplifyOutcome:
    output: GaussPolyState
    fidelity_vs_target: float


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def default_beta(signal: SignalParams, resource: Resource) -> float:
    """Projection value matched to the resource parity: 0 for even,
    pi/(4 alpha sqrt(g)) for odd."""
    odd = (isinstance(resource, IdealResource) and resource.parity == "odd") or \
        (isinstance(resource, ApproxResource) and resource.n % 2 == 1)
    if not odd:
        return 0.0
    return math.pi / (4.0 * signal.alpha * math.sqrt(signal.g))


def resource_state(resource: Resource, signal: SignalParams) -> GaussPolyState:
    """Two-mode resource on modes ('1', '2') matched to the signal basis: the
    ideal S|alpha>S|alpha> +/- S|-alpha>S|-alpha>, or the ladder state mixed
    with the squeezed vacuum on a balanced beam splitter."""
    if isinstance(resource, IdealResource):
        pairs = [multiply(make_squeezed_coherent(s * signal.alpha, signal.r, "1"),
                          make_squeezed_coherent(s * signal.alpha, signal.r, "2"))
                 for s in (1.0, -1.0)]
        sign = 1.0 if resource.parity == "even" else -1.0
        return superpose(pairs, [1.0, sign]).normalized()
    if isinstance(resource, ApproxResource):
        if not 0 <= resource.n <= MAX_EXCITATION:
            raise UsageError(f"resource excitation must lie in 0..{MAX_EXCITATION}")
        ladder = make_approx(resource.n, mode="1")
        vac = make_squeezed_vacuum(signal.g, mode="2")
        return beam_splitter(multiply(ladder, vac), "2", "1")
    raise UsageError(f"unsupported resource {resource!r}")


def _pipeline(component: GaussPolyState, res: GaussPolyState, beta: float) -> GaussPolyState:
    total = multiply(component, res)
    total = beam_splitter(total, "s", "1")
    conditioned = condition_x(total, "1", 0.0)
    return project_p(conditioned, "s", beta)


def teleport(signal: SignalParams, resource: Resource,
             beta: float | None = None) -> TeleportOutcome:
    """Run the full post-selected protocol for one signal state: the channel
    of its (alpha, r) basis evaluated at v = (a, b)."""
    chan = teleport_channel(signal.alpha, signal.r, resource, beta)
    overlap, norm, herald = (f.item() for f in chan.forms(signal.a, signal.b))
    if not herald > HERALD_FLOOR * norm:
        return TeleportOutcome(None, 0.0, 0.0, accepted=False)
    out = _unit_scaled(superpose(chan.outputs, [signal.a, signal.b]), herald)
    return TeleportOutcome(out, herald / norm, abs(overlap) ** 2 / (norm * herald))


# ---------------------------------------------------------------------------
# sesquilinear channel: teleport fidelity as a function of (a, b)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TeleportChannel:
    """Teleportation reduced to its two branch outputs and 2x2 Gram matrices.

    The pipeline is linear in the signal, so running it once per basis branch
    S(r)|alpha> and S(r)|-alpha> determines, for every v = (a, b), the output
    a * outputs[0] + b * outputs[1], its herald weight
    (v* . out_gram . v) / (v* . basis_gram . v) and its fidelity

        F(a, b) = |v* . overlap . v|^2 / ((v* . basis_gram . v)(v* . out_gram . v)).

    ``teleport`` evaluates it at one signal; a grid of signals costs one
    vectorised formula evaluation per point.  A herald weight not above
    HERALD_FLOOR has no fidelity: ``fidelity_grid`` raises DomainError, and
    ``teleport`` returns an outcome that is not accepted.
    """

    alpha: float
    r: float
    beta: float
    overlap: np.ndarray
    basis_gram: np.ndarray
    out_gram: np.ndarray
    outputs: tuple[GaussPolyState, GaussPolyState]

    def forms(self, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v* . G . v at every v = (a, b) for G = overlap, basis_gram, out_gram."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)

        def form(g: np.ndarray) -> np.ndarray:
            return np.conj(a) * (g[0, 0] * a + g[0, 1] * b) \
                + np.conj(b) * (g[1, 0] * a + g[1, 1] * b)

        return form(self.overlap), form(self.basis_gram).real, form(self.out_gram).real

    def fidelity_grid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        overlap, signal, herald = self.forms(a, b)
        if not np.all(herald > HERALD_FLOOR * signal):
            raise DomainError(f"herald weight not above {HERALD_FLOOR:g}: the "
                              "heralded output vanishes and its fidelity is undefined")
        return np.abs(overlap) ** 2 / (signal * herald)

    def fidelity(self, a: complex, b: complex) -> float:
        return float(self.fidelity_grid(np.array(a), np.array(b)))


def teleport_channel(alpha: float, r: float, resource: Resource,
                     beta: float | None = None) -> TeleportChannel:
    """Precompute the branch outputs and channel matrices in the (alpha, r) basis."""
    probe = SignalParams(1.0, 0.0, alpha, r)
    if beta is None:
        beta = default_beta(probe, resource)
    branches = [make_squeezed_coherent(s * alpha, r, "s") for s in (1.0, -1.0)]
    basis = [relabel(b, {"s": "2"}) for b in branches]
    if isinstance(resource, IdentityResource):
        outs = basis
    else:
        res = resource_state(resource, probe)
        outs = [_pipeline(b, res, beta) for b in branches]
    m = np.array([[inner_product(bi, oj) for oj in outs] for bi in basis])
    s = np.array([[inner_product(bi, bj) for bj in basis] for bi in basis])
    h = np.array([[inner_product(oi, oj) for oj in outs] for oi in outs])
    return TeleportChannel(alpha, r, beta, m, s, h, tuple(outs))


# ---------------------------------------------------------------------------
# closed-form output for the approximate resource
# ---------------------------------------------------------------------------

def output_closed_form(signal: SignalParams, n: int, beta: float,
                       alt_beta_terms: bool = False) -> GaussPolyState:
    """Teleported output as an explicit single-mode formula.

    For the n-excitation approximate resource, integrating the measured modes
    by hand leaves (normalisation omitted)

        psi_out(x) = sum_k C(n,k) (x/sqrt2)^(n-k) 2^-k e^(-C(x))
                     * [a e^(alpha D(x)) mu_k(B_+) + b e^(-alpha D(x)) mu_k(B_-)],

    where mu_k are the moments of a normal law with mean B/A and variance
    1/(2A), and with g the signal squeezing

        A   = (3/g + 1)/8,
        B_+- = (x/(4 sqrt2))(1/g - 1) +- alpha/(2 sqrt g) + i beta/2,
        C   = (x^2/4)(1 + 1/g - (1 - 1/g)^2/(8A)) + alpha^2 (1 - 1/(4 A g))
              + beta^2/(4A) - i beta x (1/g - 1)/(4 sqrt2 A),
        D   = x (1/g - 1)/(4 sqrt(2 g) A) + i beta/(2 sqrt g A).

    ``alt_beta_terms`` switches to an alternate set of beta coefficients
    (i*beta in B; +i*beta*x*(1/g-1)/(2*sqrt2*A) and beta^2/A in C; i*beta/A in
    D) that circulates for this expression; those disagree with direct
    quadrature whenever beta != 0 and are kept only so the validation report
    can measure the disagreement.  Exists to cross-validate the engine-derived
    pipeline output; returns the normalised state on mode '2'.
    """
    if not 0 <= n <= MAX_EXCITATION:
        raise UsageError(f"excitation must lie in 0..{MAX_EXCITATION}")
    g = signal.g
    alpha = signal.alpha
    big_a = (3.0 / g + 1.0) / 8.0
    w1 = (1.0 / g - 1.0) / (4.0 * math.sqrt(2.0))
    w0 = 1j * beta if alt_beta_terms else 0.5j * beta
    c2 = 0.25 * (1.0 + 1.0 / g - (1.0 - 1.0 / g) ** 2 / (8.0 * big_a))
    if alt_beta_terms:
        c1 = +1j * beta * (1.0 / g - 1.0) / (2.0 * math.sqrt(2.0) * big_a)
        c0 = alpha ** 2 * (1.0 - 1.0 / (4.0 * big_a * g)) + beta ** 2 / big_a
        d0 = 1j * beta / big_a
    else:
        c1 = -1j * beta * (1.0 / g - 1.0) / (4.0 * math.sqrt(2.0) * big_a)
        c0 = alpha ** 2 * (1.0 - 1.0 / (4.0 * big_a * g)) + beta ** 2 / (4.0 * big_a)
        d0 = 1j * beta / (2.0 * math.sqrt(g) * big_a)
    d1 = (1.0 / g - 1.0) / (4.0 * math.sqrt(2.0 * g) * big_a)

    terms = []
    for coeff, sign in ((complex(signal.a), 1.0), (complex(signal.b), -1.0)):
        b_poly = {(0,): w0 + sign * alpha / (2.0 * math.sqrt(g)), (1,): w1 + 0j}
        moments = _moment_polys(complex(big_a), b_poly, n, (0,))
        poly: dict = {}
        for k in range(n + 1):
            base = math.comb(n, k) * 2.0 ** (-k) * 2.0 ** (-(n - k) / 2.0)
            poly = _poly_add(poly, _poly_mul({(n - k,): coeff * base}, moments[k]))
        quad = np.array([[2.0 * c2]], dtype=complex)
        lin = np.array([-c1 + sign * alpha * d1], dtype=complex)
        off = -c0 + sign * alpha * d0
        terms.append(GaussTerm(poly, quad, lin, off))
    return GaussPolyState.from_terms(("2",), terms).normalized()


# ---------------------------------------------------------------------------
# heralding amplitudes and content ratios
# ---------------------------------------------------------------------------

def signal_content_amplitudes(alpha: float, r: float,
                              beta: float | None = None) -> dict[str, complex]:
    """Engine-computed heralding amplitudes for the protocol at signal
    amplitude alpha: quadrature and plane-wave projections of the squeezed
    vacuum and of the unnormalised amplitude-sqrt(2)*alpha superpositions
    appearing after the signal beam splitter."""
    if alpha <= 0.0:
        raise UsageError("alpha must be positive")
    g = math.exp(-2.0 * r)
    if beta is None:
        beta = math.pi / (4.0 * alpha * math.sqrt(g))
    vac = make_squeezed_vacuum(g, "x")
    plus = make_squeezed_coherent(math.sqrt(2.0) * alpha, r, "x")
    minus = make_squeezed_coherent(-math.sqrt(2.0) * alpha, r, "x")
    even = superpose([plus, minus], [1.0, 1.0])
    odd = superpose([plus, minus], [1.0, -1.0])
    return {
        "x_vac": condition_x(vac, "x", 0.0),
        "x_even": condition_x(even, "x", 0.0),
        "p_vac": project_p(vac, "x", 0.0),
        "p_even": project_p(even, "x", 0.0),
        "p_beta_vac": project_p(vac, "x", beta),
        "p_beta_even": project_p(even, "x", beta),
        "p_beta_odd": project_p(odd, "x", beta),
    }


def engine_content_ratio(alpha: float, r: float) -> float:
    """|x_vac * p_even| / (|x_even * p_vac|) from engine amplitudes; equals
    exp(2 alpha^2) independently of r."""
    amp = signal_content_amplitudes(alpha, r)
    return abs(amp["x_vac"] * amp["p_even"]) / abs(amp["x_even"] * amp["p_vac"])


def signal_content_ratio(alpha: float, parity: Parity = "even") -> float:
    """Relative weight of the signal-passing branch in the heralded output:
    exp(2 alpha^2) for the even resource, exp(2 alpha^2) sqrt(tanh(2 alpha^2))
    for the odd one."""
    if alpha <= 0.0:
        raise UsageError("alpha must be positive")
    if parity == "even":
        return math.exp(2.0 * alpha * alpha)
    if parity == "odd":
        return math.exp(2.0 * alpha * alpha) * math.sqrt(math.tanh(2.0 * alpha * alpha))
    raise UsageError("parity must be 'even' or 'odd'")


def fidelity_lower_bound(ratio: float) -> float:
    """Worst-case fidelity R^2/(1+R^2) when the two output branches are
    treated as orthogonal."""
    if ratio <= 0.0:
        raise UsageError("ratio must be positive")
    return ratio * ratio / (1.0 + ratio * ratio)


# ---------------------------------------------------------------------------
# fidelity maps and spherical averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepGrid:
    """Inclusive (theta, phi) grid over [0, pi] x [0, 2 pi]; rows are emitted
    theta-major."""

    theta_points: int = 33
    phi_points: int = 65

    def __post_init__(self):
        if self.theta_points < 2 or self.phi_points < 2:
            raise UsageError("grid resolution must be at least 2x2")

    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.theta_points)

    def phis(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.phi_points)


def fidelity_map(resource: Resource, alpha: float, r: float,
                 grid: SweepGrid = SweepGrid(),
                 beta: float | None = None) -> list[tuple[float, float, float]]:
    """Teleport fidelity over signals a = cos(theta), b = e^{i phi} sin(theta)
    (the axis convention of the fidelity-map figures)."""
    chan = teleport_channel(alpha, r, resource, beta)
    th, ph = np.meshgrid(grid.thetas(), grid.phis(), indexing="ij")
    vals = chan.fidelity_grid(np.cos(th), np.exp(1j * ph) * np.sin(th))
    return list(zip(th.ravel().tolist(), ph.ravel().tolist(), vals.ravel().tolist()))


Parametrization = Literal["half-angle", "figure-angle"]

#: Parametrizations of the signal sphere: ``half-angle`` is the qubit map
#: a = cos(theta/2), b = e^{i phi} sin(theta/2); ``figure-angle`` reuses the
#: figure axes a = cos(theta), b = e^{i phi} sin(theta) under the same
#: sin(theta) measure.
PARAMETRIZATIONS: tuple[Parametrization, ...] = ("half-angle", "figure-angle")


@dataclass(frozen=True)
class BlochQuadrature:
    """Spherical quadrature: Gauss-Legendre in cos(theta) x periodic trapezoid
    in phi, starting at n_theta x n_phi and doubling until the average moves
    by less than tol."""

    n_theta: int = 32
    n_phi: int = 64
    tol: float = 1e-5
    max_doublings: int = 5

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise UsageError("quadrature resolution must be at least 1x1")


@dataclass(frozen=True)
class AveragedFidelity:
    value: float
    parametrization: str
    n_theta: int
    n_phi: int
    converged: bool
    history: tuple[float, ...] = field(default_factory=tuple)


def _sphere_average(chan: TeleportChannel, n_theta: int, n_phi: int,
                    parametrization: Parametrization) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes)
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    if parametrization == "half-angle":
        a, b = np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)
    elif parametrization == "figure-angle":
        a, b = np.cos(th), np.exp(1j * ph) * np.sin(th)
    else:
        raise UsageError(f"unknown parametrization {parametrization!r}")
    f = chan.fidelity_grid(a, b)
    return float((weights[:, None] * f).sum() / n_phi / 2.0)


def average_fidelity(resource: Resource, alpha: float, r: float,
                     quadrature: BlochQuadrature = BlochQuadrature(),
                     parametrization: Parametrization = "half-angle",
                     beta: float | None = None) -> AveragedFidelity:
    """Signal-sphere average of the teleport fidelity, converged by doubling."""
    chan = teleport_channel(alpha, r, resource, beta)
    nt, nph = quadrature.n_theta, quadrature.n_phi
    history = [_sphere_average(chan, nt, nph, parametrization)]
    for _ in range(quadrature.max_doublings):
        nt2, nph2 = 2 * nt, 2 * nph
        nxt = _sphere_average(chan, nt2, nph2, parametrization)
        history.append(nxt)
        if abs(nxt - history[-2]) < quadrature.tol:
            return AveragedFidelity(nxt, parametrization, nt2, nph2, True,
                                    tuple(history))
        nt, nph = nt2, nph2
    raise DomainError(
        f"spherical average did not converge to {quadrature.tol} within "
        f"{quadrature.max_doublings} doublings; history {history}")


def average_fidelity_both(resource: Resource, alpha: float, r: float,
                          quadrature: BlochQuadrature = BlochQuadrature(),
                          beta: float | None = None) -> dict[str, AveragedFidelity]:
    """The spherical average under both implemented parametrizations."""
    return {p: average_fidelity(resource, alpha, r, quadrature, p, beta)
            for p in PARAMETRIZATIONS}


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------

def _amplify_state(u: GaussPolyState) -> GaussPolyState:
    """Mix two copies on a balanced beam splitter, post-select x = 0 in the
    second output arm, renormalise.  The splitter sends u(x_1) u(x_2) to
    u((x_1 - x_2)/sqrt2) u((x_1 + x_2)/sqrt2), so at x_2 = 0 the step is the
    square of the dilated state w(x) = u(x/sqrt2), normalised: one 1-mode
    product, with no two-mode state built."""
    w = dilate(u, 1.0 / math.sqrt(2.0))
    return multiply(w, w).normalized()


def vacuum_overlap(alpha: float, r: float) -> float:
    """Fidelity between the squeezed even cat of amplitude alpha and the
    squeezed vacuum: 2 exp(-alpha^2) / (1 + exp(-2 alpha^2)), r-independent."""
    t = math.exp(-alpha * alpha)
    return 2.0 * t / (1.0 + t * t)


#: Amplification targets closer than this to the squeezed vacuum make the
#: reported fidelity spurious (it certifies vacuum overlap, not a grown cat).
SPURIOUS_OVERLAP = 0.9


def amplification_spurious(alpha: float, r: float) -> bool:
    """Flag the regime where the fidelity of a single amplification step is
    dominated by the squeezed-vacuum content of the target."""
    return vacuum_overlap(math.sqrt(2.0) * alpha, r) > SPURIOUS_OVERLAP


def amplify(source: IdealCat | ApproxResource) -> AmplifyOutcome:
    """Single amplification step: amplitude grows by sqrt(2); the ladder state
    of excitation n maps exactly onto the ladder state of excitation 2n."""
    return amplify_iterate(source, 1)[0]


def amplify_iterate(source: IdealCat | ApproxResource, steps: int) -> list[AmplifyOutcome]:
    """Repeated amplification, each step feeding two copies of the previous
    output back into the splitter.  Step k is compared against the ideal cat
    of amplitude 2^{k/2} alpha (for ladder input: the fitted cat of the
    doubled excitation); a squeezed-vacuum output is compared with itself."""
    if steps < 1:
        raise UsageError("steps must be >= 1")
    if isinstance(source, IdealCat):
        cur = make_ideal_squeezed_cat(source.alpha, source.r, "even", "1")
        size, growth = source.alpha, math.sqrt(2.0)
    elif isinstance(source, ApproxResource):
        cur = make_approx(source.n, "1")
        size, growth = source.n, 2
    else:
        raise UsageError(f"unsupported amplification input {source!r}")
    outcomes: list[AmplifyOutcome] = []
    for step in range(1, steps + 1):
        size *= growth
        if isinstance(source, ApproxResource) and size > MAX_EXCITATION:
            raise CapacityError(f"degree cap exhausted at step {step}")
        try:
            cur = _amplify_state(cur)
        except CapacityError as exc:
            raise CapacityError(f"degree cap exhausted at step {step}") from exc
        if isinstance(source, ApproxResource):
            fit = fit_effective_params(size)
            target = make_ideal_squeezed_cat(fit.alpha, fit.r, "even", "1")
        else:
            target = make_ideal_squeezed_cat(size, source.r, "even", "1") if size > 0.0 else cur
        outcomes.append(AmplifyOutcome(cur, fidelity(cur, target)))
    return outcomes
