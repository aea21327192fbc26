"""Truncated Fock-basis vectors and truncation-fidelity analysis.

The bridge from wavefunctions to photon-number amplitudes evaluates
a_n = <h_n|u> for the harmonic-oscillator eigenfunctions h_n.  Expanding
h_n into monomials is numerically hopeless beyond n ~ 30, so the amplitudes
are generated by a stable three-term recurrence instead: for a Gaussian term
exp(-q x^2/2 + l x + c) the generating function

    sum_n a_n sqrt(2^n n!) pi^1/4 t^n / n!  =  C exp(gamma t^2 + delta t),
    S = 1 + q, gamma = (1 - q)/S, delta = 2 l / S,
    C = sqrt(2 pi / S) exp(c + l^2 / (2 S)),

gives  a_{n+1} = (delta a_n + gamma sqrt(2n) a_{n-1}) / sqrt(2(n+1)),
and polynomial factors are applied afterwards through the quadrature ladder
x h_n = sqrt((n+1)/2) h_{n+1} + sqrt(n/2) h_{n-1}.  The result agrees with
the literal gausspoly inner products wherever those are well conditioned.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, EngineError, UsageError
from .gausspoly import GaussPolyState
from . import states as _states

#: Fock-space size of the truncation command's even-cat vectors; levels 0 and
#: 2 do not depend on it.
DEFAULT_DIM = 40


@dataclass(frozen=True)
class FockVector:
    """Complex amplitudes over photon numbers 0 .. dim-1."""

    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=complex).reshape(-1)
        if arr.size < 1:
            raise UsageError("FockVector needs dim >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def normalized(self) -> "FockVector":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise DomainError("cannot normalise a zero vector")
        return FockVector(self.amps / math.sqrt(n2))


def coherent_fock(alpha: float, dim: int) -> FockVector:
    """Poissonian amplitudes exp(-alpha^2/2) alpha^n / sqrt(n!)."""
    if dim < 1:
        raise UsageError("dim must be >= 1")
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-alpha * alpha / 2.0)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return FockVector(amps)


def even_cat_cosh(alpha: float, error: type[EngineError] = DomainError) -> float:
    """cosh(alpha^2), the even cat's norm factor; raises ``error`` when it
    leaves the float range (alpha above about 26.6)."""
    try:
        return math.cosh(alpha * alpha)
    except OverflowError as exc:
        raise error(f"alpha = {alpha:g} is out of range: cosh(alpha^2) overflows "
                    "above alpha ~ 26.6") from exc


def even_cat_fock(alpha: float, dim: int) -> FockVector:
    """Even coherent superposition: alpha^n / sqrt(n! cosh(alpha^2)) on even n."""
    if dim < 1:
        raise UsageError("dim must be >= 1")
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(even_cat_cosh(alpha))
    for n in range(2, dim, 2):
        amps[n] = amps[n - 2] * alpha * alpha / math.sqrt(n * (n - 1))
    return FockVector(amps)


def _term_fock_amps(term, nmax: int) -> np.ndarray:
    """Amplitudes <h_n|term> for one single-mode Gaussian-polynomial term."""
    q = complex(term.quad[0, 0])
    l = complex(term.lin[0])
    poly = dict(term.poly)
    max_deg = max((e[0] for e in poly), default=0)
    length = nmax + max_deg + 1

    s = 1.0 + q
    if s.real <= 0.0:
        raise DomainError("non-integrable exponent in Fock projection")
    gamma = (1.0 - q) / s
    delta = 2.0 * l / s
    pref = cmath.sqrt(2.0 * cmath.pi / s) * cmath.exp(term.offset + l * l / (2.0 * s))

    base = np.zeros(length, dtype=complex)
    base[0] = math.pi ** -0.25 * pref
    if length > 1:
        base[1] = base[0] * delta / math.sqrt(2.0)
    for n in range(1, length - 1):
        base[n + 1] = (delta * base[n] + gamma * math.sqrt(2.0 * n) * base[n - 1]) \
            / math.sqrt(2.0 * (n + 1))

    out = np.zeros(nmax + 1, dtype=complex)
    levels = {0: base}
    top = 0
    for k in sorted({e[0] for e in poly}):
        while top < k:
            src = levels[top]
            dst = np.zeros(len(src) - 1, dtype=complex)
            for n in range(len(dst)):
                dst[n] = math.sqrt((n + 1) / 2.0) * src[n + 1]
                if n >= 1:
                    dst[n] += math.sqrt(n / 2.0) * src[n - 1]
            top += 1
            levels[top] = dst
        out += poly[(k,)] * levels[k][: nmax + 1]
    return out


def fock_from_wavefunction(u: GaussPolyState, dim: int) -> FockVector:
    """Photon-number amplitudes a_n = <h_n|u> of a single-mode wavefunction."""
    if u.n_modes != 1:
        raise UsageError("Fock projection expects a single-mode state")
    if dim < 1:
        raise UsageError("dim must be >= 1")
    amps = np.zeros(dim, dtype=complex)
    for term in u.terms:
        amps += _term_fock_amps(term, dim - 1)
    return FockVector(amps)


def truncation_fidelity(target: FockVector, kept_indices: Iterable[int]) -> float:
    """Largest fidelity achievable by any state supported on the kept levels:
    the retained probability sum |a_i|^2."""
    kept = set(kept_indices)
    if any(i < 0 or i >= target.dim for i in kept):
        raise UsageError("kept indices must lie below dim")
    return float(sum(abs(target.amps[i]) ** 2 for i in kept))


def cat_trunc02_formula(alpha: float) -> float:
    """Closed form (alpha^4 + 2) / (2 cosh(alpha^2)) for the even cat on {0, 2}."""
    if alpha < 0:
        raise UsageError("alpha must be >= 0")
    return (alpha ** 4 + 2.0) / (2.0 * even_cat_cosh(alpha))


def squeezed_cat_trunc02_fidelity(alpha: float, r: float) -> float:
    """|<0|psi>|^2 + |<2|psi>|^2 for the squeezed even cat, from the exact
    wavefunction expansion.  No amplitude depends on the size of the
    expansion, so three levels give a_0 and a_2 as a larger one would."""
    cat = _states.make_ideal_squeezed_cat(alpha, r, "even")
    return truncation_fidelity(fock_from_wavefunction(cat, 3), {0, 2})


def squeezed_trunc02_closed_form(alpha: float, g: float) -> float:
    """Derived closed form of the squeezed even-cat fidelity on {0, 2}:

        2 sqrt(g) exp(-2 g a^2/(1+g)) [2(1+g)^4 + (4 g a^2 + g^2 - 1)^2]
        -----------------------------------------------------------------
                       (1 + exp(-2 a^2)) (1 + g)^5

    Matches the Fock-basis computation to machine precision.
    """
    a2 = alpha * alpha
    num = 2.0 * math.sqrt(g) * math.exp(-2.0 * g * a2 / (1.0 + g)) \
        * (2.0 * (1.0 + g) ** 4 + (4.0 * g * a2 + g * g - 1.0) ** 2)
    return num / ((1.0 + math.exp(-2.0 * a2)) * (1.0 + g) ** 5)


def squeezed_trunc02_closed_form_alt(alpha: float, g: float) -> float:
    """Variant with a 2*sqrt(2g) prefactor instead of 2*sqrt(g).  It exceeds
    the true fidelity by a factor sqrt(2); retained so the validation report
    can quantify the discrepancy against the Fock-basis value."""
    return math.sqrt(2.0) * squeezed_trunc02_closed_form(alpha, g)


def fidelity(u: FockVector, v: FockVector) -> float:
    """|<u|v>|^2 between normalised Fock vectors."""
    if u.dim != v.dim:
        raise UsageError("Fock vectors must share dim")
    nu, nv = u.norm_squared(), v.norm_squared()
    if nu <= 0.0 or nv <= 0.0:
        raise DomainError("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(u.amps, v.amps)) ** 2 / (nu * nv))
