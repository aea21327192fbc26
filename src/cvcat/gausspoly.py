"""Exact algebra over polynomial-times-Gaussian wavefunctions.

A state on modes (x_1 .. x_m), m <= 3, is a finite sum of terms

    P(x_1 .. x_m) * exp(-1/2 x^T Q x + L.x + c)

with a complex-coefficient polynomial ``P``, a complex symmetric matrix ``Q``
whose real part is positive definite, a complex vector ``L`` and a complex
log-prefactor ``c``.  This family is closed under products, balanced
beam-splitter coordinate mixing, fixing a quadrature to a measured value and
integrating a mode against a plane-wave kernel, so every operation here is
carried out in closed form through the moments of a Gaussian.

Conventions (used consistently by the rest of the package):

* quadratures obey x = (a + a^dag)/sqrt(2), [x, p] = i; the vacuum has
  x-variance 1/2 and wavefunction pi**-0.25 * exp(-x**2/2);
* a coherent state of real amplitude ``alpha`` is centred at sqrt(2)*alpha;
* squeezing by ``r`` rescales x -> x*sqrt(g) with g = exp(-2r), so the
  squeezed vacuum reads (pi*g)**-0.25 * exp(-x**2/(2g));
* the momentum-side projection uses the kernel
  (2*pi)**-0.5 * integral exp(+i*beta*x) psi(x) dx, which sends the squeezed
  vacuum at beta = 0 to (g/pi)**0.25.

A state stores its terms stacked: the Q matrices as one (T, m, m) array, the
L vectors as one (T, m) array, one offset and one coefficient dict per term.
Every operation that returns a state does its form arithmetic on these
arrays and ends in one merge step, which merges equal forms and symmetrises
Q; every product, pointwise or tensor, is one ``_raw_multiply`` over a common
mode order.  Only ``superpose``, which makes states from parts, builds
``GaussTerm``s, like the state constructors; ``GaussPolyState.terms``
returns fresh read-only copies.

Every scalar integral ends in one contraction, ``_contract``, which sums
conj(c_i)^T H c_j over the term pairs of two 1-mode states, H the Hankel
matrix of the pair's Gaussian moments, without building their product: a
1-mode ``inner_product``, the last mode of a 2- or 3-mode one (against the
constant 1, after ``_integrate_index`` has integrated out the others), a
1-mode ``project_p`` (against the plane wave) and
``gaussian_moment_integral`` (one term against the constant 1).  So checking
the moments checks the contraction every inner product runs.

No state is written after it is built and all operations are pure
functions, so states can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, DomainError, UsageError

Monomial = tuple[int, ...]
Poly = dict[Monomial, complex]

#: Largest polynomial degree per variable a state may carry.
DEGREE_CAP = 64

# Most term pairs one product builds.  Step k of an ideal-cat amplify chain
# squares 2^(k-1) + 1 terms: a 10-step chain builds 513^2 pairs at its last
# step and takes 2.5 s and 340 MB on a 2-core x86-64 machine; step 11 would
# build 1025^2 pairs at about four times that cost.
_PAIR_CAP = 1 << 20

_SQRT2 = math.sqrt(2.0)

# Negative-control knob for the validation command: scales the first-order
# Gaussian moment, which breaks every downstream closed form without being
# absorbed by renormalisation.  Always 1.0 outside `perturb_first_moment`; a
# context variable, so the perturbation stays in the context that set it.
_FIRST_MOMENT_SCALE: ContextVar[float] = ContextVar("first_moment_scale", default=1.0)


@contextmanager
def perturb_first_moment(eps: float):
    """Deliberately mis-scale first moments by (1+eps) in the current context
    only; other threads keep the exact engine.  eps = 0 leaves it exact."""
    token = _FIRST_MOMENT_SCALE.set(1.0 + eps)
    try:
        yield
    finally:
        _FIRST_MOMENT_SCALE.reset(token)


# ---------------------------------------------------------------------------
# polynomial helpers (dict of exponent tuples -> complex coefficient)
# ---------------------------------------------------------------------------

def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0j) + c
    return out


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0j) + ca * cb
    return out


def _poly_scale(a: Poly, s: complex) -> Poly:
    return {e: c * s for e, c in a.items()}


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

def _frozen_array(a, shape) -> np.ndarray:
    arr = np.array(a, dtype=complex).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussTerm:
    """One summand P(x) * exp(-1/2 x.Q.x + L.x + c).

    ``poly`` is a read-only view of a private copy of the coefficients, and
    ``quad`` and ``lin`` are read-only arrays, so a term cannot be changed
    after it is built.
    """

    poly: Mapping[Monomial, complex]
    quad: np.ndarray
    lin: np.ndarray
    offset: complex = 0j

    def __post_init__(self):
        m = len(self.lin)
        q = np.array(self.quad, dtype=complex).reshape((m, m))
        q = (q + q.T) / 2.0
        object.__setattr__(self, "quad", _frozen_array(q, (m, m)))
        object.__setattr__(self, "lin", _frozen_array(self.lin, (m,)))
        object.__setattr__(self, "poly", MappingProxyType(dict(self.poly)))
        object.__setattr__(self, "offset", complex(self.offset))

    @property
    def n_modes(self) -> int:
        return len(self.lin)


class GaussPolyState:
    """Wavefunction represented as a sum of Gaussian-polynomial terms.

    ``modes`` labels the variables; all terms share the same mode set.  The
    terms are stored stacked in read-only complex arrays: Q as one (T, m, m)
    array, L as one (T, m) array and the offsets as one (T,) array, next to
    one coefficient dict per term.  Nothing writes to a state after it is
    built; ``terms`` returns the same content as fresh read-only
    ``GaussTerm`` copies on every read.
    """

    __slots__ = ("modes", "_quads", "_lins", "_offsets", "_polys")

    def __init__(self, modes: Sequence[str], terms: Iterable[GaussTerm] = ()):
        self._set(modes, *_stack(list(terms), len(modes)))

    def _set(self, modes, quads, lins, offsets, polys) -> None:
        modes = tuple(modes)
        m = len(modes)
        if m not in (1, 2, 3):
            raise UsageError(f"states support 1..3 modes, got {m}")
        if len(set(modes)) != m:
            raise UsageError(f"duplicate mode labels in {modes}")
        for arr in (quads, lins, offsets):
            arr.setflags(write=False)
        for name, value in (("modes", modes), ("_quads", quads), ("_lins", lins),
                            ("_offsets", offsets), ("_polys", tuple(polys))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GaussPolyState is immutable")

    def __repr__(self) -> str:
        return f"GaussPolyState(modes={self.modes!r}, terms={self.terms!r})"

    def __reduce__(self):
        return GaussPolyState._from_parts, (self.modes, self._quads, self._lins,
                                            self._offsets, self._polys)

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_parts(cls, modes: Sequence[str], quads: np.ndarray, lins: np.ndarray,
                    offsets: np.ndarray, polys: Sequence[Poly]) -> "GaussPolyState":
        """State holding the given stacked parts as they are."""
        state = object.__new__(cls)
        state._set(modes, quads, lins, offsets, polys)
        return state

    @classmethod
    def from_terms(cls, modes: Sequence[str], terms: Iterable[GaussTerm]) -> "GaussPolyState":
        """Build a state, merging terms with equal Gaussian forms and dropping
        exact-zero coefficients.

        Two forms (Q, L) count as equal only when every entry is equal, so
        forms one rounding apart stay two terms (-0.0 equals +0.0).  A merged
        term keeps its first member's (Q, L).
        """
        return _merge_terms(modes, *_stack(list(terms), len(modes)))

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> tuple[GaussTerm, ...]:
        """The terms as new read-only ``GaussTerm`` objects, built on every read."""
        return tuple(GaussTerm(*row) for row in _rows(self))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def degrees(self) -> tuple[int, ...]:
        """Maximal polynomial degree per variable across all terms."""
        degs = [0] * self.n_modes
        for poly in self._polys:
            for e in poly:
                for i, k in enumerate(e):
                    if k > degs[i]:
                        degs[i] = k
        return tuple(degs)

    def evaluate(self, *coords: np.ndarray) -> np.ndarray:
        """Pointwise wavefunction values on broadcastable coordinate arrays.

        Each factor is computed on its operands' own broadcast shape: on an
        open grid (``np.meshgrid(..., sparse=True)``) the per-axis powers and
        products run on the axis vectors, and only the cross terms, one
        ``exp`` per term and the sums cover the full grid.
        """
        if len(coords) != self.n_modes:
            raise UsageError(f"expected {self.n_modes} coordinate arrays")
        xs = [np.asarray(c) for c in coords]
        out = np.zeros(np.broadcast(*xs).shape if xs else (), dtype=complex)
        for t_poly, quad, lin, off in _rows(self):
            expo = off
            for i, xi in enumerate(xs):
                expo = expo + lin[i] * xi - 0.5 * quad[i, i] * xi * xi
                for j in range(i + 1, len(xs)):
                    expo = expo - quad[i, j] * xi * xs[j]
            poly = 0
            for e, c in t_poly.items():
                mono = np.complex128(c)
                for i, k in enumerate(e):
                    if k:
                        mono = mono * xs[i] ** k
                poly = poly + mono
            out = out + poly * np.exp(expo)
        return out

    def normalized(self) -> "GaussPolyState":
        """Rescale to unit norm; raises DomainError on a zero state."""
        return _unit_scaled(self, norm_squared(self))


@dataclass(frozen=True)
class GaussianMomentSpec:
    """Parameters of the integral  integral x**order * exp(-a*x**2 + 2*b*x) dx."""

    a: complex
    b: complex
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise UsageError("moment order must be >= 0")
        if not (cmath.isfinite(complex(self.a)) and cmath.isfinite(complex(self.b))):
            raise DomainError("moment parameters a and b must be finite")
        if complex(self.a).real <= 0.0:
            raise DomainError("non-integrable exponent: Re(a) must be positive")


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

def gaussian_moment_integral(spec: GaussianMomentSpec) -> complex:
    """Closed form of integral x**k exp(-a x**2 + 2 b x) dx over the real line.

    Equals sqrt(pi/a) * exp(b**2/a) * E[x**k] for x ~ Normal(b/a, 1/(2a)).  It
    is ``_contract`` of the one-term state x**k exp(-a x**2 + 2 b x) against
    the constant 1, the contraction every inner product ends in.
    """
    return _contract(_ONE, _gaussian(2.0 * spec.a, 2.0 * spec.b, spec.order))


def _moments(a: np.ndarray, b: np.ndarray, kmax: int) -> np.ndarray:
    """Normalised moments E[x**k], k = 0 .. kmax, of Normal(b/a, 1/(2a)) at
    every entry of ``a`` and ``b``, stacked along a new last axis: the
    recurrence of ``_moment_polys`` with a constant b.  Degree 0 reads no
    first-moment scale."""
    out = [np.ones_like(b)]
    if kmax >= 1:
        out.append(b * (_FIRST_MOMENT_SCALE.get() / a))
    for k in range(2, kmax + 1):
        out.append((2.0 * (b * out[k - 1]) + float(k - 1) * out[k - 2]) * (1.0 / (2.0 * a)))
    return np.stack(out, axis=-1)


def _moment_polys(a: complex, b_poly: Poly, kmax: int, zero_key: Monomial) -> list[Poly]:
    """Normalised moments E[x**k] of Normal(b/a, 1/(2a)) as polynomials in b.

    ``b_poly`` is the (affine) polynomial giving b in terms of the surviving
    variables; the returned list has entries for k = 0 .. kmax.
    """
    out: list[Poly] = [{zero_key: 1.0 + 0j}]
    if kmax >= 1:
        out.append(_poly_scale(b_poly, _FIRST_MOMENT_SCALE.get() / a))
    for k in range(2, kmax + 1):
        rec = _poly_add(_poly_scale(_poly_mul(b_poly, out[k - 1]), 2.0),
                        _poly_scale(out[k - 2], float(k - 1)))
        out.append(_poly_scale(rec, 1.0 / (2.0 * a)))
    return out


# ---------------------------------------------------------------------------
# internal plumbing
# ---------------------------------------------------------------------------

def _stack(terms: Sequence[GaussTerm], m: int):
    """Stacked parts of terms on m modes: the Q matrices (T, m, m), the L
    vectors (T, m), the offsets (T,) and a copy of each coefficient dict."""
    if any(t.n_modes != m for t in terms):
        raise UsageError("term arity does not match the mode list")
    return (np.array([t.quad for t in terms], dtype=complex).reshape(len(terms), m, m),
            np.array([t.lin for t in terms], dtype=complex).reshape(len(terms), m),
            np.array([t.offset for t in terms], dtype=complex),
            [dict(t.poly) for t in terms])


def _rows(u: GaussPolyState):
    """(coefficients, Q, L, offset) of each term of ``u``, from its stacked parts."""
    return zip(u._polys, u._quads, u._lins, u._offsets.tolist())


def _conj_state(u: GaussPolyState) -> GaussPolyState:
    polys = [{e: c.conjugate() for e, c in p.items()} for p in u._polys]
    return GaussPolyState._from_parts(u.modes, u._quads.conj(), u._lins.conj(),
                                      u._offsets.conj(), polys)


def _aligned(v: GaussPolyState, modes: tuple[str, ...]) -> GaussPolyState:
    """``v`` on ``modes``, a superset of its own: its variables permuted into
    that order, and each mode it lacks given a zero row and column in Q, a
    zero in L and exponent 0."""
    if v.modes == modes:
        return v
    t, m = len(v._polys), len(modes)
    pos = [modes.index(x) for x in v.modes]
    quads = np.zeros((t, m, m), dtype=complex)
    rows, cols = np.ix_(pos, pos)
    quads[:, rows, cols] = v._quads
    lins = np.zeros((t, m), dtype=complex)
    lins[:, pos] = v._lins
    take = [v.modes.index(x) if x in v.modes else -1 for x in modes]
    polys = [{tuple(e[i] if i >= 0 else 0 for i in take): c for e, c in poly.items()}
             for poly in v._polys]
    return GaussPolyState._from_parts(modes, quads, lins, v._offsets, polys)


def _merge_terms(modes: Sequence[str], quads: np.ndarray, lins: np.ndarray,
                 offsets: np.ndarray, polys: Sequence[Poly],
                 keys: Iterable | None = None) -> GaussPolyState | complex:
    """Finish an operation: one term per group of rows with equal keys, in
    order of first appearance, members summed relative to the group's largest
    real offset, exact-zero coefficients and all-zero terms dropped (every
    other coefficient is kept), and each kept form's Q replaced by
    (Q + Q^T) / 2, the only symmetrisation an operation does.  A row's key is
    its form, Q's entries then L's, compared for exact equality, unless the
    caller passes one key per row; a merged term keeps its first member's
    (Q, L).  A merged term whose largest |coefficient| lies outside
    [1e-30, 1e30] has its coefficients divided by 2^e and e ln 2 added to its
    offset, both exact but for the rounding of e ln 2, so repeated products
    keep their scale in the offsets.  With no mode left, the amplitude
    sum_k c_k * exp(offset_k) instead."""
    offsets = offsets.tolist()
    if not modes:
        total = 0j
        for poly, off in zip(polys, offsets):
            total += poly.get((), 0j) * cmath.exp(off)
        return total
    if keys is None:
        keys = map(tuple, np.concatenate([quads.reshape(len(quads), len(modes) ** 2), lins],
                                         axis=1).tolist())
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    firsts, refs, merged = [], [], []
    for group in groups.values():
        ref = max(offsets[k].real for k in group)
        poly: Poly = {}
        for k in group:
            poly = _poly_add(poly, _poly_scale(polys[k], cmath.exp(offsets[k] - ref)))
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            big = max(map(abs, poly.values()))
            if not 1e-30 <= big <= 1e30:
                shift = math.frexp(big)[1]
                poly = {e: complex(math.ldexp(c.real, -shift), math.ldexp(c.imag, -shift))
                        for e, c in poly.items()}
                ref += shift * math.log(2.0)
            firsts.append(group[0])
            refs.append(ref)
            merged.append(poly)
    quads = quads[firsts]
    return GaussPolyState._from_parts(modes, (quads + quads.transpose(0, 2, 1)) / 2.0,
                                      lins[firsts], np.array(refs, dtype=complex), merged)


def _check_pair_cap(n_u: int, n_v: int, where: str = "") -> None:
    """CapacityError when n_u x n_v terms make more than ``_PAIR_CAP`` pairs."""
    if n_u * n_v > _PAIR_CAP:
        raise CapacityError(f"term-pair cap {_PAIR_CAP} exceeded: {n_u} x {n_v} terms{where}")


def _raw_multiply(u: GaussPolyState, v: GaussPolyState,
                  keys: Iterable | None = None) -> GaussPolyState:
    """Termwise product over a shared mode set, without the degree-cap check.
    More than ``_PAIR_CAP`` term pairs raise CapacityError before any is built.

    All N_u * N_v forms and offsets are summed as arrays and grouped, so the
    coefficient products are the only work done pair by pair.  ``keys``, one
    per pair (i, j) in the order i * N_v + j, replaces the forms as the
    grouping key of ``_merge_terms``.
    """
    def pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[:, None] + b[None, :]).reshape(-1, *a.shape[1:])

    _check_pair_cap(len(u._polys), len(v._polys))
    polys = [_poly_mul(pu, pv) for pu in u._polys for pv in v._polys]
    return _merge_terms(u.modes, pair_sums(u._quads, v._quads), pair_sums(u._lins, v._lins),
                        pair_sums(u._offsets, v._offsets), polys, keys)


@np.errstate(all="ignore")  # an overflow raises DomainError below, not a warning
def _integrate_index(u: GaussPolyState, j: int) -> GaussPolyState:
    """Integrate variable ``j`` out of a state of two or more modes in closed
    form, leaving a GaussPolyState on the remaining modes; a last mode is
    contracted by ``_contract`` instead.

    The new forms are computed for all terms at once; each offset takes its
    b0 * b0 / a in numpy scalar arithmetic, whose rounding differs from
    numpy's vector loops.  Raises DomainError when a form or offset
    overflows to a non-finite value.
    """
    m = u.n_modes
    others = [i for i in range(m) if i != j]
    new_modes = tuple(u.modes[i] for i in others)
    zero_key: Monomial = (0,) * len(others)
    units = [tuple(1 if t == i else 0 for t in range(len(others)))
             for i in range(len(others))]

    quads, lins = u._quads, u._lins
    a = quads[:, j, j] / 2.0
    if np.any(a.real <= 0.0):
        raise DomainError("non-integrable exponent while integrating a mode")
    b0 = lins[:, j] / 2.0
    bvec = -quads[:, j, others] / 2.0

    polys: list[Poly] = []
    offsets = []
    for t_poly, t_off, ak, b0k, bk in zip(u._polys, u._offsets.tolist(), a, b0, bvec.tolist()):
        by_k: dict[int, Poly] = {}
        for e, c in t_poly.items():
            rest = tuple(e[i] for i in others)
            sub = by_k.setdefault(e[j], {})
            sub[rest] = sub.get(rest, 0j) + c
        kmax = max(by_k) if by_k else 0

        b_poly: Poly = {zero_key: complex(b0k)}
        for i, unit in enumerate(units):
            if bk[i] != 0:
                b_poly[unit] = bk[i]
        moments = _moment_polys(complex(ak), b_poly, kmax, zero_key)

        poly: Poly = {}
        for k, sub in by_k.items():
            poly = _poly_add(poly, _poly_mul(sub, moments[k]))
        polys.append(_poly_scale(poly, cmath.sqrt(cmath.pi / complex(ak))))
        offsets.append(t_off + b0k * b0k / ak)

    qn = quads[:, others][:, :, others] \
        - 2.0 * (bvec[:, :, None] * bvec[:, None, :]) / a[:, None, None]
    ln = lins[:, others] + (2.0 * b0)[:, None] * bvec / a[:, None]
    offsets = np.array(offsets, dtype=complex)
    if not all(np.isfinite(x).all() for x in (qn, ln, offsets)):
        raise DomainError("integrating a mode is not finite: a Gaussian form overflowed")
    return _merge_terms(new_modes, qn, ln, offsets, polys)


def _gaussian(q: complex, lin: complex, k: int) -> GaussPolyState:
    """The one-term 1-mode state x**k * exp(-q x**2 / 2 + lin x)."""
    return GaussPolyState._from_parts(("x",), np.full((1, 1, 1), q, dtype=complex),
                                      np.full((1, 1), lin, dtype=complex),
                                      np.zeros(1, dtype=complex), [{(k,): 1.0 + 0j}])


#: The constant 1 on one mode: contracting a state against it integrates it.
_ONE = _gaussian(0.0, 0.0, 0)


def _coeff_array(u: GaussPolyState) -> np.ndarray:
    """Coefficients of a 1-mode state as a (T, d + 1) array, d its degree."""
    out = np.zeros((len(u._polys), max((e[0] for p in u._polys for e in p), default=0) + 1),
                   dtype=complex)
    for t, poly in enumerate(u._polys):
        for (k,), c in poly.items():
            out[t, k] = c
    return out


@np.errstate(all="ignore")  # a non-finite total raises DomainError, not a warning
def _contract(u: GaussPolyState, v: GaussPolyState) -> complex:
    """sum_ij integral conj(u_i) v_j dx over the terms of two 1-mode states,
    the engine's only scalar integrator.

    Pair (i, j) has the exponent -A x**2 + 2 B x + C with
    A = (conj Q_i + Q_j) / 2, B = (conj L_i + L_j) / 2, C = conj o_i + o_j,
    so its integral is sqrt(pi/A) exp(C + B**2/A) conj(c_i)^T H c_j, where
    H[p, q] = E[x**(p+q)] is the Hankel matrix of the pair's normalised
    moments.  All pairs are computed at once as arrays; no product state is
    built.  Raises DomainError when the result is not finite.

    A, B, the exponent, the moments and the sums are carried in numpy's
    extended precision (``clongdouble``: a 64-bit mantissa on x86-64, plain
    double where the platform has none) and rounded once at the end; only
    sqrt(pi/A) and the exponential, five times dearer in extended precision,
    take double arguments.  A high moment amplifies the rounding of A, and
    the exponent of a large cat cancels offsets of a hundred or more: with
    double sums the ideal-cat chains of 16 alpha in [0.3, 2.5] lie up to
    1.7e-13 from their coherent-branch reference, with these 7.8e-16.
    """
    cu, cv = _coeff_array(u).conj(), _coeff_array(v)
    qu, lu, ou = (x.conj().astype(np.clongdouble)[:, None]
                  for x in (u._quads[:, 0, 0], u._lins[:, 0], u._offsets))
    a = (qu + v._quads[None, :, 0, 0]) / 2.0
    if np.any(a.real <= 0.0):
        raise DomainError("non-integrable exponent in a contraction")
    b = (lu + v._lins[None, :, 0]) / 2.0
    expo = ou + v._offsets[None, :] + b * b / a
    du, dv = cu.shape[1], cv.shape[1]
    hankel = _moments(a, b, du + dv - 2)[..., np.add.outer(np.arange(du), np.arange(dv))]
    pairs = np.einsum("ip,ijpq,jq->ij", cu, hankel, cv)
    front = np.sqrt(np.pi / a.astype(complex)) * np.exp(expo.astype(complex))
    total = complex(np.sum(front * pairs))
    if not cmath.isfinite(total):
        raise DomainError("contraction is not finite: it overflowed")
    return total


def _mode_index(u: GaussPolyState, mode: str) -> int:
    try:
        return u.modes.index(mode)
    except ValueError:
        raise UsageError(f"mode {mode!r} not present in {u.modes}") from None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def multiply(u: GaussPolyState, v: GaussPolyState) -> GaussPolyState:
    """Pointwise product (same modes) or tensor product (disjoint modes, in
    the order u's then v's)."""
    if set(u.modes) == set(v.modes):
        modes = u.modes
    elif set(u.modes).isdisjoint(v.modes):
        modes = u.modes + v.modes
    else:
        raise UsageError("mode sets must match exactly or be disjoint")
    if len(modes) > 3:
        raise UsageError("products beyond three modes are unsupported")
    out = _raw_multiply(_aligned(u, modes), _aligned(v, modes))
    if any(d > DEGREE_CAP for d in out.degrees()):
        raise CapacityError(f"polynomial degree cap {DEGREE_CAP} exceeded")
    return out


def inner_product(u: GaussPolyState, v: GaussPolyState) -> complex:
    """Exact overlap integral conj(u) * v over all variables.

    1-mode states are contracted term pair by term pair (``_contract``).  On
    two or three modes the product conj(u) * v is built, its first m - 1
    modes are integrated out and the last is contracted against the constant
    1.  Raises DomainError when the contraction overflows to a non-finite
    value."""
    if set(u.modes) != set(v.modes):
        raise UsageError("inner product needs identical mode sets")
    v = _aligned(v, u.modes)
    if u.n_modes == 1:
        return _contract(u, v)
    w = _raw_multiply(_conj_state(u), v)
    for _ in range(w.n_modes - 1):
        w = _integrate_index(w, 0)
    return _contract(_ONE, w)


def norm_squared(u: GaussPolyState) -> float:
    return inner_product(u, u).real


def _unit_scaled(u: GaussPolyState, n2: float) -> GaussPolyState:
    """``u`` rescaled to unit norm, given its squared norm ``n2``; raises
    DomainError when ``n2`` is zero, negative or not finite."""
    if n2 <= 0.0 or not math.isfinite(n2):
        raise DomainError("cannot normalise a zero or non-finite state")
    shift = -0.5 * math.log(n2)
    return GaussPolyState._from_parts(u.modes, u._quads, u._lins, u._offsets + shift, u._polys)


def fidelity(u: GaussPolyState, v: GaussPolyState) -> float:
    """|<u|v>|^2 between the normalised versions of two states."""
    nu, nv = norm_squared(u), norm_squared(v)
    if nu <= 0.0 or nv <= 0.0:
        raise DomainError("fidelity of a zero state is undefined")
    return abs(inner_product(u, v)) ** 2 / (nu * nv)


def beam_splitter(u: GaussPolyState, mode_i: str, mode_j: str) -> GaussPolyState:
    """Balanced beam splitter: substitutes
    x_i -> (x_i - x_j)/sqrt(2),  x_j -> (x_i + x_j)/sqrt(2).

    The substitution is orthogonal, so norms and inner products are preserved.
    """
    i, j = _mode_index(u, mode_i), _mode_index(u, mode_j)
    if i == j:
        raise UsageError("beam splitter needs two distinct modes")
    m = u.n_modes
    rot = np.eye(m, dtype=complex)
    rot[i, i] = rot[j, j] = rot[j, i] = 1.0 / _SQRT2
    rot[i, j] = -1.0 / _SQRT2

    polys = []
    for t_poly in u._polys:
        poly: Poly = {}
        for e, c in t_poly.items():
            p, q = e[i], e[j]
            base = c / _SQRT2 ** (p + q)
            for s in range(p + 1):
                for r in range(q + 1):
                    coef = base * math.comb(p, s) * math.comb(q, r) * (-1.0) ** (p - s)
                    e2 = list(e)
                    e2[i] = s + r
                    e2[j] = (p - s) + (q - r)
                    key = tuple(e2)
                    poly[key] = poly.get(key, 0j) + coef
        polys.append(poly)
    # L takes the same stacked matrix product as Q: rot.T @ L per term, which
    # rounds differently from the row-vector form ``lins @ rot``
    return _merge_terms(u.modes, rot.T @ u._quads @ rot, (rot.T @ u._lins[:, :, None])[:, :, 0],
                        u._offsets, polys)


def condition_x(u: GaussPolyState, mode: str, value: float):
    """Fix quadrature x_mode to a measured value.

    Returns the unnormalised conditioned state on the remaining modes, or the
    complex amplitude when ``u`` was single-mode.  Callers renormalise; the
    squared norm of the result is the relative heralding weight.
    """
    j = _mode_index(u, mode)
    m = u.n_modes
    others = [i for i in range(m) if i != j]
    new_modes = tuple(u.modes[i] for i in others)

    polys = []
    for t_poly in u._polys:
        poly: Poly = {}
        for e, c in t_poly.items():
            coef = c * value ** e[j] if e[j] else c
            rest = tuple(e[i] for i in others)
            poly[rest] = poly.get(rest, 0j) + coef
        polys.append(poly)
    quads, lins = u._quads, u._lins
    offsets = u._offsets - 0.5 * quads[:, j, j] * value * value + lins[:, j] * value
    return _merge_terms(new_modes, quads[:, others][:, :, others],
                        lins[:, others] - quads[:, others, j] * value, offsets, polys)


def project_p(u: GaussPolyState, mode: str, beta: float):
    """Project one mode on the plane-wave kernel:
    (2*pi)**-0.5 * integral exp(+i*beta*x_mode) u dx_mode.

    Returns the unnormalised state on the remaining modes (complex amplitude
    when ``u`` was single-mode).  Choosing beta = 0 on the squeezed vacuum
    yields (g/pi)**0.25.
    """
    j = _mode_index(u, mode)
    scale = 1.0 / math.sqrt(2.0 * math.pi)
    if u.n_modes == 1:  # contracted against the conjugate plane wave
        return _contract(_gaussian(0.0, -1j * beta, 0), u) * scale
    lins = u._lins.copy()
    lins[:, j] += 1j * beta
    res = _integrate_index(GaussPolyState._from_parts(u.modes, u._quads, lins, u._offsets,
                                                      u._polys), j)
    polys = [_poly_scale(p, scale) for p in res._polys]
    return GaussPolyState._from_parts(res.modes, res._quads, res._lins, res._offsets, polys)


def superpose(states: Sequence[GaussPolyState], coeffs: Sequence[complex]) -> GaussPolyState:
    """Linear combination sum_k coeffs[k] * states[k] over a common mode set.

    Unlike the other operations it builds its terms and goes through
    ``GaussPolyState.from_terms``: it makes states from parts (signals, cats)
    rather than transforming them, and its inputs have a term or two.
    """
    if len(states) != len(coeffs) or not states:
        raise UsageError("superpose needs one coefficient per state")
    modes = states[0].modes
    terms: list[GaussTerm] = []
    for s, c in zip(states, coeffs):
        if set(s.modes) != set(modes):
            raise UsageError("superpose needs identical mode sets")
        for poly, q, lin, off in _rows(_aligned(s, modes)):
            terms.append(GaussTerm(_poly_scale(poly, complex(c)), q, lin, off))
    return GaussPolyState.from_terms(modes, terms)


def dilate(u: GaussPolyState, d: float) -> GaussPolyState:
    """The state u(d x), for a finite nonzero real d: every Q scaled by d**2,
    every L by d and every coefficient c_e by d**|e|.  Forms stay distinct,
    so nothing merges."""
    if not (math.isfinite(d) and d != 0.0):
        raise UsageError("dilation factor must be finite and nonzero")
    polys = [{e: c * d ** sum(e) for e, c in p.items()} for p in u._polys]
    return GaussPolyState._from_parts(u.modes, u._quads * (d * d), u._lins * d,
                                      u._offsets, polys)


def relabel(u: GaussPolyState, mapping: Mapping[str, str]) -> GaussPolyState:
    """Rename modes; the wavefunction itself is untouched."""
    modes = tuple(mapping.get(m, m) for m in u.modes)
    return GaussPolyState._from_parts(modes, u._quads, u._lins, u._offsets, u._polys)


def hermite_gauss(n: int, mode: str = "x") -> GaussPolyState:
    """n-th harmonic-oscillator eigenfunction as a Gaussian-polynomial state.

    Built from the normalised recurrence
    h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1}.  Contractions
    of the monomial-basis result cancel more with every degree: every
    coefficient is kept, so the error of ``norm_squared(hermite_gauss(n)) - 1``
    is cancellation in the monomial basis, large moments of alternating sign
    rounded before they are summed.  With the extended-precision sums of
    ``_contract`` on x86-64 it is at most 1.7e-11 for n <= 23, 1.1e-7 at
    n = 30 and 3e-3 at n = 40.  Where long double is plain double it is
    -3.9e-8 at n = 23, 6.6e-7 at n = 25, 2.0e-6 at n = 26 and 0.16 at n = 40.
    So n above 23 raises DomainError on every platform, which keeps the norm
    within 1e-6 of 1 with a margin.  Photon-number projections of arbitrary
    states should go through fock.fock_from_wavefunction, which uses a stable
    recurrence instead.
    """
    if n < 0:
        raise UsageError("excitation number must be >= 0")
    if n > 23:
        raise DomainError("hermite_gauss keeps its norm within 1e-6 of 1 only up to n = 23")
    prev: Poly = {}
    cur: Poly = {(0,): math.pi ** -0.25 + 0j}
    for k in range(n):
        nxt = _poly_scale({(e[0] + 1,): c for e, c in cur.items()},
                          math.sqrt(2.0 / (k + 1)))
        if prev:
            nxt = _poly_add(nxt, _poly_scale(prev, -math.sqrt(k / (k + 1.0))))
        prev, cur = cur, nxt
    term = GaussTerm(cur, np.eye(1, dtype=complex), np.zeros(1, dtype=complex), 0j)
    return GaussPolyState((mode,), (term,))
