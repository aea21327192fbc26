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

A state stores its terms stacked, as one form row per term (the entries of
Q, then of L), one offset and one coefficient dict per term.  Every
operation does its form arithmetic on these arrays and ends in one merge
step, which merges equal forms and symmetrises Q.  Only ``superpose``, which
makes states from parts, builds ``GaussTerm``s, like the state constructors;
``GaussPolyState.terms`` builds ``GaussTerm`` views only when it is read.

All values are immutable and all operations are pure functions, so states
can be shared freely across threads; two threads reading ``terms`` for the
first time may both build it, but they build equal tuples.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, DomainError, UsageError

Monomial = tuple[int, ...]
Poly = dict[Monomial, complex]

#: Largest polynomial degree per variable a state may carry.
DEGREE_CAP = 64

#: Coefficients below this fraction of a term's largest coefficient are dropped.
COEFF_DROP = 1e-14

# Gaussian forms (Q, L) closer than this fraction of the form's largest entry
# are one form reached along different rounding paths.  Over every grouping
# in the ideal-cat amplify chains (16 alpha over [0.3, 2.5], five steps) such
# copies differ by at most 56 ulp of the largest entry (1.1e-14 relative), and
# distinct forms by at least 3.1e-2 relative, so any value well inside that
# gap gives the same grouping.
_FORM_RTOL = 1e-12

_SQRT2 = math.sqrt(2.0)

# Negative-control knob for the validation command: scales the first-order
# Gaussian moment, which breaks every downstream closed form without being
# absorbed by renormalisation.  Always 1.0 outside `perturb_first_moment`; a
# context variable, so the perturbation stays in the context that set it.
_FIRST_MOMENT_SCALE: ContextVar[float] = ContextVar("first_moment_scale", default=1.0)


class perturb_first_moment:
    """Context manager that deliberately mis-scales first moments by (1+eps)
    in the current context only; other threads keep the exact engine."""

    def __init__(self, eps: float):
        self.eps = eps

    def __enter__(self):
        self._token = _FIRST_MOMENT_SCALE.set(1.0 + self.eps)
        return self

    def __exit__(self, *exc):
        _FIRST_MOMENT_SCALE.reset(self._token)
        return False


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
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0j) + ca * cb
    return out


def _poly_scale(a: Poly, s: complex) -> Poly:
    return {e: c * s for e, c in a.items()}


def _poly_compact(a: Poly) -> Poly:
    if not a:
        return {}
    top = max(abs(c) for c in a.values())
    if top == 0.0:
        return {}
    floor = top * COEFF_DROP
    return {e: c for e, c in a.items() if abs(c) >= floor}


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

    @classmethod
    def _stored(cls, poly: Poly, quad: np.ndarray, lin: np.ndarray,
                offset: complex) -> "GaussTerm":
        """View of one term of a state: ``quad`` was symmetrised when the
        state was made, ``quad`` and ``lin`` are read-only and ``poly`` is
        private to the state, so nothing is copied or recomputed."""
        term = object.__new__(cls)
        for name, value in (("poly", MappingProxyType(poly)), ("quad", quad),
                            ("lin", lin), ("offset", offset)):
            object.__setattr__(term, name, value)
        return term

    @property
    def n_modes(self) -> int:
        return len(self.lin)


class GaussPolyState:
    """Wavefunction represented as a sum of Gaussian-polynomial terms.

    ``modes`` labels the variables; all terms share the same mode set.  The
    terms are stored stacked: one form row per term (the m*m entries of Q,
    then the m entries of L, in a read-only complex array), one offset per
    term and one coefficient dict per term, which no operation mutates.
    ``terms`` is a read-only view of the same content as ``GaussTerm``
    objects; it is built on first read and cached.  Two threads may race to
    build it, but they build equal tuples.
    """

    __slots__ = ("modes", "_forms", "_offsets", "_polys", "_terms")

    def __init__(self, modes: Sequence[str], terms: Iterable[GaussTerm] = ()):
        terms = tuple(terms)
        self._set(modes, _stack_forms(terms, len(modes)),
                  np.array([t.offset for t in terms], dtype=complex),
                  tuple(dict(t.poly) for t in terms), terms)

    def _set(self, modes, forms, offsets, polys, terms) -> None:
        modes = tuple(modes)
        m = len(modes)
        if m not in (1, 2, 3):
            raise UsageError(f"states support 1..3 modes, got {m}")
        if len(set(modes)) != m:
            raise UsageError(f"duplicate mode labels in {modes}")
        forms.setflags(write=False)
        offsets.setflags(write=False)
        for name, value in (("modes", modes), ("_forms", forms), ("_offsets", offsets),
                            ("_polys", polys), ("_terms", terms)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GaussPolyState is immutable")

    def __repr__(self) -> str:
        return f"GaussPolyState(modes={self.modes!r}, terms={self.terms!r})"

    def __reduce__(self):
        return GaussPolyState._from_parts, (self.modes, self._forms, self._offsets, self._polys)

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_parts(cls, modes: Sequence[str], forms: np.ndarray, offsets: np.ndarray,
                    polys: Sequence[Poly]) -> "GaussPolyState":
        """State holding the given stacked parts as they are."""
        state = object.__new__(cls)
        state._set(modes, forms, offsets, tuple(polys), None)
        return state

    @classmethod
    def from_terms(cls, modes: Sequence[str], terms: Iterable[GaussTerm]) -> "GaussPolyState":
        """Build a state, merging terms with equal Gaussian forms and dropping noise.

        Two forms (Q, L) count as equal when their entries are equal or when
        their largest entrywise distance is at most ``_FORM_RTOL`` (1e-12)
        times the largest entry of the later form, so copies of one form that
        took different rounding paths merge.  A merged term keeps its first
        member's (Q, L).
        """
        terms = list(terms)
        return _merge_terms(modes, _stack_forms(terms, len(modes)),
                            np.array([t.offset for t in terms], dtype=complex),
                            [t.poly for t in terms])

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> tuple[GaussTerm, ...]:
        """The terms as ``GaussTerm`` objects, built on first read."""
        terms = self._terms
        if terms is None:
            quads, lins = _split(self._forms, self.n_modes)
            terms = tuple(GaussTerm._stored(p, q, lin, o) for p, q, lin, o
                          in zip(self._polys, quads, lins, self._offsets.tolist()))
            object.__setattr__(self, "_terms", terms)
        return terms

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
        for t in self.terms:
            expo = t.offset
            for i, xi in enumerate(xs):
                expo = expo + t.lin[i] * xi - 0.5 * t.quad[i, i] * xi * xi
                for j in range(i + 1, len(xs)):
                    expo = expo - t.quad[i, j] * xi * xs[j]
            poly = 0
            for e, c in t.poly.items():
                mono = np.complex128(c)
                for i, k in enumerate(e):
                    if k:
                        mono = mono * xs[i] ** k
                poly = poly + mono
            out = out + poly * np.exp(expo)
        return out

    def normalized(self) -> "GaussPolyState":
        """Rescale to unit norm; raises DomainError on a zero state."""
        n2 = norm_squared(self)
        if n2 <= 0.0 or not math.isfinite(n2):
            raise DomainError("cannot normalise a zero or non-finite state")
        shift = -0.5 * math.log(n2)
        return GaussPolyState._from_parts(self.modes, self._forms, self._offsets + shift,
                                          self._polys)


@dataclass(frozen=True)
class GaussianMomentSpec:
    """Parameters of the integral  integral x**order * exp(-a*x**2 + 2*b*x) dx."""

    a: complex
    b: complex
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise UsageError("moment order must be >= 0")
        if complex(self.a).real <= 0.0:
            raise DomainError("non-integrable exponent: Re(a) must be positive")


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

def gaussian_moment_integral(spec: GaussianMomentSpec) -> complex:
    """Closed form of integral x**k exp(-a x**2 + 2 b x) dx over the real line.

    Equals sqrt(pi/a) * exp(b**2/a) * E[x**k] for x ~ Normal(b/a, 1/(2a)),
    and obeys I_k = (2 b I_{k-1} + (k-1) I_{k-2}) / (2 a).
    """
    a, b, k = complex(spec.a), complex(spec.b), spec.order
    if a.real <= 0.0:
        raise DomainError("non-integrable exponent: Re(a) must be positive")
    i0 = cmath.sqrt(cmath.pi / a) * cmath.exp(b * b / a)
    if k == 0:
        return i0
    prev, cur = i0, (b / a) * i0 * _FIRST_MOMENT_SCALE.get()
    for n in range(2, k + 1):
        prev, cur = cur, (2.0 * b * cur + (n - 1) * prev) / (2.0 * a)
    return cur


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

def _stack_forms(terms: Sequence[GaussTerm], m: int) -> np.ndarray:
    """One form row per term: the entries of Q, then those of L."""
    if any(t.n_modes != m for t in terms):
        raise UsageError("term arity does not match the mode list")
    rows = [t.quad.ravel().tolist() + t.lin.tolist() for t in terms]
    return np.array(rows, dtype=complex).reshape(len(terms), m * m + m)


def _split(forms: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the stacked Q matrices, shape (T, m, m), and L vectors, (T, m)."""
    return forms[:, :m * m].reshape(len(forms), m, m), forms[:, m * m:]


def _join(quads: np.ndarray, lins: np.ndarray) -> np.ndarray:
    """Form rows from stacked Q matrices and L vectors."""
    m = lins.shape[1]
    return np.concatenate([quads.reshape(len(quads), m * m), lins], axis=1)


def _conj_state(u: GaussPolyState) -> GaussPolyState:
    polys = [{e: c.conjugate() for e, c in p.items()} for p in u._polys]
    return GaussPolyState._from_parts(u.modes, u._forms.conj(), u._offsets.conj(), polys)


def _aligned(v: GaussPolyState, modes: tuple[str, ...]) -> GaussPolyState:
    """Permute the variables of ``v`` into the given mode order."""
    if v.modes == modes:
        return v
    perm = [v.modes.index(m) for m in modes]
    quads, lins = _split(v._forms, len(modes))
    forms = _join(quads[:, perm][:, :, perm], lins[:, perm])
    polys = [{tuple(e[p] for p in perm): c for e, c in poly.items()} for poly in v._polys]
    return GaussPolyState._from_parts(modes, forms, v._offsets, polys)


def _group_forms(forms: Sequence[Sequence[complex]]) -> list[list[int]]:
    """Indices of equal Gaussian forms, grouped in order of first appearance.

    Each form lists the w entries of Q, then those of L.  A form joins a
    group when it equals a form seen before, or else the nearest group whose
    first form lies within ``_FORM_RTOL`` times the form's largest entry, in
    largest entrywise distance.  Group firsts are kept sorted by the
    projection p = sum_i i * (Re z_i + Im z_i); forms at distance d have
    projections at most w * (w + 1) * d / sqrt(2) apart, so only the firsts
    within w * (w + 1) tolerances of a form's projection are compared.
    """
    seen: dict[tuple[complex, ...], int] = {}
    groups: list[list[int]] = []
    projections: list[float] = []  # ascending, one per group
    owners: list[int] = []  # group of each entry of ``projections``
    for k, form in enumerate(forms):
        key = tuple(form)
        g = seen.get(key)
        if g is None:
            weighted = sum(map(mul, range(1, len(form) + 1), form))
            p = weighted.real + weighted.imag
            if projections:
                best = _FORM_RTOL * max(map(abs, form))
                reach = len(form) * (len(form) + 1) * best
                for j in range(bisect_left(projections, p - reach),
                               bisect_right(projections, p + reach)):
                    first = forms[groups[owners[j]][0]]
                    dist = max(abs(a - b) for a, b in zip(form, first))
                    if dist <= best:
                        g, best = owners[j], dist
            if g is None:
                g = len(groups)
                groups.append([])
                j = bisect_right(projections, p)
                projections.insert(j, p)
                owners.insert(j, g)
        seen[key] = g
        groups[g].append(k)
    return groups


def _merge_terms(modes: Sequence[str], forms: np.ndarray, offsets: np.ndarray,
                 polys: Sequence[Poly]) -> GaussPolyState | complex:
    """Finish an operation: one term per group of equal form rows (Q's
    entries, then L's), members summed relative to the group's largest real
    offset, coefficient noise dropped, and each kept form's Q replaced by
    (Q + Q^T) / 2, the only symmetrisation an operation does.  With no mode
    left, the amplitude sum_k c_k * exp(offset_k) instead."""
    offsets = offsets.tolist()
    if not modes:
        total = 0j
        for poly, off in zip(polys, offsets):
            total += poly.get((), 0j) * cmath.exp(off)
        return total
    firsts, refs, merged = [], [], []
    for group in _group_forms(forms.tolist()):
        ref = max(offsets[k].real for k in group)
        poly: Poly = {}
        for k in group:
            poly = _poly_add(poly, _poly_scale(polys[k], cmath.exp(offsets[k] - ref)))
        poly = _poly_compact(poly)
        if poly:
            firsts.append(group[0])
            refs.append(ref)
            merged.append(poly)
    quads, lins = _split(forms[firsts], len(modes))
    return GaussPolyState._from_parts(modes, _join((quads + quads.transpose(0, 2, 1)) / 2.0, lins),
                                      np.array(refs, dtype=complex), merged)


def _raw_multiply(u: GaussPolyState, v: GaussPolyState) -> GaussPolyState:
    """Termwise product over a shared mode set, without the degree-cap check.

    All N_u * N_v forms and offsets are summed as arrays and grouped, so the
    coefficient products are the only work done pair by pair.
    """
    fu, fv = u._forms, v._forms
    forms = (fu[:, None] + fv[None, :]).reshape(len(fu) * len(fv), fu.shape[1])
    offsets = (u._offsets[:, None] + v._offsets[None, :]).ravel()
    polys = [_poly_mul(pu, pv) for pu in u._polys for pv in v._polys]
    return _merge_terms(u.modes, forms, offsets, polys)


def _integrate_index(u: GaussPolyState, j: int):
    """Integrate variable ``j`` out in closed form.

    Returns a GaussPolyState on the remaining modes, or a complex number when
    the last variable is integrated.  The new forms are computed for all
    terms at once; each offset takes its b0 * b0 / a in numpy scalar
    arithmetic, whose rounding differs from numpy's vector loops.
    """
    m = u.n_modes
    others = [i for i in range(m) if i != j]
    new_modes = tuple(u.modes[i] for i in others)
    zero_key: Monomial = (0,) * len(others)
    units = [tuple(1 if t == i else 0 for t in range(len(others)))
             for i in range(len(others))]

    quads, lins = _split(u._forms, m)
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
    return _merge_terms(new_modes, _join(qn, ln), np.array(offsets, dtype=complex), polys)


def _mode_index(u: GaussPolyState, mode: str) -> int:
    try:
        return u.modes.index(mode)
    except ValueError:
        raise UsageError(f"mode {mode!r} not present in {u.modes}") from None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def multiply(u: GaussPolyState, v: GaussPolyState) -> GaussPolyState:
    """Pointwise product (same modes) or tensor product (disjoint modes)."""
    if u.modes == v.modes or set(u.modes) == set(v.modes):
        out = _raw_multiply(u, _aligned(v, u.modes))
    elif not set(u.modes) & set(v.modes):
        if u.n_modes + v.n_modes > 3:
            raise UsageError("products beyond three modes are unsupported")
        mu, mv = u.n_modes, v.n_modes
        m = mu + mv
        (qu, lu), (qv, lv) = _split(u._forms, mu), _split(v._forms, mv)
        nu, nv = len(qu), len(qv)
        quads = np.zeros((nu, nv, m, m), dtype=complex)
        quads[:, :, :mu, :mu] = qu[:, None]
        quads[:, :, mu:, mu:] = qv[None, :]
        lins = np.concatenate([np.broadcast_to(lu[:, None], (nu, nv, mu)),
                               np.broadcast_to(lv[None, :], (nu, nv, mv))], axis=2)
        forms = _join(quads.reshape(nu * nv, m, m), lins.reshape(nu * nv, m))
        offsets = (u._offsets[:, None] + v._offsets[None, :]).ravel()
        polys = [{eu + ev: cu * cv for eu, cu in pu.items() for ev, cv in pv.items()}
                 for pu in u._polys for pv in v._polys]
        out = _merge_terms(u.modes + v.modes, forms, offsets, polys)
    else:
        raise UsageError("mode sets must match exactly or be disjoint")
    if any(d > DEGREE_CAP for d in out.degrees()):
        raise CapacityError(f"polynomial degree cap {DEGREE_CAP} exceeded")
    return out


def inner_product(u: GaussPolyState, v: GaussPolyState) -> complex:
    """Exact overlap integral conj(u) * v over all variables."""
    if set(u.modes) != set(v.modes):
        raise UsageError("inner product needs identical mode sets")
    w = _raw_multiply(_conj_state(u), _aligned(v, u.modes))
    for _ in range(w.n_modes):
        w = _integrate_index(w, 0)
    return w


def norm_squared(u: GaussPolyState) -> float:
    return inner_product(u, u).real


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
    quads, lins = _split(u._forms, m)
    # one matrix product per term, as before; ``lins @ rot`` rounds differently
    forms = _join(rot.T @ quads @ rot, (rot.T @ lins[:, :, None])[:, :, 0])
    return _merge_terms(u.modes, forms, u._offsets, polys)


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
    quads, lins = _split(u._forms, m)
    offsets = u._offsets - 0.5 * quads[:, j, j] * value * value + lins[:, j] * value
    forms = _join(quads[:, others][:, :, others], lins[:, others] - quads[:, others, j] * value)
    return _merge_terms(new_modes, forms, offsets, polys)


def project_p(u: GaussPolyState, mode: str, beta: float):
    """Project one mode on the plane-wave kernel:
    (2*pi)**-0.5 * integral exp(+i*beta*x_mode) u dx_mode.

    Returns the unnormalised state on the remaining modes (complex amplitude
    when ``u`` was single-mode).  Choosing beta = 0 on the squeezed vacuum
    yields (g/pi)**0.25.
    """
    j = _mode_index(u, mode)
    m = u.n_modes
    scale = 1.0 / math.sqrt(2.0 * math.pi)
    forms = u._forms.copy()
    forms[:, m * m + j] += 1j * beta
    res = _integrate_index(GaussPolyState._from_parts(u.modes, forms, u._offsets, u._polys), j)
    if isinstance(res, GaussPolyState):
        polys = [_poly_scale(p, scale) for p in res._polys]
        return GaussPolyState._from_parts(res.modes, res._forms, res._offsets, polys)
    return res * scale


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
        for t in _aligned(s, modes).terms:
            terms.append(GaussTerm(_poly_scale(t.poly, complex(c)), t.quad, t.lin, t.offset))
    return GaussPolyState.from_terms(modes, terms)


def relabel(u: GaussPolyState, mapping: Mapping[str, str]) -> GaussPolyState:
    """Rename modes; the wavefunction itself is untouched."""
    modes = tuple(mapping.get(m, m) for m in u.modes)
    return GaussPolyState._from_parts(modes, u._forms, u._offsets, u._polys)


def hermite_gauss(n: int, mode: str = "x") -> GaussPolyState:
    """n-th harmonic-oscillator eigenfunction as a Gaussian-polynomial state.

    Built from the normalised recurrence
    h_{n+1} = sqrt(2/(n+1)) x h_n - sqrt(n/(n+1)) h_{n-1}.  Contractions
    of the monomial-basis result cancel more with every degree:
    ``norm_squared(hermite_gauss(n)) - 1`` is about 1e-13 at n = 10 and
    3e-9 at n = 18, and from n = 19 on (-6.7e4 there, -1.3e5 at n = 20) the
    ``COEFF_DROP`` pruning of products removes coefficients that the sums
    need, so such results are meaningless.  Photon-number projections of
    arbitrary states should go through fock.fock_from_wavefunction, which
    uses a stable recurrence instead.
    """
    if n < 0:
        raise UsageError("excitation number must be >= 0")
    if n > DEGREE_CAP:
        raise CapacityError(f"polynomial degree cap {DEGREE_CAP} exceeded")
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
