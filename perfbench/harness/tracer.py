"""Outside-in tracing of cvcat's layers.

The tracer wraps public functions of the cvcat modules from the outside: for
each target it replaces every binding of the original object in every loaded
``cvcat`` module namespace (``protocols`` imports ``inner_product`` by name,
for instance), and it replaces ``GaussPolyState.from_terms`` and
``GaussPolyState.evaluate`` on the class.  Each call records a span (name,
start, end, parent, phase) plus a few counts, and ``uninstall`` puts every
original object back.  Nothing inside ``src/cvcat`` is modified.

Spans carry a phase: ``"op"`` for the measured operations and ``"check"``
for the untimed correctness checks, so the two are never mixed.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# Span record layout: [name, start_ns, end_ns, parent_index, phase, attrs]
NAME, START, END, PARENT, PHASE, ATTRS = range(6)


def _coeffs(fn, args, kwargs, result, token) -> dict:
    terms = getattr(result, "terms", None)
    if terms is None:  # single-mode operations return a complex amplitude
        return {"coeffs_out": 0}
    return {"coeffs_out": sum(len(t.poly) for t in terms)}


def _from_terms_before(fn, args, kwargs):
    # args = (cls, modes, terms); terms may be any iterable, so materialise it
    # before the clock starts and count it
    if "terms" in kwargs:
        terms = list(kwargs["terms"])
        kwargs = dict(kwargs, terms=terms)
    else:
        terms = list(args[2])
        args = args[:2] + (terms,) + args[3:]
    return args, kwargs, len(terms)


def _from_terms_attrs(fn, args, kwargs, result, token):
    return {"terms_in": token, "terms_out": len(result.terms)}


def _evaluate_attrs(fn, args, kwargs, result, token):
    state, coords = args[0], args[1:]
    import numpy as np

    points = int(np.broadcast(*coords).size) if coords else 1
    return {"term_points": sum(len(t.poly) for t in state.terms) * points}


def _sample_attrs(fn, args, kwargs, result, token):
    return {"points": int(result.size), "bytes_computed": int(result.nbytes)}


def _quad_teleport_attrs(fn, args, kwargs, result, token):
    grid = kwargs["grid"] if "grid" in kwargs else args[3]
    # the integrand is a (len(out_axis), grid.points) complex128 matrix
    return {"bytes_computed": int(result.size) * int(grid.points) * 16}


def _render_attrs(fn, args, kwargs, result, token):
    return {"bytes_out": len(result.encode())}


def _fit_before(fn, args, kwargs):
    return args, kwargs, fn.cache_info().misses


def _fit_attrs(fn, args, kwargs, result, token):
    return {"cache_misses": fn.cache_info().misses - token}


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and ``name`` locate the original
    (``Class.method`` for methods), ``span`` names its spans."""

    module: str
    name: str
    span: str
    attrs: Callable | None = None
    before: Callable | None = None


#: Every traced function, grouped by layer.
TARGETS: tuple[Target, ...] = (
    # gausspoly: the exact algebra
    Target("cvcat.gausspoly", "multiply", "gausspoly.multiply", _coeffs),
    Target("cvcat.gausspoly", "beam_splitter", "gausspoly.beam_splitter", _coeffs),
    Target("cvcat.gausspoly", "condition_x", "gausspoly.condition_x", _coeffs),
    Target("cvcat.gausspoly", "project_p", "gausspoly.project_p", _coeffs),
    Target("cvcat.gausspoly", "inner_product", "gausspoly.inner_product"),
    Target("cvcat.gausspoly", "norm_squared", "gausspoly.norm_squared"),
    Target("cvcat.gausspoly", "fidelity", "gausspoly.fidelity"),
    Target("cvcat.gausspoly", "superpose", "gausspoly.superpose"),
    Target("cvcat.gausspoly", "GaussPolyState.from_terms", "gausspoly.from_terms",
           _from_terms_attrs, _from_terms_before),
    Target("cvcat.gausspoly", "GaussPolyState.evaluate", "gausspoly.evaluate", _evaluate_attrs),
    # protocols
    Target("cvcat.protocols", "teleport", "protocols.teleport"),
    Target("cvcat.protocols", "teleport_channel", "protocols.teleport_channel"),
    Target("cvcat.protocols", "output_closed_form", "protocols.output_closed_form"),
    Target("cvcat.protocols", "fidelity_map", "protocols.fidelity_map"),
    Target("cvcat.protocols", "average_fidelity_both", "protocols.average_fidelity_both"),
    Target("cvcat.protocols", "amplify", "protocols.amplify"),
    Target("cvcat.protocols", "amplify_iterate", "protocols.amplify_iterate"),
    # states
    Target("cvcat.states", "fit_effective_params", "states.fit_effective_params",
           _fit_attrs, _fit_before),
    Target("cvcat.states", "make_ideal_squeezed_cat", "states.make_ideal_squeezed_cat"),
    # oracle
    Target("cvcat.oracle", "sample", "oracle.sample", _sample_attrs),
    Target("cvcat.oracle", "quad_inner", "oracle.quad_inner"),
    Target("cvcat.oracle", "quad_teleport", "oracle.quad_teleport", _quad_teleport_attrs),
    Target("cvcat.oracle", "required_bound", "oracle.required_bound"),
    # fock, tableio
    Target("cvcat.fock", "squeezed_cat_trunc02_fidelity", "fock.squeezed_cat_trunc02_fidelity"),
    Target("cvcat.tableio", "render_table", "tableio.render_table", _render_attrs),
)


class Tracer:
    """Collects spans in memory while installed.

    ``install`` wraps every target whose module is loaded; ``uninstall``
    restores the original objects and returns the list of restored bindings.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "op"
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn: Callable, attrs: Callable | None,
              before: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None
            if before is not None:
                args, kwargs, token = before(fn, args, kwargs)
            rec = [span_name, 0, 0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(fn, args, kwargs, result, token)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            module = sys.modules.get(target.module)
            if module is None:
                continue
            if "." in target.name:
                self._install_method(module, target)
            else:
                self._install_function(module, target)

    def _install_function(self, module, target: Target) -> None:
        original = getattr(module, target.name)
        wrapped = self._wrap(target.span, original, target.attrs, target.before)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "cvcat" and not name.startswith("cvcat."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, original))

    def _install_method(self, module, target: Target) -> None:
        cls_name, meth = target.name.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(target.span, original.__func__,
                                             target.attrs, target.before))
        else:
            wrapped = self._wrap(target.span, original, target.attrs, target.before)
        setattr(cls, meth, wrapped)
        self._patches.append((cls, meth, original))

    def uninstall(self) -> list[tuple[Any, str, Any]]:
        restored = list(self._patches)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return restored


def restored_cleanly(restored: list[tuple[Any, str, Any]]) -> bool:
    """True when every binding a tracer replaced holds its original object."""
    for owner, attr, original in restored:
        if vars(owner).get(attr) is not original:
            return False
    return True


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered, cur_lo, cur_hi = 0, None, None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def summarize(spans: list[list], phase: str = "op") -> dict[str, float]:
    """Additive per-span-name sums for one phase: ``<span>.calls``,
    ``<span>.self_ns`` and every recorded count, plus the number of
    ``make_ideal_squeezed_cat`` calls made inside a fit."""
    selfs = self_times(spans)
    sums: dict[str, float] = {}

    def inside_fit(i: int) -> bool:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != "states.fit_effective_params":
            p = spans[p][PARENT]
        return p >= 0

    for i, rec in enumerate(spans):
        if rec[PHASE] != phase:
            continue
        name = rec[NAME]
        sums[f"{name}.calls"] = sums.get(f"{name}.calls", 0) + 1
        sums[f"{name}.self_ns"] = sums.get(f"{name}.self_ns", 0) + selfs[i]
        for key, val in (rec[ATTRS] or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + val
        if name == "states.make_ideal_squeezed_cat" and inside_fit(i):
            key = "states.fit_effective_params.objective_calls"
            sums[key] = sums.get(key, 0) + 1
    return sums


def merge_sums(into: dict[str, float], other: dict[str, float]) -> dict[str, float]:
    for key, val in other.items():
        into[key] = into.get(key, 0) + val
    return into
