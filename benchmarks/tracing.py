"""Span tracing of liequad from the outside, for the traced benchmark run.

The benchmark never edits the package.  ``install`` replaces each entry point
listed in ``TARGETS`` by a wrapper that records a span (name, start, end,
parent) while the tracer is active, and rebinds every ``from ... import``
site of a module-level function, so calls through any of the package's
modules reach the wrapper.  ``uninstall`` puts the originals back.  The
untraced run never calls ``install``.

Self time of a span is its duration minus the part of its interval that its
child spans cover; summing self time over a layer's spans gives the time
spent in that layer alone.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

_MARK = "__liequad_bench_span__"


def _doublings(_tracer, span, curve):
    span.info["doublings"] = int(curve.diagnostics["doublings"])
    return curve


def _candidates(_tracer, span, result):
    span.info["candidates"] = int(result[2].get("candidates_tried", 0))
    return result


def _wrap_quotient_rhs(tracer, _span, rhs):
    return tracer.wrap("reconstruct.quotient_rhs", rhs)


# (module, attribute path, post hook or None).  A post hook gets the tracer,
# the span and the return value, and returns the value handed to the caller.
TARGETS = (
    ("liequad.liegroup", "GraphChart.from_coords", None),
    ("liequad.liegroup", "matrix_exp_oracle", None),
    ("liequad.hjsolver", "CompleteSolutionChart.__init__", None),
    ("liequad.hjsolver", "CompleteSolutionChart.invert", None),
    ("liequad.hjsolver", "CompleteSolutionChart._node", None),
    ("liequad.hjsolver", "CompleteSolutionChart._segment_quad", None),
    ("liequad.hjsolver", "CompleteSolutionChart._gauss_newton", None),
    ("liequad.hjsolver", "CompleteSolutionChart.linear_flow", None),
    ("liequad.hjsolver", "integrate_by_quadratures", None),
    ("liequad.expquad", "exp_semisimple", None),
    ("liequad.expquad", "exp_general", None),
    ("liequad.expquad", "exp_by_quadratures", _doublings),
    ("liequad.expquad", "_annihilator_search", _candidates),
    ("liequad.reconstruct", "usual_reconstruct", None),
    ("liequad.reconstruct", "two_step_reconstruct", None),
    ("liequad.reconstruct", "vertical_integrate", None),
    ("liequad.reconstruct", "HorizontalSubmersion.__call__", None),
    ("liequad.reconstruct", "ThetaConnection.matrix", None),
    ("liequad.reconstruct", "flow_residual_rows", None),
    ("liequad.reconstruct", "build_theta", None),
    ("liequad.reconstruct", "quotient_field", _wrap_quotient_rhs),
    ("liequad.cotangent", "InvariantField.__call__", None),
    ("liequad.liealg", "LieAlgebra.isotropy_dimension", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "ok", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ok = False
        self.info = {}

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.ok, self.info]


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, post=None):
        """Callable recording a span named ``name`` around each call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent)
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    out = post(tracer, span, out)
                span.ok = True
                return out
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        setattr(wrapper, _MARK, name)
        return wrapper


def is_wrapper(obj):
    return hasattr(obj, _MARK)


def package_modules():
    """Every loaded liequad module (the import sites the patcher rebinds)."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liequad" or name.startswith("liequad."))]


class Patch:
    """Wrappers installed over ``TARGETS``; ``uninstall`` restores the originals."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.originals = {}   # span name -> original callable
        self._undo = []       # (owner, attribute, original) in install order

    def install(self):
        for module_name, path, post in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owner_path else getattr(module, attr)
            if is_wrapper(original):
                raise RuntimeError(f"{name} is already wrapped")
            wrapper = self.tracer.wrap(name, original, post)
            self.originals[name] = original
            if owner_path:
                self._set(owner, attr, wrapper)
                continue
            # a module-level function: rebind it at every import site
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- span arithmetic -------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time in seconds: duration minus the part children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def summarize(spans):
    """Per span name: calls, failed calls, self seconds, inclusive seconds, info sums."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0, "info": {}})
        row["calls"] += 1
        row["failed"] += 0 if s.ok else 1
        row["self_s"] += own
        row["total_s"] += s.end - s.start
        for key, value in s.info.items():
            row["info"][key] = row["info"].get(key, 0) + value
    return out
