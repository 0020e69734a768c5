"""Span tracer for the benchmark's traced runs.

The tracer wraps functions of the ``gradedgroups`` package from the
outside; nothing in the package knows about it.  A wrapped call records a
span (id, name, parent id, start, end) and adds to per-name aggregates:
calls, points (an optional count read from the result), self seconds
(span time minus the time of wrapped child spans) and total seconds.

Functions are patched everywhere they are looked up: every module and
class dictionary of the package that holds the original object gets the
wrapper, so ``measure``'s by-name imports (``degree_profile``, ``quad``,
...) and aliases such as ``RationalPoly.__rmul__`` are covered.  Probe
closures returned by ``HomogeneousDistance.distance_from`` are wrapped as
they are handed out.

Spans stay in memory.  The covering walk makes millions of probe calls
per pass, so only the first ``MAX_SPANS`` spans of a tracer are stored;
later ones still count in the aggregates and in ``dropped``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

MAX_SPANS = 200_000

PACKAGE_MODULES = ("poly", "algebra", "group", "frame", "metric", "curve",
                   "measure", "fixtures", "cli")


def _rows(out) -> int:
    """Points in a (..., n) array result."""
    return out.size // out.shape[-1] if out.ndim else 1


def _size(out) -> int:
    return getattr(out, "size", 1)


# (span name, "module:attribute" where the original lives, points counter)
TARGETS = (
    ("cli.run_config", "cli:run_config", None),
    ("poly.mul", "poly:RationalPoly.__mul__", None),
    ("poly.evaluate", "poly:RationalPoly.evaluate", None),
    ("poly.as_callable", "poly:RationalPoly.as_callable", None),
    ("algebra.spec_from_json", "algebra:spec_from_json", None),
    ("algebra.validate_algebra", "algebra:validate_algebra", None),
    ("group.bch_group_law", "group:bch_group_law", None),
    ("group.multiply", "group:GroupLaw.multiply", _rows),
    ("group.multiply_exact", "group:GroupLaw.multiply_exact", None),
    ("group.left_jacobian", "group:GroupLaw.left_jacobian", None),
    ("frame.compute_frame", "frame:compute_frame", None),
    ("frame.coordinates", "frame:Frame.coordinates", None),
    ("frame.speed", "frame:speed", None),
    ("metric.norm", "metric:HomogeneousDistance.norm", _size),
    ("metric.triangle_audit", "metric:triangle_audit", None),
    ("metric.metric_factor", "metric:metric_factor", None),
    ("curve.curve_from_samples", "curve:curve_from_samples", None),
    ("curve.position_at", "curve:Curve.position_at", None),
    ("curve.velocity_at", "curve:Curve.velocity_at", None),
    ("curve.positions", "curve:Curve.positions", _rows),
    ("curve.velocities", "curve:Curve.velocities", _rows),
    ("curve.degree_profile", "curve:degree_profile", None),
    ("curve.pointwise_degree", "curve:pointwise_degree", None),
    ("curve.tangent_projection", "curve:tangent_projection", None),
    ("measure.riemannian_length", "measure:riemannian_length", None),
    ("measure.quad", "measure:quad", None),
    ("measure.ball_param_set", "measure:ball_param_set", None),
    ("measure.ball_intersection_measure", "measure:ball_intersection_measure", None),
    ("measure.blowup_sequence", "measure:blowup_sequence", None),
    ("measure.density_divergence", "measure:density_divergence", None),
    ("measure.spherical_measure_upper", "measure:spherical_measure_upper",
     lambda est: est.ball_count),
    ("measure.covering_values", "measure:covering_values", None),
    ("measure.negligibility_estimate", "measure:negligibility_estimate", None),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.stats: dict = {}      # name -> [calls, points, self_s, total_s]
        self.spans: list = []      # (id, name index, parent id, start, end)
        self.dropped = 0
        self._stack: list = []     # [span id, seconds spent in wrapped children]
        self._next = 0

    def wrap(self, name: str, fn, points=None):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[2] += dur - frame[1]
                stat[3] += dur
                if stack:
                    stack[-1][1] += dur
                if sid < MAX_SPANS:
                    spans.append((sid, nid, parent, start, end))
                else:
                    self.dropped += 1
            if points is not None:
                stat[1] += points(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_distance_from(self, fn):
        wrap = self.wrap

        def distance_from(dist, x0):
            return wrap("metric.probe", fn(dist, x0))

        return self.wrap("metric.distance_from", distance_from)

    def stat(self, name: str) -> dict:
        calls, points, self_s, total_s = self.stats.get(name, (0, 0, 0.0, 0.0))
        return {"calls": calls, "points": points, "self_s": self_s, "total_s": total_s}

    def dump(self) -> dict:
        return {"names": self.names, "dropped": self.dropped,
                "spans": [list(s) for s in self.spans],
                "stats": {name: self.stat(name) for name in sorted(self.stats)}}


def _resolve(spec: str):
    modname, _, path = spec.partition(":")
    obj = importlib.import_module(f"gradedgroups.{modname}")
    for part in path.split("."):
        obj = inspect.getattr_static(obj, part)
    return obj


def _holders():
    """Every module and class namespace of the package."""
    out = []
    for modname in PACKAGE_MODULES:
        mod = importlib.import_module(f"gradedgroups.{modname}")
        out.append(mod)
        out.extend(v for v in vars(mod).values()
                   if inspect.isclass(v) and v.__module__ == mod.__name__)
    return out


@contextmanager
def patched(replacements):
    """Swap each original object for its replacement wherever it is bound.

    ``replacements`` is a list of (original, replacement) pairs.
    Everything is put back when the block exits.
    """
    undo = []
    try:
        for holder in _holders():
            for key, value in list(vars(holder).items()):
                for orig, new in replacements:
                    if value is orig:
                        setattr(holder, key, new)
                        undo.append((holder, key, orig))
        yield
    finally:
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on every target for one block."""
    replacements = []
    for name, spec, points in TARGETS:
        orig = _resolve(spec)
        replacements.append((orig, tracer.wrap(name, orig, points)))
    dist_from = _resolve("metric:HomogeneousDistance.distance_from")
    replacements.append((dist_from, tracer.wrap_distance_from(dist_from)))
    with patched(replacements):
        yield tracer


@contextmanager
def capturing(sink: list):
    """Record every covering estimate the walk returns, untimed.

    Used on the check pass only: the estimates carry the ball centers the
    output checks need, which reports do not include.
    """
    orig = _resolve("measure:spherical_measure_upper")

    def spherical_measure_upper(*args, **kwargs):
        est = orig(*args, **kwargs)
        sink.append(est)
        return est

    with patched([(orig, spherical_measure_upper)]):
        yield sink
