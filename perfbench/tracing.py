"""Spans around the public qll layer functions, kept in memory.

A Tracer wraps each layer function while it records one operation and
unwraps it afterwards, so untraced operations run the library untouched.
The wrapper replaces the function in every ``qll`` module that binds it
(``qll.ambient.curvature_at`` and also ``qll.criticality.curvature_at`` and
``qll.surface.curvature_at``), so calls from one layer to another are
recorded as well.  A span holds its name, start, end, parent span and
operation id; a layer's self time is its span's duration minus the time its
child spans cover.
"""

import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# layer -> (module, attribute)
FUNCTIONS = {
    "ambient.curvature_at": ("qll.ambient", "curvature_at"),
    "ambient.nabla_k_at": ("qll.ambient", "nabla_k_at"),
    "ambient.constraint_data_at": ("qll.ambient", "constraint_data_at"),
    "ambient.christoffels_at": ("qll.ambient", "christoffels_at"),
    "surface.induced_geometry": ("qll.surface", "induced_geometry"),
    "functionals.energy_report": ("qll.functionals", "energy_report"),
    "functionals.f_integrals": ("qll.functionals", "f_integrals"),
    "criticality.residual_report": ("qll.criticality", "residual_report"),
    "flow.run_flow": ("qll.flow", "run_flow"),
}
# layer -> (module, class, method)
METHODS = {
    "grids.SphereGrid.build": ("qll.grids", "SphereGrid", "__init__"),
    "harmonics.HarmonicTransform.init": ("qll.harmonics", "HarmonicTransform", "__init__"),
    "harmonics.HarmonicTransform.filtered": ("qll.harmonics", "HarmonicTransform", "filtered"),
}
# The flow's trial meshes are the only SurfaceMesh objects qll.flow builds
# under that name (rescaled meshes come from SurfaceMesh.scaled).
TRIAL_MESH = ("flow.trial_mesh", "qll.flow", "SurfaceMesh")

CURVATURE_FIELDS = ("christoffels", "riemann", "ricci", "scalar", "metric", "inv_metric")


def _curvature_attrs(args, out):
    # computed from array sizes, not measured traffic
    return {"nodes": int(np.prod(np.shape(args[1])[:-1])),
            "bytes": sum(getattr(out, f).nbytes for f in CURVATURE_FIELDS)}


ATTRS = {
    "ambient.curvature_at": _curvature_attrs,
    "flow.run_flow": lambda args, out: {"steps": out.step_index, "status": out.status},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._ops = 0

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs:
                span.update(attrs(args, out))
            return out

        return wrapper

    def _patches(self):
        """(owner, attribute, original) for every binding to replace."""
        qll_modules = [m for n, m in list(sys.modules.items())
                       if n == "qll" or n.startswith("qll.")]
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(mod), attr)
            for m in qll_modules:
                if getattr(m, attr, None) is orig:
                    yield name, m, attr, orig
        for name, (mod, cls, meth) in METHODS.items():
            owner = getattr(importlib.import_module(mod), cls)
            yield name, owner, meth, owner.__dict__[meth]
        name, mod, attr = TRIAL_MESH
        owner = importlib.import_module(mod)
        yield name, owner, attr, getattr(owner, attr)

    @contextmanager
    def recording(self, op=None):
        """Trace one operation; op defaults to the next operation id."""
        if op is None:
            op = self._ops
            self._ops += 1
        self.op = op
        undo = []
        wrappers = {}
        try:
            for name, owner, attr, orig in self._patches():
                if orig not in wrappers:
                    wrappers[orig] = self._wrap(name, orig)
                setattr(owner, attr, wrappers[orig])
                undo.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)
            self.op = None

    def load(self, path):
        """Append spans written by another process, keeping their links."""
        offset = len(self.spans)
        with open(path, encoding="ascii") as fh:
            for line in fh:
                span = json.loads(line)
                span["id"] += offset
                if span["parent"] is not None:
                    span["parent"] += offset
                self.spans.append(span)

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, n_ops):
    """Per-layer metrics over the spans of n_ops operations.

    self_ms is the mean self time per call; calls_per_op counts calls over
    operations.  A layer the workload never calls reads 0.
    """
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    by_id = {s["id"]: s for s in spans}
    calls, self_s = {}, {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        self_s[s["name"]] = (self_s.get(s["name"], 0.0)
                             + s["end"] - s["start"] - child.get(s["id"], 0.0))

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def self_ms(name):
        return 1e3 * self_s[name] / calls[name] if calls.get(name) else 0.0

    def in_flow(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "flow.run_flow":
                return True
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    curv = [s for s in spans if s["name"] == "ambient.curvature_at"]
    flows = [s for s in spans if s["name"] == "flow.run_flow"]
    steps = sum(s["steps"] for s in flows)
    flow_geoms = sum(1 for s in spans if s["name"] == "surface.induced_geometry" and in_flow(s))
    m = {
        "ambient.curvature_at.ns_per_node": (
            1e9 * ratio(self_s.get("ambient.curvature_at", 0.0),
                        sum(s["nodes"] for s in curv)), "ns"),
        "ambient.curvature_at.computed_MB": (
            1e-6 * ratio(sum(s["bytes"] for s in curv), len(curv)), "MB"),
        "flow.steps_per_solve": (ratio(steps, len(flows)), "count"),
        "flow.trial_geometries_per_step": (ratio(flow_geoms, steps), "count"),
        "flow.accept_ratio": (ratio(steps, calls.get("flow.trial_mesh", 0)), "fraction"),
        "functionals.energy_report.self_ms": (self_ms("functionals.energy_report"), "ms"),
        "functionals.f_integrals.calls_per_op": (per_op("functionals.f_integrals"), "count"),
        "harmonics.HarmonicTransform.filtered.self_ms": (
            self_ms("harmonics.HarmonicTransform.filtered"), "ms"),
    }
    for name in ("ambient.curvature_at", "ambient.nabla_k_at", "ambient.constraint_data_at",
                 "ambient.christoffels_at", "surface.induced_geometry",
                 "criticality.residual_report"):
        m[f"{name}.calls_per_op"] = (per_op(name), "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    return m
