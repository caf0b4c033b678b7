"""In-memory tracer that wraps the public functions of the cpflow modules.

The wrappers live in the benchmark, not in the package: installing them
rebinds every public function of a traced module, every name another
cpflow module imported it under, and every module-level dict entry that
holds it (such as ``cli.COMMANDS``), so cross-module calls are traced
too.  Uninstalling puts every original back.

Two recording modes keep the trace small:

* coarse functions get one span per call (name, parent span, start, end,
  self time, self CPU time and a few per-call facts such as output bytes);
* the hot functions in ``HOT`` (hundreds of thousands of calls per
  campaign) get aggregated counters per (function, parent function):
  calls, total wall time and self wall time.

Self time is a call's wall time minus the wall time of the traced calls
it made.  Time spent in untraced code (constructors, small value-type
methods, properties) is charged to the innermost traced caller.  CPU time
is measured on spans only, so a hot call's own CPU time is charged to the
span that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "cpflow"
LAYERS = ("halfline", "tensorspace", "weights", "opbasis", "semigroups",
          "gauge", "cornercheck", "cli")

# Classes whose public methods are traced as well as the module functions.
# Small value types (ExpKernelVector, GaugeParam, ProductVector, ...) are
# left out: they are called millions of times and their cost belongs to
# the traced caller.
TRACED_CLASSES = {
    "opbasis": ("MatrixModel",),
    "cornercheck": ("WeightMatrix",),
    "weights": ("Functional", "HFunctional", "BoundaryWeight"),
    "cli": ("Reporter",),
}

# Functions called more than a few thousand times per campaign: aggregated
# per (function, parent) instead of one span per call.
HOT = frozenset({
    "halfline.inner_product",
    "halfline.reference_vector",
    "tensorspace.pairing",
    "tensorspace.identity_operator",
    "tensorspace.tail_weight_product",
    "tensorspace.product_inner",
    "tensorspace.pi_apply",
    "tensorspace.delta_operator",
    "weights.Functional.shifted",
    "weights.Functional.delta_value",
    "gauge.random_param",
    "gauge.r_term",
    "gauge.act",
    "gauge.compose",
})


def _nbytes(result):
    return int(getattr(result, "nbytes", 0))


def _series_terms(result):
    return len(result.terms)


def _evolve_steps(args, result):
    return result.state.steps - args[0].steps


# Per-call facts recorded on coarse spans: name -> {fact: fn(args, result)}.
FACTS = {
    "opbasis.MatrixModel.lambda_superop": {
        "out_bytes": lambda args, res: _nbytes(res)},
    "opbasis.MatrixModel.weight_superop": {
        "out_bytes": lambda args, res: _nbytes(res)},
    "opbasis.choi_min_eig": {
        "choi_dim": lambda args, res: int(args[1]) * int(args[2])},
    "semigroups.evolve": {"steps": _evolve_steps},
    "halfline.gamma_grid": {"cells": lambda args, res: int(args[1].points)},
    "weights.omega1": {"series_terms": lambda args, res: _series_terms(res)},
    "weights.omega_z": {"series_terms": lambda args, res: _series_terms(res)},
}


class _Frame:
    __slots__ = ("name", "span_id", "child_wall", "child_cpu")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_wall = 0.0
        self.child_cpu = 0.0


def traced_callables():
    """Yield (qualified name, layer, owner, attribute, function) to trace."""
    for layer in LAYERS:
        module = importlib.import_module("%s.%s" % (PACKAGE, layer))
        for attr, obj in sorted(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            yield "%s.%s" % (layer, attr), layer, module, attr, obj
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr, obj in sorted(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                yield ("%s.%s.%s" % (layer, cls_name, attr), layer, cls,
                       attr, obj)


class Tracer:
    """Records spans and hot-function aggregates, one campaign at a time."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.campaign = -1
        self.spans = []          # one dict per coarse call
        self.aggregates = []     # per campaign: {(name, parent): [calls, wall, self]}
        self.errors = []         # per campaign: {layer: count}
        self.layer_of = {}
        self._stack = []
        self._next_id = 0
        self._seen_errors = {}   # id -> exception, kept alive so ids stay unique
        self._installed = []     # (namespace, key, original) to restore

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, layer, owner, attr, fn in traced_callables():
            self.layer_of[name] = layer
            wrapper = self._wrap(name, layer, fn)
            originals[id(fn)] = wrapper
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # rebind names other modules imported, and dict entries holding them
        for layer in LAYERS:
            module = importlib.import_module("%s.%s" % (PACKAGE, layer))
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals and inspect.isfunction(val):
                            self._installed.append((obj, key, val))
                            obj[key] = originals[id(val)]

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- campaigns ----------------------------------------------------------

    def begin_campaign(self):
        self.campaign += 1
        self.aggregates.append(defaultdict(lambda: [0, 0.0, 0.0]))
        self.errors.append(defaultdict(int))
        self._seen_errors.clear()

    # -- wrappers -------------------------------------------------------------

    def _count_error(self, layer, exc):
        # count each exception once, in the innermost traced call it left
        if id(exc) not in self._seen_errors:
            self._seen_errors[id(exc)] = exc
            self.errors[self.campaign][layer] += 1

    def _wrap(self, name, layer, fn):
        if name in HOT:
            return self._wrap_hot(name, layer, fn)
        return self._wrap_span(name, layer, fn)

    def _wrap_hot(self, name, layer, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = _Frame(name, None)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                wall = clock() - start
                stack.pop()
                if parent is not None:
                    parent.child_wall += wall
                    # CPU of spans below a hot call is not its caller's
                    parent.child_cpu += frame.child_cpu
                entry = tracer.aggregates[tracer.campaign][
                    (name, parent.name if parent is not None else None)]
                entry[0] += 1
                entry[1] += wall
                entry[2] += wall - frame.child_wall

        return functools.wraps(fn)(wrapper)

    def _wrap_span(self, name, layer, fn):
        stack = self._stack
        clock = time.perf_counter
        cpu_clock = time.process_time
        facts = FACTS.get(name, {})
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = _Frame(name, tracer._next_id)
            parent = stack[-1] if stack else None
            stack.append(frame)
            cpu_start = cpu_clock()
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                tracer._count_error(layer, exc)
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                cpu = cpu_clock() - cpu_start
                stack.pop()
                wall = end - start
                if parent is not None:
                    parent.child_wall += wall
                    parent.child_cpu += cpu
                span = {
                    "id": frame.span_id,
                    "parent": parent.span_id if parent is not None else None,
                    "campaign": tracer.campaign,
                    "name": name,
                    "start": start - tracer.epoch,
                    "end": end - tracer.epoch,
                    "self_s": wall - frame.child_wall,
                    "self_cpu_s": cpu - frame.child_cpu,
                }
                if error is None:
                    for fact, get in facts.items():
                        span[fact] = get(args, result)
                else:
                    span["error"] = error
                tracer.spans.append(span)

        return functools.wraps(fn)(wrapper)

    # -- results --------------------------------------------------------------

    def campaign_summary(self, campaign):
        """Per-function and per-layer totals of one campaign.

        Returns a dict with keys calls, self_s (by function), layer_self_s,
        layer_cpu_s, errors (by layer) and facts ({function: {fact: [values]}}).
        """
        calls = defaultdict(int)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        layer_cpu = defaultdict(float)
        facts = defaultdict(lambda: defaultdict(list))
        for span in self.spans:
            if span["campaign"] != campaign:
                continue
            name = span["name"]
            layer = self.layer_of[name]
            calls[name] += 1
            self_s[name] += span["self_s"]
            layer_self[layer] += span["self_s"]
            layer_cpu[layer] += span["self_cpu_s"]
            for fact in FACTS.get(name, {}):
                if fact in span:
                    facts[name][fact].append(span[fact])
        for (name, _parent), (n, _wall, own) in self.aggregates[campaign].items():
            calls[name] += n
            self_s[name] += own
            layer_self[self.layer_of[name]] += own
        return {
            "calls": calls,
            "self_s": self_s,
            "layer_self_s": layer_self,
            "layer_cpu_s": layer_cpu,
            "errors": self.errors[campaign],
            "facts": facts,
        }

    def write(self, path: Path, env: dict | None = None):
        """Write spans and aggregates as one JSON document."""
        fields = ("id", "parent", "campaign", "name", "start", "end",
                  "self_s", "self_cpu_s")
        doc = {
            "env": env or {},
            "span_fields": list(fields),
            "spans": [[s[f] for f in fields]
                      + [{k: v for k, v in s.items() if k not in fields}]
                      for s in self.spans],
            "aggregates": [
                [{"name": name, "parent": parent, "calls": n, "wall_s": wall,
                  "self_s": own}
                 for (name, parent), (n, wall, own) in sorted(
                     agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
                for agg in self.aggregates],
            "errors": [dict(e) for e in self.errors],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
