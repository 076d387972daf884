"""Per-layer tracing of sislip from outside the package.

The layers are the package's modules.  `Tracer.patched()` wraps the public
functions listed in SPANNED with span recorders and installs each wrapper
in every sislip module namespace that holds the wrapped object, so calls
between modules are seen too; leaving the context restores the originals.
Spans stay in memory and are written out once, at the end of the run.

A span's exclusive time is its duration minus that of its direct child
spans; a layer's self time is the sum of the exclusive times of its spans.
Scalar arithmetic is too fine-grained to wrap, so `profile_groups` adds a
cProfile pass grouped by source file.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "sis", "polar", "resolve", "poly", "scalar", "report")
SPANNED = {
    "cli": ("main",),
    "sis": ("from_polynomial", "singular_points", "build_gamma",
            "inner_rates", "multiplicity_table"),
    "polar": ("generic_polar", "extended_polar_graph"),
    "resolve": ("resolve_germ", "Resolution.track"),
    "poly": ("mgcd", "exact_div", "resultant", "factor_coeff_list"),
    "scalar": ("extend_field",),
    "report": ("to_json", "isomorphic"),
}
SPAN_NAMES = tuple(f"{layer}.{qual.rsplit('.', 1)[-1]}"
                   for layer, quals in SPANNED.items() for qual in quals)
PROFILE_GROUPS = ("scalar", "fractions", "sympy")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # span: [name, layer, start, end, parent index, request, outermost]
        self.spans = []
        self._stack = []
        self._open = Counter()
        self.request = 0
        self.counts = Counter()
        self._seen = {}      # id(obj) -> (weakref, payload), first sightings
        self._generic_polar_sig = None

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, layer, fn, hook):
        tracer = self

        def span(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, layer, perf_counter(), None, parent,
                   tracer.request, tracer._open[name] == 0]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _first_sight(self, obj, payload=None):
        """(True, payload) the first time obj is seen in this pass."""
        entry = self._seen.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return False, entry[1]
        self._seen[id(obj)] = (weakref.ref(obj), payload)
        return True, payload

    # -- counters -----------------------------------------------------------

    def _on_singular_points(self, args, kwargs, result):
        first, _ = self._first_sight(args[0])
        if first:
            self.counts["sis.point_classes"] += len(result)

    def _on_extend_field(self, args, kwargs, result):
        self.counts["scalar.max_field_degree"] = max(
            self.counts["scalar.max_field_degree"], result.degree())

    def _on_resolve_germ(self, args, kwargs, result):
        self.counts["resolve.curves"] += len(result.curves)

    def _on_track(self, args, kwargs, result):
        res, g = args[0], args[1]
        _, germs = self._first_sight(res, set())
        self.counts["resolve.track.pairs"] += 1
        if g in germs:
            self.counts["resolve.track.repeats"] += 1
        germs.add(g)

    def _on_exact_div(self, args, kwargs, result):
        self.counts["poly.exact_div.calls"] += 1
        if result is None:
            self.counts["poly.exact_div.fails"] += 1

    def _on_generic_polar(self, args, kwargs, result):
        bound = self._generic_polar_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["polar.samples"] += bound.arguments["k"]
        self.counts["polar.agreeing"] += result.agreeing
        self.counts["polar.extra_blowups"] += result.extra_blowups

    # -- patching -----------------------------------------------------------

    @contextmanager
    def patched(self):
        """Install span wrappers in every sislip namespace, then restore."""
        hooks = {
            "sis.singular_points": self._on_singular_points,
            "scalar.extend_field": self._on_extend_field,
            "resolve.resolve_germ": self._on_resolve_germ,
            "resolve.track": self._on_track,
            "poly.exact_div": self._on_exact_div,
            "polar.generic_polar": self._on_generic_polar,
        }
        undo = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sislip" or n.startswith("sislip.")]
        try:
            for layer, quals in SPANNED.items():
                mod = importlib.import_module(f"sislip.{layer}")
                for qual in quals:
                    name = f"{layer}.{qual.rsplit('.', 1)[-1]}"
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        owner = getattr(mod, cls_name)
                        orig = owner.__dict__[attr]
                        wrapper = self._wrap(name, layer, orig, hooks.get(name))
                        setattr(owner, attr, wrapper)
                        undo.append((owner, attr, orig))
                        continue
                    orig = getattr(mod, qual)
                    if name == "polar.generic_polar":
                        self._generic_polar_sig = inspect.signature(orig)
                    wrapper = self._wrap(name, layer, orig, hooks.get(name))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapper)
                                undo.append((m, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Per-span-name calls and outermost time, per-layer self time."""
        calls, outer = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, _layer, start, end, parent, _req, outermost in self.spans:
            calls[name] += 1
            if outermost:
                outer[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = Counter()
        for i, (_name, layer, start, end, *_rest) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (outer[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        c = self.counts
        out["sis.point_classes"] = (c["sis.point_classes"], "count")
        out["scalar.max_field_degree"] = (c["scalar.max_field_degree"], "count")
        out["resolve.curves"] = (c["resolve.curves"], "count")
        out["resolve.track_repeat_ratio"] = (
            _ratio(c["resolve.track.repeats"], c["resolve.track.pairs"]),
            "ratio")
        out["poly.exact_div.fail_ratio"] = (
            _ratio(c["poly.exact_div.fails"], c["poly.exact_div.calls"]),
            "ratio")
        out["polar.samples"] = (c["polar.samples"], "count")
        out["polar.agree_ratio"] = (
            _ratio(c["polar.agreeing"], c["polar.samples"]), "ratio")
        out["polar.extra_blowups"] = (c["polar.extra_blowups"], "count")
        return out

    def write(self, path):
        """Write the spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, layer, start, end, parent, req, _outer in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "request": req,
                }) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def profile_group(filename):
    """The PROFILE_GROUPS entry a source file belongs to, or None."""
    parts = filename.replace("\\", "/").split("/")
    if parts[-2:] == ["sislip", "scalar.py"]:
        return "scalar"
    if parts[-1] == "fractions.py" and "sympy" not in parts:
        return "fractions"
    if "sympy" in parts:
        return "sympy"
    return None


def profile_groups(profiler):
    """Self time per PROFILE_GROUPS entry from a finished cProfile run.

    A built-in function (math.gcd, for instance) has no source file; the
    time cProfile records for it under each caller goes to that caller's
    file.
    """
    profiler.create_stats()
    out = Counter()
    for (filename, _line, _fn), (_cc, _nc, tt, _ct, callers) in \
            profiler.stats.items():
        if filename != "~":
            group = profile_group(filename)
            if group:
                out[group] += tt
            continue
        for (cfile, _cl, _cfn), edge in callers.items():
            group = profile_group(cfile)
            if group:
                out[group] += edge[2]
    return out
