"""Span recorder that times jetgeom's public functions from outside the package.

`Tracer(jetgeom)` builds wrappers for the public functions of each layer;
`install()` patches them in at every use site (the CLI and the builders
import functions by name, so each module attribute that holds an original is
replaced), `uninstall()` puts the originals back. Untraced ops run with
nothing patched.

A span is (name, start, end, parent index). Spans stay in memory, one list
per traced op, and are written out when the benchmark ends. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
from collections import Counter
from itertools import accumulate
from time import perf_counter

# span name -> (module, public functions) wrapped under that name
FUNCTION_SPANS = {
    "ck.solve": ("ck", ("solve_first_order", "solve_second_order")),
    "geometry.ricci": ("geometry", ("ricci",)),
    "geometry.levi_civita": ("geometry", ("levi_civita",)),
    "geometry.metric_inverse": ("geometry", ("metric_inverse",)),
    "geometry.codazzi": ("geometry", ("is_codazzi",)),
    "builders.det_solve": ("builders", ("solve_determined_christoffels",)),
    "builders.verify": ("builders", ("verify",)),
    "serialize.dump": ("serialize", ("report_to_json", "canonical_dumps")),
    "serialize.load": ("serialize", ("report_from_json",)),
}
# span name -> Jet methods wrapped under that name (jets.mul is special-cased)
METHOD_SPANS = {
    "jets.reciprocal": ("reciprocal",),
    "jets.addsub": ("__add__", "__radd__", "__sub__"),
    "jets.partial": ("partial",),
}


class Tracer:
    def __init__(self, jetgeom):
        self.ops: list[list] = []  # spans of each traced op
        self.counts: list[Counter] = []  # derived counts of each traced op
        self._stack: list[int] = []
        self._functions = []  # (original, wrapper)
        self._methods = []  # (attribute name, original, wrapper)
        self._patched = []  # (owner, attribute name, original)

        modules = {name: getattr(jetgeom, name) for name in ("builders", "ck", "geometry", "jets", "serialize")}
        for span, (module, names) in FUNCTION_SPANS.items():
            for name in names:
                fn = getattr(modules[module], name)
                wrapper = self.wrap(span, fn)
                if span == "ck.solve":
                    wrapper = self._rhs_counting(wrapper)
                self._functions.append((fn, wrapper))
        builders = modules["builders"]
        for name, fn in sorted(vars(builders).items()):
            if name.startswith("build_") and getattr(fn, "__module__", None) == builders.__name__:
                self._functions.append((fn, self.wrap("builders.build", fn)))

        self._jet = jet = modules["jets"].Jet
        for span, names in METHOD_SPANS.items():
            for name in names:
                fn = getattr(jet, name)
                wrapper = self.wrap(span, fn)
                if name == "reciprocal":
                    wrapper = self._recording_bits(wrapper)
                self._methods.append((name, fn, wrapper))
        self._methods.append(("__mul__", jet.__mul__, self._jet_mul(jet)))

    # ------------------------------------------------------------------
    # span recording

    def begin_op(self):
        self.ops.append([])
        self.counts.append(Counter())

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.ops[-1]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def _rhs_counting(self, solve):
        """Wrap the rhs of the system handed to the solver in a ck.rhs span."""

        def traced(system):
            return solve(dataclasses.replace(system, rhs=self.wrap("ck.rhs", system.rhs)))

        return traced

    def _note_bits(self, jet):
        counts = self.counts[-1]
        for _, c in jet.terms():
            nb = c.numerator.bit_length()
            db = c.denominator.bit_length()
            if nb > counts["num_bits_max"]:
                counts["num_bits_max"] = nb
            if db > counts["den_bits_max"]:
                counts["den_bits_max"] = db

    def _recording_bits(self, fn):
        def traced(jet):
            out = fn(jet)
            self._note_bits(out)
            return out

        return traced

    def _jet_mul(self, jet_cls):
        """Jet x Jet products: a jets.mul span, plus the number of nonzero
        coefficient pairs whose product lands inside the workspace, counted
        from the degree histograms of the two operands."""
        original = jet_cls.__mul__
        timed = self.wrap("jets.mul", original)

        def histogram(jet):
            hist = [0] * (jet.max_degree + 1)
            for exps, _ in jet.terms():
                hist[sum(exps)] += 1
            return hist

        def traced(a, b):
            if not isinstance(b, jet_cls):
                return original(a, b)
            out = timed(a, b)
            # cum[k]: nonzero coefficients of b of degree <= k
            cum = list(accumulate(histogram(b)))
            self.counts[-1]["madds"] += sum(h * cum[a.max_degree - d] for d, h in enumerate(histogram(a)))
            self._note_bits(out)
            return out

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------------
    # patching

    def install(self):
        originals = {id(fn): wrapper for fn, wrapper in self._functions}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "jetgeom" or name.startswith("jetgeom.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        for name, fn, wrapper in self._methods:
            setattr(self._jet, name, wrapper)
            self._patched.append((self._jet, name, fn))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # summaries

    def summary(self, op_indices, scale) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds per span name, summed
        over the given traced ops; op i's seconds are multiplied by scale[i]."""
        calls, total, own = Counter(), Counter(), Counter()
        for i in op_indices:
            spans = self.ops[i]
            child = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for (name, start, end, _), inner in zip(spans, child):
                calls[name] += 1
                total[name] += (end - start) * scale[i]
                own[name] += (end - start - inner) * scale[i]
        return calls, total, own

    def write(self, path):
        """All spans as JSON lines: op, id, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for op, spans in enumerate(self.ops):
                for index, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps([op, index, name, round(start, 7), round(end, 7), parent]) + "\n")
