"""Per-layer tracing for the traced run, installed from the benchmark's side.

The program's modules are not edited.  :meth:`Tracer.install` replaces the
public functions of each layer module with timing wrappers, in every
namespace of the package that holds them (a name imported with
``from .x import y`` lives in the importing module too, for example
``cli.restricted_value_set``), and wraps a few class attributes: the
``FieldElement`` constructor and the two ``eval`` methods only count calls,
``SparsePoly.mul`` is timed.  :meth:`Tracer.uninstall` puts every original
back.  The untraced run installs nothing.

A span's self time is its duration minus the time of the spans it
encloses.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "restrictedsums"
LAYERS = ("sweeps", "enumeration", "poly", "coeff", "nullstellensatz", "bounds", "cli")
MAX_SPANS = 50_000

# per unit call: self time of one function (ms), median over calls
CALL_TIMES = {
    "sweeps.value_table_ms": "sweeps.value_table",
    "sweeps.fold_masks_ms": "sweeps.fold_masks",
    "sweeps.min_cardinality_ms": "sweeps.min_cardinality_by_sizes",
    "sweeps.check_bounds_ms": "sweeps.check_lattice_bounds",
    "poly.mul_ms": "poly.SparsePoly.mul",
    "poly.power_sum_pow_ms": "poly.power_sum_pow",
    "coeff.formula_ms": "coeff.coefficient_formula",
    "nullstellensatz.certify_ms": "nullstellensatz.certify",
}
# self time of a whole layer within one scope span, one sample per scope
SCOPES = {"cli.main": ("cli", "cli.self_ms"), "coeff.proof_replay": ("coeff", "coeff.replay_ms")}
VALUE_SET_FUNCTIONS = ("enumeration.restricted_value_set", "enumeration.unrestricted_value_set")

PER_LAYER_UNITS = {
    "sweeps.value_table_ms": "ms",
    "sweeps.fold_masks_ms": "ms",
    "sweeps.min_cardinality_ms": "ms",
    "sweeps.check_bounds_ms": "ms",
    "sweeps.grid_mb": "MB",
    "sweeps.profiles_checked": "count",
    "enumeration.value_set_ms": "ms",
    "enumeration.tuples_examined": "count",
    "enumeration.values_per_tuple": "ratio",
    "fields.elements_created": "count",
    "poly.eval_calls": "count",
    "poly.mul_ms": "ms",
    "poly.mul_terms": "count",
    "poly.power_sum_pow_ms": "ms",
    "coeff.formula_ms": "ms",
    "coeff.replay_ms": "ms",
    "nullstellensatz.certify_ms": "ms",
    "bounds.self_ms": "ms",
    "cli.self_ms": "ms",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    def __init__(self):
        self._stack = []  # [child seconds, span id] of each open span
        self._next_id = 0
        self._scopes = {}  # layer -> self seconds accumulated in the open scope span
        self._undo = []
        self._counters = {"fields.elements_created": [0], "poly.eval_calls": [0]}
        self.spans = []
        self.call = None
        self.per_call = []  # one dict of sums per finished unit call
        self._current = defaultdict(float)
        self.samples = defaultdict(list)  # per-event samples in ms

    # ---------- unit calls ----------

    def begin_call(self, index: int) -> None:
        self.call = index
        self._current = defaultdict(float)
        for cell in self._counters.values():
            cell[0] = 0

    def end_call(self) -> None:
        for key, cell in self._counters.items():
            self._current[key] = cell[0]
        self.per_call.append(dict(self._current))
        self.call = None

    # ---------- wrappers ----------

    def _close(self, name, layer, span_id, parent, start, end, self_s) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.call, name, start, end))
        self._current["self:" + name] += self_s
        self._current["layer:" + layer] += self_s
        if layer in self._scopes:
            self._scopes[layer] += self_s
        if name in SCOPES:
            metric = SCOPES[name][1]
            self.samples[metric].append(self._scopes.pop(layer) * 1000.0)

    def _timed(self, name, layer, fn):
        tracer = self
        clock = time.perf_counter
        scope = SCOPES.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            if scope:
                tracer._scopes[scope[0]] = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer._close(name, layer, frame[1], parent, start, end, end - start - frame[0])
            tracer._observe(name, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, result, seconds) -> None:
        cur = self._current
        if name in VALUE_SET_FUNCTIONS:
            self.samples["enumeration.value_set_ms"].append(seconds * 1000.0)
            cur["enumeration.tuples_examined"] += result.tuples_examined
            cur["enumeration.values"] += result.cardinality
        elif name == "poly.SparsePoly.mul":
            cur["poly.mul_terms"] += result.term_count()
        elif name == "sweeps.fold_masks":
            cur["sweeps.grid_mb"] += result.nbytes / 1e6
        elif name == "sweeps.check_lattice_bounds":
            cur["sweeps.profiles_checked"] += result[0]

    def _counted(self, key, fn):
        cell = self._counters[key]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ---------- installation ----------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                replacements[id(obj)] = (obj, self._timed(f"{layer}.{attr}", layer, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, replacements[id(obj)][1])
        poly = sys.modules[f"{PACKAGE}.poly"]
        fields = sys.modules[f"{PACKAGE}.fields"]
        self._patch(poly.SparsePoly, "mul", self._timed("poly.SparsePoly.mul", "poly", poly.SparsePoly.mul))
        self._patch(poly.SparsePoly, "eval", self._counted("poly.eval_calls", poly.SparsePoly.eval))
        self._patch(poly.PowerSumForm, "eval", self._counted("poly.eval_calls", poly.PowerSumForm.eval))
        self._patch(
            fields.FieldElement, "__init__", self._counted("fields.elements_created", fields.FieldElement.__init__)
        )

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------- results ----------

    def metrics(self) -> dict:
        calls = self.per_call
        out = {}
        for metric, name in CALL_TIMES.items():
            out[metric] = _median([c.get("self:" + name, 0.0) * 1000.0 for c in calls])
        for metric in ("sweeps.grid_mb", "sweeps.profiles_checked", "enumeration.tuples_examined",
                       "fields.elements_created", "poly.eval_calls", "poly.mul_terms"):
            out[metric] = _median([c.get(metric, 0) for c in calls])
        out["enumeration.values_per_tuple"] = _median(
            [c["enumeration.values"] / c["enumeration.tuples_examined"]
             for c in calls if c.get("enumeration.tuples_examined")]
        )
        out["enumeration.value_set_ms"] = _median(self.samples["enumeration.value_set_ms"])
        out["bounds.self_ms"] = _median([c.get("layer:bounds", 0.0) * 1000.0 for c in calls])
        out["cli.self_ms"] = _median(self.samples["cli.self_ms"])
        out["coeff.replay_ms"] = _median(self.samples["coeff.replay_ms"])
        return {name: {"value": out[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(header, spans=len(self.spans), calls=len(self.per_call))) + "\n")
            for span_id, parent, call, name, start, end in self.spans:
                record = {"id": span_id, "parent": parent, "call": call, "name": name,
                          "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")
