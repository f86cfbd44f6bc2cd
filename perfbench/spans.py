"""Span tracing for the traced benchmark run.

The tracer wraps each layer's public function under the name its callers
look it up by (for example engine's imported ``evaluate``), so nothing
under src/ changes and an untraced run installs no wrapper at all.

Every wrapped call pushes a frame; on return its self time is its duration
minus the time its wrapped children covered.  Calls of the two hot leaves
(expression evaluation and the G7/K15 panel) are folded into counters;
every other call is kept in memory as a span (request, id, parent, name,
start, end) and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_CLASSES = ("smooth-decay", "finite-interval", "oscillatory")


def _plan(m: dict):
    """(module, attribute, layer function name, hot) for every wrapper."""
    expr, quadrature, engine = m["expr"], m["quadrature"], m["engine"]
    catalog, series = m["catalog"], m["series"]
    return (
        (expr, "parse", "expr.parse", False),
        (engine, "evaluate", "expr.evaluate", True),
        (engine, "limit_at_zero_plus", "limits.probe", False),
        (engine, "limit_at_infinity", "limits.probe", False),
        (quadrature, "gauss_kronrod_panel", "quadrature.panel", True),
        (quadrature, "integrate_adaptive", "quadrature.adaptive", False),
        (catalog, "integrate_adaptive", "quadrature.adaptive", False),
        (catalog, "integrate_decaying", "quadrature.decaying", False),
        (engine, "integrate_decaying", "quadrature.decaying", False),
        (quadrature, "integrate_oscillatory_tail", "quadrature.osc_tail", False),
        (catalog, "integrate_frullani_oscillatory", "quadrature.frullani_osc", False),
        (engine, "diagnose", "engine.diagnose", False),
        (engine, "evaluate_pipeline", "engine.evaluate_pipeline", False),
        (catalog, "verify_entry", "catalog.verify_entry", False),
        (catalog, "base_frequency", "catalog.base_frequency", False),
        (series, "gr_4_324_2_series", "series.gr_4_324_2_series", False),
    )


class Tracer:
    """Wrappers around the layer functions of the modules in ``modules``
    (as run._load_package returns them), with the spans and counts they
    record.  install() and uninstall() put the wrappers in and take them
    out again."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list = []
        self._stack: list = []  # [name, child_seconds, span_id]
        self._next_id = 0
        self.request = -1
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)  # self time per layer function
        self.class_seconds: dict = defaultdict(float)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.seconds.clear()
        self.class_seconds.clear()

    def install(self) -> None:
        for module, attr, name, hot in _plan(self._modules):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hot))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, hot: bool):
        stack, counts, seconds = self._stack, self.counts, self.seconds
        on_result = _RESULT_HOOKS.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = -1
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                seconds[name] += duration - frame[1]
                counts[name + ".calls"] += 1
                if parent is not None:
                    parent[1] += duration
                if name == "catalog.verify_entry":
                    entry = self._modules["catalog"].get_entry(args[0])
                    self.class_seconds[entry.eval_class] += duration
                if not hot:
                    parent_id = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                    self.spans.append((self.request, span_id, parent_id, name, start, end))
            if on_result is not None:
                on_result(self, result, args, parent)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for request, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "request": request, "id": span_id, "parent": parent, "name": name,
                    "start_us": round(start * 1e6, 1), "end_us": round(end * 1e6, 1),
                }) + "\n")

    def count_metrics(self) -> dict:
        """Calls, evaluations, segments, probe samples, convergences and
        verdicts: deterministic for a given request list."""
        return dict(self.counts)


def _quadrature_hook(name: str):
    def hook(tracer, result, args, parent):
        tracer.counts[name + ".evals"] += result.function_evaluations
        tracer.counts[name + ".converged"] += int(result.converged)
    return hook


_adaptive_counts = _quadrature_hook("quadrature.adaptive")


def _adaptive_hook(tracer, result, args, parent):
    _adaptive_counts(tracer, result, args, parent)
    if parent is not None and parent[0] == "quadrature.osc_tail":
        tracer.counts["quadrature.osc_tail.segments"] += 1


def _probe_hook(tracer, result, args, parent):
    tracer.counts["limits.probe.samples"] += len(result.evidence)
    tracer.counts["limits.verdict." + result.kind.replace("-", "_")] += 1


_RESULT_HOOKS = {
    "quadrature.adaptive": _adaptive_hook,
    "quadrature.decaying": _quadrature_hook("quadrature.decaying"),
    "quadrature.osc_tail": _quadrature_hook("quadrature.osc_tail"),
    "quadrature.frullani_osc": _quadrature_hook("quadrature.frullani_osc"),
    "limits.probe": _probe_hook,
}


def layer_metrics(counts: dict, seconds: dict, class_seconds: dict) -> dict:
    """Per-layer metric values, as {name: value}, from one traced pass."""
    def calls(fn):
        return counts.get(fn + ".calls", 0)

    def ms(fn):
        return seconds.get(fn, 0.0) * 1e3

    def us_per_call(fn):
        return ms(fn) * 1e3 / calls(fn) if calls(fn) else 0.0

    def converged_ratio(fn):
        return counts.get(fn + ".converged", 0) / calls(fn) if calls(fn) else 0.0

    out = {
        "expr.parse.calls": calls("expr.parse"),
        "expr.parse.self_ms": ms("expr.parse"),
        "expr.evaluate.calls": calls("expr.evaluate"),
        "expr.evaluate.self_ms": ms("expr.evaluate"),
        "expr.evaluate.us_per_call": us_per_call("expr.evaluate"),
        "limits.probe.calls": calls("limits.probe"),
        "limits.probe.samples": counts.get("limits.probe.samples", 0),
        "limits.probe.self_ms": ms("limits.probe"),
        "limits.verdict.finite": counts.get("limits.verdict.finite", 0),
        "limits.verdict.diverges": counts.get("limits.verdict.diverges", 0),
        "limits.verdict.no_limit": counts.get("limits.verdict.no_limit", 0),
        "quadrature.panel.calls": calls("quadrature.panel"),
        "quadrature.panel.self_ms": ms("quadrature.panel"),
        "quadrature.panel.us_per_call": us_per_call("quadrature.panel"),
    }
    for fn in ("quadrature.adaptive", "quadrature.decaying", "quadrature.osc_tail"):
        out[fn + ".calls"] = calls(fn)
        out[fn + ".evals"] = counts.get(fn + ".evals", 0)
        if fn == "quadrature.osc_tail":
            out[fn + ".segments"] = counts.get(fn + ".segments", 0)
        out[fn + ".self_ms"] = ms(fn)
        out[fn + ".converged_ratio"] = converged_ratio(fn)
    out["quadrature.frullani_osc.calls"] = calls("quadrature.frullani_osc")
    out["quadrature.frullani_osc.evals"] = counts.get("quadrature.frullani_osc.evals", 0)
    for fn in ("engine.diagnose", "engine.evaluate_pipeline", "catalog.verify_entry"):
        out[fn + ".calls"] = calls(fn)
        out[fn + ".self_ms"] = ms(fn)
    for cls in _CLASSES:
        out["catalog.verify_entry.ms_by_class." + cls] = class_seconds.get(cls, 0.0) * 1e3
    for fn in ("catalog.base_frequency", "series.gr_4_324_2_series"):
        out[fn + ".calls"] = calls(fn)
        out[fn + ".self_ms"] = ms(fn)
    return out
