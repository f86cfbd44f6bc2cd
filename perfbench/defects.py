"""Baseline cost of the named known-defect inputs.

    python3 perfbench/defects.py

Runs each named input once with the tracer installed and prints one JSON
object per input: its status, integrand evaluations as the quadrature
results count them, expression evaluations, and wall time (traced, so
slower than untraced).  The figures recorded in perfbench/baseline.json
come from this script; later changes cite the inputs by name.
"""

from __future__ import annotations

import json
import sys
import time

import run
from spans import Tracer

CATALOG = {
    "worst-default-binding": ("GR-4.324.2", {"a": 2.0, "p": 1.0, "q": 10.0}, None),
    "incommensurate-R-3.4": ("R-3.4", {"a": 1.0, "b": 1.414213562}, None),
    "incommensurate-GR-4.324.2": ("GR-4.324.2", {"a": 0.5, "p": 1.0, "q": 1.414213562}, None),
    "incommensurate-R-3.8": ("R-3.8", {"a": 1.0, "b": 1.414213562}, None),
    "tight-tol-R-3.4": ("R-3.4", {"a": 1.0, "b": 2.0}, 1e-8),
    "tight-tol-GR-4.324.2": ("GR-4.324.2", {"a": 0.5, "p": 1.0, "q": 2.0}, 1e-8),
}
PIPELINE = {
    "oscillatory-finite-cos": ("cos(x)/(1+x)", 1.0, 2.0, 1.0),
    "oscillatory-finite-abs-sin": ("abs(sin(x))/x", 1.0, 2.0, 1.0),
    "small-power-exp": ("exp(-x)", 1.0, 2.0, 0.05),
    "slow-drift": ("1/(1+x^0.1)", 1.0, 2.0, 1.0),
}
_QUADRATURE = ("quadrature.frullani_osc.evals", "quadrature.decaying.evals",
               "quadrature.adaptive.evals")


def measure(mods, tracer, call) -> dict:
    tracer.reset()
    start = time.perf_counter()
    rec = call()
    wall = time.perf_counter() - start
    counts = tracer.count_metrics()
    evals = next((counts[k] for k in _QUADRATURE if counts.get(k)), 0)
    return {"status": rec.status, "integrand_evals": evals,
            "expr_evaluate_calls": counts.get("expr.evaluate.calls", 0),
            "traced_ms": round(wall * 1e3, 1), "detail": rec.detail[-120:]}


def main() -> int:
    mods = run._load_package()
    catalog, engine, expr = mods["catalog"], mods["engine"], mods["expr"]
    tracer = Tracer(mods)
    tracer.install()
    try:
        for name, (entry, params, tol) in CATALOG.items():
            out = measure(mods, tracer, lambda: catalog.verify_entry(entry, params, tol))
            print(json.dumps({"name": name, "entry": entry, "params": params, "tol": tol, **out}))
        for name, (kernel, a, b, power) in PIPELINE.items():
            out = measure(mods, tracer, lambda: engine.evaluate_pipeline(
                engine.FrullaniProblem(expr.parse(kernel), a, b, power), 1e-6))
            print(json.dumps({"name": name, "kernel": kernel, "a": a, "b": b,
                              "power": power, "tol": 1e-6, **out}))
    finally:
        tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
