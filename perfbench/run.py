"""Benchmark of the frullani package: three seeded workloads, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in one single-threaded process as a closed loop with one
client: the next request is sent when the previous one has returned.  A
request is one call into the public API, catalog.verify_entry for the
catalog workloads, expr.parse + engine.FrullaniProblem +
engine.evaluate_pipeline for the pipeline workload.

--trace 0 runs the workload's fixed accuracy panel as the warm-up, then
times the loop for --seconds seconds and prints the end-to-end metrics.
Latencies are wall times rescaled to one reference machine speed by the
probe in speed.py; the unscaled figures are printed too.  --trace 1 runs a
fixed prefix of the request list once untraced and twice traced, prints the
per-layer metrics and the tracing overhead, fails if any count differs
between the two traced passes, and sweeps the catalog's default grid to
check that the wrappers count what the package counts.  Every answer is
checked against the generator's analytic reference.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

Request outcomes:
  pass        PASS, and the closed form matches the reference
  declined    NOT_APPLICABLE for a kernel that has no closed form
  unanswered  NOT_APPLICABLE although a closed form exists
  unverified  FAIL or ORACLE_FAILED: the oracle did not confirm the value
  raised      the call raised
  wrong       a PASS that disagrees with the reference, a catalog closed
              form off its reference, a non-zero value for equal scales, a
              status outside catalog.STATUSES, a valid binding refused, or
              a log-cosine series off its closed form
"failed" in the JSON line counts raised and wrong requests, and "correct"
is false when any request was wrong.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

WARMUP_REQUESTS = 20
# The accuracy panel: the first requests of each workload at seed 0.  A
# timed run runs it first, untimed, as its warm-up, and reports the largest
# err/tol over its PASS records.  A largest value over seeded inputs swings
# with the seed far beyond any bound; over one fixed panel it is exact.
PANEL_SEED = 0
PANEL_REQUESTS = {"catalog-smooth": 300, "catalog-oscillatory": 100, "pipeline-kernels": 60}
SETUP_REPEATS = 11
# requests per traced pass: a traced run then takes 10 to 30 s on a 2-core machine
TRACE_REQUESTS = {"catalog-smooth": 6000, "catalog-oscillatory": 400, "pipeline-kernels": 200}
CALIBRATION_BINDING = ("GR-4.324.2", {"a": 2.0, "p": 1.0, "q": 10.0})
CALIBRATION_EVALS = 12390

class BenchError(Exception):
    """The benchmark cannot run or its own checks failed."""


def _load_package():
    if not os.path.isfile(os.path.join(SRC, "frullani", "__init__.py")):
        raise BenchError(f"no package source at {SRC}/frullani")
    sys.path.insert(0, SRC)
    import frullani
    from frullani import catalog, engine, expr, quadrature, series

    if os.path.dirname(os.path.abspath(frullani.__file__)) != os.path.join(SRC, "frullani"):
        raise BenchError(f"imported frullani from {frullani.__file__}, not from {SRC}")
    return {"catalog": catalog, "engine": engine, "expr": expr,
            "quadrature": quadrature, "series": series}


def measure_setup() -> float:
    """Median seconds a fresh interpreter takes to import frullani.cli, which
    imports every module and builds the catalog, at the probe's reference
    speed.  One unmeasured import first writes the bytecode cache."""
    code = (
        "import json, sys, time; sys.path[:0] = sys.argv[1:3]; import speed; "
        "probes = [speed.probe() for _ in range(5)]; t = time.perf_counter(); "
        "import frullani.cli; seconds = time.perf_counter() - t; "
        "probes += [speed.probe() for _ in range(5)]; "
        "print(json.dumps([seconds, probes]))"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing frullani.cli failed:\n{proc.stderr}")
        seconds, probes = json.loads(proc.stdout)
        if i:
            times.append(seconds * speed.REFERENCE_S / statistics.median(probes))
    return statistics.median(times)


# ------------------------------------------------------------------ requests

def execute(mods, req):
    """One request through the public API; returns (record, series value)."""
    if isinstance(req, workloads.CatalogRequest):
        rec = mods["catalog"].verify_entry(req.entry, req.params, req.tol)
        value = None
        if req.series_terms:
            p = req.params
            value = mods["series"].gr_4_324_2_series(p["a"], p["p"], p["q"], req.series_terms)
        return rec, value
    engine = mods["engine"]
    prob = engine.FrullaniProblem(mods["expr"].parse(req.kernel), req.a, req.b, req.power)
    return engine.evaluate_pipeline(prob, req.tol), None


def classify(mods, req, rec, series_value) -> str:
    """Outcome of one request (see the module docstring)."""
    status = rec.status
    # the generator builds only valid inputs, so a refusal is wrong too
    if status not in mods["catalog"].STATUSES or status == "CONSTRAINT_VIOLATION":
        return "wrong"
    ref = req.reference
    if isinstance(req, workloads.CatalogRequest):
        if abs(rec.expected - ref) > req.tol:
            return "wrong"
        if req.equal_scales and rec.expected != 0.0:
            return "wrong"
        if series_value is not None and not abs(series_value - ref) <= req.tol:
            return "wrong"
    elif status == "PASS" and (ref is None or not abs(rec.expected - ref) <= req.tol):
        return "wrong"
    if status == "PASS":
        return "pass"
    if status == "NOT_APPLICABLE":
        return "declined" if ref is None else "unanswered"
    return "unverified"


def run_request(mods, req):
    """(outcome, record or None, seconds) for one request."""
    start = time.perf_counter()
    try:
        rec, series_value = execute(mods, req)
    except Exception:  # noqa: BLE001 - an escaping error is a measured outcome
        return "raised", None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return classify(mods, req, rec, series_value), rec, elapsed


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# -------------------------------------------------------------- timed run

def timed_run(mods, wl, panel: list, seconds: float, setup_s: float) -> dict:
    panel_worst, panel_wrong = 0.0, 0
    for req in panel:
        outcome, rec, _ = run_request(mods, req)
        panel_wrong += outcome == "wrong"
        if outcome == "pass":
            panel_worst = max(panel_worst, rec.abs_error / req.tol)
    reqs = wl.requests
    # the request lists are the benchmark's, not the program's: keep the
    # cyclic collector from rescanning them during timed requests
    gc.collect()
    gc.freeze()
    # compact arrays, so that the benchmark's own storage barely moves peak RSS
    latencies, probes = array.array("d"), array.array("d", [speed.probe()])
    outcomes, seed_worst = Counter(), 0.0
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        req = reqs[i % len(reqs)]
        outcome, rec, elapsed = run_request(mods, req)
        probes.append(speed.probe())
        latencies.append(elapsed)
        outcomes[outcome] += 1
        if outcome == "pass":
            seed_worst = max(seed_worst, rec.abs_error / req.tol)
        i += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(latencies)
    scaled = sorted(speed.rescaled(latencies, probes))
    latencies = sorted(latencies)
    not_ok = outcomes["unverified"] + outcomes["raised"] + outcomes["wrong"]
    values = {
        "records_per_s": n / math.fsum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p99_ms": percentile(scaled, 0.99) * 1e3,
        "ok_share": 1.0 - not_ok / n,
        "answered_share": 1.0 - outcomes["unanswered"] / n,
        "worst_err_to_tol": panel_worst,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    wall_values = {
        "records_per_s": n / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "probe_us": statistics.median(probes) * 1e6,
    }
    return {
        "values": values,
        "wall_values": wall_values,
        "outcomes": dict(outcomes),
        "panel_wrong": panel_wrong,
        "attempted": n,
        "wall_s": wall,
        "seed_worst_err_to_tol": seed_worst,
        "beyond_p99": n - math.ceil(0.99 * n),
    }


def report_timed(wl, seed: int, result: dict) -> dict:
    n = result["attempted"]
    oc = result["outcomes"]
    print(f"workload {wl.name} seed {seed}: {wl.why}")
    print("  input shares: " + " ".join(f"{k}={v:.4f}" for k, v in wl.shares.items()))
    print(f"  {n} requests in {result['wall_s']:.2f} s; outcomes: "
          + " ".join(f"{k}={oc[k]}" for k in sorted(oc)))
    print(f"  failed_share={1.0 - result['values']['ok_share']:.4f} "
          f"unanswered_share={1.0 - result['values']['answered_share']:.4f} "
          f"worst err/tol over this seed's PASS records={result['seed_worst_err_to_tol']:.4g} "
          f"latency samples={n} beyond_p99={result['beyond_p99']}")
    wv = result["wall_values"]
    print(f"  unscaled wall time: records_per_s={wv['records_per_s']:.6g} "
          f"latency_p50_ms={wv['latency_p50_ms']:.6g} latency_p99_ms={wv['latency_p99_ms']:.6g} "
          f"(median probe {wv['probe_us']:.4g} us against {speed.REFERENCE_S * 1e6:.4g} us reference)")
    if result["beyond_p99"] < 10:
        print(f"  warning: only {result['beyond_p99']} samples beyond p99", file=sys.stderr)
    metrics = {}
    for name, unit in metric_units("end_to_end").items():
        value = result["values"][name]
        print(f"  {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# ------------------------------------------------------------- traced run

def _pass(mods, reqs, tracer=None):
    """Run reqs once; returns (seconds at the reference speed, outcomes)."""
    outcomes = Counter()
    latencies, probes = array.array("d"), array.array("d", [speed.probe()])
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        outcome, _, elapsed = run_request(mods, req)
        probes.append(speed.probe())
        latencies.append(elapsed)
        outcomes[outcome] += 1
    return math.fsum(speed.rescaled(latencies, probes)), outcomes


def calibrate(mods, tracer) -> None:
    """Default-grid sweep with the wrappers installed: every binding must
    PASS, and the worst binding must cost the integrand evaluations the
    package's own records give."""
    catalog = mods["catalog"]
    for entry_id in catalog.entry_ids():
        for params in catalog.default_grid(entry_id):
            before = tracer.counts["quadrature.frullani_osc.evals"]
            rec = catalog.verify_entry(entry_id, params)
            if rec.status != "PASS":
                raise BenchError(f"calibration: {entry_id} {params} ended {rec.status}")
            if (entry_id, params) == CALIBRATION_BINDING:
                evals = tracer.counts["quadrature.frullani_osc.evals"] - before
                if evals != CALIBRATION_EVALS:
                    raise BenchError(f"calibration: {entry_id} {params} counted {evals} "
                                     f"evaluations, expected {CALIBRATION_EVALS}")


def traced_run(mods, wl, seed: int, n_requests: int) -> tuple[dict, Counter]:
    reqs = wl.requests[:n_requests]
    for req in reqs[:WARMUP_REQUESTS]:
        run_request(mods, req)
    gc.collect()
    gc.freeze()
    untraced_s, outcomes = _pass(mods, reqs)
    tracer = Tracer(mods)
    tracer.install()
    try:
        calibrate(mods, tracer)
        passes = []
        for _ in range(2):
            tracer.reset()
            seconds, _ = _pass(mods, reqs, tracer)
            passes.append((seconds, tracer.count_metrics(), dict(tracer.seconds),
                           dict(tracer.class_seconds)))
    finally:
        tracer.uninstall()
    (s1, counts1, sec1, cls1), (s2, counts2, sec2, cls2) = passes
    if counts1 != counts2:
        diff = sorted(k for k in set(counts1) | set(counts2) if counts1.get(k) != counts2.get(k))
        raise BenchError("count metrics differ between two traced passes of one seed: "
                         + ", ".join(f"{k} {counts1.get(k)} != {counts2.get(k)}" for k in diff))
    mean = {k: 0.5 * (sec1.get(k, 0.0) + sec2.get(k, 0.0)) for k in set(sec1) | set(sec2)}
    mean_cls = {k: 0.5 * (cls1.get(k, 0.0) + cls2.get(k, 0.0)) for k in set(cls1) | set(cls2)}
    values = layer_metrics(counts1, mean, mean_cls)
    traced_s = 0.5 * (s1 + s2)
    values["trace.untraced_records_per_s"] = len(reqs) / untraced_s
    values["trace.traced_records_per_s"] = len(reqs) / traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl"))
    return values, outcomes


def report_traced(wl, seed: int, values: dict, units: dict, n: int) -> dict:
    print(f"workload {wl.name} seed {seed} traced: {n} requests, one untraced and "
          f"two traced passes; counts repeat exactly; calibration passed")
    print(f"  tracing overhead: {values['trace.traced_records_per_s']:.6g} records/s traced "
          f"against {values['trace.untraced_records_per_s']:.6g} untraced, at the reference speed; "
          f"layer times are unscaled wall time")
    metrics = {}
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


# ------------------------------------------------------------------- main

def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One workload in this process.  quick shrinks the traced prefix and the
    accuracy panel to a few requests, for smoke mode."""
    mods = _load_package()
    wl = workloads.GENERATORS[name](seed)
    if trace:
        n = 8 if quick else TRACE_REQUESTS[name]
        values, outcomes = traced_run(mods, wl, seed, n)
        metrics = report_traced(wl, seed, values, metric_units("per_layer"), n)
        attempted = n
    else:
        setup_s = measure_setup()
        panel = workloads.GENERATORS[name](PANEL_SEED).requests[:8 if quick else PANEL_REQUESTS[name]]
        result = timed_run(mods, wl, panel, seconds, setup_s)
        metrics = report_timed(wl, seed, result)
        outcomes, attempted = Counter(result["outcomes"]), result["attempted"]
        outcomes["wrong"] += result["panel_wrong"]
    return {
        "correct": outcomes["wrong"] == 0,
        "attempted": attempted,
        "failed": outcomes["raised"] + outcomes["wrong"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def smoke() -> dict:
    """Shape check for the benchmark's own test: every workload, both modes,
    a few requests each.  Checks names, units and the JSON shape, never
    timings."""
    if [w["name"] for w in _spec()["workloads"]] != list(workloads.GENERATORS):
        raise BenchError("BENCHMARK.json workloads do not match the generators")
    attempted = 0
    for name in workloads.GENERATORS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run_one(name, 0, 0.05, trace, quick=True)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise BenchError(f"{name} trace={trace}: keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != metric_units(kind):
                raise BenchError(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                raise BenchError(f"{name} trace={trace}: non-numeric metric value")
            if not result["correct"] or result["attempted"] < 1:
                raise BenchError(f"{name} trace={trace}: {result}")
            attempted += result["attempted"]
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shape check only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.smoke:
            result = smoke()
        elif args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
