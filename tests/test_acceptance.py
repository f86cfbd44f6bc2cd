"""Acceptance gate.

One test per criterion, each printing a single summary line

    criterion NN pass: <what was checked>

so a `pytest tests/test_acceptance.py -v -s` run reads as a checklist.
Criterion 05 is a known honest failure (see its xfail reason); everything
else must pass at the stated tolerances.  The whole gate is desk-scale and
finishes in seconds.
"""

import math
import random

import pytest

from frullani import catalog
from frullani.cli import main as cli_main
from frullani.engine import FrullaniProblem, closed_form
from frullani.expr import parse
from frullani.limits import limit_at_infinity, limit_at_zero_plus
from frullani.quadrature import integrate_adaptive
from frullani.series import (
    central_binomial_closed,
    central_binomial_partial,
    discriminant_identity,
    gr_4_324_2_closed,
    gr_4_324_2_series,
    imaginary_exponential_check,
    parity_weight,
)
from reference import scale_params


def _report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'pass' if ok else 'FAIL'}: {text}")


def _ulps(x: float, y: float, scale: float) -> float:
    return abs(x - y) / math.ulp(max(abs(scale), 1e-300))


def test_criterion_01_smooth_and_finite_interval_suite():
    bad = []
    count = 0
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        if entry.eval_class != "smooth-decay":
            continue
        for params in entry.default_grid:
            rec = catalog.verify_entry(eid, params, tol=1e-6)
            count += 1
            if rec.status != "PASS":
                bad.append((eid, params, rec.status, rec.detail))
    ok = not bad and count == 45
    _report(1, ok, f"{count} smooth-decay grid bindings agree with the oracle within 1e-06")
    assert ok, bad


def test_criterion_02_oscillatory_suite():
    bad = []
    count = 0
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        if entry.eval_class != "oscillatory":
            continue
        for params in entry.default_grid:
            rec = catalog.verify_entry(eid, params, tol=1e-4)
            count += 1
            if rec.status != "PASS":
                bad.append((eid, params, rec.status, rec.detail))
            if eid == "R-3.8" and abs(rec.numeric) > 1e-5:
                bad.append((eid, params, "oracle magnitude", rec.numeric))
    ok = not bad and count == 15
    _report(2, ok, f"{count} oscillatory grid bindings within 1e-04; damped-sine oracle magnitude <= 1e-05")
    assert ok, bad


def test_criterion_03_log_ratio_kernel_on_unit_interval():
    res = integrate_adaptive(lambda x: (x - 1.0) / math.log(x), 0.0, 1.0, 1e-10)
    err = abs(res.value - math.log(2.0))
    ok = res.converged and err <= 1e-9
    _report(3, ok, f"integral of (x-1)/ln x over (0,1) hits ln 2 within 1e-09 (err {err:.2e})")
    assert ok, (res.value, err)


def test_criterion_04_pure_oscillation_limits():
    errs = []
    for p, q, want in ((1.0, 2.0, math.log(2.0)), (2.0, 3.0, math.log(1.5))):
        c, s = imaginary_exponential_check(p, q, tol=1e-5)
        errs.append(abs(c - want))
        errs.append(abs(s))
    ok = max(errs) <= 1e-5
    _report(4, ok, f"cosine/sine difference integrals match (ln ratio, 0) within 1e-05 (worst {max(errs):.2e})")
    assert ok, errs


@pytest.mark.xfail(
    strict=True,
    reason="near the convergence boundary q = 1/4 the central-binomial tail "
    "decays like (4q)^m/m; at q = 0.24 the measured 200-term residual is "
    "1.16e-06, so the 1e-10 target is not attainable at this depth",
)
def test_criterion_05_central_binomial_partial_sums():
    residuals = {
        q: abs(central_binomial_partial(q, 200) - central_binomial_closed(q))
        for q in (0.0, 0.05, 0.1, 0.15, 0.2, 0.24)
    }
    ok = max(residuals.values()) <= 1e-10
    _report(5, ok, f"200-term central-binomial sums within 1e-10 (worst {max(residuals.values()):.2e} at q=0.24)")
    assert ok, residuals


def test_criterion_06_parity_weights_exact():
    def brute(k: int) -> int:
        return sum(math.comb(k, r) for r in range(k + 1) if 2 * r != k)

    bad = [k for k in range(1, 31) if parity_weight(k) != brute(k)]
    ok = not bad
    _report(6, ok, "parity weights equal the brute-force binomial sums exactly for k <= 30")
    assert ok, bad


def test_criterion_07_branch_and_symmetry_properties():
    checks = []
    for a in (0.5, 2.0, 0.1, 10.0):
        v, w = gr_4_324_2_closed(a, 1.0, 2.0), gr_4_324_2_closed(1.0 / a, 1.0, 2.0)
        checks.append(_ulps(v, w, v) <= 4.0)
    # the two branch expressions coincide at a = 1
    inner = 2.0 * math.log(2.0) * math.log1p(1.0)
    outer = 2.0 * math.log(2.0) * math.log1p(1.0 / 1.0)
    checks.append(_ulps(inner, outer, inner) <= 4.0)
    worst = 0.0
    for i in range(1000):
        a = -10.0 + 20.0 * i / 999.0
        if a == -1.0:
            continue
        lhs, rhs = discriminant_identity(a)
        worst = max(worst, abs(lhs - rhs) / math.ulp(max(abs(lhs), abs(rhs), 1.0)))
    checks.append(worst <= 4.0)
    ok = all(checks)
    _report(7, ok, f"reciprocal symmetry, branch seam, discriminant identity all within 4 ulps (grid worst {worst:.2f})")
    assert ok, checks


def test_criterion_08_series_converges_to_closed_form():
    worst = 0.0
    for a in (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.6):
        err = abs(gr_4_324_2_series(a, 1.0, 2.0, 400) - gr_4_324_2_closed(a, 1.0, 2.0))
        worst = max(worst, err)
    ok = worst <= 1e-8
    _report(8, ok, f"400-term series within 1e-08 of the closed form (worst {worst:.2e})")
    assert ok, worst


def test_criterion_09_limit_classifier_table():
    exp_kernel = lambda x: math.exp(-x)
    compound = lambda x: math.pow(1.0 + 1.0 / x, x)
    log_cos = lambda x: math.log(1.0 + math.cos(x) + 0.25)
    exp_pair = lambda x: (math.exp(-1.0 * x) - math.exp(-3.0 * x)) / x

    rows = []
    v = limit_at_zero_plus(exp_kernel)
    rows.append(v.is_finite and abs(v.value - 1.0) <= 1e-9)
    v = limit_at_infinity(exp_kernel)
    rows.append(v.is_finite and abs(v.value) <= 1e-9)
    v = limit_at_infinity(compound)
    rows.append(v.is_finite and abs(v.value - math.e) <= 1e-6)
    v = limit_at_infinity(log_cos)
    rows.append(v.kind == "no-limit")
    v = limit_at_zero_plus(exp_pair)
    rows.append(v.is_finite and abs(v.value - 2.0) <= 1e-6)
    ok = all(rows)
    _report(9, ok, "classifier verdicts: 1 and 0 for exp, e for compound interest, no-limit for log-cosine, 2 for the exp pair")
    assert ok, rows


def test_criterion_10_closed_form_laws_bitwise():
    tree = parse("exp(-x)")
    rng = random.Random(20260818)
    bad = 0
    for _ in range(100):
        a = math.exp(rng.uniform(-6.0, 6.0))
        b = math.exp(rng.uniform(-6.0, 6.0))
        f0 = rng.uniform(-10.0, 10.0)
        finf = rng.uniform(-10.0, 10.0)
        power = rng.uniform(0.5, 4.0)
        lam = 2.0 ** rng.randint(-8, 8)
        v = closed_form(FrullaniProblem(tree, a, b, 1.0), f0, finf)
        if closed_form(FrullaniProblem(tree, b, a, 1.0), f0, finf) != -v:
            bad += 1
        if closed_form(FrullaniProblem(tree, a * lam, b * lam, 1.0), f0, finf) != v:
            bad += 1
        if closed_form(FrullaniProblem(tree, a, b, power), f0, finf) != v / power:
            bad += 1
        if closed_form(FrullaniProblem(tree, a, a, power), f0, finf) != 0.0:
            bad += 1
    ok = bad == 0
    _report(10, ok, "antisymmetry, binary rescaling, power division, equal scales bitwise on 100 seeded cases")
    assert ok, bad


def test_criterion_11_zero_law_across_catalog():
    bad = []
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        if scale_params(entry) is None:
            continue
        s0, s1 = scale_params(entry)
        params = dict(entry.default_grid[0])
        params[s1] = params[s0]
        rec = catalog.verify_entry(eid, params)
        if rec.expected != 0.0 or abs(rec.numeric) > catalog.class_tolerance(entry.eval_class):
            bad.append((eid, rec.expected, rec.numeric))
    ok = not bad
    _report(11, ok, "equal scale parameters give exactly zero closed form and a vanishing oracle on every eligible entry")
    assert ok, bad


def test_criterion_12_reports_are_deterministic(capsys):
    assert cli_main(["verify-all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["verify-all", "--format", "json"]) == 0
    second = capsys.readouterr().out
    ok = first == second and len(first) > 0
    _report(12, ok, f"two json verification reports are byte-identical ({len(first)} bytes)")
    assert ok
