"""Probe-then-verify engine: applicability, closed-form laws, pipeline."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from frullani import catalog
from frullani.engine import (
    ApplicabilityReport,
    FrullaniProblem,
    closed_form,
    diagnose,
    evaluate_pipeline,
)
from frullani.expr import compile_kernel, parse


def prob(src, a=1.0, b=2.0, power=1.0):
    return FrullaniProblem(parse(src), a, b, power)


def kernel(src):
    return compile_kernel(parse(src))


class TestProblemValidation:
    def test_accepts_kernel_in_x(self):
        p = prob("exp(-x)")
        assert p.a == 1.0 and p.b == 2.0 and p.power == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"a": 0.0}, {"a": -1.0}, {"a": math.inf},
        {"b": 0.0}, {"b": math.nan}, {"power": 0.0}, {"power": -2.0},
    ])
    def test_rejects_bad_scales(self, kwargs):
        base = {"a": 1.0, "b": 2.0, "power": 1.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            FrullaniProblem(parse("exp(-x)"), **base)

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            prob("exp(-y)")
        with pytest.raises(ValueError):
            prob("exp(-x) + y")

    def test_compiled_kernel_is_left_out_of_equality_and_hash(self):
        p, q = prob("exp(-x)"), prob("exp(-x)")
        assert p.kernel is not q.kernel
        assert p.kernel(2.0) == math.exp(-2.0)
        assert p == q and hash(p) == hash(q)
        assert "kernel" not in repr(p)
        assert p != prob("exp(-2*x)")

    def test_rejects_constant_kernels(self):
        # a kernel without x has f(ax) = f(bx) identically; reject upfront
        with pytest.raises(ValueError):
            prob("3 + 4")


class TestDiagnose:
    def test_decaying_kernel_is_applicable(self):
        rep = diagnose(kernel("exp(-x)"))
        assert isinstance(rep, ApplicabilityReport)
        assert rep.applicable
        assert rep.verdict_at_zero.value == pytest.approx(1.0, abs=1e-9)
        assert rep.verdict_at_infinity.value == pytest.approx(0.0, abs=1e-9)
        assert rep.reason == "both limits finite"

    def test_oscillatory_kernel_is_rejected_at_infinity(self):
        rep = diagnose(kernel("cos(x)"))
        assert not rep.applicable
        assert "at infinity" in rep.reason
        assert "no-limit" in rep.reason

    def test_log_cosine_kernel_is_rejected(self):
        rep = diagnose(kernel("ln(1 + 2*0.5*cos(x) + 0.25)"))
        assert not rep.applicable
        assert "no-limit" in rep.reason

    def test_divergent_kernel_is_rejected_at_zero(self):
        rep = diagnose(kernel("1/x"))
        assert not rep.applicable
        assert "at 0+" in rep.reason
        assert "diverges" in rep.reason

    def test_compound_interest_kernel(self):
        rep = diagnose(kernel("(1 + 1/x)^x"))
        assert rep.applicable
        assert rep.verdict_at_infinity.value == pytest.approx(math.e, abs=1e-6)


class TestClosedForm:
    def test_value(self):
        assert closed_form(prob("exp(-x)"), 1.0, 0.0) == pytest.approx(
            math.log(2.0), rel=1e-15
        )

    def test_antisymmetric_in_scale_swap_bitwise(self):
        v = closed_form(prob("exp(-x)", a=1.0, b=7.0), 2.0, 0.5)
        w = closed_form(prob("exp(-x)", a=7.0, b=1.0), 2.0, 0.5)
        assert v == -w

    def test_equal_scales_give_exact_zero(self):
        assert closed_form(prob("exp(-x)", a=3.0, b=3.0), 5.0, 1.0) == 0.0

    def test_power_divides_exactly(self):
        base = closed_form(prob("exp(-x)"), 1.0, 0.0)
        quartered = closed_form(prob("exp(-x)", power=4.0), 1.0, 0.0)
        assert quartered == base / 4.0

    def test_limits_must_be_finite(self):
        with pytest.raises(ValueError):
            closed_form(prob("exp(-x)"), math.inf, 0.0)
        with pytest.raises(ValueError):
            closed_form(prob("exp(-x)"), 0.0, math.nan)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(2.0**-20, 2.0**20, allow_nan=False),
        b=st.floats(2.0**-20, 2.0**20, allow_nan=False),
        j=st.integers(-10, 10),
        f0=st.floats(-100.0, 100.0, allow_nan=False),
        finf=st.floats(-100.0, 100.0, allow_nan=False),
    )
    def test_scale_invariance_under_binary_rescaling(self, a, b, j, f0, finf):
        # multiplying both scales by 2^j shifts exponents only, so b/a and
        # the closed form are bitwise unchanged
        lam = 2.0**j
        v = closed_form(prob("exp(-x)", a=a, b=b), f0, finf)
        w = closed_form(prob("exp(-x)", a=a * lam, b=b * lam), f0, finf)
        assert v == w

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(1e-6, 1e6, allow_nan=False),
        b=st.floats(1e-6, 1e6, allow_nan=False),
        f0=st.floats(-100.0, 100.0, allow_nan=False),
        finf=st.floats(-100.0, 100.0, allow_nan=False),
    )
    def test_swap_antisymmetry_holds_everywhere(self, a, b, f0, finf):
        v = closed_form(prob("exp(-x)", a=a, b=b), f0, finf)
        w = closed_form(prob("exp(-x)", a=b, b=a), f0, finf)
        assert v == -w


class TestPipeline:
    def test_exponential_kernel_passes(self):
        rec = evaluate_pipeline(prob("exp(-x)"), 1e-8)
        assert rec.status == "PASS"
        assert rec.entry_id == "eval"
        assert rec.evaluations > 0 and rec.evaluations % 15 == 0
        assert rec.numeric == pytest.approx(math.log(2.0), abs=1e-8)
        assert "limits=probe" in rec.detail
        assert "exp(-x)" in rec.detail

    def test_equal_scales_pass_at_zero(self):
        rec = evaluate_pipeline(prob("exp(-x)", a=2.0, b=2.0), 1e-8)
        assert rec.status == "PASS"
        assert rec.expected == 0.0 and rec.numeric == 0.0

    def test_inapplicable_kernel_short_circuits(self):
        rec = evaluate_pipeline(prob("cos(x)"), 1e-6)
        assert rec.status == "NOT_APPLICABLE"
        assert math.isnan(rec.expected) and math.isnan(rec.numeric)
        assert "no-limit" in rec.detail
        assert rec.evaluations == 0

    def test_probe_accuracy_bounds_verification(self):
        # the expected value carries probe error around 1e-11, so verifying
        # far below that must FAIL honestly rather than round to agreement
        rec = evaluate_pipeline(prob("exp(-x)"), 1e-13)
        assert rec.status == "FAIL"
        assert rec.abs_error > 1e-13
        assert "limits=probe" in rec.detail
        assert "|closed - oracle|" in rec.detail

    def test_pole_in_integrand_is_oracle_failure(self):
        # 1/(x-3) probes finite at both ends but the oracle must cross the
        # pole at x = 3, which surfaces as an embedded failure, not a crash
        rec = evaluate_pipeline(prob("1/(x - 3)"), 1e-6)
        assert rec.status == "ORACLE_FAILED"
        assert "oracle" in rec.detail
        # the oracle raised, so no count reached the record
        assert "oracle raised" in rec.detail
        assert rec.evaluations == 0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            evaluate_pipeline(prob("exp(-x)"), 0.0)


def _kernel_cases():
    cases = []
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        if entry.kernel is None or entry.kernel_limits is None:
            continue
        for i, params in enumerate(entry.default_grid):
            cases.append(pytest.param(eid, dict(params), id=f"{eid}-grid{i}"))
    return cases


@pytest.mark.parametrize("eid,params", _kernel_cases())
def test_pipeline_agrees_with_catalog_closed_forms(eid, params):
    """Every catalog entry expressible as a single kernel must replay through
    the probe pipeline and land on the catalogued closed form."""
    entry = catalog.get_entry(eid)
    tree = parse(entry.kernel(params))
    a, b, power = entry.kernel_map(params)
    rec = evaluate_pipeline(FrullaniProblem(tree, a, b, power), 1e-6)
    assert rec.status == "PASS", rec.detail
    expected = entry.closed_form(params)
    assert abs(rec.numeric - expected) <= 1e-6
    # and the probe limits agree with the analytic pair
    f0, finf = entry.kernel_limits(params)
    assert abs(rec.expected - closed_form(FrullaniProblem(tree, a, b, power), f0, finf)) <= 1e-6
