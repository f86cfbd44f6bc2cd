"""Limit classifier: finite, divergent, and oscillatory verdicts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from frullani.limits import (
    LimitVerdict,
    ProbeError,
    limit_at_infinity,
    limit_at_zero_plus,
)


def test_exp_decay_at_zero_is_one():
    v = limit_at_zero_plus(lambda x: math.exp(-x))
    assert v.is_finite
    assert v.value == pytest.approx(1.0, abs=1e-9)


def test_exp_decay_at_infinity_is_zero():
    v = limit_at_infinity(lambda x: math.exp(-x))
    assert v.is_finite
    assert v.value == pytest.approx(0.0, abs=1e-9)


def test_compound_interest_limit_is_e():
    v = limit_at_infinity(lambda x: (1.0 + 1.0 / x) ** x)
    assert v.is_finite
    assert v.value == pytest.approx(math.e, abs=1e-6)


def test_sinc_at_zero_is_one():
    v = limit_at_zero_plus(lambda x: math.sin(x) / x)
    assert v.is_finite
    assert v.value == pytest.approx(1.0, abs=1e-9)


def test_exponential_difference_quotient_at_zero():
    # (e^{-x} - e^{-3x})/x -> 2 as x -> 0+
    v = limit_at_zero_plus(lambda x: (math.exp(-x) - math.exp(-3.0 * x)) / x)
    assert v.is_finite
    assert v.value == pytest.approx(2.0, abs=1e-6)


def test_log_diverges_at_infinity():
    v = limit_at_infinity(math.log)
    assert v.kind == "diverges"
    assert v.direction == 1


def test_reciprocal_diverges_at_zero():
    v = limit_at_zero_plus(lambda x: 1.0 / x)
    assert v.kind == "diverges"
    assert v.direction == 1


def test_negative_reciprocal_diverges_down():
    v = limit_at_zero_plus(lambda x: -1.0 / x)
    assert v.kind == "diverges"
    assert v.direction == -1


def test_cosine_has_no_limit_at_infinity():
    v = limit_at_infinity(math.cos)
    assert v.kind == "no-limit"
    assert v.amplitude > 0.1


def test_log_cosine_kernel_has_no_limit_at_infinity():
    # ln(1 + 2a cos x + a^2) at a = 0.5 keeps oscillating forever
    v = limit_at_infinity(lambda x: math.log1p(math.cos(x) + 0.25))
    assert v.kind == "no-limit"


def test_probe_failure_reports_abscissa():
    # oscillates forever on the ladder, so the probe keeps sampling and
    # eventually reaches the failing region
    def f(x):
        if x < 1e-6:
            raise ValueError("went too small")
        return math.cos(math.log(x))

    with pytest.raises(ProbeError) as info:
        limit_at_zero_plus(f)
    assert info.value.abscissa < 1e-6


def test_nan_sample_is_a_probe_error():
    with pytest.raises(ProbeError):
        limit_at_infinity(lambda x: math.nan)


def test_constant_function():
    v = limit_at_infinity(lambda x: 4.25)
    assert v.is_finite
    assert v.value == 4.25


def test_describe_mentions_kind():
    assert "finite" in limit_at_infinity(lambda x: 0.0).describe()
    assert "diverges" in limit_at_infinity(math.log).describe()
    assert "no-limit" in limit_at_infinity(math.cos).describe()


def test_verdict_constructors():
    f = LimitVerdict.finite(1.0, 1e-12)
    assert f.is_finite and f.value == 1.0
    d = LimitVerdict.diverges(-1)
    assert d.kind == "diverges" and not d.is_finite
    n = LimitVerdict.no_limit(2.0)
    assert n.kind == "no-limit" and n.amplitude == 2.0


def test_evidence_holds_the_default_ladder():
    """Both probes sample the one fixed plan, 0.5**k and 2.0**k for
    k = 0 .. 59, and the evidence holds exactly the samples taken."""
    calls = []

    def f(x):
        calls.append(x)
        return 0.0

    v = limit_at_infinity(f)
    assert calls == [2.0**k for k in range(len(calls))]
    assert v.evidence == tuple((x, 0.0) for x in calls)

    # an undamped oscillation never settles, so the whole ladder is sampled
    v = limit_at_infinity(math.cos)
    assert [x for x, _ in v.evidence] == [2.0**k for k in range(60)]
    v = limit_at_zero_plus(lambda x: math.cos(1.0 / x))
    assert [x for x, _ in v.evidence] == [0.5**k for k in range(60)]


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(-1e3, 1e3, allow_nan=False),
    d=st.floats(-1e3, 1e3, allow_nan=False),
)
def test_recovers_shifted_exponential_plateau(c, d):
    """f(x) = c + d e^{-x} settles to c on the geometric ladder."""
    v = limit_at_infinity(lambda x: c + d * math.exp(-x))
    assert v.is_finite
    assert abs(v.value - c) <= 1e-6 * max(1.0, abs(c))


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(-1e3, 1e3, allow_nan=False),
    d=st.floats(-1e3, 1e3, allow_nan=False),
)
def test_recovers_linear_value_at_zero(c, d):
    """Aitken is exact for c + d x sampled on x0 * shrink^k."""
    v = limit_at_zero_plus(lambda x: c + d * x)
    assert v.is_finite
    assert abs(v.value - c) <= 1e-9 * max(1.0, abs(c))
