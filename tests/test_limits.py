"""Limit classifier: finite, divergent, and oscillatory verdicts; the tree
pass at infinity."""

import math
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frullani import catalog
from frullani.expr import BinOp, Const, compile_kernel, parse, substitute
from frullani.limits import (
    LimitVerdict,
    ProbeError,
    _aitken,
    limit_at_infinity,
    limit_at_zero_plus,
    tree_limit_at_infinity,
)
from test_cli import _FUZZ_KERNELS

# the benchmark's input generator, for its kernels and their limits
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402


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


@pytest.mark.parametrize("probe", [limit_at_zero_plus, limit_at_infinity])
def test_infinite_window_of_one_sign_diverges(probe):
    # exp(1000) saturates to inf in the compiled kernel, so every sample
    # is +inf
    v = probe(compile_kernel(parse("exp(1000)+0*x")))
    assert v.kind == "diverges"
    assert v.direction == 1


def test_infinite_window_of_both_signs_has_no_limit():
    v = limit_at_infinity(compile_kernel(parse("exp(1000)*cos(x)")))
    assert v.kind == "no-limit"
    assert v.amplitude == math.inf
    assert v.describe() == "no-limit(amplitude=inf)"


def test_window_below_the_tolerance_is_finite_without_agreement():
    # the wobble of 1e-15 keeps successive extrapolants from agreeing, so
    # the probe runs the whole ladder and reads the value after it
    v = limit_at_infinity(compile_kernel(parse("1 + 1e-15*cos(x)")))
    assert v.is_finite
    assert v.value == 1.0000000000000009
    assert len(v.evidence) == 60


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


@pytest.mark.parametrize("scale", [2e12, 1e13, 1e200])
def test_bounded_kernel_above_the_guard_is_finite(scale):
    # the guard scales with the first sample: |f| rising to its bound
    # scale is not divergence
    v = limit_at_zero_plus(lambda x: scale / (1.0 + x))
    assert v.is_finite
    assert v.value == pytest.approx(scale, rel=1e-9)


@pytest.mark.parametrize("f", [
    lambda x: 1e200 * x / (1.0 + x),
    lambda x: 1e200 * math.atan(x),
    lambda x: 1e308 * x,
], ids=["1e200*x/(1+x)", "1e200*atan(x)", "1e308*x"])
def test_large_constant_times_a_vanishing_kernel_is_finite_at_zero(f):
    # the differences of the first samples square past the largest double
    v = limit_at_zero_plus(f)
    assert v.is_finite
    assert v.value == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=3, max_size=3))
def test_aitken_step_keeps_its_bits_where_the_square_is_finite(s):
    s0, s1, s2 = s
    d1, d2 = s1 - s0, s2 - s1
    a = _aitken(s0, s1, s2)
    if a is not None and d2 != d1:
        assert a == s2 - d2 * d2 / (d2 - d1)


def test_growth_past_a_scaled_guard_still_diverges():
    v = limit_at_zero_plus(lambda x: 1e13 / x)
    assert v.kind == "diverges"
    assert v.direction == 1


# ------------------------------------------------------------- the tree pass

def _within_4_ulp(value, exact):
    return value is not None and abs(value - exact) <= 4 * math.ulp(exact)


# the constants of the pipeline-kernels generator's families; at c = 1.0,
# ln(1.0 + d*exp(-x)) is the log of a limit of exactly 1
_CONSTANTS = [(0.2, 5.0, 0.5), (0.73, 1.41, 1.7), (1.0, 2.64, 3.6), (2.35, 0.3, 3.0), (5.0, 5.0, 2.2)]
_DECIDED_FAMILIES = ("exp-affine", "atan", "log-exp", "shifted-power", "ratio-power",
                     "sqrt-ratio", "log-ratio")


@pytest.mark.parametrize("family", _DECIDED_FAMILIES)
@pytest.mark.parametrize("c, d, m", _CONSTANTS)
def test_tree_gives_the_generators_limit(family, c, d, m):
    text, _, finf = workloads._kernel_family(family, c, d, m)
    assert _within_4_ulp(tree_limit_at_infinity(parse(text)), finf), text


@pytest.mark.parametrize("kind", ["slow-drift", "oscillatory-finite"])
def test_tree_gives_the_special_kernels_limit(kind):
    texts, (_, finf) = workloads._SPECIAL_KERNELS[kind]
    for text in texts:
        assert tree_limit_at_infinity(parse(text)) == finf, text


def _catalog_kernels():
    cases = []
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        if entry.kernel_limits is None:
            continue
        for i, params in enumerate(entry.default_grid):
            cases.append(pytest.param(entry, dict(params), id=f"{eid}-grid{i}"))
    return cases


@pytest.mark.parametrize("entry, params", _catalog_kernels())
def test_tree_gives_the_catalogs_declared_limit(entry, params):
    tree = parse(entry.kernel)
    for name, value in params.items():
        tree = substitute(tree, name, Const(value))
    finf = entry.kernel_limits(params)[1]
    assert _within_4_ulp(tree_limit_at_infinity(tree), finf)


@pytest.mark.parametrize("text", [
    "(1+4.4/x)^x",  # 1^inf
    "x*ln(1+1/x)",  # x times o(1)
    "exp(-800+exp(-x))",  # exp of a finite limit, underflowing to 0
    "sin(x)",
    "cos(x)",
    "x",
    "exp(x)",
    "ln(1+x)",
    "exp(1000)+0*x",  # a constant off the doubles
    "(x+1)-(x+2)",  # leading terms that cancel
])
def test_tree_leaves_undetermined(text):
    assert tree_limit_at_infinity(parse(text)) is None


@pytest.mark.parametrize("text, limit", [
    ("2", 2.0),
    ("ln(1.0+0.5*exp(-x))", 0.0),  # the log of a limit of exactly 1 is o(1)
    ("((x+1)-(x+2))/x", 0.0),  # o(x)/x
    ("(expm1(-2*x) - expm1(-x))/x", 0.0),  # leading terms cancel at order 1
    ("exp(x*log1p(2.5/x))", math.exp(2.5)),
    ("x^(-x)", 0.0),
    ("x*exp(-exp(x))", 0.0),
    ("1/ln(2.718281828+x)", 0.0),
    ("atan(-x^2)", -0.5 * math.pi),
    ("expm1(-sqrt(x))", -1.0),
    ("exp(-ln(x)^0.5)", 0.0),
])
def test_tree_decides(text, limit):
    assert tree_limit_at_infinity(parse(text)) == limit


def test_tree_walk_is_not_bounded_by_the_recursion_limit():
    # 1/(1 + 1/(1 + ... 1/(1 + x))), deeper than Python's recursion limit:
    # its limit is the continued fraction's convergent, near 1/golden ratio
    tree = parse("x")
    for _ in range(3 * sys.getrecursionlimit()):
        tree = BinOp("/", Const(1.0), BinOp("+", Const(1.0), tree))
    assert tree_limit_at_infinity(tree) == pytest.approx(2.0 / (1.0 + math.sqrt(5.0)), rel=1e-15)


def _agrees_with_the_probe(text):
    """The tree against a probe verdict whose samples settled: where both
    give a value, they agree to 1e-6 relative to max(1, |limit|)."""
    tree = tree_limit_at_infinity(parse(text))
    if tree is None:
        return True
    verdict = limit_at_infinity(compile_kernel(parse(text)))
    if not (verdict.is_finite and verdict.uncertainty < 1e-9):
        return True
    return abs(tree - verdict.value) <= 1e-6 * max(1.0, abs(tree))


def test_tree_agrees_with_the_probe_on_the_fuzz_corpus():
    assert [text for text in _FUZZ_KERNELS if not _agrees_with_the_probe(text)] == []


@pytest.mark.parametrize("seed", range(4))
def test_tree_agrees_with_the_probe_on_the_pipeline_workload(seed):
    texts = {req.kernel for req in workloads.pipeline_kernels(seed).requests}
    assert sorted(text for text in texts if not _agrees_with_the_probe(text)) == []
