"""Probe-then-verify engine: applicability, closed-form laws, pipeline."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from frullani import catalog, engine, expr
from frullani.engine import (
    ApplicabilityReport,
    FrullaniProblem,
    closed_form,
    diagnose,
    evaluate_pipeline,
)
from frullani.expr import (
    BinOp, Call, Const, Neg, UnboundVariableError, Var, compile_family, evaluate,
    parse, unparse,
)
from frullani.limits import ProbeError
from frullani.quadrature import QuadratureResult, integrate_decaying
from frullani.records import judge
from test_compiled_panels import _fields
from test_limits import _NO_LIMIT


def prob(src, a=1.0, b=2.0, power=1.0):
    return FrullaniProblem(parse(src), a, b, power)


def kernel(src):
    return compile_family(parse(src))({})[0]


def compiled(src):
    """The compiled kernel of src and the walk it was compiled from, the
    two arguments of diagnose."""
    family = compile_family(parse(src))
    return family({})[0], family.walk


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
        # the variable rule is compile_family's
        with pytest.raises(UnboundVariableError):
            prob("exp(-y)")
        with pytest.raises(UnboundVariableError) as info:
            prob("exp(-x) + y")
        assert info.value.name == "y"

    def test_compiled_kernel_is_left_out_of_equality_and_hash(self):
        # problems on one kernel share its compiled roles: compile it again
        # across a cleared table
        p = prob("exp(-x)")
        engine._kernels.clear()
        q = prob("exp(-x)")
        assert p.kernel is not q.kernel
        assert p.kernel(2.0) == math.exp(-2.0)
        assert p == q and hash(p) == hash(q)
        assert "kernel" not in repr(p) and "integrand" not in repr(p)
        assert "tail" not in repr(p)
        assert p.integrand(1.0) == math.exp(-1.0) - math.exp(-2.0)
        assert p.tail(0.25)(1.0) == math.exp(-math.e) - 0.25
        assert p != prob("exp(-2*x)")

    def test_rejects_constant_kernels(self):
        # a kernel without x has f(ax) = f(bx) identically; reject upfront
        with pytest.raises(ValueError):
            prob("3 + 4")


class TestDiagnose:
    def test_decaying_kernel_is_applicable(self):
        rep = diagnose(*compiled("exp(-x)"))
        assert isinstance(rep, ApplicabilityReport)
        assert rep.applicable
        assert rep.verdict_at_zero.value == pytest.approx(1.0, abs=1e-9)
        assert rep.verdict_at_infinity.value == pytest.approx(0.0, abs=1e-9)
        assert rep.reason == "both limits finite"

    def test_oscillatory_kernel_is_rejected_at_infinity(self):
        rep = diagnose(*compiled("cos(x)"))
        assert not rep.applicable
        assert "at infinity" in rep.reason
        assert "no-limit" in rep.reason

    def test_log_cosine_kernel_is_rejected(self):
        rep = diagnose(*compiled("ln(1 + 2*0.5*cos(x) + 0.25)"))
        assert not rep.applicable
        assert "no-limit" in rep.reason

    def test_divergent_kernel_is_rejected_at_zero(self):
        rep = diagnose(*compiled("1/x"))
        assert not rep.applicable
        assert "at 0+" in rep.reason
        assert "diverges" in rep.reason

    def test_compound_interest_kernel(self):
        rep = diagnose(*compiled("(1 + 1/x)^x"))
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

    def test_scale_ratio_off_the_doubles(self):
        # b/a = 1e600 overflows; ln b - ln a does not
        v = closed_form(prob("exp(-x)", a=1e-300, b=1e300), 1.0, 0.0)
        w = closed_form(prob("exp(-x)", a=1e300, b=1e-300), 1.0, 0.0)
        assert v == -w == math.log(1e300) - math.log(1e-300)

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
        assert rec.detail.startswith("f0=1.0 (tree) finf=")
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
        # the expected value carries the probe's f(inf), here -5.8e-11, so
        # verifying far below that must FAIL honestly rather than round to
        # agreement
        rec = evaluate_pipeline(prob("1/(1+x)"), 1e-13)
        assert rec.status == "FAIL"
        assert rec.abs_error > 1e-13
        assert rec.detail.startswith("f0=1.0 (tree) finf=")
        assert " (probe) oracle=" in rec.detail
        assert "|closed - oracle|" in rec.detail

    def test_tree_f0_is_exact(self):
        # the tree reads exp(-x) at 0+ as exactly 1, where the probe read
        # 1.0000000000291, and the probe's f(inf) is within 1e-13 of 0
        rec = evaluate_pipeline(prob("exp(-x)"), 1e-13)
        assert rec.status == "PASS"
        assert rec.detail.startswith("f0=1.0 (tree) finf=")

    def test_pole_in_integrand_is_oracle_failure(self):
        # 1/(x-3) probes finite at both ends but the oracle must cross the
        # pole of the integrand's f(2x) at x = 1.5, which surfaces as an
        # embedded failure, not a crash: the plain head bisects towards it
        # until a node lands on it, and the record names that node
        rec = evaluate_pipeline(prob("1/(x - 3)"), 1e-6)
        assert rec.status == "ORACLE_FAILED"
        assert rec.detail.endswith(
            "oracle raised: integrand raised DomainError('/ undefined at argument 0.0') at x = 1.5"
        )

    def test_node_on_a_pole_names_its_abscissa(self):
        # the centre of the head's first panel, c/2 = pi/4, is the pole of
        # f(2x): evaluate's DomainError is wrapped with the node, as any
        # other raising node is
        rec = evaluate_pipeline(prob(f"1/(x - {math.pi / 2!r})"), 1e-6)
        assert rec.status == "ORACLE_FAILED"
        assert rec.detail.endswith(
            "oracle raised: integrand raised DomainError('/ undefined at argument 0.0') "
            f"at x = {math.pi / 4!r}"
        )

    @pytest.mark.xfail(strict=True, reason="the split route samples f only on (0, pi]")
    @pytest.mark.parametrize("src", ["1/(x - 10)", "exp(-x)/(x - 10)"])
    def test_pole_beyond_the_oracle_samples_is_not_a_pass(self, src):
        # the pole at x = 10 leaves the integral undefined, but the probe
        # reads finite limits at both ends, and the oracle samples f only on
        # (0, pi], the head's a x and b x and the kernel piece: a confident
        # wrong PASS
        rec = evaluate_pipeline(prob(src), 1e-6)
        assert rec.status != "PASS"

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            evaluate_pipeline(prob("exp(-x)"), 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            evaluate_pipeline(FrullaniProblem(parse("exp(-x)"), 1, 2), tol)

    @pytest.mark.parametrize("src, a, b, power, numeric, evaluations", [
        # M from the tree: Frullani's substitution, with a plain head on
        # (0, c], or, where its first bisection finds the integrand
        # singular at 0, as sqrt(x)'s, 45 evaluations and then the head
        # graded, x = u^4, on (0, c^(1/4)]
        ("1.2*exp(-x)+0.7", 1.3, 2.9, 1.0, "0x1.ecf6302eeef0ep-1", 30),
        ("sqrt(x)/(1+sqrt(x))", 1.35394, 7.95975, 0.930343, "-0x1.e76cf1550d8b3p+0", 45 + 15 + 15),
        ("sqrt(x)/(1+sqrt(x))", 0.764035, 2.74109, 0.225619, "-0x1.6a614c5082a21p+2", 45 + 45 + 15),
        ("cos(x)/(1+x)", 1.0, 2.0, 1.0, "0x1.62e42fefa39f3p-1", 60),
        ("abs(sin(x))/x", 1.0, 2.0, 1.0, "0x1.62e42fefa39eep-1", 30),
        # 1^inf: the tree reads M = e^2.5 from (1+c/x)^x = exp(x ln(1+c/x))
        ("(1+2.5/x)^x", 0.8, 3.1, 1.0, "-0x1.e4b5da08fd120p+3", 135),
    ])
    def test_oracle_arithmetic_is_pinned(self, src, a, b, power, numeric, evaluations):
        # the compiled integrand must do the arithmetic of
        # (f(a*x) - f(b*x)) / x in that order, bit for bit
        rec = evaluate_pipeline(prob(src, a, b, power), 1e-6)
        assert rec.status == "PASS"
        assert rec.numeric.hex() == numeric
        assert rec.evaluations == evaluations

    @pytest.mark.parametrize("src, route", [
        ("exp(-x)", "oracle=frullani M=0.0 (tree)"),
        ("atan(x)", "oracle=frullani M=1.5707963267948966 (tree)"),
        ("(1+2.5/x)^x", "oracle=frullani M=12.182493960703473 (tree)"),
        # the quotient carries no next term, so ((x+c)/x)^x stays 1^inf
        ("((x+2.5)/x)^x", "oracle=decaying map (tree undetermined)"),
    ])
    def test_record_names_its_oracle(self, src, route):
        rec = evaluate_pipeline(prob(src), 1e-13)
        assert rec.detail.startswith("f0=")
        assert " (tree) finf=" in rec.detail and " (probe) oracle=" in rec.detail
        assert f" {route} kernel=" in rec.detail

    def test_a_new_kernel_shape_compiles_one_builder(self):
        # the kernel, its integrand and its log-tail are three roles of one
        # compiled family: a shape not seen before adds one builder
        expr._builder.cache_clear()
        rec = evaluate_pipeline(prob("1.2*exp(-x)+0.7"), 1e-6)
        assert rec.status == "PASS" and "oracle=frullani" in rec.detail
        assert expr._builder.cache_info().currsize == 1

    @pytest.mark.parametrize("src", ["atan(x)", "(1+2.5/x)^x"])
    def test_a_request_walks_its_tree_once(self, src, monkeypatch):
        # the tree pass reads the walk the compiled family was made from
        walks = []

        def counted(*args):
            walks.append(args)
            return real(*args)

        real = expr._shape
        monkeypatch.setattr(expr, "_shape", counted)
        rec = evaluate_pipeline(prob(src), 1e-6)
        assert "(tree" in rec.detail
        assert len(walks) == 1

    @pytest.mark.parametrize("src", [
        "exp(-x)", "atan(x)", "ln(1+x)/x", "sqrt(x)/(1+sqrt(x))", "(1+2.5/x)^x",
        "((x+2.98)/(x+0.23))^2.8", "sqrt(abs(x-0.5)-0.1)*exp(-x)",
    ])
    def test_a_tree_decided_f0_is_not_probed(self, src, monkeypatch):
        def refuse(kernel):
            raise AssertionError("probed at 0+")

        monkeypatch.setattr(engine, "limit_at_zero_plus", refuse)
        rec = evaluate_pipeline(prob(src), 1e-6)
        assert rec.detail.startswith("f0=")
        assert " (tree) finf=" in rec.detail

    @pytest.mark.parametrize("src, status, detail", [
        ("1/x", "NOT_APPLICABLE", "at 0+: diverges(+inf)"),
        # exp(-x) and exp(-2x) cancel at their leading term, 1, so the tree
        # is silent at 0+, and the probe reads f(0+)
        ("(exp(-x) - exp(-2*x))/x", "PASS", "f0=1.0000000001600755 (probe) finf="),
    ])
    def test_a_silent_tree_probes_at_zero(self, src, status, detail, monkeypatch):
        real, probed = engine.limit_at_zero_plus, []

        def counted(kernel):
            probed.append(kernel)
            return real(kernel)

        monkeypatch.setattr(engine, "limit_at_zero_plus", counted)
        rec = evaluate_pipeline(prob(src), 1e-6)
        assert rec.status == status
        assert rec.detail.startswith(detail)
        assert len(probed) == 1

    def test_tree_f0_mends_the_probes_misread(self):
        # the probe read f(0+) of this ratio-power kernel 1.06e-7 off, and
        # the record FAILed at 2.6e-6; the tree reads (2.98/0.23)^2.8
        rec = evaluate_pipeline(prob("((x+2.98)/(x+0.23))^2.8", 0.637564, 2.41344, 0.0535707), 1e-6)
        assert rec.status == "PASS"
        assert rec.abs_error < 1e-8
        assert rec.detail.startswith(f"f0={(2.98 / 0.23) ** 2.8!r} (tree) finf=")

    def test_tree_limit_is_not_the_probe_limit(self, monkeypatch):
        # a wrong M from the tree shows as FAIL against the probe's closed
        # form; the oracle never reads the probe's f(inf)
        monkeypatch.setattr(engine, "tree_limit", lambda walk: 0.5)
        rec = evaluate_pipeline(prob("exp(-x)"), 1e-6)
        assert rec.status == "FAIL"
        assert rec.numeric == pytest.approx(math.log(2.0) - 0.5 * math.log(2.0), abs=1e-6)


# undetermined by the tree, through its ((x+1)/x)^x factor, which tends to
# e: the quotient rule carries no next term, so the factor stays 1^inf
_SLOW_COS = "cos(x)*((x+1)/x)^x/(1+x)"


def _full_budget(src, a, b, tol, p=1.0):
    """The oracle result of one full-budget integrate_decaying call, as the
    pipeline's power-1 integrand and tolerance share make it."""
    f = kernel(src)
    return integrate_decaying(lambda x: (f(a * x) - f(b * x)) / x, tol * 0.25 * p)


class TestOracleBudget:
    """Where the tree leaves f(inf) undetermined, the pipeline's oracle is
    one integrate_decaying call with the full 2000-panel budget."""

    def test_no_limit_at_t_one_runs_the_full_budget(self):
        rec = evaluate_pipeline(prob(_SLOW_COS, a=1.3, b=2.7), 1e-6)
        assert rec.status == "ORACLE_FAILED"
        # 2000 panels: the first panel and 1999 bisections of 30 evaluations
        assert rec.evaluations == 59985
        assert "oracle=decaying map (tree undetermined)" in rec.detail
        assert rec.detail.endswith("oracle did not converge: panel cap of 2000 panels reached")

    @pytest.mark.parametrize("src, tol", [
        # x [f(ax) - f(bx)] has no limit at infinity, yet the full budget
        # meets the tolerance
        pytest.param(_SLOW_COS, 3e-3, id="slow-cos-0.003"),
        pytest.param("abs(sin(x))*((x+1)/x)^x/x", 1e-2, id="slow-abs-sin-0.01"),
        # a finite far limit
        pytest.param("cos(x)*((x+1)/x)^x/(1+x)^2", 1e-6, id="slow-cos-squared-1e-06"),
    ])
    def test_rerun_matches_one_full_budget_call(self, src, tol):
        rec = evaluate_pipeline(prob(src, a=1.3, b=2.7), tol)
        full = _full_budget(src, 1.3, 2.7, tol)
        assert full.converged
        assert rec.status == "PASS"
        assert (rec.numeric, rec.oracle_error, rec.evaluations) == (
            full.value, full.error_estimate, full.function_evaluations
        )

    def test_power_divides_the_first_pass_result(self):
        src, a, b, p, tol = "((x+1)/x)^x*exp(-x)", 1.35394, 7.95975, 0.930343, 1e-6
        full = _full_budget(src, a, b, tol, p)
        rec = evaluate_pipeline(prob(src, a, b, p), tol)
        assert full.converged and rec.status == "PASS"
        assert (rec.numeric, rec.oracle_error, rec.evaluations) == (
            full.value / p, full.error_estimate / p, full.function_evaluations
        )
        assert rec.detail.startswith("f0=1.0 (tree) finf=")
        assert rec.detail.endswith(f"oracle=decaying map (tree undetermined) kernel={unparse(parse(src))}")

    def test_oracle_runs_no_far_probe(self, monkeypatch):
        # the one probe at infinity is diagnose's, of the kernel itself
        real = engine.limit_at_infinity
        probed = []

        def counted(fn):
            probed.append(fn)
            return real(fn)

        monkeypatch.setattr(engine, "limit_at_infinity", counted)
        rec = evaluate_pipeline(prob(_SLOW_COS, a=1.3, b=2.7), 1e-6)
        assert rec.status == "ORACLE_FAILED"
        assert len(probed) == 1


# the 8 pipeline-kernels family texts, then its special kernels
_FAMILY_AND_SPECIAL = (
    "1.5*exp(-x)+0.5", "atan(2.3*x)", "ln(1.2+0.8*exp(-x))", "(x+1.5)^(-1.2)",
    "((x+0.5)/(x+2.0))^1.5", "(1+4.4/x)^x", "sqrt(x)/(1+sqrt(x))", "ln(1+x)/x",
    "sin(x)", "ln(1+x)", "cos(x)", "exp(x)", "x", "1/x",
    "1/(1+x^0.1)", "1/(1+x^0.15)", "1/(1+x^0.2)", "cos(x)/(1+x)", "abs(sin(x))/x",
)


def _refuse_the_miss_path(monkeypatch):
    """Make the table's miss path raise: compile_family, diagnose and
    tree_limit, as engine calls them."""
    def refuse(*args):
        raise AssertionError("a kept kernel ran its miss path")

    for name in ("compile_family", "diagnose", "tree_limit"):
        monkeypatch.setattr(engine, name, refuse)


class TestKernelTable:
    """The engine's one table of kernels: each kept kernel's compiled family
    and, from the first evaluate_pipeline call on it, its diagnosis."""

    def test_a_warm_table_gives_the_cold_records(self, monkeypatch):
        def record(text):
            return _fields(evaluate_pipeline(prob(text, 0.7, 3.1, 0.5), 1e-6))

        cold = []
        for text in _FAMILY_AND_SPECIAL:
            engine._kernels.clear()
            expr.parse.cache_clear()
            cold.append(record(text))
        # the table fills on another binding, then serves every kernel
        for text in _FAMILY_AND_SPECIAL:
            evaluate_pipeline(prob(text), 1e-6)
        _refuse_the_miss_path(monkeypatch)
        assert [record(text) for text in _FAMILY_AND_SPECIAL] == cold

    def test_a_text_that_left_the_parse_cache_finds_its_kernel(self, monkeypatch):
        # parse gives an equal but distinct tree once its text has left the
        # cache; the table takes it for the kept kernel by == and repr
        def record(text):
            return _fields(evaluate_pipeline(prob(text), 1e-6))

        first = {text: (parse(text), record(text)) for text in _FAMILY_AND_SPECIAL}
        expr.parse.cache_clear()
        _refuse_the_miss_path(monkeypatch)
        for text, (tree, want) in first.items():
            again = parse(text)
            assert again == tree and again is not tree
            assert record(text) == want

    def test_negative_zero_is_not_zero(self):
        # == and hash() do not tell the two trees apart; the table does
        zero = prob("x*0.0")
        tree = BinOp("*", Var("x"), Const(-0.0))
        assert tree == zero.f and hash(tree) == hash(zero.f)
        negative = FrullaniProblem(tree, 1.0, 2.0)
        assert math.copysign(1.0, negative.walk[1][0]) == -1.0
        assert math.copysign(1.0, negative.kernel(1.0)) == -1.0
        assert math.copysign(1.0, zero.walk[1][0]) == 1.0
        assert math.copysign(1.0, prob("x*0.0").kernel(1.0)) == 1.0

    def test_the_table_keeps_at_most_128_kernels(self):
        for i in range(1, 201):
            prob(f"exp(-{i}*x)")
        assert len(engine._kernels) == 128

    def test_the_least_recently_used_kernel_goes_first(self):
        for i in range(1, 129):
            prob(f"exp(-{i}*x)")
        prob("exp(-1*x)")
        prob("exp(-129*x)")
        assert parse("exp(-1*x)") in engine._kernels
        assert parse("exp(-2*x)") not in engine._kernels

    def test_a_probe_that_raised_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(ProbeError):
                evaluate_pipeline(prob("ln(x - 1)"), 1e-6)
        assert engine._kernels[parse("ln(x - 1)")].diagnosis is None

    @pytest.mark.parametrize("src, error", [("x*y", UnboundVariableError), ("3 + 4", ValueError)])
    def test_a_kernel_that_raised_is_not_kept(self, src, error):
        for _ in range(2):
            with pytest.raises(error):
                prob(src)
        assert not engine._kernels


class TestJudge:
    """records.judge, the one verdict step of the catalog and the pipeline."""

    RESULT = QuadratureResult(0.1, 3e-10, 45, True)

    def oracle(self, calls):
        def run(share):
            calls.append(share)
            return self.RESULT
        return run

    @pytest.mark.parametrize("closed, cause", [
        (lambda: math.exp(1000.0), "math range error"),
        (lambda: math.inf, "inf"),
        (lambda: -math.inf, "-inf"),
        (lambda: math.nan, "nan"),
    ])
    def test_closed_form_off_the_doubles_never_calls_the_oracle(self, closed, cause):
        calls = []
        rec = judge("X", {}, closed, self.oracle(calls), 1e-6, 0.0, "limits=probe")
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert rec.detail == f"closed form is not a finite double at this binding: {cause}"
        assert math.isnan(rec.expected) and rec.evaluations == 0
        assert calls == []

    def test_power_one_keeps_the_oracles_bits(self):
        calls = []
        rec = judge("X", {}, lambda: 0.1, self.oracle(calls), 1e-6, 0.0)
        assert calls == [1e-6 * 0.25]
        assert rec.status == "PASS"
        assert rec.numeric == self.RESULT.value
        assert rec.oracle_error == self.RESULT.error_estimate
        assert rec.evaluations == 45

    @pytest.mark.parametrize("power", [3.0, 0.05, 7.5])
    def test_power_divides_value_and_estimate(self, power):
        calls = []
        expected = self.RESULT.value / power
        rec = judge("X", {}, lambda: expected, self.oracle(calls), 1e-6, 0.0, power=power)
        assert calls == [1e-6 * 0.25 * power]
        assert rec.status == "PASS"
        assert rec.numeric == self.RESULT.value / power
        assert rec.oracle_error == self.RESULT.error_estimate / power
        assert rec.abs_error == 0.0

    def test_underflowed_tolerance_is_named(self):
        calls = []
        rec = judge("X", {}, lambda: 1.0, self.oracle(calls), 1e-30, 0.0, "p", 1e-300)
        assert rec.status == "ORACLE_FAILED"
        assert rec.detail == (
            "p; oracle raised: oracle tolerance tol*power/4 = 1e-30*1e-300/4 underflows to 0.0"
        )
        assert calls == []


def _kernel_cases():
    cases = []
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        if eid in _NO_LIMIT:  # the pipeline declines these
            continue
        for i, params in enumerate(entry.default_grid):
            cases.append(pytest.param(eid, dict(params), id=f"{eid}-grid{i}"))
    return cases


# the one entry whose kernel takes x^p, in its parameter p
_POWER = {"GR-3.476.1": "p"}


def _bound(tree, params):
    """tree with each parameter replaced by its value: a kernel in x alone."""
    if isinstance(tree, Var):
        return Const(params[tree.name]) if tree.name in params else tree
    if isinstance(tree, Neg):
        return Neg(_bound(tree.operand, params))
    if isinstance(tree, Call):
        return Call(tree.func, _bound(tree.arg, params))
    if isinstance(tree, BinOp):
        return BinOp(tree.op, _bound(tree.left, params), _bound(tree.right, params))
    return tree


@pytest.mark.parametrize("eid,params", _kernel_cases())
def test_pipeline_agrees_with_catalog_closed_forms(eid, params):
    """Every catalog entry expressible as a single kernel must replay through
    the probe pipeline and land on the catalogued closed form."""
    entry = catalog.get_entry(eid)
    tree = _bound(parse(entry.kernel), params)
    a, b = (evaluate(parse(text), params) for text in entry.scales)
    power = params[_POWER[eid]] if eid in _POWER else 1.0
    rec = evaluate_pipeline(FrullaniProblem(tree, a, b, power), 1e-6)
    assert rec.status == "PASS", rec.detail
    expected = entry.closed_form(params)
    assert abs(rec.numeric - expected) <= 1e-6
    # and the closed form from the probed limits is the printed one
    assert abs(rec.expected - expected) <= 1e-6
