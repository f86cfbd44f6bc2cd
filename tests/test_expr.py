"""Parser, evaluator, and unparser for the kernel expression language."""

import contextlib
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frullani import expr
from frullani.expr import (
    BinOp,
    Call,
    Const,
    DomainError,
    EvaluationError,
    FUNCTIONS,
    MAX_DEPTH,
    Neg,
    ParseError,
    UnboundVariableError,
    Var,
    compile_family,
    compile_kernel,
    evaluate,
    parse,
    substitute,
    unparse,
)
from frullani.quadrature import integrate_adaptive
from reference import reference_graded, reference_panel


def ev(src, **bindings):
    return evaluate(parse(src), bindings)


class TestParsePrecedence:
    def test_addition_binds_loosest(self):
        assert ev("1 + 2*3") == 7.0

    def test_power_binds_tighter_than_product(self):
        assert ev("2*3^2") == 18.0

    def test_power_is_right_associative(self):
        assert ev("x^2^3", x=2.0) == 256.0  # 2^(2^3), not (2^2)^3

    def test_unary_minus_applies_after_power(self):
        assert ev("-x^2", x=3.0) == -9.0

    def test_negative_exponent_allowed(self):
        assert ev("2^-2") == 0.25

    def test_subtraction_left_associative(self):
        assert ev("1 - 2 - 3") == -4.0

    def test_division_left_associative(self):
        assert ev("8/4/2") == 1.0

    def test_parens_override(self):
        assert ev("(1 + 2)*3") == 9.0

    def test_whitespace_is_insignificant(self):
        assert parse(" 1+ 2 * x ") == parse("1 + 2*x")

    def test_scientific_notation(self):
        assert ev("1.5e-3") == 1.5e-3
        assert ev("2e2") == 200.0


class TestParseErrors:
    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as info:
            parse("2x")
        assert "implicit multiplication" in str(info.value)
        assert info.value.offset == 1

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse("(1 + 2")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'tanh'"):
            parse("tanh(x)")

    def test_function_requires_call(self):
        with pytest.raises(ParseError, match="must be called"):
            parse("sin + 1")

    def test_bare_dot_number(self):
        with pytest.raises(ParseError, match="leading digit"):
            parse(".5")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="unexpected end"):
            parse("")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("1 +")

    def test_overflowing_literal_rejected_at_its_offset(self):
        # repr(inf) is "inf", which would reparse as a variable
        with pytest.raises(ParseError, match="overflows") as info:
            parse("atan(1e999)")
        assert info.value.offset == 5
        with pytest.raises(ParseError):
            parse("x*" + "9" * 400)

    def test_underflowing_literal_is_zero(self):
        assert parse("1e-999") == Const(0.0)

    def test_offset_is_within_source(self):
        for bad in ["2x", "(", "1 + * 2", "sin(x", "x @ y"]:
            with pytest.raises(ParseError) as info:
                parse(bad)
            assert 0 <= info.value.offset <= len(bad)

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "x" + ")" * n,
        lambda n: "abs(" * n + "x" + ")" * n,
        lambda n: "-" * n + "x",
        lambda n: "x" + "^x" * n,
        lambda n: "+".join(["x"] * (n + 1)),
        lambda n: "/".join(["x"] * (n + 1)),
    ])
    def test_nesting_limit(self, nest):
        parse(nest(MAX_DEPTH))
        too_deep = nest(MAX_DEPTH + 1)
        with pytest.raises(ParseError, match="nested more than") as info:
            parse(too_deep)
        assert 0 < info.value.offset <= len(too_deep)


class TestEvaluate:
    def test_all_functions(self):
        assert ev("exp(1)") == math.e
        assert ev("ln(exp(2))") == pytest.approx(2.0, abs=1e-15)
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("atan(1)") == math.pi / 4
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(-3)") == 3.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as info:
            ev("x + y", x=1.0)
        assert info.value.name == "y"

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            ev("ln(x)", x=0.0)
        with pytest.raises(DomainError):
            ev("ln(x)", x=-1.0)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            ev("sqrt(x)", x=-1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/x", x=0.0)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(DomainError):
            ev("x^0.5", x=-4.0)

    def test_integer_power_of_negative_base(self):
        assert ev("x^3", x=-2.0) == -8.0

    def test_exp_overflow_saturates(self):
        assert ev("exp(x)", x=1e6) == math.inf

    def test_pow_overflow_saturates_with_sign(self):
        assert ev("x^1025", x=10.0) == math.inf
        assert ev("x^1025", x=-10.0) == -math.inf

    def test_domain_error_reports_function_and_argument(self):
        with pytest.raises(DomainError) as info:
            ev("ln(x)", x=-2.0)
        assert info.value.func == "ln"
        assert info.value.argument == -2.0

    def test_expm1_and_log1p(self):
        assert ev("expm1(x)", x=1e-20) == 1e-20
        assert ev("log1p(x)", x=1e-20) == 1e-20
        assert ev("log1p(expm1(x))", x=0.5) == pytest.approx(0.5, abs=1e-16)

    def test_expm1_overflow_saturates(self):
        assert ev("expm1(x)", x=1e6) == math.inf
        assert ev("expm1(x)", x=-1e6) == -1.0

    @pytest.mark.parametrize("x", [-1.0, -2.0, -math.inf])
    def test_log1p_domain(self, x):
        with pytest.raises(DomainError) as info:
            ev("log1p(x)", x=x)
        assert info.value.func == "log1p" and info.value.argument == x


class TestWalkVariables:
    # a walk's leaves are "x" and "c", one "c" for each read of a constant
    # or a parameter; compiling refuses any other variable

    def test_single(self):
        assert compile_family(parse("exp(-x)")).walk == (("x", "neg", "exp"), [])

    def test_multiple(self):
        shape, slots = compile_family(parse("a*x + a*b"), "ab").walk
        assert shape == ("c", "x", "*", "c", "c", "*", "+")
        assert slots == ["a", "a", "b"]
        with pytest.raises(UnboundVariableError) as info:
            compile_family(parse("a*x + b*y"), "ab")
        assert info.value.name == "y"

    def test_constants_only(self):
        walk = compile_family(parse("1 + 2^3")).walk
        assert walk == (("c", "c", "c", "^", "+"), [1.0, 2.0, 3.0])


class TestSubstitute:
    def test_every_x_is_replaced(self):
        assert substitute(parse("x*exp(-x)"), "x", parse("exp(x)")) == parse("exp(x)*exp(-exp(x))")

    @pytest.mark.parametrize("text,expected", [
        ("xa*x + a", "xa*exp(x) + a"),
        ("a - x^a", "a - exp(x)^a"),
        ("sqrt(xa)/(1 + a*x)", "sqrt(xa)/(1 + a*exp(x))"),
    ])
    def test_other_names_are_left_alone(self, text, expected):
        assert substitute(parse(text), "x", parse("exp(x)")) == parse(expected)

    def test_a_tree_without_the_name_is_unchanged(self):
        tree = parse("2*a + ln(xa)")
        assert substitute(tree, "x", parse("exp(x)")) == tree


def _tail(tree, params=None, m=0.0):
    """The log-tail s -> f(exp(s)) - m of the kernel tree, the third role
    of its compiled family."""
    params = params or {}
    return compile_family(tree, params)(params)[2](m)


class TestCompileTail:
    @pytest.mark.parametrize("s", [-40.0, -1.0, 0.0, 2.5, 20.0, 709.0])
    def test_tail_is_the_kernel_at_exp_less_the_mean(self, s):
        tree = parse("log1p(2*a*cos(x) + a*a)")
        m = math.log(4.0)
        tail = _tail(tree, {"a": 2.0}, m)
        assert tail(s) == evaluate(tree, {"a": 2.0, "x": math.exp(s)}) - m

    def test_one_compile_serves_every_binding_and_mean(self):
        bind = compile_family(parse("a*cos(x)"), ["a"])
        tail = bind({"a": 2.0})[2]
        assert tail(0.5)(0.0) == 2.0 * math.cos(1.0) - 0.5
        assert tail(0.0)(0.0) == 2.0 * math.cos(1.0)
        assert bind({"a": -1.0})[2](0.0)(0.0) == -math.cos(1.0)
        assert tail(0.5).panel()(0.0, 1.0) != tail(0.0).panel()(0.0, 1.0)

    def test_tail_carries_its_panels(self):
        tail = _tail(parse("sin(x)"))
        # the integral of sin(u)/u over (1, e), by the compiled panels and
        # by the generic one
        plain = integrate_adaptive(lambda s: math.sin(math.exp(s)), 0.0, 1.0, 1e-12)
        assert integrate_adaptive(tail, 0.0, 1.0, 1e-12).value == pytest.approx(
            plain.value, abs=1e-12
        )
        assert tail.panel() is tail.panel()

    def test_past_the_range_of_exp_is_a_domain_error(self):
        tail = _tail(parse("cos(x)"))
        with pytest.raises(DomainError):
            tail(711.0)

    def test_unknown_parameter_is_unbound(self):
        with pytest.raises(UnboundVariableError):
            compile_family(parse("a*cos(x)"))


# trees the parser itself can produce: constants are nonnegative finite
# (negation is a Neg node) and variable names never collide with functions
_atoms = st.one_of(
    st.builds(Const, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs)),
    st.builds(Var, st.sampled_from(["x", "y", "z2", "_u"])),
)
_trees = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
    ),
    max_leaves=20,
)


@given(_trees)
def test_unparse_parse_round_trip(tree):
    assert parse(unparse(tree)) == tree


@given(_trees, st.floats(-10.0, 10.0, allow_nan=False))
def test_round_trip_preserves_value(tree, x):
    bindings = {"x": x, "y": x / 2.0, "z2": -x, "_u": 1.0}
    try:
        direct = evaluate(tree, bindings)
    except DomainError:
        return  # domain behavior is pinned above; here only values matter
    again = evaluate(parse(unparse(tree)), bindings)
    assert again == direct or (math.isnan(again) and math.isnan(direct))


@given(_trees)
def test_negation_flips_sign(tree):
    bindings = {"x": 1.5, "y": 0.25, "z2": 2.0, "_u": 3.0}
    try:
        v = evaluate(tree, bindings)
    except DomainError:
        return
    w = evaluate(Neg(tree), bindings)
    # saturated arithmetic can produce nan (inf - inf); negation keeps it
    if math.isnan(v):
        assert math.isnan(w)
    else:
        assert w == -v


class TestCompileKernel:
    def test_matches_evaluate_on_a_kernel(self):
        tree = parse("ln(2 + 3*exp(-x)) - sqrt(abs(sin(x)))/x + (1 + 1/x)^x")
        kernel = compile_kernel(tree)
        for x in (0.25, 1.0, 3.5, 1e16):
            assert kernel(x) == evaluate(tree, {"x": x})

    def test_domain_error_names_function_and_argument(self):
        with pytest.raises(DomainError) as info:
            compile_kernel(parse("ln(x - 3)"))(1.0)
        assert info.value.func == "ln" and info.value.argument == -2.0
        with pytest.raises(DomainError) as info:
            compile_kernel(parse("1/(x - 2)"))(2.0)
        assert info.value.func == "/" and info.value.argument == 0.0

    def test_other_variables_fail_at_compile_time(self):
        with pytest.raises(UnboundVariableError) as info:
            compile_kernel(parse("x + y"))
        assert info.value.name == "y"

    def test_input_text_never_reaches_the_source(self):
        with pytest.raises(UnboundVariableError):
            compile_kernel(Var("__import__('os')"))
        with pytest.raises(EvaluationError, match="unknown function"):
            compile_kernel(Call("exp(x); y = (", Var("x")))

    @pytest.mark.parametrize("src,x", [
        ("exp(x)", 1e6),
        ("expm1(x)", 1e6),
        ("x^1025", 10.0),
        ("x^1025", -10.0),
        ("exp(x)*0", 1e6),
        ("ln(x)", 0.0),
        ("ln(x)", -0.0),
        ("sqrt(x)", -1.0),
        ("1/x", 0.0),
        ("1/x", -0.0),
        ("sin(x)", math.inf),
        ("cos(x)", -math.inf),
        ("log1p(x)", -1.0),
        ("x^0.5", -4.0),
        ("x^-1", 0.0),
        ("ln(1 - x)/x + exp(x)", 2.0),
        # nodes that read constants only run once per binding
        ("x + ln(0)", 1.0),
        ("x*exp(1000)", 0.5),
        ("1/x + sqrt(0 - 1)", 0.0),
    ])
    def test_raising_fast_path_matches_evaluate(self, src, x):
        # the straight-line code raises at these points, or saturates exp and
        # expm1 in line, and gives what evaluate gives
        tree = parse(src)
        kind, got = _outcome(compile_kernel(tree), x)
        want_kind, want = _outcome(lambda v: evaluate(tree, {"x": v}), x)
        assert kind == want_kind
        assert _same_float(got, want), (got, want)

    def test_exp_overflow_saturates_in_line(self, monkeypatch):
        # past 710, exp and expm1 give inf without rerunning through evaluate;
        # in (709.78, 710] the straight-line code still raises and falls back
        edge = (709.78, 709.79)  # exp overflows between these
        beyond = (math.nextafter(710.0, math.inf), 1e308, math.inf, -math.inf, math.nan)
        points = edge + (709.9, 710.0) + beyond
        trees = [parse("exp(x)"), parse("expm1(x)")]
        wants = [[evaluate(tree, {"x": x}) for x in points] for tree in trees]
        frullani_tree = parse("exp(-exp(x))")
        far = (0.5, 0.75, 1.0, 2.0, 800.0, 1e300)
        frullani_wants = [
            (evaluate(frullani_tree, {"x": x}) - evaluate(frullani_tree, {"x": 1000.0 * x})) / x
            for x in far
        ]
        fallback = []

        def counted(tree, bindings):
            fallback.append(bindings["x"])
            return evaluate(tree, bindings)

        # evaluate recurses through the module's name, so a fallback at x
        # records x once per node
        monkeypatch.setattr(expr, "evaluate", counted)
        for tree, want in zip(trees, wants):
            kernel = compile_kernel(tree)
            fallback.clear()
            got = [kernel(x) for x in points]
            assert all(map(_same_float, got, want)), (unparse(tree), got, want)
            assert set(fallback) == {709.79, 709.9, 710.0}, unparse(tree)
        integrand = compile_family(frullani_tree)({})[1](1.0, 1000.0)
        fallback.clear()
        got = [integrand(x) for x in far]
        assert all(map(_same_float, got, frullani_wants)), (got, frullani_wants)
        assert fallback == []

    def test_failure_in_the_b_half_of_an_integrand(self):
        kernel, frullani, _ = compile_family(parse("ln(3 - x)"))({})
        integrand = frullani(1.0, 4.0)
        assert kernel(1.0) == math.log(2.0)
        with pytest.raises(DomainError) as info:
            integrand(1.0)
        assert info.value.func == "ln" and info.value.argument == -1.0
        integrand = compile_family(parse("exp(x)"))({})[1](1.0, 1000.0)
        assert integrand(1.0) == -math.inf
        integrand = compile_family(parse("x + ln(0)"))({})[1](1.0, 2.0)
        with pytest.raises(DomainError) as info:
            integrand(1.0)
        assert info.value.func == "ln" and info.value.argument == 0.0

    def test_parameters_are_bound_on_both_paths(self):
        tree = parse("ln(x - c)*k")
        kernel = compile_kernel(tree, {"c": 3.0, "k": 2.0})
        assert kernel(4.0) == evaluate(tree, {"x": 4.0, "c": 3.0, "k": 2.0})
        with pytest.raises(DomainError) as info:
            kernel(1.0)
        assert info.value.argument == -2.0
        integrand = compile_family(tree, ("c", "k"))({"c": 3.0, "k": 2.0})[1](2.0, 5.0)
        with pytest.raises(DomainError) as info:
            integrand(1.0)
        assert info.value.argument == -1.0

    @pytest.mark.parametrize(
        "text, kernel_lines, integrand_lines, call, calls",
        [
            # every node read once: one expression per point
            ("ln(1+2*a*cos(x)+a^2)", 0, 0, "cos(", 2),
            # sqrt(x) read twice, and -sqrt(x), which the saturation test of
            # exp reads twice, keep one line each at a x and at b x
            ("sqrt(x)*exp(-sqrt(x))", 2, 4, "sqrt(", 2),
            # -x read twice by exp's saturation test; the integrand's a x and
            # b x are read three times each
            ("(a + b*exp(-x))/(exp(x) + x)", 1, 4, "exp(", 4),
        ],
    )
    def test_single_use_nodes_fold_into_their_reader(
        self, text, kernel_lines, integrand_lines, call, calls
    ):
        shape, _ = expr._shape(parse(text), frozenset("ab"))
        bodies, _, _ = expr._bodies(shape)
        assert len(bodies["kernel"][0]) == kernel_lines
        assert len(bodies["integrand"][0]) == integrand_lines
        # each distinct node is written once at a x and once at b x
        lines, value = bodies["integrand"]
        assert "\n".join([*lines, value]).count(call) == calls

    def test_bindings_of_a_family_share_code(self):
        bind = expr.compile_family(parse("log1p(b/a*exp(-x))"), ("a", "b"))
        first, frullani_first, tail_first = bind({"a": 1.0, "b": 2.0})
        second, frullani_second, tail_second = bind({"a": 3.0, "b": 0.5})
        assert first.__code__ is second.__code__
        assert first(0.5) == math.log1p(2.0 / 1.0 * math.exp(-0.5))
        assert second(0.5) == math.log1p(0.5 / 3.0 * math.exp(-0.5))
        assert frullani_first(1.0, 2.0).__code__ is frullani_second(3.0, 4.0).__code__
        assert tail_first(0.0).__code__ is tail_second(1.0).__code__
        assert tail_second(1.0)(0.5) == second(math.exp(0.5)) - 1.0
        with pytest.raises(UnboundVariableError) as info:
            bind({"a": 1.0})
        assert info.value.name == "b"

    def test_deep_tree_compiles_without_recursion(self):
        # far past Python's recursion limit, which evaluate walks only under
        # a raised limit; every node is read once, and the panels fold them
        # a bounded number deep
        tree = Var("x")
        for _ in range(2999):
            tree = BinOp("+", tree, Var("x"))
        assert compile_kernel(tree)(1.0) == 3000.0
        integrand = compile_family(tree)({})[1](1.0, 2.0)
        with _recursion_limit(10_000):
            _integrates_as_evaluated(tree, integrand, 1.0, 2.0)

    def test_deep_unary_chain_compiles(self):
        # 300 nested calls and minus signs, each read once: folded into one
        # expression they would pass CPython's 200 levels of parentheses
        tree = Var("x")
        for i in range(300):
            tree = Neg(tree) if i % 2 else Call("sin", tree)
        kernel, frullani, _ = compile_family(tree)({})
        integrand = frullani(1.0, 2.0)
        assert kernel(0.5) == evaluate(tree, {"x": 0.5})
        _integrates_as_evaluated(tree, integrand, 1.0, 2.0)


@contextlib.contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _integrates_as_evaluated(tree, integrand, a, b):
    """The compiled Frullani integrand of tree at scales a, b, through its
    own plain and graded panels, gives the bits of the generic panel over
    the integrand evaluate computes."""

    def evaluated(x):
        return (evaluate(tree, {"x": a * x}) - evaluate(tree, {"x": b * x})) / x

    assert integrate_adaptive(integrand, 1.0, 2.0, 1e-9) == integrate_adaptive(evaluated, 1.0, 2.0, 1e-9)
    graded_panel = integrand.graded_panel()
    assert graded_panel is not None
    own = [v.hex() for v in graded_panel(0.2, 0.3)]
    assert own == [v.hex() for v in reference_panel(reference_graded(evaluated), 0.2, 0.3)]


# trees in x only, with constants the parser cannot produce (negative, -0.0,
# infinite, nan) as hand-built trees may hold them
_kernel_trees = st.recursive(
    st.one_of(
        st.builds(Const, st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
        st.builds(Const, st.floats()),
        st.just(Var("x")),
    ),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
    ),
    max_leaves=20,
)

# where the kernels run: signed zeros and subnormals, the probe ladders'
# 2^-59 .. 2^59, the decaying map's 1e16, and infinities
_abscissas = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, math.inf, -math.inf]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.integers(-59, 59).map(lambda k: 2.0**k),
    st.floats(-(2.0**59), 2.0**59, allow_nan=False),
)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(fn, x):
    try:
        return "value", fn(x)
    except DomainError as exc:
        return exc.func, exc.argument


@settings(max_examples=500, deadline=None)
@given(_kernel_trees, _abscissas)
def test_compiled_kernel_agrees_with_evaluate_bitwise(tree, x):
    kind, got = _outcome(compile_kernel(tree), x)
    want_kind, want = _outcome(lambda v: evaluate(tree, {"x": v}), x)
    assert kind == want_kind
    assert _same_float(got, want), (got, want)


@settings(max_examples=500, deadline=None)
@given(
    _kernel_trees,
    _abscissas,
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_frullani_integrand_agrees_with_the_kernel_bitwise(tree, x, a, b):
    kernel, frullani, _ = compile_family(tree)({})
    integrand = frullani(a, b)

    def outcome(fn):
        try:
            return "value", fn(x)
        except DomainError as exc:
            return exc.func, exc.argument
        except ZeroDivisionError:
            return "ZeroDivisionError", 0.0

    kind, got = outcome(integrand)
    want_kind, want = outcome(lambda v: (kernel(a * v) - kernel(b * v)) / v)
    assert kind == want_kind
    assert _same_float(got, want), (got, want)


# trees in x and the parameters p and q, which may repeat, so that nodes
# reading constants only and repeated nodes both occur
_parameter_trees = st.recursive(
    st.one_of(
        st.builds(Const, st.sampled_from([0.0, -0.0, 2.0, math.inf, math.nan])),
        st.sampled_from([Var("x"), Var("p"), Var("q")]),
    ),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(_parameter_trees, _abscissas, st.floats(), st.floats())
def test_parameters_agree_with_evaluate_bitwise(tree, x, p, q):
    params = {"p": p, "q": q}
    kernel, frullani, _ = compile_family(tree, params)(params)
    integrand = frullani(1.5, 0.25)
    kind, got = _outcome(kernel, x)
    want_kind, want = _outcome(lambda v: evaluate(tree, {**params, "x": v}), x)
    assert kind == want_kind
    assert _same_float(got, want), (got, want)
    try:
        kind, got = _outcome(integrand, x)
    except ZeroDivisionError:
        kind, got = "ZeroDivisionError", 0.0
    try:
        want_kind, want = _outcome(lambda v: (kernel(1.5 * v) - kernel(0.25 * v)) / v, x)
    except ZeroDivisionError:
        want_kind, want = "ZeroDivisionError", 0.0
    assert kind == want_kind
    assert _same_float(got, want), (got, want)


class TestShapeCache:
    @pytest.mark.parametrize("constants", [
        (2.0, 3.0),
        (0.0, -0.0),
        (-0.0, 0.5),
        (math.inf, -math.inf),
        (math.nan, 1.0),
        (-math.inf, math.nan),
    ])
    def test_trees_differing_in_constants_share_code(self, constants):
        def tree(c, d):
            return BinOp("+", BinOp("*", Const(c), Call("exp", Neg(Var("x")))), Const(d))

        reference = compile_kernel(tree(1.5, 0.25))
        kernel = compile_kernel(tree(*constants))
        assert kernel.__code__ is reference.__code__
        for x in (0.0, -0.0, 0.5, 3.0, math.inf, -math.inf):
            want = evaluate(tree(*constants), {"x": x})
            assert _same_float(kernel(x), want), (x, kernel(x), want)
            assert _same_float(reference(x), evaluate(tree(1.5, 0.25), {"x": x}))

    def test_integrands_share_code_across_scales(self):
        first = compile_family(parse("1.2*exp(-x) + 0.7"))({})[1](1.3, 2.9)
        second = compile_family(parse("0.4*exp(-x) + 2"))({})[1](0.5, 8.0)
        assert first.__code__ is second.__code__
        assert first(0.5) != second(0.5)

    def test_cache_stays_bounded(self):
        # x, x+x, x+x+x, ...: every sum length is its own shape
        tree = Var("x")
        for n in range(1, expr._SHAPE_CACHE_SIZE + 11):
            assert compile_kernel(tree)(1.0) == n
            tree = BinOp("+", tree, Var("x"))
        assert expr._builder.cache_info().currsize <= expr._SHAPE_CACHE_SIZE
