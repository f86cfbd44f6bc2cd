"""Parser, evaluator, and unparser for the kernel expression language."""

import math

import pytest
from hypothesis import given, settings, strategies as st

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
    compile_kernel,
    evaluate,
    free_variables,
    parse,
    unparse,
)


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


class TestFreeVariables:
    def test_single(self):
        assert free_variables(parse("exp(-x)")) == {"x"}

    def test_multiple(self):
        assert free_variables(parse("a*x + b*y")) == {"a", "b", "x", "y"}

    def test_constants_only(self):
        assert free_variables(parse("1 + 2^3")) == frozenset()


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

    def test_deep_tree_compiles_without_recursion(self):
        # far past Python's recursion limit, which evaluate could not walk
        tree = Var("x")
        for _ in range(2999):
            tree = BinOp("+", tree, Var("x"))
        assert compile_kernel(tree)(1.0) == 3000.0


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
