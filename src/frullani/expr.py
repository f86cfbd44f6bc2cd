"""Small closed-form expression language over one or more real variables.

The grammar is deliberately tiny: decimal literals, named variables, the
functions exp/ln/sin/cos/atan/sqrt/abs, and infix arithmetic with the usual
precedence (^ binds tighter than unary minus, which binds tighter than * and /,
which bind tighter than + and -; ^ is right-associative).  Implicit
multiplication ("2x") is a parse error, never a guess, and so is a literal
that overflows to infinity.

Three ways to use a tree:

  parse / unparse  recursive-descent parser with offsets in its errors, and
                   the printer that round-trips its trees
  evaluate         the reference evaluator: walks the tree under a dict of
                   bindings, a pure function of (tree, bindings)
  compile_kernel   lowers a tree in x to a straight-line Python function
                   that returns exactly what evaluate returns, compiling
                   each tree shape once with its constants as arguments;
                   compile_frullani also gives the Frullani integrand
                   (f(a x) - f(b x))/x of that kernel f, which the
                   probe-then-verify pipeline integrates

Trees are immutable dataclasses, so structural equality is plain ==.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union


class ExprError(Exception):
    """Base class for parse and evaluation failures."""


class ParseError(ExprError):
    """Malformed source text.

    offset is a character offset into the source, 0 <= offset <= len(source).
    expected, when present, is a short hint about what would have been legal.
    """

    def __init__(self, offset: int, message: str, expected: str | None = None):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class EvaluationError(ExprError):
    pass


class UnboundVariableError(EvaluationError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class DomainError(EvaluationError):
    """A function or operator was applied outside its real domain."""

    def __init__(self, func: str, argument: float):
        self.func = func
        self.argument = argument
        super().__init__(f"{func} undefined at argument {argument!r}")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Const, Var, Neg, BinOp, Call]

FUNCTIONS = ("exp", "ln", "sin", "cos", "atan", "sqrt", "abs")

# Deepest nesting parse accepts.  Every parenthesis group, function call,
# unary minus and binary operator puts what it encloses one level deeper, so
# "x+x+x" reaches level 2 and "((x))" level 2 as well.  Input past the limit
# raises ParseError; the limit keeps the recursive parser and tree walks
# (evaluate, free_variables, unparse) well inside Python's recursion limit.
MAX_DEPTH = 100

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def _fail(self, message: str, expected: str | None = None) -> ParseError:
        return ParseError(min(self.pos, len(self.source)), message, expected)

    def _deeper(self, level: int) -> int:
        """level + 1, refused past MAX_DEPTH at the current offset."""
        if level >= MAX_DEPTH:
            raise self._fail(f"expression nested more than {MAX_DEPTH} levels deep")
        return level + 1

    # Each method below takes the level its node sits at and returns the node
    # with the deepest level any of its leaves sits at.

    def parse(self) -> Expression:
        node, _ = self.expression(0)
        self._skip_ws()
        if self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch.isalnum() or ch in "(._":
                raise self._fail(
                    f"unexpected '{ch}' (implicit multiplication is not supported)",
                    "an operator or end of input",
                )
            raise self._fail(f"unexpected '{ch}'", "an operator or end of input")
        return node

    def expression(self, level: int) -> tuple[Expression, int]:
        node, reach = self.term(level)
        while self._peek() in ("+", "-"):
            op = self.source[self.pos]
            self.pos += 1
            # the new node pushes everything parsed so far one level down
            right, right_reach = self.term(self._deeper(level))
            node, reach = BinOp(op, node, right), max(self._deeper(reach), right_reach)
        return node, reach

    def term(self, level: int) -> tuple[Expression, int]:
        node, reach = self.factor(level)
        while self._peek() in ("*", "/"):
            op = self.source[self.pos]
            self.pos += 1
            right, right_reach = self.factor(self._deeper(level))
            node, reach = BinOp(op, node, right), max(self._deeper(reach), right_reach)
        return node, reach

    def factor(self, level: int) -> tuple[Expression, int]:
        if self._peek() == "-":
            self.pos += 1
            operand, reach = self.factor(self._deeper(level))
            return Neg(operand), reach
        return self.power(level)

    def power(self, level: int) -> tuple[Expression, int]:
        base, reach = self.atom(level)
        if self._peek() == "^":
            self.pos += 1
            # right-associative, and the exponent may carry a unary minus
            exponent, exponent_reach = self.factor(self._deeper(level))
            return BinOp("^", base, exponent), max(self._deeper(reach), exponent_reach)
        return base, reach

    def atom(self, level: int) -> tuple[Expression, int]:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            node, reach = self.expression(self._deeper(level))
            if self._peek() != ")":
                raise self._fail("unbalanced parenthesis", "')'")
            self.pos += 1
            return node, reach
        if ch.isdigit():
            m = _NUMBER.match(self.source, self.pos)
            assert m is not None
            value = float(m.group())
            if math.isinf(value):
                # unparse could not print it back: repr gives "inf", a name
                raise self._fail(
                    f"number {m.group()} overflows double precision", "a finite number"
                )
            self.pos = m.end()
            return Const(value), level
        if ch.isalpha() or ch == "_":
            m = _NAME.match(self.source, self.pos)
            assert m is not None
            name = m.group()
            self.pos = m.end()
            if self._peek() == "(":
                if name not in FUNCTIONS:
                    raise self._fail(
                        f"unknown function '{name}'",
                        "one of " + ", ".join(FUNCTIONS),
                    )
                self.pos += 1
                arg, reach = self.expression(self._deeper(level))
                if self._peek() != ")":
                    raise self._fail("unbalanced parenthesis", "')'")
                self.pos += 1
                return Call(name, arg), reach
            if name in FUNCTIONS:
                raise self._fail(f"function '{name}' must be called", "'('")
            return Var(name), level
        if ch == "":
            raise self._fail("unexpected end of input", "a number, name or '('")
        if ch == ".":
            raise self._fail(
                "numbers need a leading digit (write 0.5, not .5)", "a digit"
            )
        raise self._fail(f"unexpected '{ch}'", "a number, name or '('")


def parse(source: str) -> Expression:
    """Parse source text into an expression tree.

    Raises ParseError (with offset and an expected-token hint) on malformed
    input, and on input nested more than MAX_DEPTH levels deep.
    """
    return _Parser(source).parse()


def free_variables(expr: Expression) -> frozenset[str]:
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return free_variables(expr.operand)
    if isinstance(expr, Call):
        return free_variables(expr.arg)
    return free_variables(expr.left) | free_variables(expr.right)


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        # IEEE semantics: overflow saturates to a signed infinity
        negative = base < 0 and float(exponent).is_integer() and int(exponent) % 2 == 1
        return -math.inf if negative else math.inf
    except ValueError:
        raise DomainError("^", base) from None


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate a tree under variable bindings, in double precision.

    Domain violations (ln of a non-positive number, sqrt of a negative,
    division by zero, fractional power of a negative base) raise DomainError
    naming the function and the offending argument.  Missing bindings raise
    UnboundVariableError.  exp overflow saturates to +inf rather than failing,
    so limit probes can see growth.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, bindings)
    if isinstance(expr, Call):
        x = evaluate(expr.arg, bindings)
        f = expr.func
        if f == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                return math.inf
        if f == "ln":
            if x <= 0.0:
                raise DomainError("ln", x)
            return math.log(x)
        if f == "sin":
            if math.isinf(x):
                raise DomainError("sin", x)
            return math.sin(x)
        if f == "cos":
            if math.isinf(x):
                raise DomainError("cos", x)
            return math.cos(x)
        if f == "atan":
            return math.atan(x)
        if f == "sqrt":
            if x < 0.0:
                raise DomainError("sqrt", x)
            return math.sqrt(x)
        if f == "abs":
            return abs(x)
        raise EvaluationError(f"unknown function '{f}'")
    # BinOp
    a = evaluate(expr.left, bindings)
    b = evaluate(expr.right, bindings)
    op = expr.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise DomainError("/", b)
        return a / b
    if op == "^":
        return _pow(a, b)
    raise EvaluationError(f"unknown operator '{op}'")


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# Names the generated source may use; it sees nothing else, not even builtins.
_HELPERS = {
    "__builtins__": {},
    "_DomainError": DomainError,
    "_pow": _pow,
    "_exp": _exp,
    "_log": math.log,
    "_sin": math.sin,
    "_cos": math.cos,
    "_atan": math.atan,
    "_sqrt": math.sqrt,
    "_abs": abs,
    "_isinf": math.isinf,
}

# (domain check or None, value) per interior node, over its operands' text
# {0} and {1}; a failed check raises DomainError with the last operand
_NODE_LINES = {
    "exp": (None, "_exp({0})"),
    "ln": ("{0} <= 0.0", "_log({0})"),
    "sin": ("_isinf({0})", "_sin({0})"),
    "cos": ("_isinf({0})", "_cos({0})"),
    "atan": (None, "_atan({0})"),
    "sqrt": ("{0} < 0.0", "_sqrt({0})"),
    "abs": (None, "_abs({0})"),
    "neg": (None, "-{0}"),
    "+": (None, "{0} + {1}"),
    "-": (None, "{0} - {1}"),
    "*": (None, "{0} * {1}"),
    "/": ("{1} == 0.0", "{0} / {1}"),
    "^": (None, "_pow({0}, {1})"),
}
_OPERATORS = ("+", "-", "*", "/", "^")

# Distinct tree shapes whose compiled builders are kept; a shape pushed out
# is compiled again when it comes back.
_SHAPE_CACHE_SIZE = 128


def _shape(expr: Expression) -> tuple[tuple[str, ...], list[float]]:
    """The nodes of a tree in x in the left-to-right post-order evaluate
    walks them in ("c" for a constant, "x", "neg", a function name or an
    operator, each name checked, so no input text reaches generated source),
    and its constants in the same order.  The walk keeps its own stack, so
    tree depth is not bounded by Python's recursion limit."""
    shape: list[str] = []
    constants: list[float] = []
    pending: list[tuple[Expression, bool]] = [(expr, False)]
    while pending:
        node, children_done = pending.pop()
        if isinstance(node, Const):
            shape.append("c")
            constants.append(node.value)
        elif isinstance(node, Var):
            if node.name != "x":
                raise UnboundVariableError(node.name)
            shape.append("x")
        elif not children_done:
            pending.append((node, True))
            if isinstance(node, BinOp):
                pending.append((node.right, False))
                pending.append((node.left, False))
            else:
                pending.append((node.operand if isinstance(node, Neg) else node.arg, False))
        elif isinstance(node, Neg):
            shape.append("neg")
        elif isinstance(node, Call):
            if node.func not in FUNCTIONS:
                raise EvaluationError(f"unknown function '{node.func}'")
            shape.append(node.func)
        elif node.op in _OPERATORS:
            shape.append(node.op)
        else:
            raise EvaluationError(f"unknown operator '{node.op}'")
    return tuple(shape), constants


def _block(shape: tuple[str, ...], var: str, prefix: str, indent: str) -> tuple[str, str]:
    """Straight-line source for shape applied to var, one single-assignment
    line per interior node (prefix0, prefix1, ...) with the domain checks
    inlined and constant i read as ci; and the result's operand text."""
    lines: list[str] = []
    operands: list[str] = []
    read = 0  # constants read so far
    for token in shape:
        if token == "c":
            operands.append(f"c{read}")
            read += 1
        elif token == "x":
            operands.append(var)
        else:
            check, value = _NODE_LINES[token]
            arity = 2 if token in _OPERATORS else 1
            args = operands[-arity:]
            del operands[-arity:]
            if check is not None:
                condition = check.format(*args)
                lines.append(f"if {condition}: raise _DomainError({token!r}, {args[-1]})")
            operands.append(f"{prefix}{len(lines)}")
            lines.append(f"{operands[-1]} = {value.format(*args)}")
    return "".join(f"{indent}{line}\n" for line in lines), operands.pop()


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _builder(shape: tuple[str, ...]) -> Callable[..., tuple[Callable, Callable]]:
    """build(c0, c1, ...) for one shape: it returns the kernel over those
    constants and frullani(a, b), which returns the Frullani integrand."""
    kernel, result = _block(shape, "x", "t", " " * 8)
    at_a, result_a = _block(shape, "xa", "u", " " * 12)
    at_b, result_b = _block(shape, "xb", "v", " " * 12)
    constants = ", ".join(f"c{i}" for i in range(shape.count("c")))
    namespace = dict(_HELPERS)
    exec(
        f"def build({constants}):\n"
        f"    def kernel(x):\n{kernel}        return {result}\n"
        "    def frullani(a, b):\n"
        "        def integrand(x):\n"
        f"            xa = a * x\n{at_a}            xb = b * x\n{at_b}"
        f"            return ({result_a} - {result_b}) / x\n"
        "        return integrand\n"
        "    return kernel, frullani\n",
        namespace,
    )
    return namespace["build"]


def compile_kernel(expr: Expression) -> Callable[[float], float]:
    """Compile a tree in the one variable x into a function of a float x.

    The function runs the tree as straight-line Python, in the order
    evaluate walks it, so it returns exactly what evaluate(expr, {"x": x})
    returns and raises the same DomainError.  Each tree shape is compiled
    once, with its constants as arguments, so trees that differ only in
    their constants share one code object.  Any other variable raises
    UnboundVariableError here rather than at call time.
    """
    shape, constants = _shape(expr)
    return _builder(shape)(*constants)[0]


def compile_frullani(expr: Expression, a: float, b: float) -> tuple[Callable, Callable]:
    """compile_kernel(expr), and the Frullani integrand of that kernel f at
    scales a and b: x -> (f(a*x) - f(b*x)) / x with f's body inlined twice,
    in that order, so it returns and raises exactly what that expression
    does."""
    shape, constants = _shape(expr)
    kernel, frullani = _builder(shape)(*constants)
    return kernel, frullani(a, b)


# precedence levels used by unparse; higher binds tighter
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(expr: Expression) -> int:
    if isinstance(expr, (Var, Call)):
        return _LEVEL_ATOM
    if isinstance(expr, Const):
        # a negative literal prints with a leading '-', so it reparses as unary
        return _LEVEL_ATOM if expr.value >= 0 else _LEVEL_UNARY
    if isinstance(expr, Neg):
        return _LEVEL_UNARY
    return _LEVEL_MUL if expr.op in "*/" else (_LEVEL_POW if expr.op == "^" else _LEVEL_ADD)


def _wrap(expr: Expression, minimum: int) -> str:
    text = unparse(expr)
    return f"({text})" if _level(expr) < minimum else text


def unparse(expr: Expression) -> str:
    """Render a tree back to source text with minimal parentheses.

    Round trip: parse(unparse(t)) is structurally equal to t for every tree
    the parser can produce.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.operand, _LEVEL_UNARY)
    if isinstance(expr, Call):
        return f"{expr.func}({unparse(expr.arg)})"
    op = expr.op
    if op in "+-":
        return f"{_wrap(expr.left, _LEVEL_ADD)} {op} {_wrap(expr.right, _LEVEL_MUL)}"
    if op in "*/":
        return f"{_wrap(expr.left, _LEVEL_MUL)}{op}{_wrap(expr.right, _LEVEL_UNARY)}"
    # power: unary minus is legal on the right but not on the left
    return f"{_wrap(expr.left, _LEVEL_ATOM)}^{_wrap(expr.right, _LEVEL_UNARY)}"
