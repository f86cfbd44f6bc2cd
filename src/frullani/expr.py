"""Small closed-form expression language over one or more real variables.

The grammar is deliberately tiny: decimal literals, named variables, the
functions exp/expm1/ln/log1p/sin/cos/atan/sqrt/abs, and infix arithmetic
with the usual precedence (^ binds tighter than unary minus, which binds
tighter than * and /, which bind tighter than + and -; ^ is
right-associative).  Implicit multiplication ("2x") is a parse error, never
a guess, and so is a literal that overflows to infinity.

Three ways to use a tree:

  parse / unparse  recursive-descent parser with offsets in its errors,
                   which keeps the trees of the last texts it parsed, and
                   the printer that round-trips its trees
  evaluate         the reference evaluator: walks the tree under a dict of
                   bindings, a pure function of (tree, bindings)
  compile_kernel   lowers a tree in x, and in named parameters bound to
                   numbers, to a straight-line Python function that returns
                   exactly what evaluate returns, compiling each tree shape
                   once with its constants and parameters as arguments;
                   compile_family walks a tree once for many bindings,
                   the walk limits' tree pass reads too, and gives all
                   three roles of one kernel f: f itself,
                   the Frullani integrand (f(a x) - f(b x))/x, which the
                   probe-then-verify pipeline and the catalog integrate,
                   and the log-tail f(exp(s)) - m of f of limit or mean
                   m at infinity, which the Frullani oracle of the
                   catalog and of the pipeline integrates

The compiled code is plain floating-point Python with no domain checks.  A
node that reads only constants and parameters runs once per binding, and a
node that occurs twice runs once per point.  A node read once is written
into its reader's expression rather than on a line of its own, so a chain
of single-use nodes is one expression.  exp and expm1 of an argument
past 710 give inf in line, as evaluate does.  A point where the code raises
(any other overflow, a log of zero, a division by zero) runs again through
evaluate, which gives that point's value or DomainError, so evaluate is
both the reference and the compiled code's exceptional path.

Only the kernel's point function is generated per shape; the Frullani
integrand's and the log-tail's are Python closures over it.  Each compiled
role also carries the G7/K15 panels quadrature runs on it, straight-line
code built from quadrature's panel template with the point's body written
out at each of the 15 nodes: panel() gives its panel(lo, hi), and the
Frullani integrand alone also has graded_panel(), the panel of
integrate_frullani's graded head x = t^4.  integrate_decaying's map runs
on the generic panel.  Each is compiled the first time a shape's role asks
for it, so a shape compiles only the panels that run, four at most.
quadrature runs them in place of gauss_kronrod_panel, one call per panel
instead of one per node.  A panel where a node raises or is not finite
returns None, and quadrature reruns it point by point, so every result and
error stays the same bits.

Trees are named tuples of their fields, so structural equality and hashing
are plain == and hash(), and a field cannot be assigned.  Each node kind
holds fields of its own types, so trees of different kinds never compare
equal.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .quadrature import PANEL_GLOBALS, _indented, panel_source


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


class DomainError(EvaluationError, ValueError):
    """A function or operator was applied outside its real domain.  A
    ValueError, as math's domain errors are, so that a quadrature panel
    names the abscissa where an integrand's fallback raises it."""

    def __init__(self, func: str, argument: float):
        self.func = func
        self.argument = argument
        super().__init__(f"{func} undefined at argument {argument!r}")


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expression"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


class Call(NamedTuple):
    func: str
    arg: "Expression"


Expression = Union[Const, Var, Neg, BinOp, Call]

FUNCTIONS = ("exp", "expm1", "ln", "log1p", "sin", "cos", "atan", "sqrt", "abs")

# Deepest nesting parse accepts.  Every parenthesis group, function call,
# unary minus and binary operator puts what it encloses one level deeper, so
# "x+x+x" reaches level 2 and "((x))" level 2 as well.  Input past the limit
# raises ParseError; the limit keeps the recursive parser and tree walks
# (evaluate, unparse) well inside Python's recursion limit.
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


# Source texts whose trees parse keeps; the least recently used goes first.
_PARSE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse(source: str) -> Expression:
    """Parse source text into an expression tree.

    Raises ParseError (with offset and an expected-token hint) on malformed
    input, and on input nested more than MAX_DEPTH levels deep.  The trees
    of the last _PARSE_CACHE_SIZE texts are kept, so the same text gives
    the same tree, shared, as a tree cannot change; a text that raised is
    parsed, and raises, again.
    """
    return _Parser(source).parse()


def substitute(expr: Expression, name: str, replacement: Expression) -> Expression:
    """The tree with every variable called name replaced by replacement."""
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, Neg):
        return Neg(substitute(expr.operand, name, replacement))
    if isinstance(expr, Call):
        return Call(expr.func, substitute(expr.arg, name, replacement))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, name, replacement), substitute(expr.right, name, replacement))
    return expr


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

    Domain violations (ln of a non-positive number, log1p at or below -1,
    sqrt of a negative, sin or cos of an infinity, division by zero,
    fractional power of a negative base) raise DomainError naming the
    function and the offending argument.  Missing bindings raise
    UnboundVariableError.  exp and expm1 overflow saturates to +inf rather
    than failing, so limit probes can see growth.
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
        if f == "expm1":
            try:
                return math.expm1(x)
            except OverflowError:
                return math.inf
        if f == "ln":
            if x <= 0.0:
                raise DomainError("ln", x)
            return math.log(x)
        if f == "log1p":
            if x <= -1.0:
                raise DomainError("log1p", x)
            return math.log1p(x)
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


# Names the generated source may use; it sees nothing else, not even builtins.
_HELPERS = {
    "__builtins__": {},
    "ArithmeticError": ArithmeticError,
    "ValueError": ValueError,
    "inf": math.inf,
    "exp": math.exp,
    "expm1": math.expm1,
    "log": math.log,
    "log1p": math.log1p,
    "sin": math.sin,
    "cos": math.cos,
    "atan": math.atan,
    "sqrt": math.sqrt,
    "abs": abs,
    "pow": math.pow,
}

# The value of each interior node over its operands' text {0} and {1}.
# exp and expm1 saturate to inf past 710 in line, as evaluate does.  Where
# evaluate raises DomainError or saturates any other overflow (exp or expm1
# of an argument in (709.78, 710], or ^), these raise ValueError or an
# ArithmeticError, and the point runs again through evaluate.
_NODE_LINES = {
    "exp": "inf if {0} > 710.0 else exp({0})",
    "expm1": "inf if {0} > 710.0 else expm1({0})",
    "ln": "log({0})",
    "log1p": "log1p({0})",
    "sin": "sin({0})",
    "cos": "cos({0})",
    "atan": "atan({0})",
    "sqrt": "sqrt({0})",
    "abs": "abs({0})",
    "neg": "-{0}",
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
    "/": "{0} / {1}",
    "^": "pow({0}, {1})",
}
_OPERATORS = ("+", "-", "*", "/", "^")
# Templates that are one call, which a reader's expression needs no
# parentheses around.
_CALL = re.compile(r"\w+\(.*\)")
# Most nodes _block folds one inside the next into a single expression; the
# bound keeps the parentheses of a deep tree's line far below CPython's 200
# levels, and its syntax tree inside the compiler's recursion limit.
_FOLD_DEPTH = 16

# Distinct tree shapes whose compiled builders are kept; a shape pushed out
# is compiled again when it comes back.
_SHAPE_CACHE_SIZE = 128


def _shape(
    expr: Expression, names: frozenset[str]
) -> tuple[tuple[str, ...], list[Union[float, str]]]:
    """The walk of a tree in x and the parameters names: its nodes in the
    left-to-right post-order evaluate walks them in ("c" for each read of a
    constant or a parameter, "x", "neg", a function name or an operator,
    each name checked, so no input text reaches generated source), and its
    slots, what each "c" reads in the same order: a constant's value or a
    parameter's name.  The walk keeps its own stack, so tree depth is not
    bounded by Python's recursion limit."""
    shape: list[str] = []
    slots: list[Union[float, str]] = []
    pending: list[tuple[Expression, bool]] = [(expr, False)]
    while pending:
        node, children_done = pending.pop()
        if isinstance(node, Var) and node.name == "x":
            shape.append("x")
        elif isinstance(node, (Const, Var)):
            if isinstance(node, Var) and node.name not in names:
                raise UnboundVariableError(node.name)
            shape.append("c")
            slots.append(node[0])  # a constant's value or a parameter's name
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
    return tuple(shape), slots


def _block(
    shape: tuple[str, ...], prefix: str, through: str = ""
) -> tuple[list[str], str, list[str]]:
    """Straight-line source for shape applied to x, or to the node the
    template through makes of x where it is given ("a * {0}", "b * {0}" or
    exp's), with constant i read as ci: the lines of the nodes that
    depend on x; the result's operand text; and the lines of the nodes that
    read constants only (k0, k1, ...), which do not depend on x.  Every
    node is a pure function of its operands, so a node computed already,
    such as x^p read twice, is read again rather than computed again.  A
    node that depends on x and is read once goes into its reader's
    expression, up to _FOLD_DEPTH levels deep; one read more than once,
    such as the operand of exp, which the saturation test reads twice, gets
    a single-assignment line of its own (prefix0, prefix1, ...)."""
    # the distinct interior nodes in post-order, each its template and its
    # operands, an operand being a leaf's text or the index of a node
    nodes: list[tuple[str, tuple[Union[str, int], ...]]] = []
    index: dict[tuple[str, tuple[Union[str, int], ...]], int] = {}
    reads: list[int] = []

    def node(template: str, args: tuple[Union[str, int], ...]) -> int:
        if (template, args) not in index:
            index[template, args] = len(nodes)
            nodes.append((template, args))
            reads.append(0)
            for slot, arg in enumerate(args):
                if isinstance(arg, int):
                    reads[arg] += template.count(f"{{{slot}}}")
        return index[template, args]

    x = node(through, ("x",)) if through else "x"
    operands: list[Union[str, int]] = []
    read = 0  # constants read so far
    for token in shape:
        if token == "c":
            operands.append(f"c{read}")
            read += 1
        elif token == "x":
            operands.append(x)
        else:
            arity = 2 if token in _OPERATORS else 1
            args = tuple(operands[-arity:])
            del operands[-arity:]
            operands.append(node(_NODE_LINES[token], args))
    result = operands.pop()
    if isinstance(result, str):
        return [], result, []
    reads[result] += 1
    lines: list[str] = []
    hoisted: list[str] = []
    texts: list[str] = []  # each node's operand text: a name or its expression
    depths: list[int] = []  # nodes folded one inside the next in that text
    constant: list[bool] = []
    for i, (template, args) in enumerate(nodes):
        value = template.format(*(texts[a] if isinstance(a, int) else a for a in args))
        depth = max((depths[a] + 1 for a in args if isinstance(a, int)), default=0)
        constant.append(all(constant[a] if isinstance(a, int) else a != "x" for a in args))
        if reads[i] == 1 and not constant[i] and depth < _FOLD_DEPTH:
            texts.append(value if _CALL.fullmatch(template) else f"({value})")
            depths.append(depth)
            continue
        target = hoisted if constant[i] else lines
        texts.append(f"{'k' if constant[i] else prefix}{len(target)}")
        depths.append(-1)
        target.append(f"{texts[i]} = {value}")
    return lines, texts[result], hoisted


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _bodies(
    shape: tuple[str, ...]
) -> tuple[dict[str, tuple[tuple[str, ...], str]], tuple[str, ...], tuple[str, ...]]:
    """The straight-line lines and result text of the kernel, its Frullani
    integrand and its log-tail at x, by role; the kernel's constant-only
    lines, which build runs once; and the names those bodies read from
    build besides x, a, b and m: the constants, then the targets of those
    lines.  Made once per shape, for its builder and its panels."""
    kernel, result, hoisted = _block(shape, "t")
    at_a, result_a, _ = _block(shape, "u", "a * {0}")
    at_b, result_b, _ = _block(shape, "v", "b * {0}")
    at_exp, result_exp, _ = _block(shape, "w", _NODE_LINES["exp"])
    bodies = {
        "kernel": (tuple(kernel), result),
        "integrand": ((*at_a, *at_b), f"({result_a} - {result_b}) / x"),
        "tail": (tuple(at_exp), f"{result_exp} - m"),
    }
    names = [f"c{i}" for i in range(shape.count("c"))]
    return bodies, tuple(hoisted), (*names, *(line.split(" = ")[0] for line in hoisted))


# a shape's four panels: the kernel's, the Frullani integrand's plain and
# graded ones, and the log-tail's
@functools.lru_cache(maxsize=4 * _SHAPE_CACHE_SIZE)
def _panel_maker(shape: tuple[str, ...], role: str, graded: bool) -> Callable:
    """make(c0, c1, ..., k0, k1, ...[, a, b | m]) for one shape: it returns
    the G7/K15 panel of role, the kernel, the Frullani integrand (also over
    a and b) or the log-tail (also over m), over the names build binds
    (_bodies), or, with graded, the panel of the integrand graded by
    x = t^4 (quadrature.panel_source)."""
    bodies, _, names = _bodies(shape)
    lines, value = bodies[role]
    if role == "integrand":
        names = [*names, "a", "b"]
    elif role == "tail":
        names = [*names, "m"]
    namespace = dict(_HELPERS, **PANEL_GLOBALS)
    exec(
        f"def make({', '.join(names)}):\n"
        f"{_indented(panel_source(lines, value, graded).splitlines(), 4)}"
        "    return panel\n",
        namespace,
    )
    return namespace["make"]


def _panel(shape: tuple[str, ...], role: str, graded: bool, args: tuple) -> Callable:
    """() -> the panel _panel_maker makes over args, made at the first call,
    so a shape compiles only the panels that run."""
    made: list[Callable] = []

    def panel() -> Callable:
        if not made:
            made.append(_panel_maker(shape, role, graded)(*args))
        return made[0]

    return panel


def _with_panels(f: Callable, shape: tuple[str, ...], role: str, args) -> Callable:
    """f, carrying panel(), its panel as role over args (_panel), unless
    args is None; the Frullani integrand, which the graded head also runs,
    carries graded_panel() too."""
    if args is not None:
        f.panel = _panel(shape, role, False, args)
        if role == "integrand":
            f.graded_panel = _panel(shape, role, True, args)
    return f


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _builder(shape: tuple[str, ...]) -> Callable[..., tuple[Callable, tuple | None]]:
    """build(fallback, c0, c1, ...) for one shape: it returns the kernel
    over those constants and the values of the names its panels read
    (_bodies).  Nodes that read constants only run once, in build; where
    one raises, build returns (fallback, None).  A point where the kernel's
    straight-line code raises runs again through fallback (evaluate)."""
    bodies, hoisted, names = _bodies(shape)
    kernel, result = bodies["kernel"]
    constants = "".join(f", c{i}" for i in range(shape.count("c")))
    namespace = dict(_HELPERS)
    exec(
        f"def build(fallback{constants}):\n"
        f"    try:\n{_indented(hoisted, 8)}        pass\n"
        "    except (ArithmeticError, ValueError):\n"
        "        return fallback, None\n"
        "    def kernel(x):\n"
        f"        try:\n{_indented(kernel, 12)}            return {result}\n"
        "        except (ArithmeticError, ValueError):\n"
        "            return fallback(x)\n"
        f"    return kernel, ({''.join(f'{name}, ' for name in names)})\n",
        namespace,
    )
    return namespace["build"]


def compile_family(
    expr: Expression, names: Iterable[str] = ()
) -> Callable[[Mapping[str, float]], tuple[Callable, Callable, Callable]]:
    """Compile a tree in x and the parameters names, walking it once.

    Returns bind(params), which binds every parameter to a number and gives
    three roles of one kernel f: f, a function of x; frullani(a, b), which
    returns the Frullani integrand x -> (f(a*x) - f(b*x)) / x; and tail(m),
    which returns the log-tail s -> f(exp(s)) - m of f of limit or mean m
    at infinity, exp saturating to inf as in evaluate.  All bindings share
    the code of compile_kernel, and all integrands and tails one closure
    each; a parameter the binding lacks raises UnboundVariableError, and
    any variable that is neither x nor a parameter raises it here.
    bind.walk is the tree's walk (_shape's): its tokens, whose leaves are
    only "c" and "x", and its slots, which limits' tree pass reads with
    each parameter's name replaced by its number.
    """
    shape, slots = _shape(expr, frozenset(names))
    build = _builder(shape)

    def bind(params: Mapping[str, float]) -> tuple[Callable, Callable, Callable]:
        try:
            constants = [float(params[s]) if isinstance(s, str) else s for s in slots]
        except KeyError as exc:
            raise UnboundVariableError(exc.args[0]) from None
        bindings = dict(params)

        def fallback(x: float) -> float:
            return evaluate(expr, {**bindings, "x": x})

        kernel, bound = build(fallback, *constants)

        def frullani(a: float, b: float) -> Callable[[float], float]:
            def integrand(x: float) -> float:
                return (kernel(a * x) - kernel(b * x)) / x

            scaled = None if bound is None else (*bound, a, b)
            return _with_panels(integrand, shape, "integrand", scaled)

        def tail(m: float) -> Callable[[float], float]:
            def log_tail(s: float) -> float:
                try:
                    u = math.exp(s)
                except OverflowError:
                    u = math.inf
                return kernel(u) - m

            return _with_panels(log_tail, shape, "tail", None if bound is None else (*bound, m))

        return _with_panels(kernel, shape, "kernel", bound), frullani, tail

    bind.walk = shape, slots
    return bind


def compile_kernel(
    expr: Expression, params: Mapping[str, float] | None = None
) -> Callable[[float], float]:
    """Compile a tree in x, and in the parameters params binds to numbers,
    into a function of a float x.

    The function runs the tree as straight-line Python with no domain
    checks, in the order evaluate walks it; exp and expm1 of an argument
    past 710 give inf there, as evaluate does.  A point where that raises
    (another overflow, an argument outside a function's domain) runs again
    through evaluate, so the function returns exactly what
    evaluate(expr, {**params, "x": x}) returns and raises the same
    DomainError.  evaluate recurses; parse bounds its trees at MAX_DEPTH,
    but a hand-built tree past Python's recursion limit ends in
    RecursionError at such a point.  Each tree shape is compiled once, with
    its constants and parameters as arguments, so all trees and bindings
    that differ only in those share one code object.  Any other variable
    raises UnboundVariableError here rather than at call time.  The
    function's attribute panel() gives its G7/K15 panel, which
    integrate_adaptive runs.
    """
    params = params or {}
    return compile_family(expr, params)(params)[0]


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
