"""Numerical one-sided limit classification at 0+ and at infinity.

Both probes follow one fixed sampling plan: the zero-side probe samples f at
x = 0.5**k and the infinity-side probe at x = 2.0**k, for k = 0 .. 59, in
that order, stopping early once a verdict is reached.  The sample sequence
is accelerated with Aitken's delta-squared extrapolation, and successive
extrapolants must agree to a relative 1e-9.  Possible verdicts:

  finite    successive extrapolants agreed; carries (value, uncertainty)
  diverges  |f| grew monotonically past an overflow guard, scaled by the
            first sample where that is above 1; carries a sign
  no-limit  samples kept oscillating with undamped amplitude; carries the
            trailing-window amplitude

This is a heuristic classifier, not a proof: an oscillation slower than the
sampled window, or decay slower than any geometric rate, can be misreported.
Callers that need certainty must supply analytic limits instead.

tree_limit_at_infinity reads the limit at infinity from a kernel's
expression tree instead, with no sampling: one walk that places each node
as a constant, a leading term c x^p (ln x)^q, a growth faster than any
power, or a bound O(x^p (ln x)^q), after Gruntz's most-rapidly-varying
method restricted to leading terms.  It gives a number where the tree
decides a finite limit and None everywhere else.  The probe and the tree
share no code, so where both give a value each checks the other.
"""

from __future__ import annotations

import math
from typing import Callable

from .expr import _OPERATORS, BinOp, Call, Const, ExprError, _shape, evaluate
from .frozen import Frozen

OVERFLOW_GUARD = 1e12
_TRAILING_WINDOW = 8
_TOLERANCE = 1e-9
_ZERO_LADDER = tuple(0.5**k for k in range(60))
_INFINITY_LADDER = tuple(2.0**k for k in range(60))


class ProbeError(RuntimeError):
    """f failed to evaluate at a probe abscissa."""

    def __init__(self, abscissa: float, cause: BaseException):
        self.abscissa = abscissa
        super().__init__(f"probe evaluation failed at x = {abscissa!r}: {cause}")


class LimitVerdict(Frozen):
    """kind is "finite", "diverges" or "no-limit", and the fields of that
    kind are set.  evidence, the (abscissa, sample) pairs the probe took,
    takes no part in ==, hash() or repr()."""

    __slots__ = ("kind", "value", "uncertainty", "direction", "amplitude", "evidence")
    _compared = __slots__[:-1]

    def __init__(
        self,
        kind: str,
        value: float | None = None,
        uncertainty: float | None = None,
        direction: int | None = None,
        amplitude: float | None = None,
        evidence: tuple = (),
    ):
        self._set(kind=kind, value=value, uncertainty=uncertainty, direction=direction,
                  amplitude=amplitude, evidence=evidence)

    @classmethod
    def finite(cls, value: float, uncertainty: float, evidence=()) -> "LimitVerdict":
        return cls("finite", value=value, uncertainty=uncertainty, evidence=evidence)

    @classmethod
    def diverges(cls, direction: int, evidence=()) -> "LimitVerdict":
        return cls("diverges", direction=direction, evidence=evidence)

    @classmethod
    def no_limit(cls, amplitude: float, evidence=()) -> "LimitVerdict":
        return cls("no-limit", amplitude=amplitude, evidence=evidence)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def describe(self) -> str:
        if self.kind == "finite":
            return f"finite(value={self.value!r}, uncertainty={self.uncertainty:.3e})"
        if self.kind == "diverges":
            return f"diverges({'+' if self.direction > 0 else '-'}inf)"
        return f"no-limit(amplitude={self.amplitude:.3e})"


def _aitken(s0: float, s1: float, s2: float) -> float | None:
    """One Aitken delta-squared step; None when the triple is degenerate."""
    d1, d2 = s1 - s0, s2 - s1
    denom = d2 - d1
    if denom == 0.0:
        return s2 if d1 == 0.0 and d2 == 0.0 else None
    if abs(d2) > abs(d1):
        # growing differences: the extrapolant is a repelling fixed point
        # (1/x on the zero ladder lands exactly on 0 this way), not a limit
        return None
    # guard against cancellation blowup in a nearly-degenerate triple
    scale = abs(s0) + abs(s1) + abs(s2)
    if abs(denom) < 1e-14 * scale:
        return None
    a = s2 - d2 * d2 / denom
    if math.isfinite(a):
        return a
    # a difference past 1.3e154 squares to inf: divide first there
    if d2 * d2 < math.inf:
        return None
    a = s2 - d2 * (d2 / denom)
    return a if math.isfinite(a) else None


def _probe(f: Callable[[float], float], abscissas: tuple[float, ...]) -> LimitVerdict:
    samples: list[float] = []
    extrapolants: list[float] = []
    agree_streak = 0
    for x in abscissas:
        try:
            s = float(f(x))
        except Exception as exc:  # noqa: BLE001 - reported with the abscissa
            raise ProbeError(x, exc) from exc
        if math.isnan(s):
            raise ProbeError(x, ValueError("evaluated to NaN"))
        samples.append(s)

        # past OVERFLOW_GUARD times max(1, |first sample|); the unscaled
        # test first keeps the common sample to one comparison
        if (
            abs(s) > OVERFLOW_GUARD
            and abs(s) > OVERFLOW_GUARD * abs(samples[0])
            and len(samples) >= 3
            and abs(samples[-1]) > abs(samples[-2]) > abs(samples[-3])
        ):
            return LimitVerdict.diverges(1 if s > 0 else -1, tuple(zip(abscissas, samples)))

        if len(samples) >= 3:
            a = _aitken(samples[-3], samples[-2], samples[-1])
            if a is not None:
                extrapolants.append(a)
                if len(extrapolants) >= 2:
                    diff = abs(extrapolants[-1] - extrapolants[-2])
                    if diff <= _TOLERANCE * max(1.0, abs(extrapolants[-1])):
                        agree_streak += 1
                        # two consecutive agreements guard against a lucky pair
                        if agree_streak >= 2:
                            return LimitVerdict.finite(
                                extrapolants[-1], diff, tuple(zip(abscissas, samples))
                            )
                    else:
                        agree_streak = 0
            else:
                agree_streak = 0

    evidence = tuple(zip(abscissas, samples))
    window = samples[-_TRAILING_WINDOW:]
    if not all(math.isfinite(w) for w in window):
        finite_signs = {w > 0 for w in window}
        if len(finite_signs) == 1:
            return LimitVerdict.diverges(1 if window[-1] > 0 else -1, evidence)
        return LimitVerdict.no_limit(math.inf, evidence)
    amplitude = max(window) - min(window)
    scale = max(1.0, max(abs(w) for w in window))
    if amplitude > _TOLERANCE * scale:
        diffs = [b - a for a, b in zip(window, window[1:])]
        monotone = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
        if monotone and abs(window[-1]) > abs(window[0]):
            # steady drift with growing magnitude: slow divergence (log-like
            # growth never trips the overflow guard)
            return LimitVerdict.diverges(1 if window[-1] > 0 else -1, evidence)
        return LimitVerdict.no_limit(amplitude, evidence)
    best = extrapolants[-1] if extrapolants else window[-1]
    return LimitVerdict.finite(best, amplitude, evidence)


def limit_at_zero_plus(f: Callable[[float], float]) -> LimitVerdict:
    """Classify the limit of f(x) as x -> 0+."""
    return _probe(f, _ZERO_LADDER)


def limit_at_infinity(f: Callable[[float], float]) -> LimitVerdict:
    """Classify the limit of f(x) as x -> +infinity."""
    return _probe(f, _INFINITY_LADDER)


# The behaviour of one node of a kernel tree as x -> +infinity, a tuple
# whose first field names its kind:
#   ("const", v)         the constant v: the node reads no x
#   ("term", c, p, q)    c x^p (ln x)^q (1 + o(1)), c finite and non-zero
#   ("fast", s)          tends to s*inf faster than any power of x
#   ("bound", o, p, q)   O(x^p (ln x)^q), or o(x^p (ln x)^q) where o is
#                        True; p = -inf is below every power, as exp(-x)
# so kind[2:4] is (p, q) of a term and of a bound.  A node the pass cannot
# place is None, and so is every node above it.
_X = ("term", 1.0, 1, 0)
_ONE = ("term", 1.0, 0, 0)
_O1 = ("bound", False, 0, 0)
_DECAYS = ("bound", False, -math.inf, 0)


def tree_limit_at_infinity(expr) -> float | None:
    """The limit as x -> +infinity of the kernel expr, a tree in x alone,
    read from the tree in one post-order walk (expr._shape's).

    Constant subtrees are folded with evaluate's arithmetic, and leading
    coefficients are combined in floating point, so a value is exact up
    to their rounding.  Leading terms that cancel leave the order they
    cancelled at, with a little o: (x+1) - (x+2) is o(x), and no limit.
    Returns None wherever the tree does not decide a finite limit: leading
    terms that cancel at a growing order; 1^inf, as in (1+c/x)^x, whose ln
    is of a limit of exactly 1; a bounded oscillation, as sin(x); growth;
    a constant that is not a finite double, as exp(1000); a variable
    other than x.  None says nothing about the kernel.
    """
    try:
        # the nodes in post-order, every constant read from slots in turn
        shape, slots = _shape(expr, frozenset())
    except ExprError:  # a variable other than x
        return None
    constants = iter(slots)
    kinds: list = []
    for token in shape:
        if token == "c":
            kind = ("const", next(constants))
        elif token == "x":
            kind = _X
        elif token == "neg":
            kind = _negated(kinds.pop())
        elif token in _OPERATORS:
            right = kinds.pop()
            kind = _binary(token, kinds.pop(), right)
        else:
            kind = _call(token, kinds.pop())
        if kind is None:
            return None
        kinds.append(kind)
    kind = kinds[0]
    if kind[0] == "const":
        return kind[1] if math.isfinite(kind[1]) else None
    if _vanishes(kind):
        return 0.0
    return kind[1] if kind[0] == "term" and kind[2:] == (0, 0) else None


def _folded(node) -> tuple | None:
    """The constant of a node whose operands are constants, by evaluate;
    None where evaluate raises."""
    try:
        return ("const", evaluate(node, {}))
    except ExprError:
        return None


def _term(c: float, p: float, q: float) -> tuple | None:
    """("term", c, p, q), or None where c overflowed or underflowed."""
    return ("term", c, p, q) if c != 0.0 and math.isfinite(c) else None


def _vanishes(kind: tuple) -> bool:
    """True for a term or a bound that tends to 0."""
    return kind[0] in ("term", "bound") and (kind[2:] < (0, 0) or kind == ("bound", True, 0, 0))


def _negated(kind: tuple) -> tuple:
    if kind[0] in ("const", "fast"):
        return (kind[0], -kind[1])
    if kind[0] == "term":
        return ("term", -kind[1], kind[2], kind[3])
    return kind


def _binary(op: str, a: tuple, b: tuple) -> tuple | None:
    if a[0] == b[0] == "const":
        return _folded(BinOp(op, Const(a[1]), Const(b[1])))
    if op == "^":
        return _power(a, b)
    for k in (a, b):
        if k[0] == "const" and not math.isfinite(k[1]):
            return None
    # an exact zero beside a node that reads x: u + 0, u - 0 and 0 + u are
    # u, and 0*u, u*0 and 0/u are 0 where u is finite and, for 0/u, not 0
    if b[0] == "const" and b[1] == 0.0:
        if op in ("+", "-"):
            return a
        return ("const", 0.0) if op == "*" and a[0] != "fast" else None
    if a[0] == "const" and a[1] == 0.0:
        if op in ("+", "-"):
            return b if op == "+" else _negated(b)
        return None if b[0] == ("fast" if op == "*" else "bound") else ("const", 0.0)
    # any other constant is the term c x^0
    a, b = (("term", k[1], 0, 0) if k[0] == "const" else k for k in (a, b))
    if op == "+":
        return _sum(a, b)
    if op == "-":
        return _sum(a, _negated(b))
    if op == "*":
        return _product(a, b)
    return _quotient(a, b)


def _order(kind: tuple) -> tuple:
    """Sort key of a term or a bound: o(x^p) < c x^p < O(x^p)."""
    return (*kind[2:], 1 if kind[0] == "term" else 0 if kind[1] else 2)


def _sum(a: tuple, b: tuple) -> tuple | None:
    if a[0] == "fast" or b[0] == "fast":
        if a[0] == b[0] and a[1] != b[1]:
            return None
        return a if a[0] == "fast" else b
    if a[0] == b[0] == "term" and a[2:] == b[2:]:
        c = a[1] + b[1]
        if c == 0.0:
            # the leading terms cancel: o(x^p (ln x)^q) is left
            return ("bound", True, a[2], a[3])
        return _term(c, a[2], a[3])
    return max(a, b, key=_order)


def _sign(kind: tuple) -> int:
    return 1 if kind[1] > 0 else -1


def _product(a: tuple, b: tuple) -> tuple | None:
    if a[0] == "fast" or b[0] == "fast":
        return None if "bound" in (a[0], b[0]) else ("fast", _sign(a) * _sign(b))
    p, q = a[2] + b[2], a[3] + b[3]
    if a[0] == b[0] == "term":
        return _term(a[1] * b[1], p, q)
    return ("bound", (a[0] == "bound" and a[1]) or (b[0] == "bound" and b[1]), p, q)


def _quotient(a: tuple, b: tuple) -> tuple | None:
    if b[0] == "fast":
        return None if a[0] == "fast" else _DECAYS
    if b[0] != "term":
        return None
    if a[0] == "fast":
        return ("fast", a[1] * _sign(b))
    if a[0] == "term":
        return _term(a[1] / b[1], a[2] - b[2], a[3] - b[3])
    return ("bound", a[1], a[2] - b[2], a[3] - b[3])


def _power(a: tuple, b: tuple) -> tuple | None:
    if b[0] != "const":
        # an exponent that reads x: a^b = exp(b ln a)
        log = _call("ln", a)
        product = log and _binary("*", b, log)
        return product and _call("exp", product)
    e = b[1]
    return _raised(a, e, lambda c: math.pow(c, e)) if math.isfinite(e) else None


def _raised(kind: tuple, e: float, coefficient) -> tuple | None:
    """kind, which reads x, to the constant power e; coefficient(c) is c^e."""
    if kind[0] == "term":
        try:
            c = coefficient(kind[1])
        except (ValueError, OverflowError):
            return None
        return _term(c, kind[2] * e, kind[3] * e)
    if kind[0] == "fast":
        if kind[1] < 0:
            return None
        return ("fast", 1) if e > 0 else _DECAYS if e < 0 else _ONE
    return ("bound", kind[1], kind[2] * e, kind[3] * e) if e > 0 else None


def _call(func: str, kind: tuple) -> tuple | None:
    if kind[0] == "const":
        return _folded(Call(func, Const(kind[1])))
    if func == "sqrt":
        return _raised(kind, 0.5, math.sqrt)
    if func == "abs":
        if kind[0] == "fast":
            return ("fast", 1)
        return _negated(kind) if kind[0] == "term" and kind[1] < 0 else kind
    if _vanishes(kind):
        if func in ("exp", "cos"):
            return _ONE
        if func != "ln":
            return kind  # expm1, log1p, sin and atan of u are u (1 + o(1))
    elif kind[0] == "term" and kind[2:] == (0, 0):
        # a finite limit L: each function is continuous where it is
        # defined, and _folded refuses L where it is not
        limit = _folded(Call(func, Const(kind[1])))
        return limit and _term(limit[1], 0, 0)
    if func in ("ln", "log1p"):
        # ln(c x^p (ln x)^q) = p ln x + q ln ln x + ln c + o(1) for c > 0,
        # and log1p(u) = ln(u) + o(1) for the u that grow, the only ones left
        if kind[0] == "term" and kind[1] > 0 and kind[2] != 0:
            return ("term", kind[2], 0, 1)
        return None
    if kind[0] == "bound":
        # sin and cos of anything, and atan, exp and expm1 of O(1), are O(1)
        return _O1 if func in ("sin", "cos") or kind[2:] <= (0, 0) else None
    # kind grows to sign*inf
    sign = _sign(kind)
    if func in ("sin", "cos"):
        return _O1
    if func == "atan":
        return _term(math.atan(sign * math.inf), 0, 0)
    if func == "expm1" and sign < 0:
        return _term(-1.0, 0, 0)
    # exp or expm1 of c x^p (ln x)^q: faster than any power where p > 0 or q > 1
    steep = kind[0] == "fast" or kind[2] > 0 or kind[3] > 1
    if sign > 0:
        return ("fast", 1) if steep else None
    return _DECAYS if steep else ("bound", True, 0, 0)
