"""Closed-form evaluation of Frullani integrals with applicability diagnosis.

For f with finite limits at 0+ and infinity and positive scale factors a, b,

    integral_0^inf (f(a x^p) - f(b x^p)) / x dx = (1/p) [f(0) - f(inf)] ln(b/a)

The engine reads f(0+) from the walk the kernel was compiled from
(limits.tree_limit_at_zero_plus), probing it numerically only where the
walk is silent, probes f(inf) numerically (limits module), decides whether
the formula applies, evaluates the closed form, and can cross-check against
a quadrature oracle.  The oracle takes Frullani's own substitution
(quadrature.integrate_frullani) on the tail role of the kernel's compiled
family, with f(inf) read from the walk that family was compiled from
(limits.tree_limit_at_infinity), the same oracle as the catalog's, whose
head grades itself by x = u^4 where it finds the integrand singular at 0,
so that a kernel like sqrt(x) there costs a few panels.  The tree decides
1^inf too, so (1+c/x)^x takes M = e^c.  The graded decaying map is left for
a tree that does not decide f(inf), as ((x+1)/x)^x, whose quotient keeps no
next term.  The closed form keeps the probe's f(inf), and the oracle the
tree's, so a wrong f(inf) from either source ends FAIL, not PASS; the
oracle never reads f(0+), so it checks the closed form's f(0+), from
either source, on its own.

What depends only on the kernel is worked out once per kernel.  The engine
keeps one table of the 128 kernels it was given last, each entry the
kernel's compiled family (its kernel and tail roles, its frullani(a, b)
maker and its walk) and, from the first evaluate_pipeline call on it, its
diagnosis, the tree's M and the record's detail, so that a request on a
kept kernel runs only the closed form, the oracle and judge.  Nothing
that raised is kept: a kernel that raises UnboundVariableError, or whose
probe raises ProbeError, raises it again on every call.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import Callable, NamedTuple

from .expr import Expression, compile_family, unparse

# Not called here, since kernels are compiled; the benchmark's tracer wraps
# the name engine.evaluate, so it must stay importable from this module.
from .expr import evaluate  # noqa: F401
from .frozen import Frozen
from .limits import LimitVerdict, limit_at_infinity, limit_at_zero_plus, tree_limit_at_zero_plus
# under its own name: the benchmark's tracer wraps engine.limit_at_infinity
# as the probe
from .limits import tree_limit_at_infinity as tree_limit
from .quadrature import integrate_decaying, integrate_frullani
from .records import VerificationRecord, judge, skipped
from .series import log_ratio

__all__ = [
    "FrullaniProblem",
    "ApplicabilityReport",
    "diagnose",
    "closed_form",
    "evaluate_pipeline",
]


# Kernels the table keeps; the least recently used goes first.
_TABLE_SIZE = 128


class _Kernel:
    """A kernel's entry in the table: the tree it was compiled from; the
    kernel and tail roles, the frullani(a, b) maker and the walk of its
    compiled family (expr.compile_family); and diagnosis, None until the
    first evaluate_pipeline call on it, then that call's ApplicabilityReport,
    the tree's M and the record's detail."""

    __slots__ = ("tree", "kernel", "frullani", "tail", "walk", "diagnosis")

    def __init__(self, tree: Expression):
        family = compile_family(tree)
        if "x" not in family.walk[0]:
            raise ValueError("kernel must read the variable x")
        self.kernel, self.frullani, self.tail = family({})
        self.tree, self.walk, self.diagnosis = tree, family.walk, None


# tree -> its _Kernel, in order of use
_kernels: OrderedDict = OrderedDict()


def _compiled(tree: Expression) -> _Kernel:
    """The table's entry for tree, made on a miss (which may raise, and
    keeps nothing then), pushing out the least recently used past
    _TABLE_SIZE.  A kept tree that is == to tree is the same kernel only
    if it is tree or has its repr: == does not tell Const(-0.0) from
    Const(0.0), nor Const(1) from Const(1.0), and repr does; parse's cache
    gives the same tree for the same text, so a hit seldom reads repr."""
    entry = _kernels.pop(tree, None)
    if entry is None or not (entry.tree is tree or repr(entry.tree) == repr(tree)):
        entry = _Kernel(tree)
    _kernels[tree] = entry
    if len(_kernels) > _TABLE_SIZE:
        _kernels.popitem(last=False)
    return entry


class FrullaniProblem(Frozen):
    """One integral: the kernel f (an expression in x, parameters already
    bound to numbers), the two scale factors, and the argument power.

    kernel is f, integrand (f(a x) - f(b x)) / x, tail(m) the maker of the
    log-tail f(e^s) - m, all three roles of one compiled family
    (expr.compile_family), and walk its walk of f.  The family is compiled
    once per kernel and kept in the engine's table, compiled being f's
    entry there, so problems on one kernel share kernel, tail and walk, and
    each binds only its own integrand; none takes part in equality, hashing
    or repr.  A variable other than x raises compile_family's
    UnboundVariableError, and a kernel that does not read x, so f(a x) =
    f(b x), ValueError, on every call: the table keeps no kernel that
    raised."""

    __slots__ = ("f", "a", "b", "power", "kernel", "integrand", "tail", "walk", "compiled")
    _compared = __slots__[:4]

    def __init__(self, f: Expression, a: float, b: float, power: float = 1.0):
        for name, v in (("a", a), ("b", b), ("power", power)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")
        compiled = _compiled(f)
        self._set(f=f, a=a, b=b, power=power, kernel=compiled.kernel, integrand=compiled.frullani(a, b),
                  tail=compiled.tail, walk=compiled.walk, compiled=compiled)


class ApplicabilityReport(NamedTuple):
    verdict_at_zero: LimitVerdict
    verdict_at_infinity: LimitVerdict
    applicable: bool
    reason: str


def diagnose(kernel: Callable[[float], float], walk) -> ApplicabilityReport:
    """The limits of a compiled kernel at 0+ and infinity, given the walk it
    was compiled from (expr.compile_family's); applicable iff both limits
    are finite.

    f(0+) is read from the walk (limits.tree_limit_at_zero_plus), as
    LimitVerdict.finite(value, 0.0) with no evidence, since it took no
    samples; only where the walk is silent is the kernel probed at 0+.
    f(inf) is always probed.  Each probe follows the limits module's one
    sampling plan (x = 0.5**k and x = 2.0**k for k = 0 .. 59).  Evaluation
    failures inside a probe propagate as ProbeError with the offending
    abscissa.
    """
    f0 = tree_limit_at_zero_plus(walk)
    at_zero = limit_at_zero_plus(kernel) if f0 is None else LimitVerdict.finite(f0, 0.0)
    at_inf = limit_at_infinity(kernel)
    applicable = at_zero.is_finite and at_inf.is_finite
    if applicable:
        reason = "both limits finite"
    else:
        bad = []
        if not at_zero.is_finite:
            bad.append(f"at 0+: {at_zero.describe()}")
        if not at_inf.is_finite:
            bad.append(f"at infinity: {at_inf.describe()}")
        reason = "; ".join(bad)
    return ApplicabilityReport(at_zero, at_inf, applicable, reason)


def closed_form(prob: FrullaniProblem, f0: float, finf: float) -> float:
    """(1/p) (f0 - finf) ln(b/a).

    The logarithm (series.log_ratio) is always taken of the ratio
    larger/smaller and the sign applied separately, so swapping a and b
    negates the result bitwise and a == b gives exactly 0.  Division by the power comes last, making the
    power-p value exactly the power-1 value divided by p.
    """
    if not (math.isfinite(f0) and math.isfinite(finf)):
        raise ValueError("f0 and finf must be finite")
    if prob.b >= prob.a:
        spread = log_ratio(prob.b, prob.a)
    else:
        spread = -log_ratio(prob.a, prob.b)
    return (f0 - finf) * spread / prob.power


def _diagnosis(prob: FrullaniProblem) -> tuple[ApplicabilityReport, float | None, str]:
    """What evaluate_pipeline reads of prob's kernel alone: diagnose's
    report and, where it is applicable, the tree's M, None where the tree
    does not decide it, and the record's detail."""
    report = diagnose(prob.kernel, prob.walk)
    if not report.applicable:
        return report, None, ""
    # M from the tree, never from the probe: the closed form's f(inf) is
    # the probe's, and an M shared with it would cancel its error
    m = tree_limit(prob.walk)
    route = "decaying map (tree undetermined)" if m is None else f"frullani M={m!r} (tree)"
    # the tree's verdict took no samples
    source = "probe" if report.verdict_at_zero.evidence else "tree"
    f0, finf = report.verdict_at_zero.value, report.verdict_at_infinity.value
    provenance = (
        f"f0={f0!r} ({source}) finf={finf!r} (probe) oracle={route} kernel={unparse(prob.f)}"
    )
    return report, m, provenance


def evaluate_pipeline(prob: FrullaniProblem, tol: float) -> VerificationRecord:
    """Diagnose, evaluate the closed form from diagnose's limits, and verify
    against the quadrature oracle.  Returns a VerificationRecord with entry
    id "eval"; the detail field names the source of each limit, as
    f0=... (tree) or f0=... (probe) and finf=... (probe), and which oracle
    ran.

    Not-applicable problems short-circuit with status NOT_APPLICABLE.  For
    the rest, the kernel's walk is asked for M = f(inf)
    (limits.tree_limit_at_infinity), which only chooses the oracle's route.
    Where it decides M, the oracle is integrate_frullani with the tail
    f(e^s) - M (prob.tail), as for the catalog: its head grades itself by
    x = u^4 where it finds the integrand singular at 0, as x^(-1/2) is.
    Where it does not, the oracle is one integrate_decaying call.  Either
    integrates the power-1 integrand: records.judge, as for the catalog,
    ends a closed form that is not a finite double in CONSTRAINT_VIOLATION,
    applies the power rule u = x^p to the oracle's tolerance and result, and
    gives ORACLE_FAILED where the oracle fails to converge or cannot
    evaluate the integrand.

    The diagnosis, M and the detail depend on the kernel alone: the first
    call on a kernel keeps them in its entry of the engine's table
    (prob.compiled), and later calls on it, with any a, b, power and tol,
    read them there, so they run only the closed form, the oracle and
    judge.  A call whose diagnosis raises ProbeError keeps nothing, and the
    next call on the kernel probes again.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    params = {"a": prob.a, "b": prob.b, "power": prob.power}
    start = time.perf_counter()
    compiled = prob.compiled
    if compiled.diagnosis is None:
        compiled.diagnosis = _diagnosis(prob)
    report, m, provenance = compiled.diagnosis
    if not report.applicable:
        return skipped("eval", params, "NOT_APPLICABLE", start, report.reason)

    f0 = report.verdict_at_zero.value
    finf = report.verdict_at_infinity.value

    def oracle(share: float):
        if m is None:
            return integrate_decaying(prob.integrand, share)
        return integrate_frullani(prob.integrand, (prob.a, prob.b), prob.tail(m), share)

    return judge(
        "eval", params, lambda: closed_form(prob, f0, finf), oracle, tol, start, provenance,
        prob.power,
    )
