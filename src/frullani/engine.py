"""Closed-form evaluation of Frullani integrals with applicability diagnosis.

For f with finite limits at 0+ and infinity and positive scale factors a, b,

    integral_0^inf (f(a x^p) - f(b x^p)) / x dx = (1/p) [f(0) - f(inf)] ln(b/a)

The engine probes the two limits numerically (limits module), decides whether
the formula applies, evaluates the closed form, and can cross-check against
a quadrature oracle.  The oracle takes Frullani's own substitution
(quadrature.integrate_frullani) on the tail role of the kernel's compiled
family, with f(inf) read from its expression tree
(limits.tree_limit_at_infinity), and the graded decaying map where the
tree does not decide f(inf).  The closed form keeps the probe's limits,
so a wrong limit from either source ends FAIL, not PASS.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

from .expr import Expression, compile_family, free_variables, unparse

# Not called here, since kernels are compiled; the benchmark's tracer wraps
# the name engine.evaluate, so it must stay importable from this module.
from .expr import evaluate  # noqa: F401
from .frozen import Frozen
from .limits import LimitVerdict, limit_at_infinity, limit_at_zero_plus
# under its own name: the benchmark's tracer wraps engine.limit_at_infinity
# as the probe
from .limits import tree_limit_at_infinity as tree_limit
from .quadrature import integrate_decaying, integrate_frullani
from .records import VerificationRecord, judge, nonfinite_closed_form, skipped
from .series import log_ratio

__all__ = [
    "FrullaniProblem",
    "ApplicabilityReport",
    "diagnose",
    "closed_form",
    "evaluate_pipeline",
]


class FrullaniProblem(Frozen):
    """One integral: the kernel f (an expression in x, parameters already
    bound to numbers), the two scale factors, and the argument power.

    kernel is f, integrand (f(a x) - f(b x)) / x, a closure over it, and
    tail(m) the maker of the log-tail f(e^s) - m, all three roles of one
    compiled family (expr.compile_family), bound once when the problem is
    made; they take no part in equality, hashing or repr."""

    __slots__ = ("f", "a", "b", "power", "kernel", "integrand", "tail")
    _compared = __slots__[:4]

    def __init__(self, f: Expression, a: float, b: float, power: float = 1.0):
        for name, v in (("a", a), ("b", b), ("power", power)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")
        names = free_variables(f)
        if names != frozenset({"x"}):
            raise ValueError(
                f"kernel must have exactly the free variable x, got "
                f"{sorted(names) or 'none'}"
            )
        kernel, frullani, tail = compile_family(f)({})
        self._set(f=f, a=a, b=b, power=power, kernel=kernel, integrand=frullani(a, b), tail=tail)


class ApplicabilityReport(NamedTuple):
    verdict_at_zero: LimitVerdict
    verdict_at_infinity: LimitVerdict
    applicable: bool
    reason: str


def diagnose(kernel: Callable[[float], float]) -> ApplicabilityReport:
    """Probe a compiled kernel at 0+ and infinity; applicable iff both limits
    are finite.

    Each probe follows the limits module's one sampling plan (x = 0.5**k and
    x = 2.0**k for k = 0 .. 59).  Evaluation failures inside the probe
    propagate as ProbeError with the offending abscissa.
    """
    at_zero = limit_at_zero_plus(kernel)
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


def evaluate_pipeline(prob: FrullaniProblem, tol: float) -> VerificationRecord:
    """Diagnose, evaluate the closed form from the probed limits, and verify
    against the quadrature oracle.  Returns a VerificationRecord with entry
    id "eval"; the detail field records that the limits came from the probe
    and which oracle ran.

    Not-applicable problems short-circuit with status NOT_APPLICABLE, and a
    closed form that is not a finite double ends CONSTRAINT_VIOLATION, as in
    the catalog; an oracle that fails to converge (or cannot evaluate the
    integrand) yields ORACLE_FAILED.

    Only then is the tree asked for M = f(inf) (limits.tree_limit_at_infinity).
    Where it decides M, the oracle is integrate_frullani with the tail
    f(e^s) - M (prob.tail).  Where it does not, the oracle is one
    integrate_decaying call.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    params = {"a": prob.a, "b": prob.b, "power": prob.power}
    start = time.perf_counter()
    report = diagnose(prob.kernel)
    if not report.applicable:
        return skipped("eval", params, "NOT_APPLICABLE", start, report.reason)

    f0 = report.verdict_at_zero.value
    finf = report.verdict_at_infinity.value
    expected = closed_form(prob, f0, finf)
    if not math.isfinite(expected):
        # f0 - finf or its quotient by a tiny power overflows
        return nonfinite_closed_form("eval", params, start, repr(expected))
    # M from the tree, never from the probe: the closed form already rests
    # on the probe, and an M shared with it would cancel its error
    m = tree_limit(prob.f)
    route = "decaying map (tree undetermined)" if m is None else f"frullani M={m!r} (tree)"
    provenance = (
        f"limits=probe f0={f0!r} finf={finf!r} oracle={route} kernel={unparse(prob.f)}"
    )

    p = prob.power

    # u = x^p turns dx/x into du/(p u): integrate the power-1 integrand and
    # divide by p last, as closed_form does; the quadrature tolerance is
    # scaled by p so the divided error still meets the oracle's share
    def oracle(share: float):
        if share * p == 0.0:
            raise ValueError(f"oracle tolerance tol*power/4 = {tol!r}*{p!r}/4 underflows to 0.0")
        if m is None:
            res = integrate_decaying(prob.integrand, share * p)
        else:
            res = integrate_frullani(prob.integrand, (prob.a, prob.b), prob.tail(m), share * p)
        return res._replace(value=res.value / p, error_estimate=res.error_estimate / p)

    return judge("eval", params, expected, oracle, tol, start, provenance)

