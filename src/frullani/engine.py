"""Closed-form evaluation of Frullani integrals with applicability diagnosis.

For f with finite limits at 0+ and infinity and positive scale factors a, b,

    integral_0^inf (f(a x^p) - f(b x^p)) / x dx = (1/p) [f(0) - f(inf)] ln(b/a)

The engine probes the two limits numerically (limits module), decides whether
the formula applies, evaluates the closed form, and can cross-check against
the adaptive quadrature oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from .expr import Expression, compile_kernel, free_variables, unparse

# Not called here, since kernels are compiled; the benchmark's tracer wraps
# the name engine.evaluate, so it must stay importable from this module.
from .expr import evaluate  # noqa: F401
from .limits import LimitVerdict, limit_at_infinity, limit_at_zero_plus
from .quadrature import integrate_decaying
from .records import VerificationRecord, judge, skipped

__all__ = [
    "FrullaniProblem",
    "ApplicabilityReport",
    "diagnose",
    "closed_form",
    "evaluate_pipeline",
]


@dataclass(frozen=True)
class FrullaniProblem:
    """One integral: the kernel f (an expression in x, parameters already
    bound to numbers), the two scale factors, and the argument power.

    kernel is f compiled once (expr.compile_kernel) when the problem is made;
    it takes no part in equality, hashing or repr."""

    f: Expression
    a: float
    b: float
    power: float = 1.0
    kernel: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "power"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")
        names = free_variables(self.f)
        if names != frozenset({"x"}):
            raise ValueError(
                f"kernel must have exactly the free variable x, got "
                f"{sorted(names) or 'none'}"
            )
        object.__setattr__(self, "kernel", compile_kernel(self.f))


@dataclass(frozen=True)
class ApplicabilityReport:
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

    The logarithm is always taken of the ratio larger/smaller and the sign
    applied separately, so swapping a and b negates the result bitwise and
    a == b gives exactly 0.  Division by the power comes last, making the
    power-p value exactly the power-1 value divided by p.
    """
    if not (math.isfinite(f0) and math.isfinite(finf)):
        raise ValueError("f0 and finf must be finite")
    if prob.b >= prob.a:
        spread = math.log(prob.b / prob.a)
    else:
        spread = -math.log(prob.a / prob.b)
    return (f0 - finf) * spread / prob.power


def evaluate_pipeline(prob: FrullaniProblem, tol: float) -> VerificationRecord:
    """Diagnose, evaluate the closed form from the probed limits, and verify
    against the quadrature oracle.  Returns a VerificationRecord with entry
    id "eval"; the detail field records that the limits came from the probe.

    Not-applicable problems short-circuit with status NOT_APPLICABLE; an
    oracle that fails to converge (or cannot evaluate the integrand) yields
    ORACLE_FAILED.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params = {"a": prob.a, "b": prob.b, "power": prob.power}
    start = time.perf_counter()
    report = diagnose(prob.kernel)
    if not report.applicable:
        return skipped("eval", params, "NOT_APPLICABLE", start, report.reason)

    f0 = report.verdict_at_zero.value
    finf = report.verdict_at_infinity.value
    expected = closed_form(prob, f0, finf)
    provenance = f"limits=probe f0={f0!r} finf={finf!r} kernel={unparse(prob.f)}"

    f, a, b, p = prob.kernel, prob.a, prob.b, prob.power

    # u = x^p turns dx/x into du/(p u): integrate the power-1 integrand and
    # divide by p last, as closed_form does; the quadrature tolerance is
    # scaled by p so the divided error still meets tol / 4
    def integrand(x: float) -> float:
        return (f(a * x) - f(b * x)) / x

    def oracle():
        res = integrate_decaying(integrand, tol * 0.25 * p)
        return replace(res, value=res.value / p, error_estimate=res.error_estimate / p)

    return judge("eval", params, expected, oracle, tol, start, provenance)
