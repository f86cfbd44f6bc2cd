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
from dataclasses import dataclass

from .expr import Expression, evaluate, free_variables, unparse
from .limits import (
    LimitVerdict,
    ProbeConfig,
    limit_at_infinity,
    limit_at_zero_plus,
)
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
    bound to numbers), the two scale factors, and the argument power."""

    f: Expression
    a: float
    b: float
    power: float = 1.0

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


@dataclass(frozen=True)
class ApplicabilityReport:
    verdict_at_zero: LimitVerdict
    verdict_at_infinity: LimitVerdict
    applicable: bool
    reason: str


def diagnose(
    prob: FrullaniProblem, cfg: ProbeConfig = ProbeConfig()
) -> ApplicabilityReport:
    """Probe f at 0+ and infinity; applicable iff both limits are finite.

    Expression evaluation failures inside the probe propagate as ProbeError
    with the offending abscissa.
    """

    def kernel(x: float) -> float:
        return evaluate(prob.f, {"x": x})

    at_zero = limit_at_zero_plus(kernel, cfg)
    at_inf = limit_at_infinity(kernel, cfg)
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
    report = diagnose(prob)
    if not report.applicable:
        return skipped("eval", params, "NOT_APPLICABLE", start, report.reason)

    f0 = report.verdict_at_zero.value
    finf = report.verdict_at_infinity.value
    expected = closed_form(prob, f0, finf)
    provenance = f"limits=probe f0={f0!r} finf={finf!r} kernel={unparse(prob.f)}"

    a, b, p = prob.a, prob.b, prob.power

    def integrand(x: float) -> float:
        xp = x if p == 1.0 else math.pow(x, p)
        fa = evaluate(prob.f, {"x": a * xp})
        fb = evaluate(prob.f, {"x": b * xp})
        return (fa - fb) / x

    return judge(
        "eval", params, expected, lambda: integrate_decaying(integrand, tol * 0.25),
        tol, start, provenance,
    )
