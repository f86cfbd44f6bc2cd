"""Verification records and the one rule that gives them their status.

Both verification routes, the catalog (catalog.verify_entry) and the
probe-then-verify pipeline (engine.evaluate_pipeline), end in a
VerificationRecord built here: skipped() for a binding that failed its
checks, judge() for one that passed them.  judge() alone evaluates the
closed form and applies the power rule u = x^p to the oracle.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

from .expr import ExprError
from .quadrature import IntegrandError, QuadratureResult

__all__ = [
    "VerificationRecord", "STATUSES", "BAD_STATUSES", "SKIP_STATUSES",
    "skipped", "judge",
]

STATUSES = ("PASS", "FAIL", "NOT_APPLICABLE", "ORACLE_FAILED", "CONSTRAINT_VIOLATION")
# a run fails on a record of a bad status, and a skipped record never
# reached an oracle
BAD_STATUSES = ("FAIL", "ORACLE_FAILED")
SKIP_STATUSES = ("NOT_APPLICABLE", "CONSTRAINT_VIOLATION")

# what an oracle may raise and still end in an ORACLE_FAILED record
_ORACLE_ERRORS = (ArithmeticError, ExprError, IntegrandError, ValueError)


class VerificationRecord(NamedTuple):
    """One checked binding.  params holds the binding in print order;
    evaluations counts the oracle's integrand evaluations (0 when no oracle
    ran or it raised)."""

    entry_id: str
    params: dict
    expected: float
    numeric: float
    abs_error: float
    oracle_error: float
    status: str
    wall_time: float
    detail: str = ""
    evaluations: int = 0


def skipped(
    entry_id: str, params: dict, status: str, start: float, detail: str
) -> VerificationRecord:
    """A record for a binding that never reached an oracle
    (CONSTRAINT_VIOLATION, NOT_APPLICABLE).  start is the perf_counter
    reading the record's wall time counts from."""
    return VerificationRecord(
        entry_id, params, math.nan, math.nan, math.nan, math.nan,
        status, time.perf_counter() - start, detail,
    )


def judge(
    entry_id: str,
    params: dict,
    closed_form: Callable[[], float],
    oracle: Callable[[float], QuadratureResult],
    tol: float,
    start: float,
    provenance: str = "",
    power: float = 1.0,
) -> VerificationRecord:
    """The one verdict step for a binding that passed its checks.

    CONSTRAINT_VIOLATION when the closed_form thunk raises ArithmeticError
    or ValueError or gives a value that is not a finite double; only then
    does the oracle run.  It integrates the power-1 integrand: u = x^p turns
    dx/x into du/(p u), so it is called with tolerance tol * 0.25 * p (a
    quarter of tol, scaled so that the divided error meets that quarter),
    and its value and error estimate are divided by p last, as the closed
    form divides by p.  ORACLE_FAILED when that tolerance underflows to
    0.0, or the oracle raises or does not converge; PASS when
    |expected - value| <= tol, FAIL otherwise.  The detail names the
    reason for every status but PASS, after the provenance when one is
    given and the closed form was finite.
    """
    try:
        expected = closed_form()
    except (ArithmeticError, ValueError) as exc:
        expected, cause = math.nan, str(exc)
    else:
        cause = repr(expected)
    if not math.isfinite(expected):
        return skipped(
            entry_id, params, "CONSTRAINT_VIOLATION", start,
            f"closed form is not a finite double at this binding: {cause}",
        )
    share = tol * 0.25 * power
    try:
        if share == 0.0:
            raise ValueError(
                f"oracle tolerance tol*power/4 = {tol!r}*{power!r}/4 underflows to 0.0"
            )
        res = oracle(share)
    except _ORACLE_ERRORS as exc:
        return VerificationRecord(
            entry_id, params, expected, math.nan, math.nan, math.nan,
            "ORACLE_FAILED", time.perf_counter() - start,
            _join(provenance, f"oracle raised: {exc}"),
        )
    value = res.value / power
    abs_error = abs(expected - value)
    if not res.converged:
        status, reason = "ORACLE_FAILED", f"oracle did not converge: {res.diagnostic}"
    elif abs_error <= tol:
        status, reason = "PASS", ""
    else:
        status, reason = "FAIL", f"|closed - oracle| = {abs_error:.3e} > tol = {tol:.3e}"
    return VerificationRecord(
        entry_id, params, expected, value, abs_error, res.error_estimate / power,
        status, time.perf_counter() - start, _join(provenance, reason),
        res.function_evaluations,
    )


def _join(provenance: str, reason: str) -> str:
    return "; ".join(s for s in (provenance, reason) if s)
