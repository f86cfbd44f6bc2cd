"""Verification records and the one rule that gives them their status.

Both verification routes, the catalog (catalog.verify_entry) and the
probe-then-verify pipeline (engine.evaluate_pipeline), end in a
VerificationRecord built here: skipped() for a binding that never reached an
oracle, judge() for one that did.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

from .expr import ExprError
from .quadrature import IntegrandError, QuadratureResult

__all__ = [
    "VerificationRecord", "STATUSES", "BAD_STATUSES", "SKIP_STATUSES",
    "skipped", "nonfinite_closed_form", "judge",
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


def nonfinite_closed_form(
    entry_id: str, params: dict, start: float, cause: str
) -> VerificationRecord:
    """The CONSTRAINT_VIOLATION record for a binding whose constraints hold
    but whose closed form overflows or leaves its domain in floating point;
    cause is the non-finite value or the error that stopped it."""
    return skipped(
        entry_id, params, "CONSTRAINT_VIOLATION", start,
        f"closed form is not a finite double at this binding: {cause}",
    )


def judge(
    entry_id: str,
    params: dict,
    expected: float,
    oracle: Callable[[float], QuadratureResult],
    tol: float,
    start: float,
    provenance: str = "",
) -> VerificationRecord:
    """Run the oracle and compare its value with the closed form.

    The oracle is called with its own tolerance, a quarter of tol: the
    quadrature error it may leave is then small beside the comparison's
    tolerance.  ORACLE_FAILED when the oracle raises or does not converge,
    PASS when |expected - value| <= tol, FAIL otherwise.  The detail names
    the reason for every status but PASS, after the provenance when one is
    given.
    """
    try:
        res = oracle(tol * 0.25)
    except _ORACLE_ERRORS as exc:
        return VerificationRecord(
            entry_id, params, expected, math.nan, math.nan, math.nan,
            "ORACLE_FAILED", time.perf_counter() - start,
            _join(provenance, f"oracle raised: {exc}"),
        )
    abs_error = abs(expected - res.value)
    if not res.converged:
        status, reason = "ORACLE_FAILED", f"oracle did not converge: {res.diagnostic}"
    elif abs_error <= tol:
        status, reason = "PASS", ""
    else:
        status, reason = "FAIL", f"|closed - oracle| = {abs_error:.3e} > tol = {tol:.3e}"
    return VerificationRecord(
        entry_id, params, expected, res.value, abs_error, res.error_estimate,
        status, time.perf_counter() - start, _join(provenance, reason),
        res.function_evaluations,
    )


def _join(provenance: str, reason: str) -> str:
    return "; ".join(s for s in (provenance, reason) if s)
