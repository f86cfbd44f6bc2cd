"""Command line front end.

Subcommands:

  list        catalog entries with sources, constraints, evaluation classes
  verify      check one entry, on its default grid or an explicit binding
  verify-all  check every entry over its grid, with text or json reports
  eval        run the probe-then-integrate pipeline on a kernel expression
  series      closed form vs truncated series for the log-cosine identity
  limits      probe a kernel's limits at 0+ and infinity

Record lines are stable:

  entry=<id> params=<k=v;...> expected=<float> numeric=<float> abs_err=<e> status=<S>

floats print via repr (shortest round-trip), error magnitudes as %.3e, so
two runs over the same inputs produce byte-identical reports.  Exit status
is 0 when no record is FAIL or ORACLE_FAILED, 1 otherwise, 2 for usage
errors.  FRULLANI_TOL overrides the default tolerance when --tol is absent;
either must be a finite positive number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import catalog
from .engine import FrullaniProblem, diagnose, evaluate_pipeline
from .expr import ExprError, compile_kernel, free_variables, parse as parse_expr
from .limits import ProbeError
from .records import VerificationRecord
from .series import SeriesParams, gr_4_324_2_closed, gr_4_324_2_series

_BAD_STATUSES = ("FAIL", "ORACLE_FAILED")
_SKIP_STATUSES = ("NOT_APPLICABLE", "CONSTRAINT_VIOLATION")
# the series is summed term by term in Python: 10**7 terms take seconds
_MAX_TERMS = 10_000_000


class UsageError(Exception):
    pass


def _default_tol(fallback: float | None) -> float | None:
    # an explicit --tol always wins; the environment fills the gap
    if fallback is not None:
        if not (math.isfinite(fallback) and fallback > 0):
            raise UsageError(f"--tol must be a positive number, got {fallback!r}")
        return fallback
    env = os.environ.get("FRULLANI_TOL")
    if env is None:
        return None
    try:
        tol = float(env)
    except ValueError:
        raise UsageError(f"FRULLANI_TOL is not a number: {env!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"FRULLANI_TOL must be a positive number, got {env!r}")
    return tol


def _parse_bindings(text: str) -> dict:
    params = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, sep, val = tok.partition("=")
        if not sep or not key:
            raise UsageError(f"expected key=value in --params, got {tok!r}")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"bad numeric value {val!r} for {key.strip()!r}") from None
    if not params:
        raise UsageError("--params is empty")
    return params


def _record_line(rec: VerificationRecord) -> str:
    params = ";".join(f"{k}={v!r}" for k, v in rec.params.items())
    return (
        f"entry={rec.entry_id} params={params} expected={rec.expected!r} "
        f"numeric={rec.numeric!r} abs_err={rec.abs_error:.3e} status={rec.status}"
    )


def _record_object(rec: VerificationRecord) -> dict:
    return {
        "entry": rec.entry_id,
        "params": rec.params,
        "expected": rec.expected,
        "numeric": rec.numeric,
        "abs_err": rec.abs_error,
        "status": rec.status,
    }


def _summary_line(records) -> str:
    passed = sum(1 for r in records if r.status == "PASS")
    failed = sum(1 for r in records if r.status in _BAD_STATUSES)
    skipped = sum(1 for r in records if r.status in _SKIP_STATUSES)
    return f"total={len(records)} pass={passed} fail={failed} skipped={skipped}"


def _exit_code(records) -> int:
    return 1 if any(r.status in _BAD_STATUSES for r in records) else 0


def _cmd_list(args) -> int:
    for eid, source, prose, eval_class in catalog.list_entries():
        print(f"{eid:<12} {eval_class:<16} {source:<28} {prose}")
    return 0


def _cmd_verify(args) -> int:
    try:
        catalog.get_entry(args.entry)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    tol = _default_tol(args.tol)
    if args.params is not None:
        grid = [_parse_bindings(args.params)]
    else:
        grid = list(catalog.default_grid(args.entry))
    records = []
    for params in grid:
        try:
            rec = catalog.verify_entry(args.entry, params, tol)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        records.append(rec)
        print(_record_line(rec))
        if rec.status != "PASS" and rec.detail:
            print(f"  {rec.detail}", file=sys.stderr)
    return _exit_code(records)


def _cmd_verify_all(args) -> int:
    tol = _default_tol(args.tol)
    grids = {eid: list(catalog.default_grid(eid)) for eid in catalog.entry_ids()}
    if args.grid is not None:
        try:
            with open(args.grid, "r", encoding="utf-8") as fh:
                overrides = catalog.parse_grid_file(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read grid file: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"{args.grid}: {exc}") from None
        grids.update(overrides)
    records = []
    for eid in sorted(grids):
        for params in grids[eid]:
            records.append(catalog.verify_entry(eid, params, tol))
    if args.format == "json":
        body = json.dumps([_record_object(r) for r in records], indent=2) + "\n"
    else:
        lines = [_record_line(r) for r in records]
        lines.append(_summary_line(records))
        body = "\n".join(lines) + "\n"
    sys.stdout.write(body)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(body)
    return _exit_code(records)


def _cmd_eval(args) -> int:
    tol = _default_tol(args.tol)
    if tol is None:
        tol = 1e-6
    try:
        tree = parse_expr(args.expr)
    except ExprError as exc:
        raise UsageError(f"bad expression: {exc}") from None
    try:
        prob = FrullaniProblem(tree, args.a, args.b, args.power)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        rec = evaluate_pipeline(prob, tol)
    except ProbeError as exc:
        raise UsageError(str(exc)) from None
    print(_record_line(rec))
    if rec.status != "PASS" and rec.detail:
        print(f"  {rec.detail}", file=sys.stderr)
    return _exit_code([rec])


def _cmd_series(args) -> int:
    if args.terms < 1:
        raise UsageError("--terms must be at least 1")
    if args.terms > _MAX_TERMS:
        raise UsageError(f"--terms must be at most {_MAX_TERMS}")
    try:
        # the closed form would take ln(q/p) of an infinite p or q unchecked
        SeriesParams(args.a, args.p, args.q, args.terms)
        closed = gr_4_324_2_closed(args.a, args.p, args.q)
        partial = gr_4_324_2_series(args.a, args.p, args.q, args.terms)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"closed={closed!r}")
    print(f"partial={partial!r}")
    print(f"residual={abs(closed - partial):.3e}")
    return 0


def _cmd_limits(args) -> int:
    try:
        tree = parse_expr(args.expr)
    except ExprError as exc:
        raise UsageError(f"bad expression: {exc}") from None
    free = free_variables(tree)
    if free - {"x"}:
        raise UsageError(
            "expression may only use the variable x, found "
            + ", ".join(sorted(free - {"x"}))
        )
    try:
        report = diagnose(compile_kernel(tree))
    except ProbeError as exc:
        raise UsageError(str(exc)) from None
    print(f"at 0+: {report.verdict_at_zero.describe()}")
    print(f"at infinity: {report.verdict_at_infinity.describe()}")
    print(f"applicable: {'yes' if report.applicable else 'no'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frullani",
        description="closed-form evaluation and verification of Frullani-type integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog entries").set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", help="verify one catalog entry")
    p_verify.add_argument("entry", help="catalog entry id, e.g. GR-3.434.2")
    p_verify.add_argument("--params", help="comma separated k=v bindings")
    p_verify.add_argument("--tol", type=float, help="comparison tolerance")
    p_verify.set_defaults(func=_cmd_verify)

    p_all = sub.add_parser("verify-all", help="verify every entry over its grid")
    p_all.add_argument("--tol", type=float, help="comparison tolerance for every entry")
    p_all.add_argument("--grid", help="parameter grid file overriding defaults")
    p_all.add_argument("--report", help="also write the report to this path")
    p_all.add_argument("--format", choices=("text", "json"), default="text")
    p_all.set_defaults(func=_cmd_verify_all)

    p_eval = sub.add_parser("eval", help="evaluate a kernel through the pipeline")
    p_eval.add_argument("expr", help="kernel f as an expression in x")
    p_eval.add_argument("--a", type=float, required=True)
    p_eval.add_argument("--b", type=float, required=True)
    p_eval.add_argument("--power", type=float, default=1.0)
    p_eval.add_argument("--tol", type=float, help="verification tolerance (default 1e-6)")
    p_eval.set_defaults(func=_cmd_eval)

    p_series = sub.add_parser("series", help="log-cosine identity: closed vs series")
    p_series.add_argument("--a", type=float, required=True)
    p_series.add_argument("--p", type=float, required=True)
    p_series.add_argument("--q", type=float, required=True)
    p_series.add_argument("--terms", type=int, required=True)
    p_series.set_defaults(func=_cmd_series)

    p_limits = sub.add_parser("limits", help="probe a kernel's limits")
    p_limits.add_argument("expr", help="kernel f as an expression in x")
    p_limits.set_defaults(func=_cmd_limits)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
