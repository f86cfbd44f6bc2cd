"""Catalog verification sweep with per-class error headroom.

Runs every catalog entry over its default grid at the class tolerance and
prints one line per record plus, per evaluation class, the worst observed
|closed - oracle| against the tolerance and the total integrand evaluations.
The headroom numbers are what to watch after touching quadrature.py or an
entry's declared M, the kernel's limit or mean at infinity, which the tail
f(e^s) - M of Frullani's substitution takes out: the suite can stay green
while the margin quietly erodes.
The evaluation totals are deterministic, so a quadrature change can quote
them on any machine.

Exit status follows the CLI convention: 1 if any record is FAIL or
ORACLE_FAILED, else 0.
"""

import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from frullani import catalog  # noqa: E402
from frullani.records import BAD_STATUSES  # noqa: E402


def main() -> int:
    records = []
    for eid in catalog.entry_ids():
        for params in catalog.default_grid(eid):
            records.append(catalog.verify_entry(eid, params))

    worst = defaultdict(float)
    slowest = defaultdict(float)
    evaluations = defaultdict(int)
    for rec in records:
        entry = catalog.get_entry(rec.entry_id)
        binding = " ".join(f"{k}={v:g}" for k, v in rec.params.items())
        print(f"{rec.entry_id:<12} {rec.status:<6} abs_err={rec.abs_error:.3e} "
              f"oracle_err={rec.oracle_error:.3e} [{binding}]")
        if rec.status == "PASS":
            worst[entry.eval_class] = max(worst[entry.eval_class], rec.abs_error)
        slowest[entry.eval_class] = max(slowest[entry.eval_class], rec.wall_time)
        evaluations[entry.eval_class] += rec.evaluations

    print()
    for eval_class in sorted(worst):
        tol = catalog.class_tolerance(eval_class)
        margin = tol / worst[eval_class] if worst[eval_class] > 0 else float("inf")
        print(f"{eval_class:<16} worst abs_err {worst[eval_class]:.3e} vs tol {tol:.0e} "
              f"(headroom {margin:.0f}x, {evaluations[eval_class]} evaluations, "
              f"slowest record {slowest[eval_class] * 1e3:.1f} ms)")

    bad = [r for r in records if r.status in BAD_STATUSES]
    print(f"\n{len(records)} records, {len(records) - len(bad)} good, {len(bad)} bad")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
