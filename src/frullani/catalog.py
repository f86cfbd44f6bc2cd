"""Machine-checkable catalog of Frullani-type integral identities.

Twenty entries, one table of CatalogEntry rows: eleven from Gradshteyn &
Ryzhik (GR-*), nine from volume 1 of Ramanujan's Notebooks (R-*).  Each
entry carries the printed closed form, parameter constraints with prose, a
default verification grid, its evaluation class, and the reduction the
paper states: a kernel f as expression text in x and the entry's
parameters, with a scale pair (alpha, beta), so that the printed integrand
is [f(alpha x) - f(beta x)]/x, or [f(alpha x^p) - f(beta x^p)]/x where the
entry names a power p.  The text is compiled like a typed kernel
(expr.compile_family), once per entry, and bound to each binding's numbers.
The same compiled family gives the tail the oracle integrates under
Frullani's substitution, f(e^s) - M.  M is the one number an entry
declares beyond the printed text: the kernel's limit at infinity or, for
an oscillating kernel, its mean there, 0 unless declared.  Eight entries
declare it; GR-4.324.2's is its kernel's Jensen mean, 2 ln max(1, |a|).
The closed form does not read M: a wrong declaration shifts the oracle's
answer by the error in M times ln(beta/alpha), and ends FAIL.  This
module builds no expression tree of its own.

Six entries give the printed integrand as its own text, where it is not
written through the kernel: GR-3.476.1 (x^p), GR-4.297.7 (over x^2),
GR-4.267.8 (over ln t on (0, 1)), GR-3.329 (the kernel's x cancelled, in
expm1 form), R-3.5 and R-3.6 (sine products).  GR-4.267.8 also names its
substitution t = exp(-x), under which its integral over (0, 1) is the
Frullani integral of expm1(-x), GR-3.434.2's kernel.  No entry carries
Python numerics: an exp that overflows saturates to inf inside the
compiled code.

Verification integrates every entry by integrate_frullani, an oscillatory
one through integrate_frullani_oscillatory, which keeps a common tail grid
where the scales share one; an entry with a power or a substitution
integrates its kernel's power-1 integrand in x.  records.judge evaluates
the closed form, applies GR-3.476.1's power rule to the oracle's tolerance
and result, as it does for the pipeline, and gives the verdict.  No
exception escapes a VerificationRecord.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, NamedTuple, Optional

# base_frequency, STATUSES and VerificationRecord are re-exported as part of
# this module's API.  The oracles are called through this module's names.
from .quadrature import base_frequency, integrate_frullani, integrate_frullani_oscillatory

# Not called here, since every entry takes integrate_frullani; the
# benchmark's tracer wraps the names catalog.integrate_adaptive and
# catalog.integrate_decaying, so they must stay importable from this module.
from .quadrature import integrate_adaptive, integrate_decaying  # noqa: F401
from .expr import compile_family, evaluate, parse
from .records import STATUSES, VerificationRecord, judge, skipped
from .series import gr_4_324_2_closed, log_ratio

__all__ = [
    "Constraint",
    "CatalogEntry",
    "VerificationRecord",
    "STATUSES",
    "list_entries",
    "get_entry",
    "entry_ids",
    "verify_entry",
    "default_grid",
    "class_tolerance",
    "parse_grid_file",
    "base_frequency",
]

CLASS_TOLERANCE = {
    "smooth-decay": 1e-6,
    "oscillatory": 1e-4,
}


class Constraint(NamedTuple):
    prose: str
    holds: Callable[[dict], bool]


class CatalogEntry(NamedTuple):
    entry_id: str
    source: str
    eval_class: str
    param_names: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    closed_form: Callable[[dict], float]
    default_grid: tuple[dict, ...]
    # the kernel f as expression text in x and the parameters, and the scale
    # pair (alpha, beta) as texts in the parameters: unless integrand is
    # given, the printed integrand is [f(alpha x) - f(beta x)]/x.  Scales
    # that are two parameters are the pair the zero law equates.
    kernel: str
    scales: tuple[str, str]
    # the power p as text in the parameters, where the kernel takes x^p:
    # the printed integrand is then [f(alpha x^p) - f(beta x^p)]/x
    power: Optional[str] = None
    # the printed variable t as text in x, where the printed integral is
    # over t: under t = exp(-x) it is the integral over (0, inf) of
    # [f(alpha x) - f(beta x)]/x
    substitution: Optional[str] = None
    # the printed integrand where the kernel does not give it, as expression
    # text in x (or in t, written x) and the parameters
    integrand: Optional[str] = None
    # M, the kernel's limit at infinity or, where it oscillates, its mean
    # there, declared where it is not 0: the oracle's tail f(e^s) - M takes
    # it out, and a true M' costs (M' - M) ln(beta/alpha)
    m: Callable[[dict], float] = lambda p: 0.0
    note: str = ""


def _positive(*names: str) -> Constraint:
    prose = ", ".join(names) + (" is" if len(names) == 1 else " are") + " positive"
    return Constraint(prose, lambda p, ns=names: all(p[n] > 0 for n in ns))


# ---------------------------------------------------------------- entries

# the table, in the order list_entries and entry_ids give it
_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        entry_id="GR-3.434.2",
        source="G&R 3.434.2",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: log_ratio(p["b"], p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel="expm1(-x)",
        scales=("a", "b"),
        m=lambda p: -1.0,
    ),
    CatalogEntry(
        entry_id="GR-4.267.8",
        source="G&R 4.267.8",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: log_ratio(p["b"], p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 2.0}),
        kernel="expm1(-x)",
        scales=("a", "b"),
        substitution="exp(-x)",
        # (t^(b-1) - t^(a-1))/ln t over (0, 1), x standing for t; exactly
        # t = 1 raises DomainError
        integrand="(expm1((b - 1)*ln(x)) - expm1((a - 1)*ln(x)))/ln(x)",
        m=lambda p: -1.0,
        note=(
            "the printed closed form inverts the ratio; the printed integrand "
            "(t^(b-1) - t^(a-1))/ln t equals ln(b/a), e.g. +0.28768 at a=1.5, "
            "b=2, confirmed numerically, so ln(b/a) is catalogued"
        ),
    ),
    CatalogEntry(
        entry_id="GR-3.476.1",
        source="G&R 3.476.1",
        eval_class="smooth-decay",
        param_names=("v", "u", "p"),
        constraints=(_positive("v", "u", "p"),),
        closed_form=lambda p: log_ratio(p["u"], p["v"]) / p["p"],
        default_grid=(
            {"v": 1.0, "u": 2.0, "p": 1.0},
            {"v": 1.0, "u": 10.0, "p": 2.0},
            {"v": 3.0, "u": 3.0, "p": 1.5},
        ),
        kernel="expm1(-x)",
        scales=("v", "u"),
        power="p",
        integrand="(expm1(-v*x^p) - expm1(-u*x^p))/x",
        m=lambda p: -1.0,
    ),
    CatalogEntry(
        entry_id="GR-3.436",
        source="G&R 3.436",
        eval_class="smooth-decay",
        param_names=("a", "b", "p", "q"),
        constraints=(_positive("a", "b", "p", "q"),),
        closed_form=lambda p: (p["p"] - p["q"]) * log_ratio(p["b"], p["a"]),
        default_grid=(
            {"a": 1.0, "b": 2.0, "p": 3.0, "q": 1.0},
            {"a": 1.0, "b": 10.0, "p": 2.0, "q": 1.0},
            {"a": 2.0, "b": 2.0, "p": 3.0, "q": 1.0},
        ),
        kernel="(expm1(-q*x) - expm1(-p*x))/x",
        scales=("a", "b"),
    ),
    CatalogEntry(
        entry_id="GR-3.329",
        source="G&R 3.329",
        eval_class="smooth-decay",
        param_names=("a", "b", "c"),
        constraints=(
            _positive("a", "b"),
            Constraint("c is positive (exp(-c e^y) must decay)", lambda p: p["c"] > 0),
        ),
        closed_form=lambda p: math.exp(-p["c"]) * log_ratio(p["b"], p["a"]),
        default_grid=(
            {"a": 1.0, "b": 2.0, "c": 1.0},
            {"a": 1.0, "b": 10.0, "c": 0.5},
            {"a": 3.0, "b": 3.0, "c": 2.0},
        ),
        # x e^(-c e^x)/(1 - e^(-x)), stable at small x
        kernel="x*exp(-c*exp(x))/(-expm1(-x))",
        scales=("a", "b"),
        # the kernel's x cancels; e^(-c e^y) = e^(-c) e^(-c (e^y - 1))
        integrand=(
            "a*exp(-c)*exp(-c*expm1(a*x))/(-expm1(-a*x))"
            " - b*exp(-c)*exp(-c*expm1(b*x))/(-expm1(-b*x))"
        ),
        note="positivity of c is inferred from convergence, not printed",
    ),
    CatalogEntry(
        entry_id="GR-3.232",
        source="G&R 3.232",
        eval_class="smooth-decay",
        param_names=("a", "b", "c", "mu"),
        constraints=(_positive("a", "b", "c", "mu"),),
        closed_form=lambda p: math.pow(p["c"], -p["mu"]) * log_ratio(p["b"], p["a"]),
        default_grid=(
            {"a": 1.0, "b": 2.0, "c": 1.0, "mu": 2.0},
            {"a": 1.0, "b": 10.0, "c": 3.0, "mu": 1.0},
            {"a": 2.0, "b": 2.0, "c": 1.0, "mu": 3.0},
        ),
        kernel="(x + c)^(-mu)",
        scales=("a", "b"),
    ),
    CatalogEntry(
        entry_id="GR-4.536.2",
        source="G&R 4.536.2",
        eval_class="smooth-decay",
        param_names=("p", "q"),
        constraints=(_positive("p", "q"),),
        closed_form=lambda prm: 0.5 * math.pi * log_ratio(prm["p"], prm["q"]),
        default_grid=({"p": 2.0, "q": 1.0}, {"p": 10.0, "q": 1.0}, {"p": 2.0, "q": 2.0}),
        kernel="atan(x)",
        scales=("p", "q"),
        m=lambda p: 0.5 * math.pi,
    ),
    CatalogEntry(
        entry_id="GR-4.319.3",
        source="G&R 4.319.3",
        eval_class="smooth-decay",
        param_names=("a", "b", "p", "q"),
        constraints=(_positive("a", "b", "p", "q"),),
        closed_form=lambda prm: math.log1p(prm["b"] / prm["a"])
        * log_ratio(prm["q"], prm["p"]),
        default_grid=(
            {"a": 1.0, "b": 1.0, "p": 1.0, "q": 2.0},
            {"a": 2.0, "b": 3.0, "p": 1.0, "q": 10.0},
            {"a": 1.0, "b": 2.0, "p": 2.0, "q": 2.0},
        ),
        # ln(a + b e^{-x}) less its ln(a) part, which cancels
        kernel="log1p(b/a*exp(-x))",
        scales=("p", "q"),
        note="closed form ln(a/(a+b)) ln(p/q) is evaluated as ln(1+b/a) ln(q/p)",
    ),
    CatalogEntry(
        entry_id="GR-4.297.7",
        source="G&R 4.297.7",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: p["a"] * p["b"] * log_ratio(p["b"], p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel="a*b*log1p(x)/x",
        scales=("a", "b"),
        integrand="(b*log1p(a*x) - a*log1p(b*x))/(x*x)",
    ),
    CatalogEntry(
        entry_id="GR-3.484",
        source="G&R 3.484",
        eval_class="smooth-decay",
        param_names=("a", "p", "q"),
        constraints=(_positive("a", "p", "q"),),
        closed_form=lambda prm: math.expm1(prm["a"]) * log_ratio(prm["q"], prm["p"]),
        default_grid=(
            {"a": 1.0, "p": 1.0, "q": 2.0},
            {"a": 2.0, "p": 1.0, "q": 10.0},
            {"a": 1.0, "p": 2.0, "q": 2.0},
        ),
        # (1 + a/x)^x, stable at both ends
        kernel="exp(x*log1p(a/x))",
        scales=("q", "p"),
        m=lambda prm: math.exp(prm["a"]),
    ),
    CatalogEntry(
        entry_id="GR-3.412.1",
        source="G&R 3.412.1",
        eval_class="smooth-decay",
        param_names=("a", "b", "c", "g", "h", "p", "q"),
        constraints=(_positive("a", "b", "c", "g", "h", "p", "q"),),
        closed_form=lambda prm: (prm["a"] + prm["b"])
        / (prm["c"] + prm["g"] + prm["h"])
        * log_ratio(prm["q"], prm["p"]),
        default_grid=(
            {"a": 1.0, "b": 1.0, "c": 1.0, "g": 1.0, "h": 1.0, "p": 1.0, "q": 2.0},
            {"a": 1.0, "b": 1.0, "c": 1.0, "g": 1.0, "h": 1.0, "p": 1.0, "q": 10.0},
            {"a": 1.0, "b": 1.0, "c": 1.0, "g": 1.0, "h": 1.0, "p": 2.0, "q": 2.0},
        ),
        kernel="(a + b*exp(-x))/(c*exp(x) + g + h*exp(-x))",
        scales=("p", "q"),
    ),
    CatalogEntry(
        entry_id="GR-4.324.2",
        source="G&R 4.324.2",
        eval_class="oscillatory",
        param_names=("a", "p", "q"),
        constraints=(
            _positive("p", "q"),
            Constraint("a != -1 (kernel log degenerates)", lambda p: p["a"] != -1.0),
            Constraint(
                "|a| != 1 for numerical verification (kernel log is singular "
                "on the cosine lattice)",
                lambda p: abs(p["a"]) != 1.0,
            ),
        ),
        closed_form=lambda prm: gr_4_324_2_closed(prm["a"], prm["p"], prm["q"]),
        default_grid=(
            {"a": 0.5, "p": 1.0, "q": 2.0},
            {"a": 2.0, "p": 1.0, "q": 10.0},
            {"a": 0.5, "p": 2.0, "q": 2.0},
        ),
        # ln(1 + 2a cos x + a^2); it has no limit at infinity
        kernel="log1p(2*a*cos(x) + a*a)",
        scales=("p", "q"),
        # 1 + 2a cos x + a^2 = |1 + a e^(ix)|^2, so by Jensen's formula the
        # mean over a period is 2 ln max(1, |a|)
        m=lambda prm: 2.0 * math.log(max(1.0, abs(prm["a"]))),
    ),
    CatalogEntry(
        entry_id="R-3.1",
        source="Ramanujan Notebooks I, 3.1",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: 0.5 * math.pi * log_ratio(p["a"], p["b"]),
        default_grid=({"a": 2.0, "b": 1.0}, {"a": 10.0, "b": 1.0}, {"a": 2.0, "b": 2.0}),
        kernel="atan(x)",
        scales=("a", "b"),
        m=lambda p: 0.5 * math.pi,
    ),
    CatalogEntry(
        entry_id="R-3.2",
        source="Ramanujan Notebooks I, 3.2",
        eval_class="smooth-decay",
        param_names=("p", "q", "a", "b"),
        constraints=(_positive("p", "q", "a", "b"),),
        closed_form=lambda prm: math.log1p(prm["q"] / prm["p"])
        * log_ratio(prm["b"], prm["a"]),
        default_grid=(
            {"p": 1.0, "q": 1.0, "a": 1.0, "b": 2.0},
            {"p": 1.0, "q": 3.0, "a": 1.0, "b": 10.0},
            {"p": 2.0, "q": 1.0, "a": 2.0, "b": 2.0},
        ),
        # ln(p + q e^{-x}) less its ln(p) part, which cancels
        kernel="log1p(q/p*exp(-x))",
        scales=("a", "b"),
    ),
    CatalogEntry(
        entry_id="R-3.3",
        source="Ramanujan Notebooks I, 3.3",
        eval_class="smooth-decay",
        param_names=("a", "b", "p", "q", "n"),
        constraints=(_positive("a", "b", "p", "q"),),
        closed_form=lambda prm: (1.0 - math.pow(prm["p"] / prm["q"], prm["n"]))
        * log_ratio(prm["a"], prm["b"]),
        default_grid=(
            {"a": 2.0, "b": 1.0, "p": 1.0, "q": 2.0, "n": 2.0},
            {"a": 10.0, "b": 1.0, "p": 3.0, "q": 1.0, "n": 1.0},
            {"a": 2.0, "b": 2.0, "p": 1.0, "q": 2.0, "n": 3.0},
        ),
        kernel="((x + p)/(x + q))^n",
        scales=("a", "b"),
        m=lambda p: 1.0,
    ),
    CatalogEntry(
        entry_id="R-3.4",
        source="Ramanujan Notebooks I, 3.4",
        eval_class="oscillatory",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: log_ratio(p["b"], p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel="cos(x)",  # no limit at infinity
        scales=("a", "b"),
    ),
    CatalogEntry(
        entry_id="R-3.5",
        source="Ramanujan Notebooks I, 3.5",
        eval_class="oscillatory",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: 0.5 * log_ratio(p["b"], p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 2.0}),
        # the product expands to (cos ax - cos bx)/2
        kernel="0.5*cos(x)",
        scales=("a", "b"),
        integrand="sin(0.5*(b - a)*x)*sin(0.5*(b + a)*x)/x",
    ),
    CatalogEntry(
        entry_id="R-3.6",
        source="Ramanujan Notebooks I, 3.6",
        eval_class="oscillatory",
        param_names=("p", "q"),
        constraints=(
            Constraint(
                "p > q > 0 (closed form needs (p+q)/(p-q) positive)",
                lambda prm: prm["p"] > prm["q"] > 0,
            ),
        ),
        closed_form=lambda prm: 0.5 * log_ratio(prm["p"] + prm["q"], prm["p"] - prm["q"]),
        default_grid=({"p": 3.0, "q": 1.0}, {"p": 11.0, "q": 9.0}, {"p": 2.0, "q": 1.0}),
        # the product expands to (cos (p-q)x - cos (p+q)x)/2
        kernel="0.5*cos(x)",
        scales=("p - q", "p + q"),
        integrand="sin(p*x)*sin(q*x)/x",
        note="p > q is required but not printed alongside the entry",
    ),
    CatalogEntry(
        entry_id="R-3.8",
        source="Ramanujan Notebooks I, 3.8",
        eval_class="oscillatory",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: 0.0,
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 2.0}),
        kernel="exp(-x)*sin(x)",
        scales=("a", "b"),
    ),
    CatalogEntry(
        entry_id="R-3.9",
        source="Ramanujan Notebooks I, 3.9",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        closed_form=lambda p: log_ratio(p["b"], p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel="exp(-x)*cos(x)",
        scales=("a", "b"),
    ),
)

_BY_ID = {e.entry_id: e for e in _ENTRIES}


def entry_ids() -> tuple[str, ...]:
    return tuple(e.entry_id for e in _ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog entry: {entry_id!r}") from None


def list_entries() -> list[tuple[str, str, str, str]]:
    """(id, source, constraint prose, evaluation class) in stable order."""
    out = []
    for e in _ENTRIES:
        prose = "; ".join(c.prose for c in e.constraints)
        out.append((e.entry_id, e.source, prose, e.eval_class))
    return out


def class_tolerance(eval_class: str) -> float:
    return CLASS_TOLERANCE[eval_class]


def default_grid(entry_id: str) -> tuple[dict, ...]:
    return tuple(dict(p) for p in get_entry(entry_id).default_grid)


def _check_params(entry: CatalogEntry, params: dict) -> tuple[dict, Optional[str]]:
    """The binding as floats in the entry's declaration order, and the prose
    of the first constraint it violates (None when all hold).  Raises
    ValueError on wrong parameter names or a non-finite value."""
    given = set(params)
    wanted = set(entry.param_names)
    if given != wanted:
        missing = sorted(wanted - given)
        extra = sorted(given - wanted)
        bits = []
        if missing:
            bits.append(f"missing {', '.join(missing)}")
        if extra:
            bits.append(f"unexpected {', '.join(extra)}")
        raise ValueError(f"{entry.entry_id}: bad parameters: {'; '.join(bits)}")
    clean = {}
    for name in entry.param_names:
        v = float(params[name])
        if not math.isfinite(v):
            raise ValueError(f"{entry.entry_id}: parameter {name} must be finite")
        clean[name] = v
    violated = next((c.prose for c in entry.constraints if not c.holds(clean)), None)
    return clean, violated


# Keyed by the catalog's own texts, a fixed set.
@functools.cache
def _compiled(text: str, names: tuple[str, ...]):
    """The text of an entry compiled once, for every binding of names."""
    return compile_family(parse(text), names)


def _bind(entry: CatalogEntry, params: dict) -> tuple[Callable[[float], float], tuple, Callable]:
    """What the oracle integrates at a checked binding: the integrand, the
    scale pair and the tail f(e^s) - M of the kernel f (expr.compile_family's
    third role), M being the entry's m.  The integrand is the printed one
    where it is in x at power 1; otherwise it is the kernel's
    [f(alpha x) - f(beta x)]/x, whose integral is p times the printed
    one's for an entry with a power p, and the printed one's for an entry
    with a substitution.  Each text they need is bound once, and the
    scales are evaluated once."""
    names = entry.param_names
    scales = tuple(evaluate(parse(text), params) for text in entry.scales)
    _, frullani, tail = _compiled(entry.kernel, names)(params)
    if entry.integrand is None or entry.power is not None or entry.substitution is not None:
        integrand = frullani(*scales)
    else:
        integrand = _compiled(entry.integrand, names)(params)[0]
    return integrand, scales, tail(entry.m(params))


def verify_entry(entry_id: str, params: dict, tol: Optional[float] = None) -> VerificationRecord:
    """Bind, integrate with the class-appropriate oracle, compare.

    All failures are embedded in the record's status, never raised (except
    for an unknown entry id, which is a caller error).  The record's params
    keep the entry's declaration order and only its declared names.
    """
    entry = get_entry(entry_id)
    if tol is None:
        tol = class_tolerance(entry.eval_class)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    start = time.perf_counter()
    try:
        clean, violated = _check_params(entry, params)
    except ValueError as exc:
        shown = {k: params[k] for k in entry.param_names if k in params}
        return skipped(entry_id, shown, "CONSTRAINT_VIOLATION", start, str(exc))
    if violated is not None:
        return skipped(entry_id, clean, "CONSTRAINT_VIOLATION", start, violated)
    power = 1.0 if entry.power is None else evaluate(parse(entry.power), clean)

    def oracle(share: float):
        # bound after judge checks the closed form: GR-3.484's m, e^a,
        # overflows where its closed form does
        integrand, scales, tail = _bind(entry, clean)
        if entry.eval_class == "oscillatory":
            return integrate_frullani_oscillatory(integrand, scales, tail, share)
        return integrate_frullani(integrand, scales, tail, share)

    return judge(entry_id, clean, lambda: entry.closed_form(clean), oracle, tol, start, power=power)


def parse_grid_file(text: str) -> dict[str, list[dict]]:
    """Parse parameter-grid overrides.

    One binding set per line: `<entry-id> key=value key=value ...`.
    Everything after `#` is a comment; blank lines are skipped.  Entry ids
    and parameter names are validated against the catalog.
    """
    grids: dict[str, list[dict]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        entry_id = parts[0]
        if entry_id not in _BY_ID:
            raise ValueError(f"line {lineno}: unknown catalog entry {entry_id!r}")
        entry = _BY_ID[entry_id]
        params: dict[str, float] = {}
        for tok in parts[1:]:
            if "=" not in tok:
                raise ValueError(
                    f"line {lineno}: expected key=value, got {tok!r}"
                )
            key, _, val = tok.partition("=")
            if key not in entry.param_names:
                raise ValueError(
                    f"line {lineno}: {entry_id} has no parameter {key!r}"
                )
            if key in params:
                raise ValueError(f"line {lineno}: duplicate parameter {key!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad numeric value {val!r} for {key}"
                ) from None
        missing = sorted(set(entry.param_names) - set(params))
        if missing:
            raise ValueError(
                f"line {lineno}: {entry_id} missing parameters {', '.join(missing)}"
            )
        grids.setdefault(entry_id, []).append(params)
    return grids
