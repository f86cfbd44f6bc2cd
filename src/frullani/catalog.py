"""Machine-checkable catalog of Frullani-type integral identities.

Twenty entries: eleven from Gradshteyn & Ryzhik (GR-*), nine from volume 1
of Ramanujan's Notebooks (R-*).  Each entry carries the printed integrand
(as a builder from parameter bindings to a callable), the printed closed
form, parameter constraints with prose, a default verification grid, and
the metadata the oracle needs (evaluation class; for oscillatory entries the
spectrum, a kernel F with scale pair (alpha, beta) such that the integrand is
[F(alpha x) - F(beta x)]/x).

Entries whose integrand is f(ax)-f(bx) for a single kernel f additionally
carry the kernel as expression source text plus the (a, b, power) mapping
and the analytic limit pair, so the probe-based engine pipeline can be
cross-checked against the catalog's analytic closed forms.

Verification routes through the quadrature oracle appropriate to the
evaluation class and never lets an exception escape a VerificationRecord.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

# base_frequency, STATUSES and VerificationRecord are re-exported as part of
# this module's API.  The oracles are called through this module's names.
from .quadrature import (
    Spectrum,
    base_frequency,
    integrate_adaptive,
    integrate_decaying,
    integrate_frullani_oscillatory,
    integrate_frullani_split,
    oscillatory_plan,
)
from .records import STATUSES, VerificationRecord, judge, skipped
from .series import gr_4_324_2_closed

__all__ = [
    "Constraint",
    "ConstraintViolation",
    "CatalogEntry",
    "VerificationRecord",
    "STATUSES",
    "list_entries",
    "get_entry",
    "entry_ids",
    "instantiate",
    "verify_entry",
    "default_grid",
    "class_tolerance",
    "parse_grid_file",
    "base_frequency",
]

CLASS_TOLERANCE = {
    "smooth-decay": 1e-6,
    "finite-interval": 1e-6,
    "oscillatory": 1e-4,
}


@dataclass(frozen=True)
class Constraint:
    prose: str
    holds: Callable[[dict], bool]


class ConstraintViolation(ValueError):
    """Parameters violate an entry's constraint; carries the prose."""

    def __init__(self, entry_id: str, prose: str):
        self.entry_id = entry_id
        self.prose = prose
        super().__init__(f"{entry_id}: constraint violated: {prose}")


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    source: str
    eval_class: str
    param_names: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    integrand: Callable[[dict], Callable[[float], float]]
    closed_form: Callable[[dict], float]
    default_grid: tuple[dict, ...]
    # oscillatory entries: the kernel and scale pair of the integrand; the
    # scales drive the tail plan, the kernel the split tail
    spectrum: Optional[Callable[[dict], Spectrum]] = None
    # single-kernel entries: f as expression source + (a, b, power) mapping
    kernel: Optional[Callable[[dict], str]] = None
    kernel_map: Optional[Callable[[dict], tuple[float, float, float]]] = None
    kernel_limits: Optional[Callable[[dict], tuple[float, float]]] = None
    # the Frullani scale pair, for the zero law; None when constraints
    # forbid equal scales
    scale_params: Optional[tuple[str, str]] = None
    note: str = ""


def _positive(*names: str) -> Constraint:
    prose = ", ".join(names) + (" is" if len(names) == 1 else " are") + " positive"
    return Constraint(prose, lambda p, ns=names: all(p[n] > 0 for n in ns))


def _fmt(v: float) -> str:
    return repr(float(v))


def _half_cos(u: float) -> float:
    return 0.5 * math.cos(u)


def _damped_sine(u: float) -> float:
    return math.exp(-u) * math.sin(u)


def _log_cosine(a: float) -> Callable[[float], float]:
    sq = a * a

    def f(u: float) -> float:
        return math.log1p(2.0 * a * math.cos(u) + sq)

    return f


# ---------------------------------------------------------------- entries

def _gr_3_434_2() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(x: float) -> float:
            return (math.expm1(-a * x) - math.expm1(-b * x)) / x

        return g

    return CatalogEntry(
        entry_id="GR-3.434.2",
        source="G&R 3.434.2",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: math.log(p["b"] / p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel=lambda p: "exp(-x)",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (1.0, 0.0),
        scale_params=("a", "b"),
    )


def _gr_4_267_8() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(t: float) -> float:
            lt = math.log(t)
            if lt == 0.0:
                return b - a  # removable point at t=1
            return (math.expm1((b - 1.0) * lt) - math.expm1((a - 1.0) * lt)) / lt

        return g

    return CatalogEntry(
        entry_id="GR-4.267.8",
        source="G&R 4.267.8",
        eval_class="finite-interval",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: math.log(p["b"] / p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 2.0}),
        scale_params=("a", "b"),
        note=(
            "the printed closed form inverts the ratio; the printed integrand "
            "(t^(b-1) - t^(a-1))/ln t equals ln(b/a), e.g. +0.28768 at a=1.5, "
            "b=2, confirmed numerically, so ln(b/a) is catalogued"
        ),
    )


def _gr_3_476_1() -> CatalogEntry:
    def make(p):
        v, u, pw = p["v"], p["u"], p["p"]

        def g(x: float) -> float:
            xp = math.pow(x, pw)
            return (math.expm1(-v * xp) - math.expm1(-u * xp)) / x

        return g

    return CatalogEntry(
        entry_id="GR-3.476.1",
        source="G&R 3.476.1",
        eval_class="smooth-decay",
        param_names=("v", "u", "p"),
        constraints=(_positive("v", "u", "p"),),
        integrand=make,
        closed_form=lambda p: math.log(p["u"] / p["v"]) / p["p"],
        default_grid=(
            {"v": 1.0, "u": 2.0, "p": 1.0},
            {"v": 1.0, "u": 10.0, "p": 2.0},
            {"v": 3.0, "u": 3.0, "p": 1.5},
        ),
        kernel=lambda p: "exp(-x)",
        kernel_map=lambda p: (p["v"], p["u"], p["p"]),
        kernel_limits=lambda p: (1.0, 0.0),
        scale_params=("v", "u"),
    )


def _gr_3_436() -> CatalogEntry:
    def make(prm):
        a, b, p, q = prm["a"], prm["b"], prm["p"], prm["q"]

        def g(x: float) -> float:
            # [(e^{-aqx}-e^{-apx})/a - (e^{-bqx}-e^{-bpx})/b] / x^2
            m = max(a, b) * max(p, q) * x
            if m < 0.5:
                # both brackets cancel to O(x^2); sum the joint Taylor
                # series sum_{n>=2} (-x)^n (q^n-p^n)(a^(n-1)-b^(n-1))/n!
                total = 0.0
                qn, pn, an, bn = q, p, 1.0, 1.0
                fact = 1.0
                xn = 1.0  # x^(n-2)
                for n in range(2, 40):
                    qn *= q
                    pn *= p
                    an *= a
                    bn *= b
                    fact *= n
                    term = (qn - pn) * (an - bn) * xn / fact
                    if n % 2:
                        term = -term
                    total += term
                    if abs(term) <= 1e-18 * abs(total) + 1e-300:
                        break
                    xn *= x
                return total
            bra = (math.expm1(-a * q * x) - math.expm1(-a * p * x)) / a
            brb = (math.expm1(-b * q * x) - math.expm1(-b * p * x)) / b
            return (bra - brb) / (x * x)

        return g

    return CatalogEntry(
        entry_id="GR-3.436",
        source="G&R 3.436",
        eval_class="smooth-decay",
        param_names=("a", "b", "p", "q"),
        constraints=(_positive("a", "b", "p", "q"),),
        integrand=make,
        closed_form=lambda p: (p["p"] - p["q"]) * math.log(p["b"] / p["a"]),
        default_grid=(
            {"a": 1.0, "b": 2.0, "p": 3.0, "q": 1.0},
            {"a": 1.0, "b": 10.0, "p": 2.0, "q": 1.0},
            {"a": 2.0, "b": 2.0, "p": 3.0, "q": 1.0},
        ),
        kernel=lambda p: f"(exp(-{_fmt(p['q'])}*x) - exp(-{_fmt(p['p'])}*x))/x",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (p["p"] - p["q"], 0.0),
        scale_params=("a", "b"),
    )


def _gr_3_329() -> CatalogEntry:
    def make(p):
        a, b, c = p["a"], p["b"], p["c"]
        ec = math.exp(-c)

        def term(k: float, x: float) -> float:
            y = k * x
            if y > 35.0:
                return 0.0  # exp(-c*e^y) underflows to 0 long before here
            return k * ec * math.exp(-c * math.expm1(y)) / (-math.expm1(-y))

        def g(x: float) -> float:
            return term(a, x) - term(b, x)

        return g

    return CatalogEntry(
        entry_id="GR-3.329",
        source="G&R 3.329",
        eval_class="smooth-decay",
        param_names=("a", "b", "c"),
        constraints=(
            _positive("a", "b"),
            Constraint("c is positive (exp(-c e^y) must decay)", lambda p: p["c"] > 0),
        ),
        integrand=make,
        closed_form=lambda p: math.exp(-p["c"]) * math.log(p["b"] / p["a"]),
        default_grid=(
            {"a": 1.0, "b": 2.0, "c": 1.0},
            {"a": 1.0, "b": 10.0, "c": 0.5},
            {"a": 3.0, "b": 3.0, "c": 2.0},
        ),
        kernel=lambda p: f"x*exp(-{_fmt(p['c'])}*exp(x))/(1 - exp(-x))",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (math.exp(-p["c"]), 0.0),
        scale_params=("a", "b"),
        note="positivity of c is inferred from convergence, not printed",
    )


def _gr_3_232() -> CatalogEntry:
    def make(p):
        a, b, c, mu = p["a"], p["b"], p["c"], p["mu"]

        def g(x: float) -> float:
            return (math.pow(a * x + c, -mu) - math.pow(b * x + c, -mu)) / x

        return g

    return CatalogEntry(
        entry_id="GR-3.232",
        source="G&R 3.232",
        eval_class="smooth-decay",
        param_names=("a", "b", "c", "mu"),
        constraints=(_positive("a", "b", "c", "mu"),),
        integrand=make,
        closed_form=lambda p: math.pow(p["c"], -p["mu"]) * math.log(p["b"] / p["a"]),
        default_grid=(
            {"a": 1.0, "b": 2.0, "c": 1.0, "mu": 2.0},
            {"a": 1.0, "b": 10.0, "c": 3.0, "mu": 1.0},
            {"a": 2.0, "b": 2.0, "c": 1.0, "mu": 3.0},
        ),
        kernel=lambda p: f"(x + {_fmt(p['c'])})^(-{_fmt(p['mu'])})",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (math.pow(p["c"], -p["mu"]), 0.0),
        scale_params=("a", "b"),
    )


def _gr_4_536_2() -> CatalogEntry:
    def make(prm):
        p, q = prm["p"], prm["q"]

        def g(x: float) -> float:
            return (math.atan(p * x) - math.atan(q * x)) / x

        return g

    return CatalogEntry(
        entry_id="GR-4.536.2",
        source="G&R 4.536.2",
        eval_class="smooth-decay",
        param_names=("p", "q"),
        constraints=(_positive("p", "q"),),
        integrand=make,
        closed_form=lambda prm: 0.5 * math.pi * math.log(prm["p"] / prm["q"]),
        default_grid=({"p": 2.0, "q": 1.0}, {"p": 10.0, "q": 1.0}, {"p": 2.0, "q": 2.0}),
        kernel=lambda p: "atan(x)",
        kernel_map=lambda prm: (prm["p"], prm["q"], 1.0),
        kernel_limits=lambda p: (0.0, 0.5 * math.pi),
        scale_params=("p", "q"),
    )


def _gr_4_319_3() -> CatalogEntry:
    def make(prm):
        a, b, p, q = prm["a"], prm["b"], prm["p"], prm["q"]
        r = b / a

        def g(x: float) -> float:
            # ln(a+b e^{-px}) - ln(a+b e^{-qx}); the ln(a) parts cancel
            return (math.log1p(r * math.exp(-p * x)) - math.log1p(r * math.exp(-q * x))) / x

        return g

    return CatalogEntry(
        entry_id="GR-4.319.3",
        source="G&R 4.319.3",
        eval_class="smooth-decay",
        param_names=("a", "b", "p", "q"),
        constraints=(_positive("a", "b", "p", "q"),),
        integrand=make,
        closed_form=lambda prm: math.log1p(prm["b"] / prm["a"])
        * math.log(prm["q"] / prm["p"]),
        default_grid=(
            {"a": 1.0, "b": 1.0, "p": 1.0, "q": 2.0},
            {"a": 2.0, "b": 3.0, "p": 1.0, "q": 10.0},
            {"a": 1.0, "b": 2.0, "p": 2.0, "q": 2.0},
        ),
        kernel=lambda prm: f"ln({_fmt(prm['a'])} + {_fmt(prm['b'])}*exp(-x))",
        kernel_map=lambda prm: (prm["p"], prm["q"], 1.0),
        kernel_limits=lambda prm: (
            math.log(prm["a"] + prm["b"]),
            math.log(prm["a"]),
        ),
        scale_params=("p", "q"),
        note="closed form ln(a/(a+b)) ln(p/q) is evaluated as ln(1+b/a) ln(q/p)",
    )


def _gr_4_297_7() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(x: float) -> float:
            return (b * math.log1p(a * x) - a * math.log1p(b * x)) / (x * x)

        return g

    return CatalogEntry(
        entry_id="GR-4.297.7",
        source="G&R 4.297.7",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: p["a"] * p["b"] * math.log(p["b"] / p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel=lambda p: f"{_fmt(p['a'])}*{_fmt(p['b'])}*ln(1 + x)/x",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (p["a"] * p["b"], 0.0),
        scale_params=("a", "b"),
    )


def _gr_3_484() -> CatalogEntry:
    def make(prm):
        a, p, q = prm["a"], prm["p"], prm["q"]

        def pw(y: float) -> float:
            # (1 + a/y)^y for y > 0, stable at both ends
            return math.exp(y * math.log1p(a / y))

        def g(x: float) -> float:
            return (pw(q * x) - pw(p * x)) / x

        return g

    return CatalogEntry(
        entry_id="GR-3.484",
        source="G&R 3.484",
        eval_class="smooth-decay",
        param_names=("a", "p", "q"),
        constraints=(_positive("a", "p", "q"),),
        integrand=make,
        closed_form=lambda prm: math.expm1(prm["a"]) * math.log(prm["q"] / prm["p"]),
        default_grid=(
            {"a": 1.0, "p": 1.0, "q": 2.0},
            {"a": 2.0, "p": 1.0, "q": 10.0},
            {"a": 1.0, "p": 2.0, "q": 2.0},
        ),
        kernel=lambda prm: f"(1 + {_fmt(prm['a'])}/x)^x",
        kernel_map=lambda prm: (prm["q"], prm["p"], 1.0),
        kernel_limits=lambda prm: (1.0, math.exp(prm["a"])),
        scale_params=("q", "p"),
    )


def _gr_3_412_1() -> CatalogEntry:
    def make(prm):
        a, b, c, gg, h = prm["a"], prm["b"], prm["c"], prm["g"], prm["h"]
        p, q = prm["p"], prm["q"]

        def f(y: float) -> float:
            if y > 700.0:
                return 0.0  # c e^y dominates; avoids exp overflow
            ey = math.exp(y)
            em = math.exp(-y)
            return (a + b * em) / (c * ey + gg + h * em)

        def g(x: float) -> float:
            return (f(p * x) - f(q * x)) / x

        return g

    return CatalogEntry(
        entry_id="GR-3.412.1",
        source="G&R 3.412.1",
        eval_class="smooth-decay",
        param_names=("a", "b", "c", "g", "h", "p", "q"),
        constraints=(_positive("a", "b", "c", "g", "h", "p", "q"),),
        integrand=make,
        closed_form=lambda prm: (prm["a"] + prm["b"])
        / (prm["c"] + prm["g"] + prm["h"])
        * math.log(prm["q"] / prm["p"]),
        default_grid=(
            {"a": 1.0, "b": 1.0, "c": 1.0, "g": 1.0, "h": 1.0, "p": 1.0, "q": 2.0},
            {"a": 1.0, "b": 1.0, "c": 1.0, "g": 1.0, "h": 1.0, "p": 1.0, "q": 10.0},
            {"a": 1.0, "b": 1.0, "c": 1.0, "g": 1.0, "h": 1.0, "p": 2.0, "q": 2.0},
        ),
        kernel=lambda prm: (
            f"({_fmt(prm['a'])} + {_fmt(prm['b'])}*exp(-x))/"
            f"({_fmt(prm['c'])}*exp(x) + {_fmt(prm['g'])} + {_fmt(prm['h'])}*exp(-x))"
        ),
        kernel_map=lambda prm: (prm["p"], prm["q"], 1.0),
        kernel_limits=lambda prm: (
            (prm["a"] + prm["b"]) / (prm["c"] + prm["g"] + prm["h"]),
            0.0,
        ),
        scale_params=("p", "q"),
    )


def _gr_4_324_2() -> CatalogEntry:
    def make(prm):
        a, p, q = prm["a"], prm["p"], prm["q"]
        sq = a * a

        def g(x: float) -> float:
            return (
                math.log1p(2.0 * a * math.cos(p * x) + sq)
                - math.log1p(2.0 * a * math.cos(q * x) + sq)
            ) / x

        return g

    return CatalogEntry(
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
        integrand=make,
        closed_form=lambda prm: gr_4_324_2_closed(prm["a"], prm["p"], prm["q"]),
        default_grid=(
            {"a": 0.5, "p": 1.0, "q": 2.0},
            {"a": 2.0, "p": 1.0, "q": 10.0},
            {"a": 0.5, "p": 2.0, "q": 2.0},
        ),
        # the mean of the kernel over a period is removed by the split
        spectrum=lambda prm: Spectrum(
            _log_cosine(prm["a"]), (prm["p"], prm["q"]), 2.0 * math.pi
        ),
        kernel=lambda prm: (
            f"ln(1 + 2*{_fmt(prm['a'])}*cos(x) + {_fmt(prm['a'])}*{_fmt(prm['a'])})"
        ),
        kernel_map=lambda prm: (prm["p"], prm["q"], 1.0),
        kernel_limits=None,  # the kernel has no limit at infinity
        scale_params=("p", "q"),
    )


def _r_3_1() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(x: float) -> float:
            return (math.atan(a * x) - math.atan(b * x)) / x

        return g

    return CatalogEntry(
        entry_id="R-3.1",
        source="Ramanujan Notebooks I, 3.1",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: 0.5 * math.pi * math.log(p["a"] / p["b"]),
        default_grid=({"a": 2.0, "b": 1.0}, {"a": 10.0, "b": 1.0}, {"a": 2.0, "b": 2.0}),
        kernel=lambda p: "atan(x)",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (0.0, 0.5 * math.pi),
        scale_params=("a", "b"),
    )


def _r_3_2() -> CatalogEntry:
    def make(prm):
        p, q, a, b = prm["p"], prm["q"], prm["a"], prm["b"]
        r = q / p

        def g(x: float) -> float:
            return (math.log1p(r * math.exp(-a * x)) - math.log1p(r * math.exp(-b * x))) / x

        return g

    return CatalogEntry(
        entry_id="R-3.2",
        source="Ramanujan Notebooks I, 3.2",
        eval_class="smooth-decay",
        param_names=("p", "q", "a", "b"),
        constraints=(_positive("p", "q", "a", "b"),),
        integrand=make,
        closed_form=lambda prm: math.log1p(prm["q"] / prm["p"])
        * math.log(prm["b"] / prm["a"]),
        default_grid=(
            {"p": 1.0, "q": 1.0, "a": 1.0, "b": 2.0},
            {"p": 1.0, "q": 3.0, "a": 1.0, "b": 10.0},
            {"p": 2.0, "q": 1.0, "a": 2.0, "b": 2.0},
        ),
        kernel=lambda prm: f"ln({_fmt(prm['p'])} + {_fmt(prm['q'])}*exp(-x))",
        kernel_map=lambda prm: (prm["a"], prm["b"], 1.0),
        kernel_limits=lambda prm: (
            math.log(prm["p"] + prm["q"]),
            math.log(prm["p"]),
        ),
        scale_params=("a", "b"),
    )


def _r_3_3() -> CatalogEntry:
    def make(prm):
        a, b, p, q, n = prm["a"], prm["b"], prm["p"], prm["q"], prm["n"]

        def f(y: float) -> float:
            return math.pow((y + p) / (y + q), n)

        def g(x: float) -> float:
            return (f(a * x) - f(b * x)) / x

        return g

    return CatalogEntry(
        entry_id="R-3.3",
        source="Ramanujan Notebooks I, 3.3",
        eval_class="smooth-decay",
        param_names=("a", "b", "p", "q", "n"),
        constraints=(_positive("a", "b", "p", "q"),),
        integrand=make,
        closed_form=lambda prm: (1.0 - math.pow(prm["p"] / prm["q"], prm["n"]))
        * math.log(prm["a"] / prm["b"]),
        default_grid=(
            {"a": 2.0, "b": 1.0, "p": 1.0, "q": 2.0, "n": 2.0},
            {"a": 10.0, "b": 1.0, "p": 3.0, "q": 1.0, "n": 1.0},
            {"a": 2.0, "b": 2.0, "p": 1.0, "q": 2.0, "n": 3.0},
        ),
        kernel=lambda prm: f"((x + {_fmt(prm['p'])})/(x + {_fmt(prm['q'])}))^{_fmt(prm['n'])}",
        kernel_map=lambda prm: (prm["a"], prm["b"], 1.0),
        kernel_limits=lambda prm: (math.pow(prm["p"] / prm["q"], prm["n"]), 1.0),
        scale_params=("a", "b"),
    )


def _r_3_4() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(x: float) -> float:
            return (math.cos(a * x) - math.cos(b * x)) / x

        return g

    return CatalogEntry(
        entry_id="R-3.4",
        source="Ramanujan Notebooks I, 3.4",
        eval_class="oscillatory",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: math.log(p["b"] / p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        spectrum=lambda p: Spectrum(math.cos, (p["a"], p["b"])),
        kernel=lambda p: "cos(x)",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=None,  # cos has no limit at infinity
        scale_params=("a", "b"),
    )


def _r_3_5() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]
        half_diff = 0.5 * (b - a)
        half_sum = 0.5 * (b + a)

        def g(x: float) -> float:
            return math.sin(half_diff * x) * math.sin(half_sum * x) / x

        return g

    return CatalogEntry(
        entry_id="R-3.5",
        source="Ramanujan Notebooks I, 3.5",
        eval_class="oscillatory",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: 0.5 * math.log(p["b"] / p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 2.0}),
        # the product expands to (cos ax - cos bx)/2
        spectrum=lambda p: Spectrum(_half_cos, (p["a"], p["b"])),
        scale_params=("a", "b"),
    )


def _r_3_6() -> CatalogEntry:
    def make(prm):
        p, q = prm["p"], prm["q"]

        def g(x: float) -> float:
            return math.sin(p * x) * math.sin(q * x) / x

        return g

    return CatalogEntry(
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
        integrand=make,
        closed_form=lambda prm: 0.5 * math.log((prm["p"] + prm["q"]) / (prm["p"] - prm["q"])),
        default_grid=({"p": 3.0, "q": 1.0}, {"p": 11.0, "q": 9.0}, {"p": 2.0, "q": 1.0}),
        # the product expands to (cos (p-q)x - cos (p+q)x)/2
        spectrum=lambda prm: Spectrum(_half_cos, (prm["p"] - prm["q"], prm["p"] + prm["q"])),
        scale_params=None,
        note="p > q is required but not printed alongside the entry",
    )


def _r_3_8() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(x: float) -> float:
            return (
                math.exp(-a * x) * math.sin(a * x) - math.exp(-b * x) * math.sin(b * x)
            ) / x

        return g

    return CatalogEntry(
        entry_id="R-3.8",
        source="Ramanujan Notebooks I, 3.8",
        eval_class="oscillatory",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: 0.0,
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 2.0}),
        spectrum=lambda p: Spectrum(_damped_sine, (p["a"], p["b"])),
        kernel=lambda p: "exp(-x)*sin(x)",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (0.0, 0.0),
        scale_params=("a", "b"),
    )


def _r_3_9() -> CatalogEntry:
    def make(p):
        a, b = p["a"], p["b"]

        def g(x: float) -> float:
            return (
                math.exp(-a * x) * math.cos(a * x) - math.exp(-b * x) * math.cos(b * x)
            ) / x

        return g

    return CatalogEntry(
        entry_id="R-3.9",
        source="Ramanujan Notebooks I, 3.9",
        eval_class="smooth-decay",
        param_names=("a", "b"),
        constraints=(_positive("a", "b"),),
        integrand=make,
        closed_form=lambda p: math.log(p["b"] / p["a"]),
        default_grid=({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 3.0}),
        kernel=lambda p: "exp(-x)*cos(x)",
        kernel_map=lambda p: (p["a"], p["b"], 1.0),
        kernel_limits=lambda p: (1.0, 0.0),
        scale_params=("a", "b"),
    )


_ENTRIES: tuple[CatalogEntry, ...] = (
    _gr_3_434_2(),
    _gr_4_267_8(),
    _gr_3_476_1(),
    _gr_3_436(),
    _gr_3_329(),
    _gr_3_232(),
    _gr_4_536_2(),
    _gr_4_319_3(),
    _gr_4_297_7(),
    _gr_3_484(),
    _gr_3_412_1(),
    _gr_4_324_2(),
    _r_3_1(),
    _r_3_2(),
    _r_3_3(),
    _r_3_4(),
    _r_3_5(),
    _r_3_6(),
    _r_3_8(),
    _r_3_9(),
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


def _check_params(entry: CatalogEntry, params: dict) -> dict:
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
    return clean


def instantiate(entry_id: str, params: dict):
    """(integrand callable, expected closed-form value) for one binding.

    Raises ConstraintViolation when a constraint predicate rejects the
    parameters, ValueError on wrong parameter names.
    """
    entry = get_entry(entry_id)
    clean = _check_params(entry, params)
    for c in entry.constraints:
        if not c.holds(clean):
            raise ConstraintViolation(entry_id, c.prose)
    return entry.integrand(clean), entry.closed_form(clean)


def verify_entry(entry_id: str, params: dict, tol: Optional[float] = None) -> VerificationRecord:
    """Instantiate, integrate with the class-appropriate oracle, compare.

    All failures are embedded in the record's status, never raised (except
    for an unknown entry id, which is a caller error).  The record's params
    keep the entry's declaration order and only its declared names.
    """
    entry = get_entry(entry_id)
    if tol is None:
        tol = class_tolerance(entry.eval_class)
    if not tol > 0:
        raise ValueError("tol must be positive")
    start = time.perf_counter()
    try:
        clean = _check_params(entry, params)
    except ValueError as exc:
        shown = {k: params[k] for k in entry.param_names if k in params}
        return skipped(entry_id, shown, "CONSTRAINT_VIOLATION", start, str(exc))
    try:
        integrand, expected = instantiate(entry_id, clean)
    except ConstraintViolation as exc:
        return skipped(entry_id, clean, "CONSTRAINT_VIOLATION", start, exc.prose)
    except (ArithmeticError, ValueError) as exc:
        # constraints held, but the closed form overflows or leaves its
        # domain in floating point (a=1e300, b=1e-300 underflows ln(b/a))
        expected, cause = math.nan, str(exc)
    else:
        cause = repr(expected)
    if not math.isfinite(expected):
        return skipped(
            entry_id, clean, "CONSTRAINT_VIOLATION", start,
            f"closed form is not a finite double at this binding: {cause}",
        )

    def oracle():
        if entry.eval_class == "smooth-decay":
            return integrate_decaying(integrand, tol * 0.25)
        if entry.eval_class == "finite-interval":
            return integrate_adaptive(integrand, 0.0, 1.0, tol * 0.25)
        spectrum = entry.spectrum(clean)
        plan = oscillatory_plan(spectrum.scales)
        if plan is None:
            return integrate_frullani_split(integrand, spectrum, tol * 0.25)
        return integrate_frullani_oscillatory(integrand, plan, tol * 0.25)

    return judge(entry_id, clean, expected, oracle, tol, start)


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
