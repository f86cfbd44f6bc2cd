"""Adaptive quadrature oracle used to check closed forms independently.

Three layers:

  integrate_adaptive          Gauss-Kronrod 7/15 panels, globally adaptive
                              bisection of the worst panel.  The rule is open
                              (no endpoint evaluations), so integrands with a
                              removable endpoint singularity just work.  The
                              panel is written once as source text: the 15
                              nodes (_NODES, _ORDER) and the Kronrod, Gauss
                              and error sums (_SUMS).  gauss_kronrod_panel
                              calls f at each node of _abscissae and sums the
                              values with _kronrod, both built from that text.
                              An integrand compiled by expr carries its own
                              panel, f.panel(), straight-line code from the
                              same text (_PANEL) with the integrand's body
                              written out at each of the 15 nodes in turn and
                              the sums in line, and integrate_adaptive runs
                              it in place of the generic one.  Where a node
                              of a compiled panel raises or is not finite,
                              the generic panel reruns it, so both give the
                              same bits.
  integrate_decaying          semi-infinite integrals of decaying integrands
                              (the pipeline's oracle where the tree leaves
                              f(inf) undetermined), mapped onto (0, 1) by
                              x = t^2/(1-t), graded at t = 0; a compiled
                              integrand's f.mapped_panel() inlines the map
                              too.
  integrate_oscillatory_tail  conditionally convergent tails: fixed-width
                              half-period segments, partial sums accelerated
                              by iterated Euler averaging plus extrapolation
                              of the phase-locked remainder in 1/x.  A tail
                              keeps the newest entry of each averaging level;
                              its grid is planned once (_tail_plan).

integrate_frullani integrates a Frullani integrand g(x) = [f(alpha x) -
f(beta x)]/x over the whole line: an adaptive head on (0, c], c =
pi/max(alpha, beta), and then Frullani's own substitution, which makes the
tail beyond c the finite integral of (f(u) - M)/u over (alpha c, beta c), M
being the limit of f at infinity or, for an oscillating f, its mean there
(Ostrowski, 1949): in s = ln u, the caller's tail(s) = f(e^s) - M over
(ln alpha c, ln beta c).  A true limit or mean M' costs (M' - M)
ln(beta/alpha).  integrate_frullani_oscillatory runs it too, unless the
faster scale over the base frequency (the gcd of the two) is at most
SEGMENT_PANELS: then one accelerated tail of g runs on the common
half-period grid pi/base.
"""

from __future__ import annotations

import functools
import heapq
import math
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .frozen import Frozen

__all__ = [
    "QuadratureResult",
    "OscillatorySpec",
    "IntegrandError",
    "SEGMENT_PANELS",
    "MAX_PANELS",
    "base_frequency",
    "integrate_adaptive",
    "integrate_decaying",
    "integrate_oscillatory_tail",
    "integrate_frullani",
    "integrate_frullani_oscillatory",
    "gauss_kronrod_panel",
]


class IntegrandError(RuntimeError):
    """The integrand produced a non-finite value, or raised, inside the
    interval."""

    def __init__(self, abscissa: float, value: float, cause: str = ""):
        self.abscissa = abscissa
        self.value = value
        what = cause or f"returned {value!r}"
        super().__init__(f"integrand {what} at x = {abscissa!r}")


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    function_evaluations: int
    converged: bool
    diagnostic: str = ""


# Tail accelerator: Euler averaging passes over the partial sums, and the
# most nodes the Neville extrapolation in 1/x uses.  The first estimate
# needs three fully averaged entries; convergence needs two in a row.
_AVERAGING_DEPTH = 8
_EXTRAPOLATION_NODES = 7
_FIRST_ESTIMATE = _AVERAGING_DEPTH + 3
# Most segment sums one tail takes; the tolerance is split evenly over them.
_MAX_SEGMENTS = 64
# binomial weights of the depth-fold average of neighbouring partial sums
_EULER_WEIGHTS = tuple(math.comb(_AVERAGING_DEPTH, i) for i in range(_AVERAGING_DEPTH + 1))
_EULER_WSUM = float(sum(_EULER_WEIGHTS))
# Most panels one tail segment may spend.  A common segment grid serves an
# integrand only while a segment holds at most this many half-periods of its
# fastest component.
SEGMENT_PANELS = 200
# Most panels one integrate_adaptive call may spend by default.
MAX_PANELS = 2000
# the lower end of a panel (-err, counter, lo, hi, value, err) of integrate_adaptive
_LOWER = itemgetter(2)
# 2^-53, the relative rounding unit of a double
_UNIT_ROUNDOFF = 2.0**-53


class OscillatorySpec(Frozen):
    """Tail plan: start point and half-period of the segment grid.

    half_period should be pi divided by the base frequency of the tail's
    oscillation (the gcd of its nominal frequencies), so that every spectral
    component of the tail either alternates segment-to-segment or returns to
    a fixed phase every second segment.  A tail with one frequency w has
    half_period pi/w.
    """

    __slots__ = _compared = ("start", "half_period")

    def __init__(self, start: float, half_period: float):
        if not (start > 0 and math.isfinite(start)):
            raise ValueError("start must be positive and finite")
        if not (half_period > 0 and math.isfinite(half_period)):
            raise ValueError("half_period must be positive and finite")
        self._set(start=start, half_period=half_period)


def base_frequency(freqs: Sequence[float]) -> float:
    """Greatest common divisor of the frequency content, so that every
    component either alternates or returns to fixed phase on the segment
    grid of half-period pi/base.  Rationalizes through Fraction; falls back
    to the smallest frequency if the values do not rationalize sensibly.
    A ratio typed to nine decimals, such as 1.414213562, rationalizes to a
    base near 1e-6, too fine for a common grid."""
    from fractions import Fraction  # with decimal, a sixth of the import time

    pos = sorted(f for f in freqs if f > 0)
    if not pos:
        raise ValueError("need at least one positive frequency")
    try:
        fracs = [Fraction(f).limit_denominator(10**6) for f in pos]
        if any(fr <= 0 for fr in fracs):
            return pos[0]
        num = 0
        den = 1
        for fr in fracs:
            num = math.gcd(num, fr.numerator)
            den = math.lcm(den, fr.denominator)
        base = num / den
    except (OverflowError, ValueError):
        return pos[0]
    if not 0 < base <= pos[0] * (1 + 1e-12):
        return pos[0]
    return base


# 15-point Kronrod extension of 7-point Gauss-Legendre (QUADPACK dqk15).
# Positive abscissas; even indices are the Kronrod-only nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# The panel as source text over lo and hi, in three parts: _NODES, the
# centre, the half-width and the offsets d0 .. d6 of the nodes about it;
# _ORDER, each node's value name and abscissa, in evaluation order (+d0, -d0,
# ..., +d6, -d6, center); and _SUMS, the Kronrod sum, the Gauss sum and the
# QUADPACK sharpening (200 e / resasc)^1.5 of the error by the variation of f
# over the panel, which return (kronrod_value, error_estimate).  The sums run
# left to right from 0, so an all -0.0 panel sums to +0.0.  _abscissae,
# _kronrod and every compiled panel (panel_source) are built from this text.
_NODES = (
    "center = 0.5 * (lo + hi)",
    "half = 0.5 * (hi - lo)",
    *(f"d{i} = half * {x!r}" for i, x in enumerate(_XGK[:7])),
)
_ORDER = tuple(
    (f"{side}{i}", f"center {sign} d{i}") for i in range(7) for side, sign in (("p", "+"), ("m", "-"))
) + (("fc", "center"),)
_K = [repr(w) for w in _WGK]
_G = [repr(w) for w in _WG]
_SUMS = (
    "s1, s3, s5 = p1 + m1, p3 + m3, p5 + m5",
    f"kron = (0 + {_K[0]} * (p0 + m0) + {_K[1]} * s1 + {_K[2]} * (p2 + m2) + {_K[3]} * s3"
    f" + {_K[4]} * (p4 + m4) + {_K[5]} * s5 + {_K[6]} * (p6 + m6) + {_K[7]} * fc)",
    f"gauss = 0 + {_G[0]} * s1 + {_G[1]} * s3 + {_G[2]} * s5 + {_G[3]} * fc",
    "mean = kron * 0.5",
    "resasc = (0.0"
    + "".join(f" + {_K[i]} * (abs(p{i} - mean) + abs(m{i} - mean))" for i in range(7))
    + f" + {_K[7]} * abs(fc - mean)) * abs(half)",
    "raw_err = abs((kron - gauss) * half)",
    "err = raw_err",
    "if resasc != 0.0 and raw_err != 0.0:",
    "    err = resasc * min(1.0, (200.0 * raw_err / resasc) ** 1.5)",
    "return kron * half, err",
)
# Names the panel text reads besides lo, hi and the node values.
PANEL_GLOBALS = {"Exception": Exception, "isfinite": math.isfinite, "abs": abs, "min": min}


def _indented(lines: Iterable[str], indent: int) -> str:
    return "".join(f"{' ' * indent}{line}\n" for line in lines)


def _function(signature: str, lines: Sequence[str]) -> Callable:
    """The function def signature: with the body lines, over PANEL_GLOBALS."""
    namespace = dict(PANEL_GLOBALS)
    exec(f"def {signature}:\n{_indented(lines, 4)}", namespace)
    return namespace[signature.split("(")[0]]


# _abscissae(lo, hi): the 15 nodes of the G7/K15 panel on [lo, hi], all
# interior, in evaluation order, and its half-width.
_abscissae = _function(
    "abscissae(lo, hi)", [*_NODES, f"return ({', '.join(x for _, x in _ORDER)}), half"]
)
# _kronrod(vals, half): (kronrod_value, error_estimate) of a panel of
# half-width half from its 15 finite values, in the order of _abscissae.
_kronrod = _function(
    "kronrod(vals, half)", [f"{', '.join(name for name, _ in _ORDER)} = vals", *_SUMS]
)


def gauss_kronrod_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """One G7/K15 application on [lo, hi].

    Returns (kronrod_value, error_estimate).  All 15 nodes are
    interior, so f is never evaluated at lo or hi.  A non-finite f value
    raises IntegrandError carrying the abscissa; when several nodes fail,
    the first in evaluation order (+d0, -d0, ..., +d6, -d6, center) is named.
    """
    xs, half = _abscissae(lo, hi)
    vals: list[float] = []
    append = vals.append
    try:
        for x in xs:
            append(f(x))
    except Exception as exc:
        # a non-finite value at an earlier node wins over the raise
        _raise_first_nonfinite(xs, vals)
        if not isinstance(exc, (ArithmeticError, ValueError)):
            raise
        raise IntegrandError(xs[len(vals)], math.nan, f"raised {exc!r}") from exc
    if not all(map(math.isfinite, vals)):
        _raise_first_nonfinite(xs, vals)
    return _kronrod(vals, half)


def _raise_first_nonfinite(xs: Sequence[float], vals: Sequence[float]) -> None:
    for x, v in zip(xs, vals):
        if not math.isfinite(v):
            raise IntegrandError(x, v) from None


# gauss_kronrod_panel as straight-line source text, with the integrand's
# {points} inlined at each of the 15 nodes in turn: a node that raises, or a
# value that is not finite, returns None, and the caller reruns the panel
# through gauss_kronrod_panel, which gives the same bits or the same
# IntegrandError.
_PANEL = """\
def panel(lo, hi):
{nodes}    try:
{points}    except Exception:
        return None
    if not isfinite({total}):
        return None
{sums}"""
# The map x = t^2/(1-t) of integrate_decaying's mapped function at node t,
# as r = t/(1-t) and x = t r, and its Jacobian dx/dt = r (2 + r) applied to
# the value v at x: the bits mapped gives, where 1 - t is not 0.  Edit the
# two together.
_MAP = ("r = t / (1.0 - t)", "x = t * r")
_MAPPED_VALUE = "v * (r * (2.0 + r))"


def panel_source(lines: Sequence[str], value: str, mapped: bool = False) -> str:
    """Source of panel(lo, hi), one G7/K15 panel of the integrand whose
    value at x the straight-line lines and then the expression value
    compute, as straight-line code: the lines run once per node, in
    evaluation order, into the node values p0, m0, ..., p6, m6, fc, and
    the Kronrod and Gauss sums follow in line.  With mapped, the integrand
    is the one integrate_decaying integrates over t in (0, 1).  It returns
    what gauss_kronrod_panel returns for the per-point function, or None
    where a node raises or gives a non-finite value.  Names it reads are
    in PANEL_GLOBALS."""
    if mapped:
        node, point, result = "t", [*_MAP, *lines, f"v = {value}"], _MAPPED_VALUE
    else:
        node, point, result = "x", lines, value
    points = [line for name, at in _ORDER for line in (f"{node} = {at}", *point, f"{name} = {result}")]
    return _PANEL.format(
        nodes=_indented(_NODES, 4),
        points=_indented(points, 8),
        total=" + ".join(name for name, _ in _ORDER),
        sums=_indented(_SUMS, 4),
    )


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_panels: int = MAX_PANELS,
) -> QuadratureResult:
    """Globally adaptive G7/K15 integration of f over the finite [lo, hi].

    When converged is True the returned value is finite, error_estimate
    is at most tol, and tol is at least the rounding floor of the panel
    sum, 2^-53 times the sum of |panel value|: no estimate below one
    rounding unit of the sum bounds its error.  The estimate on failure is
    the honest panel-error sum, and the diagnostic names why refinement
    stopped: a value or error sum that is not finite, the panel cap, or
    panels too narrow to split at floating-point resolution; or, for an
    estimate within tol, the floor above tol.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
    if not tol > 0:
        raise ValueError("tol must be positive")

    # f.panel() is f's own compiled panel, where it has one (expr); None
    # from that panel, or no panel, runs the generic one
    own = getattr(f, "panel", None)
    panel = own and own()
    heappop, heappush = heapq.heappop, heapq.heappush
    value, err = (panel and panel(lo, hi)) or gauss_kronrod_panel(f, lo, hi)
    panels = [(-err, 0, lo, hi, value, err)]
    counter = 1
    err_total = err
    at_resolution = False
    while err_total > tol and len(panels) < max_panels:
        neg_err, _, plo, phi, pval, perr = heappop(panels)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # interval at floating-point resolution, cannot split further
            heappush(panels, (0.0, counter, plo, phi, pval, perr))
            counter += 1
            err_total = 0
            at_resolution = True
            for p in panels:
                err_total += p[5]
                at_resolution = at_resolution and p[0] == 0.0
            if at_resolution:
                break
            continue
        lval, lerr = (panel and panel(plo, mid)) or gauss_kronrod_panel(f, plo, mid)
        rval, rerr = (panel and panel(mid, phi)) or gauss_kronrod_panel(f, mid, phi)
        heappush(panels, (-lerr, counter, plo, mid, lval, lerr))
        heappush(panels, (-rerr, counter + 1, mid, phi, rval, rerr))
        counter += 2
        err_total += lerr + rerr - perr
    # resum in spatial order: deterministic and slightly kinder to rounding;
    # every sum here runs left to right (sum() is compensated from Python 3.12)
    panels.sort(key=_LOWER)
    total = err_total = magnitude = 0
    for p in panels:
        total += p[4]
        err_total += p[5]
        magnitude += abs(p[4])
    floor = magnitude * _UNIT_ROUNDOFF
    # each bisection adds one panel and spends two
    evals = 15 * (2 * len(panels) - 1)
    if err_total <= tol and math.isfinite(total):
        if tol >= floor:
            return QuadratureResult(total, err_total, evals, True)
        diagnostic = f"tolerance {tol:.3e} is below the rounding floor {floor:.3e} of the panel sum"
    elif not (math.isfinite(total) and math.isfinite(err_total)):
        # finite values whose weighted sums overflow, or inf - inf
        diagnostic = f"panel sums not finite: value {total!r}, error {err_total!r}"
    elif len(panels) >= max_panels:
        diagnostic = f"panel cap of {max_panels} panels reached"
    elif at_resolution:
        diagnostic = "the error left sits in panels at floating-point resolution"
    else:
        diagnostic = "panel error sum rounded above tolerance"
    return QuadratureResult(total, err_total, evals, False, diagnostic)


def integrate_decaying(f: Callable[[float], float], tol: float) -> QuadratureResult:
    """Integrate f over (0, inf) for integrands decaying at infinity.

    Uses the substitution x = t^2/(1-t), dx = t(2-t)/(1-t)^2 dt, then the
    adaptive rule on (0, 1) with at most MAX_PANELS panels.  The map is
    graded at t = 0: an integrand that behaves like x^s there becomes
    2 t^(2s+1), so x^(-1/2) maps to a constant and every algebraic
    endpoint singularity is milder than under x = t/(1-t).  Suited to
    integrable endpoint behaviour at 0, algebraic singularities included,
    and decay at least as fast as 1/x^2; slower decay shows up as
    non-convergence.  Near t = 1 the map is x = t/(1-t) to leading order,
    and the mapped integrand is x^2 f(x) (1 + O(1/x)): when x^2 f(x) keeps
    oscillating as x grows, the mapped integrand has no limit at t = 1 and
    bisection cuts the error estimate at best in proportion to the panel
    count.
    """

    # the same map as _MAP and _MAPPED_VALUE, which f's compiled mapped
    # panel inlines: edit the two together
    def mapped(t: float) -> float:
        try:
            r = t / (1.0 - t)
        except ZeroDivisionError:
            # a node so close to 1 that 1 - t rounds to 0 maps to x = inf
            raise IntegrandError(
                math.inf, math.nan,
                "was not evaluated: the map x = t^2/(1-t) reached t = 1,",
            ) from None
        return f(t * r) * (r * (2.0 + r))

    # f.mapped_panel() is the compiled panel of mapped, where f has one
    mapped.panel = getattr(f, "mapped_panel", None)
    return integrate_adaptive(mapped, 0.0, 1.0, tol)


@functools.lru_cache(maxsize=128)
def _tail_plan(start: float, half_period: float) -> tuple[list[float], list[int]]:
    """The accelerator's plan (ts, link) of the tail grid, grown by _extend_plan
    as far as a tail on the grid reaches; the catalog uses a few dozen grids."""
    return [], []


def _extend_plan(ts: list, link: list, start: float, half_period: float) -> None:
    """Plan averaged entry m = len(ts) of the grid: ts[m], its effective
    reciprocal abscissa, the binomially weighted mean of the reciprocals it
    mixes (exact for the 1/x component), and link[m], the newest entry k < m
    whose abscissa 1/ts[k] is at most 1/ts[m] / 1.45, or -1."""
    m = len(ts)
    t = 0.0
    for i, w in enumerate(_EULER_WEIGHTS):
        t += w / (start + (m + i + 1.0) * half_period)
    ts.append(t / _EULER_WSUM)
    target = 1.0 / ts[m] / 1.45
    k = m - 1
    while k >= 0 and 1.0 / ts[k] > target:
        k -= 1
    link.append(k)


def _accelerate_tail(averaged: list, ts: list, link: list) -> tuple[float, float]:
    """Extrapolate the averaged tail partial sums to infinity.

    averaged[m] is the _AVERAGING_DEPTH-fold Euler average of the partial
    sums m .. m + depth; (ts, link) is the grid's plan.  The nodes are a
    geometric subsample biased to the far tail: the newest entry and the
    entries link leads back to, at most _EXTRAPOLATION_NODES, or the two
    newest where the newest has no link.  Alternating error components are
    annihilated by the averaging stage; what survives is, on the half-period
    grid, a smooth series in 1/x, which a Neville tableau extrapolates to
    1/x = 0.  Returns (value, error_estimate).
    """
    m = len(averaged) - 1
    k, most = link[m], _EXTRAPOLATION_NODES
    if k < 0:
        k, most = m - 1, 2
    # the nodes newest first, and the tableau in t over them towards t = 0
    t_nodes, table = [ts[m]], [averaged[m]]
    while k >= 0 and len(table) < most:
        t_nodes.append(ts[k])
        table.append(averaged[k])
        k = link[k]
    n = len(table)
    best = table[0]
    for level in range(1, n):
        for i in range(n - level):
            denom = t_nodes[i + level] - t_nodes[i]
            table[i] = table[i] + t_nodes[i] * (table[i] - table[i + 1]) / denom
        prev = best
        best = table[0]
    return best, abs(best - prev)


def integrate_oscillatory_tail(
    f: Callable[[float], float],
    spec: OscillatorySpec,
    tol: float,
) -> QuadratureResult:
    """Integrate f over [spec.start, inf) for a conditionally convergent tail.

    Successive segments [c + j*h, c + (j+1)*h] are integrated adaptively and
    the partial-sum sequence is accelerated (at most _MAX_SEGMENTS segment
    sums).  converged means the accelerated remainder estimate dropped to
    tol or below.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    c, h = spec.start, spec.half_period
    seg_tol = tol / (2.0 * _MAX_SEGMENTS)
    ts, link = _tail_plan(c, h)

    # newest[k] is the newest k-fold pairwise average of the partial sums;
    # the fully averaged ones are kept, in order
    newest = [0.0] * _AVERAGING_DEPTH
    averaged: list[float] = []
    seg_err = 0.0
    evals = 0
    running = 0.0
    previous = 0.0
    best = 0.0
    est = math.inf
    stable = 0
    sign_run = 0
    non_alternating = False
    floor = tol * 1e-3

    for j in range(_MAX_SEGMENTS):
        lo = c + j * h
        part, err, n, _, _ = integrate_adaptive(f, lo, c + (j + 1) * h, seg_tol, SEGMENT_PANELS)
        evals += n
        seg_err += err
        running += part
        v = running
        for k in range(min(j, _AVERAGING_DEPTH)):
            v, newest[k] = 0.5 * (newest[k] + v), v
        if j < _AVERAGING_DEPTH:
            newest[j] = v
        else:
            averaged.append(v)
            if len(averaged) > len(ts):
                _extend_plan(ts, link, c, h)

        if j and abs(part) > floor and abs(previous) > floor:
            if part * previous > 0:
                sign_run += 1
                if sign_run > 8:
                    # precondition violated; extrapolation of the smooth
                    # remainder may still succeed, so keep going and only
                    # report the pattern if convergence fails
                    non_alternating = True
            else:
                sign_run = 0
        previous = part

        if j >= _FIRST_ESTIMATE - 1:
            value, acc_est = _accelerate_tail(averaged, ts, link)
            total_est = acc_est + seg_err
            if math.isfinite(value) and total_est <= tol:
                stable += 1
                if stable >= 2:
                    return QuadratureResult(value, total_est, evals, True)
            else:
                stable = 0
            best, est = value, total_est

    diagnostic = "tail estimate did not reach tolerance"
    if non_alternating:
        diagnostic = (
            "segment sums not alternating beyond the grace count; " + diagnostic
        )
    if not math.isfinite(est):
        best = running
    return QuadratureResult(best, est, evals, False, diagnostic)


def _grid(start: float, frequency: float) -> OscillatorySpec:
    """The tail grid of half-period pi/frequency from start.  Raises
    ValueError when that half-period rounds away beside start, so that no
    segment could advance x."""
    spec = OscillatorySpec(start, math.pi / frequency)
    if not start + spec.half_period > start:
        raise ValueError(
            f"the grid of scale {frequency!r} cannot advance x: its half-period "
            f"{spec.half_period!r} rounds away beside the tail start {start!r}"
        )
    return spec


def integrate_frullani(
    g: Callable[[float], float],
    scales: tuple[float, float],
    tail: Callable[[float], float],
    tol: float,
) -> QuadratureResult:
    """Integral of g(x) = [f(alpha x) - f(beta x)]/x over (0, inf), for a
    kernel f and the positive scales (alpha, beta), with tail(s) = f(e^s) - M,
    M being the limit of f at infinity, or its mean there.

    The head of g on (0, c] is integrated adaptively, c = pi/max(alpha,
    beta) holding half a period of the faster scale.  Frullani's
    substitution (u = alpha x in one term, u = beta x in the other) turns
    the tail beyond c into the finite integral of (f(u) - M)/u over
    (alpha c, beta c), which is that of tail over (ln alpha c, ln beta c).
    The answer is only as right as M: a kernel whose true limit or mean M'
    differs is off by (M' - M) ln(beta/alpha), and converges.  Budgets are
    40% for the head and 60% for the tail, and the diagnostic names each
    piece that did not converge.  Equal scales give exactly 0.0 before any
    quadrature.  Raises ValueError when c is not finite.
    """
    alpha, beta = scales
    if alpha == beta:
        return QuadratureResult(0.0, 0.0, 0, True)
    fast = max(alpha, beta)
    end = math.pi / fast
    if not math.isfinite(end):
        raise ValueError(f"the head end pi/{fast!r} of the faster scale {fast!r} is not finite")
    # ln(alpha c) and ln(beta c) as sums of logs, which neither overflow nor
    # underflow where the products would
    lo, hi = sorted(math.log(math.pi) + math.log(s) - math.log(fast) for s in (alpha, beta))
    head = integrate_adaptive(g, 0.0, end, 0.4 * tol)
    body = integrate_adaptive(tail, lo, hi, 0.6 * tol)
    return _joined(
        head.value + (body.value if alpha < beta else -body.value),
        ((f"head on (0, {end!r}]", head), (f"kernel on ({alpha * end!r}, {beta * end!r})", body)),
    )


def _joined(value: float, pieces: Sequence[tuple[str, QuadratureResult]]) -> QuadratureResult:
    """The result of the named pieces, whose values add up to value."""
    return QuadratureResult(
        value,
        math.fsum(res.error_estimate for _, res in pieces),
        sum(res.function_evaluations for _, res in pieces),
        all(res.converged for _, res in pieces),
        "; ".join(f"{name}: {res.diagnostic}" for name, res in pieces if not res.converged),
    )


def integrate_frullani_oscillatory(
    g: Callable[[float], float],
    scales: tuple[float, float],
    tail: Callable[[float], float],
    tol: float,
) -> QuadratureResult:
    """integrate_frullani for an oscillatory kernel, unless the faster
    scale is at most SEGMENT_PANELS times the base frequency: then the head
    of g on (0, c] is integrated adaptively, c being the slower scale's
    first half-period and no less than 1, and the tail of g beyond c runs
    on the common half-period grid pi/base, with the same budgets; tail is
    not called.  Before any quadrature, raises ValueError when c is not
    finite or its grid cannot advance x beyond c.
    """
    alpha, beta = scales
    base = base_frequency((alpha, beta))
    if max(alpha, beta) / base > SEGMENT_PANELS:
        return integrate_frullani(g, scales, tail, tol)
    slow = min(alpha, beta)
    start = max(math.pi / slow, 1.0)
    if not math.isfinite(start):
        raise ValueError(f"the tail start pi/{slow!r} of the slower scale {slow!r} is not finite")
    grid = _grid(start, base)
    head = integrate_adaptive(g, 0.0, start, 0.4 * tol)
    rest = integrate_oscillatory_tail(g, grid, 0.6 * tol)
    return _joined(
        head.value + rest.value,
        ((f"head on (0, {start!r}]", head), ("tail on the common grid", rest)),
    )
