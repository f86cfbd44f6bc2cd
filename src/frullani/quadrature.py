"""Adaptive quadrature oracle used to check closed forms independently.

Three layers:

  integrate_adaptive          Gauss-Kronrod 7/15 panels, globally adaptive
                              bisection of the worst panel.  The rule is open
                              (no endpoint evaluations), so integrands with a
                              removable endpoint singularity just work.  The
                              panel is straight-line code: one loop over the
                              15 nodes, one finiteness check, unrolled sums.
  integrate_decaying          semi-infinite integrals of decaying integrands,
                              mapped onto (0, 1) by x = t/(1-t).
  integrate_oscillatory_tail  conditionally convergent tails: fixed-width
                              half-period segments, partial sums accelerated
                              by iterated Euler averaging plus extrapolation
                              of the phase-locked remainder in 1/x.  The
                              averaging levels grow by one entry per segment
                              instead of being recomputed.

Two whole-line routes for an oscillatory Frullani integrand
g(x) = [f(alpha x) - f(beta x)]/x, both with an adaptive head on (0, c]:

  integrate_frullani_oscillatory  one accelerated tail of g on a common
                                  half-period grid, pi over the base
                                  frequency of the integrand's spectrum.
  integrate_frullani_split        no common period: the tails of f(alpha x)/x
                                  and f(beta x)/x, each on its own grid
                                  pi/alpha or pi/beta, with the mean of f
                                  removed (Ostrowski, 1949).

oscillatory_plan picks c and the common grid from the frequencies, and
returns None when no common grid can serve: when a segment would hold more
than SEGMENT_PANELS half-periods of the fastest component.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

__all__ = [
    "QuadratureResult",
    "OscillatorySpec",
    "Spectrum",
    "IntegrandError",
    "SEGMENT_PANELS",
    "base_frequency",
    "oscillatory_plan",
    "integrate_adaptive",
    "integrate_decaying",
    "integrate_oscillatory_tail",
    "integrate_frullani_oscillatory",
    "integrate_frullani_split",
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


@dataclass(frozen=True)
class QuadratureResult:
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
# binomial weights of the depth-fold average of neighbouring partial sums
_EULER_WEIGHTS = tuple(math.comb(_AVERAGING_DEPTH, i) for i in range(_AVERAGING_DEPTH + 1))
_EULER_WSUM = float(sum(_EULER_WEIGHTS))
# Most panels one tail segment may spend.  A common segment grid serves an
# integrand only while a segment holds at most this many half-periods of its
# fastest component.
SEGMENT_PANELS = 200
# Share of the split's tolerance by which the mean of a periodic kernel may
# miss.  An error d in the mean leaves a drift -d ln(x) in each tail; the two
# drifts cancel but for d times the log-ratio of where the two tails stop.
_MEAN_TOL = 1e-3


@dataclass(frozen=True)
class OscillatorySpec:
    """Tail plan: start point, half-period of the segment grid, max segments.

    half_period should be pi divided by the base frequency of the tail's
    oscillation (the gcd of its nominal frequencies), so that every spectral
    component of the tail either alternates segment-to-segment or returns to
    a fixed phase every second segment.  A tail with one frequency w, as in
    each piece of integrate_frullani_split, has half_period pi/w.
    """

    start: float
    half_period: float
    max_segments: int = 64

    def __post_init__(self):
        if not (self.start > 0 and math.isfinite(self.start)):
            raise ValueError("start must be positive and finite")
        if not (self.half_period > 0 and math.isfinite(self.half_period)):
            raise ValueError("half_period must be positive and finite")
        if self.max_segments <= _FIRST_ESTIMATE:
            # fewer segments never give the two tail estimates in a row
            # that convergence needs
            raise ValueError(f"max_segments must be at least {_FIRST_ESTIMATE + 1}")


@dataclass(frozen=True)
class Spectrum:
    """The oscillatory integrand g(x) = [f(alpha x) - f(beta x)]/x as its
    kernel f and scale pair (alpha, beta).  f must have mean value zero at
    infinity, or be periodic with the given period, over which
    integrate_frullani_split then computes its mean and removes it."""

    kernel: Callable[[float], float]
    scales: tuple[float, float]
    period: Optional[float] = None


def base_frequency(freqs: Sequence[float]) -> float:
    """Greatest common divisor of the frequency content, so that every
    component either alternates or returns to fixed phase on the segment
    grid of half-period pi/base.  Rationalizes through Fraction; falls back
    to the smallest frequency if the values do not rationalize sensibly.
    A ratio typed to nine decimals, such as 1.414213562, rationalizes to a
    base near 1e-6, which oscillatory_plan refuses as a grid."""
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


def _tail_start(pos: Sequence[float]) -> float:
    """After the slowest component's first half-period, and no earlier than 1."""
    return max(math.pi / min(pos), 1.0)


def oscillatory_plan(freqs: Sequence[float]) -> Optional[OscillatorySpec]:
    """Tail plan for an integrand with the given nominal frequencies: start
    after the slowest component's first half-period (and no earlier than 1),
    segment on the half-period of the base frequency.  None when the
    frequencies share no period a segment can resolve: when the fastest
    divided by the base frequency exceeds SEGMENT_PANELS."""
    pos = [f for f in freqs if f > 0]
    if not pos:
        # identically zero integrand (all scales equal); any plan works
        return OscillatorySpec(1.0, math.pi)
    base = base_frequency(pos)
    if not max(pos) / base <= SEGMENT_PANELS:
        return None
    return OscillatorySpec(_tail_start(pos), math.pi / base)


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


_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG


def gauss_kronrod_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, float]:
    """One G7/K15 application on [lo, hi].

    Returns (kronrod_value, error_estimate, resasc).  All 15 nodes are
    interior, so f is never evaluated at lo or hi.  A non-finite f value
    raises IntegrandError carrying the abscissa; when several nodes fail,
    the first in evaluation order (+d0, -d0, ..., +d6, -d6, center) is named.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    d0, d1, d2, d3 = half * _X0, half * _X1, half * _X2, half * _X3
    d4, d5, d6 = half * _X4, half * _X5, half * _X6
    xs = (
        center + d0, center - d0, center + d1, center - d1,
        center + d2, center - d2, center + d3, center - d3,
        center + d4, center - d4, center + d5, center - d5,
        center + d6, center - d6, center,
    )
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
    if not math.isfinite(sum(vals)):
        # finite values whose sum overflows raise nothing here
        _raise_first_nonfinite(xs, vals)
    p0, m0, p1, m1, p2, m2, p3, m3, p4, m4, p5, m5, p6, m6, fc = vals

    # left-to-right sums from 0, so an all -0.0 panel sums to +0.0
    s1, s3, s5 = p1 + m1, p3 + m3, p5 + m5
    kron = (
        0 + _K0 * (p0 + m0) + _K1 * s1 + _K2 * (p2 + m2) + _K3 * s3
        + _K4 * (p4 + m4) + _K5 * s5 + _K6 * (p6 + m6) + _K7 * fc
    )
    gauss = 0 + _G0 * s1 + _G1 * s3 + _G2 * s5 + _G3 * fc
    result_k = kron * half
    raw_err = abs((kron - gauss) * half)

    # QUADPACK-style sharpening: scale by the variation of f over the panel
    mean = kron * 0.5
    resasc = (
        0.0
        + _K0 * (abs(p0 - mean) + abs(m0 - mean))
        + _K1 * (abs(p1 - mean) + abs(m1 - mean))
        + _K2 * (abs(p2 - mean) + abs(m2 - mean))
        + _K3 * (abs(p3 - mean) + abs(m3 - mean))
        + _K4 * (abs(p4 - mean) + abs(m4 - mean))
        + _K5 * (abs(p5 - mean) + abs(m5 - mean))
        + _K6 * (abs(p6 - mean) + abs(m6 - mean))
        + _K7 * abs(fc - mean)
    )
    resasc *= abs(half)
    err = raw_err
    if resasc != 0.0 and raw_err != 0.0:
        err = resasc * min(1.0, (200.0 * raw_err / resasc) ** 1.5)
    return result_k, err, resasc


def _raise_first_nonfinite(xs: Sequence[float], vals: Sequence[float]) -> None:
    for x, v in zip(xs, vals):
        if not math.isfinite(v):
            raise IntegrandError(x, v) from None


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_panels: int = 2000,
) -> QuadratureResult:
    """Globally adaptive G7/K15 integration of f over the finite [lo, hi].

    When converged is True the returned error_estimate is at most tol.  The
    estimate on failure is the honest panel-error sum, and the diagnostic
    names why refinement stopped: the panel cap, or panels too narrow to
    split at floating-point resolution.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
    if not tol > 0:
        raise ValueError("tol must be positive")

    value, err, _ = gauss_kronrod_panel(f, lo, hi)
    evals = 15
    panels = [(-err, 0, lo, hi, value, err)]
    counter = 1
    err_total = err
    at_resolution = False
    while err_total > tol and len(panels) < max_panels:
        neg_err, _, plo, phi, pval, perr = heapq.heappop(panels)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # interval at floating-point resolution, cannot split further
            heapq.heappush(panels, (0.0, counter, plo, phi, pval, perr))
            counter += 1
            err_total = sum(p[5] for p in panels)
            if all(p[0] == 0.0 for p in panels):
                at_resolution = True
                break
            continue
        lval, lerr, _ = gauss_kronrod_panel(f, plo, mid)
        rval, rerr, _ = gauss_kronrod_panel(f, mid, phi)
        evals += 30
        heapq.heappush(panels, (-lerr, counter, plo, mid, lval, lerr))
        heapq.heappush(panels, (-rerr, counter + 1, mid, phi, rval, rerr))
        counter += 2
        err_total += lerr + rerr - perr
    # resum in spatial order: deterministic and slightly kinder to rounding
    ordered = sorted(panels, key=lambda p: p[2])
    total = sum(p[4] for p in ordered)
    err_total = sum(p[5] for p in ordered)
    if err_total <= tol:
        return QuadratureResult(total, err_total, evals, True)
    if len(panels) >= max_panels:
        diagnostic = f"panel cap of {max_panels} panels reached"
    elif at_resolution:
        diagnostic = "the error left sits in panels at floating-point resolution"
    else:
        diagnostic = "panel error sum rounded above tolerance"
    return QuadratureResult(total, err_total, evals, False, diagnostic)


def integrate_decaying(f: Callable[[float], float], tol: float) -> QuadratureResult:
    """Integrate f over (0, inf) for integrands decaying at infinity.

    Uses the substitution x = t/(1-t), dx = dt/(1-t)^2, then the adaptive
    rule on (0, 1).  Suited to integrable endpoint behaviour at 0 and decay
    at least as fast as 1/x^2; slower decay shows up as non-convergence.
    """

    def mapped(t: float) -> float:
        u = 1.0 - t
        try:
            x = t / u
        except ZeroDivisionError:
            # a node so close to 1 that 1 - t rounds to 0 maps to x = inf
            raise IntegrandError(
                math.inf, math.nan,
                "was not evaluated: the map x = t/(1-t) reached t = 1,",
            ) from None
        v = f(x)
        if v == 0.0:
            return 0.0
        jac = 1.0 / u
        return (v * jac) * jac

    return integrate_adaptive(mapped, 0.0, 1.0, tol)


def _accelerate_tail(
    averaged: Sequence[float], ts: Sequence[float]
) -> tuple[float, float]:
    """Extrapolate the averaged tail partial sums to infinity.

    averaged[m] is the _AVERAGING_DEPTH-fold Euler average of the partial
    sums m .. m + depth, ts[m] its effective reciprocal abscissa.  Alternating
    error components are annihilated by the averaging stage; what survives
    is, on the half-period grid, a smooth series in 1/x, which a Neville
    tableau extrapolates to 1/x = 0.  Returns (value, error_estimate).
    """
    # geometric subsample of the averaged sequence, biased to the far tail
    m_count = len(averaged)
    picked = [m_count - 1]
    target = 1.0 / ts[m_count - 1] / 1.45
    for m in range(m_count - 2, -1, -1):
        x = 1.0 / ts[m]
        if x <= target:
            picked.append(m)
            target = x / 1.45
        if len(picked) >= _EXTRAPOLATION_NODES:
            break
    picked.reverse()
    if len(picked) < 2:
        picked = [m_count - 2, m_count - 1]

    # Neville tableau in t, extrapolated to t = 0
    t_nodes = [ts[m] for m in picked]
    table = [averaged[m] for m in picked]
    best = table[-1]
    for level in range(1, len(table)):
        for i in range(len(table) - 1, level - 1, -1):
            denom = t_nodes[i - level] - t_nodes[i]
            table[i] = table[i] + t_nodes[i] * (table[i] - table[i - 1]) / denom
        prev = best
        best = table[-1]
    return best, abs(best - prev)


def integrate_oscillatory_tail(
    f: Callable[[float], float],
    spec: OscillatorySpec,
    tol: float,
) -> QuadratureResult:
    """Integrate f over [spec.start, inf) for a conditionally convergent tail.

    Successive segments [c + j*h, c + (j+1)*h] are integrated adaptively and
    the partial-sum sequence is accelerated (at most spec.max_segments
    segment sums).  converged means the accelerated remainder estimate
    dropped to tol or below.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    c, h, max_seg = spec.start, spec.half_period, spec.max_segments
    seg_tol = tol / (2.0 * max_seg)

    # levels[0] holds the partial sums, levels[k] their k-fold pairwise
    # averages; every level and ts grow by one entry per segment
    levels: list[list[float]] = [[] for _ in range(_AVERAGING_DEPTH + 1)]
    averaged = levels[-1]
    ts: list[float] = []
    seg_values: list[float] = []
    seg_err = 0.0
    evals = 0
    running = 0.0
    best = 0.0
    est = math.inf
    stable = 0
    sign_run = 0
    non_alternating = False
    floor = tol * 1e-3

    for j in range(max_seg):
        lo = c + j * h
        hi = c + (j + 1) * h
        res = integrate_adaptive(f, lo, hi, seg_tol, max_panels=SEGMENT_PANELS)
        evals += res.function_evaluations
        seg_err += res.error_estimate
        running += res.value
        seg_values.append(res.value)
        levels[0].append(running)
        for below, level in zip(levels, levels[1:]):
            if len(below) < 2:
                break
            level.append(0.5 * (below[-2] + below[-1]))
        if len(ts) < len(averaged):
            # effective reciprocal abscissa of the new averaged entry: the
            # binomially weighted mean of the reciprocals it mixes (exact
            # for the 1/x component)
            m = len(ts)
            t = sum(w / (c + (m + i + 1.0) * h) for i, w in enumerate(_EULER_WEIGHTS))
            ts.append(t / _EULER_WSUM)

        if len(seg_values) >= 2 and abs(seg_values[-1]) > floor and abs(seg_values[-2]) > floor:
            if seg_values[-1] * seg_values[-2] > 0:
                sign_run += 1
                if sign_run > 8:
                    # precondition violated; extrapolation of the smooth
                    # remainder may still succeed, so keep going and only
                    # report the pattern if convergence fails
                    non_alternating = True
            else:
                sign_run = 0

        if len(seg_values) >= _FIRST_ESTIMATE:
            value, acc_est = _accelerate_tail(averaged, ts)
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


def integrate_frullani_oscillatory(
    f: Callable[[float], float],
    spec: OscillatorySpec,
    tol: float,
) -> QuadratureResult:
    """Integral of f over (0, inf) split at spec.start: adaptive head plus
    accelerated oscillatory tail.  Head and tail budgets are 40% / 60%."""
    head = integrate_adaptive(f, 0.0, spec.start, 0.4 * tol)
    tail = integrate_oscillatory_tail(f, spec, 0.6 * tol)
    return QuadratureResult(
        head.value + tail.value,
        head.error_estimate + tail.error_estimate,
        head.function_evaluations + tail.function_evaluations,
        head.converged and tail.converged,
        "; ".join(d for d in (head.diagnostic, tail.diagnostic) if d),
    )


def integrate_frullani_split(
    g: Callable[[float], float],
    spectrum: Spectrum,
    tol: float,
) -> QuadratureResult:
    """Integral of g(x) = [f(alpha x) - f(beta x)]/x over (0, inf), for
    scales that share no common period.

    The head of g on (0, c] is integrated adaptively, and beyond c the tails
    of f(alpha x)/x and f(beta x)/x separately, each on its own half-period
    grid.  A periodic f first has its mean over one period removed: the mean
    cancels between the two tails and is taken out only so that each
    converges.  Budgets are 40% for the head and 30% per tail; the
    diagnostic names each piece that did not converge.
    """
    alpha, beta = spectrum.scales
    start = _tail_start((alpha, beta))
    f = spectrum.kernel
    mean, mean_evals = 0.0, 0
    if spectrum.period is not None:
        period = spectrum.period
        mean_res = integrate_adaptive(f, 0.0, period, _MEAN_TOL * tol * period)
        mean, mean_evals = mean_res.value / period, mean_res.function_evaluations

    def tail(scale: float) -> QuadratureResult:
        def piece(x: float) -> float:
            return (f(scale * x) - mean) / x

        return integrate_oscillatory_tail(piece, OscillatorySpec(start, math.pi / scale), 0.3 * tol)

    head, tail_a, tail_b = integrate_adaptive(g, 0.0, start, 0.4 * tol), tail(alpha), tail(beta)
    pieces = (
        (f"head on (0, {start!r}]", head),
        (f"tail at scale {alpha!r}", tail_a),
        (f"tail at scale {beta!r}", tail_b),
    )
    return QuadratureResult(
        head.value + (tail_a.value - tail_b.value),
        math.fsum(res.error_estimate for _, res in pieces),
        mean_evals + sum(res.function_evaluations for _, res in pieces),
        all(res.converged for _, res in pieces),
        "; ".join(f"{name}: {res.diagnostic}" for name, res in pieces if not res.converged),
    )
