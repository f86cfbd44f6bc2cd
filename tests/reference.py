"""Test-only reference values: sine and cosine integrals.

Si(x) = int_0^x sin t / t dt,  Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt.

Small arguments use the Taylor series directly.  Large arguments go through
the exponential integral E1(ix), evaluated with the modified Lentz continued
fraction in complex arithmetic, via

    Ci(x) = -Re E1(ix),   Si(x) = pi/2 + Im E1(ix)     (x > 0).

Used by the quadrature tests to pin oscillatory tail integrals such as
int_pi^inf cos(x)/x dx = -Ci(pi) against an implementation that is
independent of the package's extrapolation machinery.

Also holds loop-form reference copies of the G7/K15 panel and the
oscillatory tail accelerator (reference_panel, reference_tail, with the
accelerator's abscissae, picks and tableau: reference_ts, reference_picks
and reference_extrapolate), of the map x = t^2/(1-t) of
integrate_decaying (reference_mapped), and of the graded head x = u^4 of
integrate_frullani (reference_graded).  The
package's versions are unrolled, incremental, planned once per grid or
compiled with the integrand inlined; the tests require them to return the
same bits as these plain forms.  Every float sum here is a left-to-right
loop: sum() of floats is compensated from Python 3.12 on.

Last, references the tests read a kernel or a catalog entry through, which
the package itself does not need: substitute (a tree with a variable
replaced), scale_params (an entry's scale pair as two parameter names) and
printed_integrand (an entry's printed integrand at a binding).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

from frullani.expr import BinOp, Call, Expression, Neg, Var, compile_family, evaluate, parse
from frullani.quadrature import (
    _MAX_SEGMENTS,
    _WG,
    _WGK,
    _XGK,
    IntegrandError,
    OscillatorySpec,
    QuadratureResult,
    integrate_adaptive,
)

EULER_GAMMA = 0.5772156649015329

_SERIES_CUTOFF = 4.0
_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-16


def _si_series(x: float) -> float:
    # sum (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
    total = 0.0
    power = x  # x^(2k+1)/(2k+1)! accumulated
    k = 0
    while True:
        contrib = power / (2 * k + 1)
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            break
        k += 1
        power *= -x * x / ((2 * k) * (2 * k + 1))
    return total


def _cin_series(x: float) -> float:
    # Cin(x) = int_0^x (1 - cos t)/t dt = sum_{k>=1} (-1)^(k+1) x^(2k)/((2k)(2k)!)
    total = 0.0
    power = x * x / 2.0  # x^(2k)/(2k)! accumulated, k starting at 1
    k = 1
    while True:
        contrib = power / (2 * k)
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            break
        k += 1
        power *= -x * x / ((2 * k - 1) * (2 * k))
    return total


def _e1_imaginary(x: float) -> complex:
    """E1(ix) for real x > 0, modified Lentz on the standard E1 fraction."""
    z = complex(0.0, x)
    b = z + 1.0
    c = complex(1.0 / _LENTZ_TINY)
    d = 1.0 / b
    h = d
    for k in range(1, 500):
        a = -float(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if c == 0:
            c = complex(_LENTZ_TINY)
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            break
    return h * cmath.exp(-z)


def si(x: float) -> float:
    if x < 0:
        return -si(-x)
    if x == 0.0:
        return 0.0
    if x <= _SERIES_CUTOFF:
        return _si_series(x)
    e1 = _e1_imaginary(x)
    return 0.5 * math.pi + e1.imag


def ci(x: float) -> float:
    if x <= 0.0:
        raise ValueError("ci is real only for x > 0")
    if x <= _SERIES_CUTOFF:
        return EULER_GAMMA + math.log(x) - _cin_series(x)
    e1 = _e1_imaginary(x)
    return -e1.real


def compensated_sum(values, start=0):
    """sum() as Python 3.12 and later compute it for floats: compensated
    (Neumaier) summation.  Other items take the builtin sum."""
    values = list(values)
    if not all(type(v) is float for v in values):
        return sum(values, start)
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


# --- G7/K15 panel, one node at a time --------------------------------------


def _eval_checked(f: Callable[[float], float], x: float) -> float:
    try:
        v = f(x)
    except IntegrandError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise IntegrandError(x, math.nan, f"raised {exc!r}") from exc
    if not math.isfinite(v):
        raise IntegrandError(x, v)
    return v


def reference_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """gauss_kronrod_panel evaluated node by node, every sum a left-to-right
    loop (sum() of floats is compensated from Python 3.12 on)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fodd = [0.0] * 8  # f(center + half*x) + f(center - half*x), center counted once
    values = [0.0] * 15
    idx = 0
    for i, xg in enumerate(_XGK):
        if xg == 0.0:
            v = _eval_checked(f, center)
            fodd[i] = v
            values[idx] = v
            idx += 1
            continue
        xp = center + half * xg
        xm = center - half * xg
        vp = _eval_checked(f, xp)
        vm = _eval_checked(f, xm)
        fodd[i] = vp + vm
        values[idx] = vp
        values[idx + 1] = vm
        idx += 2

    kron = 0
    for w, s in zip(_WGK, fodd):
        kron += w * s
    gauss = 0
    for w, i in zip(_WG, (1, 3, 5, 7)):
        gauss += w * fodd[i]
    result_k = kron * half
    raw_err = abs((kron - gauss) * half)

    mean = kron * 0.5
    resasc = 0.0
    j = 0
    for i, w in enumerate(_WGK):
        if _XGK[i] == 0.0:
            resasc += w * abs(values[j] - mean)
            j += 1
        else:
            resasc += w * (abs(values[j] - mean) + abs(values[j + 1] - mean))
            j += 2
    resasc *= abs(half)
    err = raw_err
    if resasc != 0.0 and raw_err != 0.0:
        err = resasc * min(1.0, (200.0 * raw_err / resasc) ** 1.5)
    return result_k, err


def reference_mapped(f: Callable[[float], float]) -> Callable[[float], float]:
    """t -> f(x) dx/dt at x = t^2/(1-t), with r = t/(1-t), x = t r and
    dx/dt = r (2 + r): the integrand integrate_decaying integrates over
    (0, 1).  A zero value gives +0.0, where the package's map keeps the
    sign of a -0.0: no panel output can see the difference, and the bit
    tests check that.  A node where 1 - t rounds to 0 raises the
    IntegrandError that names the map."""

    def mapped(t: float) -> float:
        u = 1.0 - t
        if u == 0.0:
            raise IntegrandError(
                math.inf, math.nan, "was not evaluated: the map x = t^2/(1-t) reached t = 1,"
            )
        r = t / u
        v = f(t * r)
        if v == 0.0:
            return 0.0
        return v * (r * (2.0 + r))

    return mapped


def reference_graded(f: Callable[[float], float]) -> Callable[[float], float]:
    """u -> f(x) dx/du at x = u^4, as w = u^2 and x = w^2, dx/du = 4 w u:
    the integrand of integrate_frullani's graded head over (0, c^(1/4)]."""

    def graded(u: float) -> float:
        w = u * u
        return f(w * w) * (4.0 * w * u)

    return graded


# --- oscillatory tail, accelerated from scratch at every segment ------------

_AVERAGING_DEPTH = 8
_EXTRAPOLATION_NODES = 7


def _euler_averaged(sums: Sequence[float], depth: int) -> list[float]:
    out = list(sums)
    for _ in range(depth):
        if len(out) < 2:
            break
        out = [0.5 * (a + b) for a, b in zip(out, out[1:])]
    return out


def reference_ts(start: float, half_period: float, m_count: int, depth: int) -> list[float]:
    """The effective reciprocal abscissae of the first m_count depth-fold
    averaged partial sums on the grid: binomially weighted means of the
    reciprocals each mixes, every sum a left-to-right loop."""
    weights = [math.comb(depth, i) for i in range(depth + 1)]
    wsum = float(sum(weights))
    ts = []
    for m in range(m_count):
        t = 0.0
        for i, w in enumerate(weights):
            t += w / (start + (m + i + 1.0) * half_period)
        ts.append(t / wsum)
    return ts


def reference_picks(ts: Sequence[float], m_count: int) -> list[int]:
    """The entries of ts[:m_count] the extrapolation reads: a geometric
    subsample biased to the far tail, by a backward scan from the newest."""
    picked = [m_count - 1]
    x_last = 1.0 / ts[m_count - 1]
    target = x_last / 1.45
    for m in range(m_count - 2, -1, -1):
        x = 1.0 / ts[m]
        if x <= target:
            picked.append(m)
            target = x / 1.45
        if len(picked) >= _EXTRAPOLATION_NODES:
            break
    picked.reverse()
    if len(picked) < 2:
        picked = list(range(max(0, m_count - 2), m_count))
    return picked


def _accelerate_tail(
    partial_sums: Sequence[float],
    start: float,
    half_period: float,
) -> tuple[float, float]:
    n = len(partial_sums)
    depth = min(_AVERAGING_DEPTH, max(0, n - 3))
    averaged = _euler_averaged(partial_sums, depth)
    m_count = len(averaged)
    ts = reference_ts(start, half_period, m_count, depth)

    if m_count == 1:
        return averaged[0], abs(averaged[0]) + 1.0

    return reference_extrapolate(averaged, ts, reference_picks(ts, m_count))


def reference_extrapolate(
    averaged: Sequence[float], ts: Sequence[float], picked: Sequence[int]
) -> tuple[float, float]:
    """The Neville tableau in t over the picked entries, oldest first,
    extrapolated to t = 0: (value, error_estimate)."""
    t_nodes = [ts[m] for m in picked]
    table = [averaged[m] for m in picked]
    best = table[-1]
    prev = None
    for level in range(1, len(table)):
        for i in range(len(table) - 1, level - 1, -1):
            denom = t_nodes[i - level] - t_nodes[i]
            table[i] = table[i] + t_nodes[i] * (table[i] - table[i - 1]) / denom
        prev = best
        best = table[-1]
    est = abs(best - prev) if prev is not None else abs(best)
    return best, est


def reference_tail(
    f: Callable[[float], float],
    spec: OscillatorySpec,
    tol: float,
) -> QuadratureResult:
    """integrate_oscillatory_tail with the accelerator recomputed from the
    whole partial-sum sequence at every segment."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    c, h = spec.start, spec.half_period
    seg_tol = tol / (2.0 * _MAX_SEGMENTS)

    sums: list[float] = []
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

    for j in range(_MAX_SEGMENTS):
        lo = c + j * h
        hi = c + (j + 1) * h
        res = integrate_adaptive(f, lo, hi, seg_tol, max_panels=200)
        evals += res.function_evaluations
        seg_err += res.error_estimate
        running += res.value
        seg_values.append(res.value)
        sums.append(running)

        if len(seg_values) >= 2 and abs(seg_values[-1]) > floor and abs(seg_values[-2]) > floor:
            if seg_values[-1] * seg_values[-2] > 0:
                sign_run += 1
                if sign_run > 8:
                    non_alternating = True
            else:
                sign_run = 0

        if len(sums) >= max(10, _AVERAGING_DEPTH + 3):
            value, acc_est = _accelerate_tail(sums, c, h)
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


def substitute(expr: Expression, name: str, replacement: Expression) -> Expression:
    """The tree with every variable called name replaced by replacement."""
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, Neg):
        return Neg(substitute(expr.operand, name, replacement))
    if isinstance(expr, Call):
        return Call(expr.func, substitute(expr.arg, name, replacement))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, name, replacement), substitute(expr.right, name, replacement))
    return expr


def scale_params(entry) -> tuple[str, str] | None:
    """A catalog entry's scale pair as two parameter names, for the zero
    law; None when the entry has no such pair."""
    if all(s in entry.param_names for s in entry.scales):
        return entry.scales
    return None


def printed_integrand(entry, params: dict) -> Callable[[float], float]:
    """A catalog entry's printed integrand at a binding: its own integrand
    text where it gives one, else the kernel's Frullani integrand
    [f(alpha x) - f(beta x)]/x at the entry's scales, each compiled by
    compile_family as the catalog compiles it."""
    names = entry.param_names
    if entry.integrand is not None:
        return compile_family(parse(entry.integrand), names)(params)[0]
    alpha, beta = (evaluate(parse(text), params) for text in entry.scales)
    return compile_family(parse(entry.kernel), names)(params)[1](alpha, beta)
