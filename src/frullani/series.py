"""Series derivation for the cosine-log Frullani integral

    I(a, p, q) = integral_0^inf [ln(1 + 2a cos(px) + a^2) - ln(1 + 2a cos(qx) + a^2)] / x dx
               = 2 ln(1 + a) ln(q/p)          for -1 < a <= 1
               = 2 ln(1 + 1/a) ln(q/p)        for |a| > 1

(G&R 4.324.2).  The closed form follows from splitting the logarithm of the
quadratic kernel into a cosine series and a central-binomial series:

    ln(1 + 2a cos t + a^2) = ln(1 + a^2) + sum_{k>=1} (-1)^{k-1} A^k cos^k t / k
with A = 2a/(1+a^2), and

    cos^k t = 2^{-k} [binom(k, k/2) (k even) + oscillatory terms],

so the non-oscillatory residue after the Frullani cancellation is governed by
Q = (A/2)^2 through sum_{m>=1} binom(2m, m) Q^m / m = -2 ln((1+sqrt(1-4Q))/2).

Partial sums of both series are exposed so the identity can be checked term
by term, together with the discriminant identity (1-A^2) = ((1-a^2)/(1+a^2))^2
that the derivation rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .quadrature import (
    Spectrum,
    integrate_frullani_oscillatory,
    integrate_frullani_split,
    oscillatory_plan,
)

__all__ = [
    "SeriesParams",
    "log_series_partial",
    "parity_weight",
    "central_binomial_partial",
    "central_binomial_closed",
    "discriminant_identity",
    "gr_4_324_2_closed",
    "gr_4_324_2_series",
    "imaginary_exponential_check",
]


@dataclass(frozen=True)
class SeriesParams:
    """Parameters of the cosine-log integral and its series truncation.

    a is the kernel amplitude (any real except -1, where the kernel log
    diverges at the lattice points), p and q the two positive frequencies,
    K the truncation order of the cosine series.  A and Q are derived,
    never stored: A = 2a/(1+a^2) with |A| <= 1 by AM-GM, Q = (A/2)^2 in
    [0, 1/4].
    """

    a: float
    p: float
    q: float
    K: int

    def __post_init__(self):
        if not math.isfinite(self.a) or self.a == -1.0:
            raise ValueError("a must be finite and != -1")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError("p must be positive and finite")
        if not (self.q > 0 and math.isfinite(self.q)):
            raise ValueError("q must be positive and finite")
        if self.K < 1:
            raise ValueError("K must be at least 1")

    @property
    def A(self) -> float:
        """Coefficient of cos in the kernel series; clamped so roundoff
        near |a| = 1 cannot push it outside [-1, 1]."""
        amp = 2.0 * self.a / (1.0 + self.a * self.a)
        return max(-1.0, min(1.0, amp))

    @property
    def Q(self) -> float:
        """Argument of the central-binomial series."""
        half = 0.5 * self.A
        return half * half


def log_series_partial(z: float, terms: int) -> float:
    """Partial sum of ln(1+z) = sum_{k>=1} (-1)^(k-1) z^k / k.

    Valid for -1 < z <= 1.  Summed directly; at |z| = 1 convergence is slow
    but the partial sum is still well defined.
    """
    if not -1.0 < z <= 1.0:
        raise ValueError("z must lie in (-1, 1]")
    total = 0.0
    power = 1.0
    for k in range(1, terms + 1):
        power *= z
        term = power / k
        total += term if k % 2 else -term
    return total


@lru_cache(maxsize=None)
def parity_weight(k: int) -> int:
    """Non-oscillatory weight of cos^k t on the normalization 2^k.

    Odd k: all of cos^k t is oscillatory, weight 2^k goes to oscillation,
    so the non-oscillatory part is 0 and the weight returned is 2^k for the
    oscillatory channel bookkeeping; even k keeps binom(k, k/2) at zero
    frequency, leaving 2^k - binom(k, k/2) oscillatory.  Exact integers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2:
        return 2**k
    return 2**k - math.comb(k, k // 2)


def central_binomial_partial(q: float, terms: int) -> float:
    """Partial sum of sum_{m=1}^{terms} binom(2m, m) q^m / m.

    Terms generated by the exact ratio binom(2m+2, m+1)/binom(2m, m)
    = (2m+1)(2m+2)/(m+1)^2, so no factorial overflow.
    """
    if not 0.0 <= q <= 0.25:
        raise ValueError("q must lie in [0, 1/4]")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    t = 2.0 * q  # binom(2,1) q^1
    total = t
    for m in range(1, terms):
        t *= q * (2 * m + 1) * (2 * m + 2) / ((m + 1) * (m + 1))
        total += t / (m + 1)
    return total


def central_binomial_closed(q: float) -> float:
    """sum_{m>=1} binom(2m, m) q^m / m = -2 ln((1 + sqrt(1-4q))/2).

    Written via log1p of -2q/(1+sqrt(1-4q)) so q -> 0 is exact and q = 1/4
    gives 2 ln 2 without cancellation.
    """
    if not 0.0 <= q <= 0.25:
        raise ValueError("q must lie in [0, 1/4]")
    root = math.sqrt(1.0 - 4.0 * q)
    return -2.0 * math.log1p(-2.0 * q / (1.0 + root))


def discriminant_identity(a: float) -> tuple[float, float]:
    """Both sides of 1 - 4Q = ((a^2-1)/(a^2+1))^2 with Q = a^2/(1+a^2)^2.

    Returns (lhs, rhs) where lhs = 1 - 4a^2/(1+a^2)^2 and rhs is the
    squared ratio.  Exact algebra; in floats the lhs suffers cancellation
    from the leading 1 near |a| = 1, so agreement is a few ulps of
    max(|lhs|, |rhs|, 1), not of the (tiny) results themselves.
    """
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    sq = a * a
    denom = 1.0 + sq
    lhs = 1.0 - 4.0 * sq / (denom * denom)
    ratio = (sq - 1.0) / (sq + 1.0)
    rhs = ratio * ratio
    return lhs, rhs


def gr_4_324_2_closed(a: float, p: float, q: float) -> float:
    """Closed form of the cosine-log Frullani integral.

    2 ln(q/p) ln(1+a) for -1 < a <= 1, else 2 ln(q/p) ln(1 + 1/a); the two
    branches agree at |a| = 1.  a = -1 is outside the domain.
    """
    if a == -1.0:
        raise ValueError("a = -1 is outside the domain")
    if not (p > 0 and q > 0):
        raise ValueError("p and q must be positive")
    if -1.0 < a <= 1.0:
        inner = math.log1p(a)
    else:
        inner = math.log1p(1.0 / a)
    return 2.0 * math.log(q / p) * inner


def gr_4_324_2_series(a: float, p: float, q: float, K: int) -> float:
    """Truncated series value of the integral.

    The cosine series of the kernel contributes ln(q/p) times the partial
    alternating-log sum in A, and the even-order zero-frequency residue
    contributes ln(q/p)/2 times the central-binomial partial sum in Q with
    K//2 terms.  Converges to gr_4_324_2_closed as K -> inf for |a| != 1,
    and at |a| = 1 in the Abel sense.
    """
    params = SeriesParams(a, p, q, K)
    scale = math.log(params.q / params.p)
    value = scale * log_series_partial(params.A, params.K)
    even_terms = params.K // 2
    if even_terms >= 1:
        value += 0.5 * scale * central_binomial_partial(params.Q, even_terms)
    return value


def imaginary_exponential_check(
    p: float, q: float, tol: float = 1e-4
) -> tuple[float, float]:
    """Numerically confirm the pure-oscillation limits behind the derivation:

        integral_0^inf (cos px - cos qx)/x dx = ln(q/p)
        integral_0^inf (sin px - sin qx)/x dx = 0

    these are the real and imaginary parts of the a -> 0 linearisation of
    the kernel and the reason only the real part survives.  Returns the
    (cos, sin) value pair; raises if either oscillatory integration fails
    to converge.  p = q short-circuits to (0, 0), the zero integrand.  When
    p and q share no period a tail segment can resolve, both parts go
    through the split tail instead of a common grid.
    """
    if not (p > 0 and q > 0):
        raise ValueError("p and q must be positive")
    if p == q:
        return 0.0, 0.0
    spec = oscillatory_plan((p, q))

    def cos_diff(x: float) -> float:
        return (math.cos(p * x) - math.cos(q * x)) / x

    def sin_diff(x: float) -> float:
        return (math.sin(p * x) - math.sin(q * x)) / x

    if spec is None:
        cos_res = integrate_frullani_split(cos_diff, Spectrum(math.cos, (p, q)), tol)
        sin_res = integrate_frullani_split(sin_diff, Spectrum(math.sin, (p, q)), tol)
    else:
        cos_res = integrate_frullani_oscillatory(cos_diff, spec, tol)
        sin_res = integrate_frullani_oscillatory(sin_diff, spec, tol)
    for label, res in (("cos", cos_res), ("sin", sin_res)):
        if not res.converged:
            raise RuntimeError(
                f"oscillatory oracle did not converge for the {label} part: "
                f"{res.diagnostic}"
            )
    return cos_res.value, sin_res.value
