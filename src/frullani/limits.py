"""Numerical one-sided limit classification at 0+ and at infinity.

Both probes follow one fixed sampling plan: the zero-side probe samples f at
x = 0.5**k and the infinity-side probe at x = 2.0**k, for k = 0 .. 59, in
that order, stopping early once a verdict is reached.  The sample sequence
is accelerated with Aitken's delta-squared extrapolation, and successive
extrapolants must agree to a relative 1e-9.  Possible verdicts:

  finite    successive extrapolants agreed; carries (value, uncertainty)
  diverges  |f| grew monotonically past an overflow guard, scaled by the
            first sample where that is above 1; carries a sign
  no-limit  samples kept oscillating with undamped amplitude; carries the
            trailing-window amplitude

This is a heuristic classifier, not a proof: an oscillation slower than the
sampled window, or decay slower than any geometric rate, can be misreported.
Callers that need certainty must supply analytic limits instead.
"""

from __future__ import annotations

import math
from typing import Callable

from .frozen import Frozen

OVERFLOW_GUARD = 1e12
_TRAILING_WINDOW = 8
_TOLERANCE = 1e-9
_ZERO_LADDER = tuple(0.5**k for k in range(60))
_INFINITY_LADDER = tuple(2.0**k for k in range(60))


class ProbeError(RuntimeError):
    """f failed to evaluate at a probe abscissa."""

    def __init__(self, abscissa: float, cause: BaseException):
        self.abscissa = abscissa
        super().__init__(f"probe evaluation failed at x = {abscissa!r}: {cause}")


class LimitVerdict(Frozen):
    """kind is "finite", "diverges" or "no-limit", and the fields of that
    kind are set.  evidence, the (abscissa, sample) pairs the probe took,
    takes no part in ==, hash() or repr()."""

    __slots__ = ("kind", "value", "uncertainty", "direction", "amplitude", "evidence")
    _compared = __slots__[:-1]

    def __init__(
        self,
        kind: str,
        value: float | None = None,
        uncertainty: float | None = None,
        direction: int | None = None,
        amplitude: float | None = None,
        evidence: tuple = (),
    ):
        self._set(kind=kind, value=value, uncertainty=uncertainty, direction=direction,
                  amplitude=amplitude, evidence=evidence)

    @classmethod
    def finite(cls, value: float, uncertainty: float, evidence=()) -> "LimitVerdict":
        return cls("finite", value=value, uncertainty=uncertainty, evidence=evidence)

    @classmethod
    def diverges(cls, direction: int, evidence=()) -> "LimitVerdict":
        return cls("diverges", direction=direction, evidence=evidence)

    @classmethod
    def no_limit(cls, amplitude: float, evidence=()) -> "LimitVerdict":
        return cls("no-limit", amplitude=amplitude, evidence=evidence)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def describe(self) -> str:
        if self.kind == "finite":
            return f"finite(value={self.value!r}, uncertainty={self.uncertainty:.3e})"
        if self.kind == "diverges":
            return f"diverges({'+' if self.direction > 0 else '-'}inf)"
        return f"no-limit(amplitude={self.amplitude:.3e})"


def _aitken(s0: float, s1: float, s2: float) -> float | None:
    """One Aitken delta-squared step; None when the triple is degenerate."""
    d1, d2 = s1 - s0, s2 - s1
    denom = d2 - d1
    if denom == 0.0:
        return s2 if d1 == 0.0 and d2 == 0.0 else None
    if abs(d2) > abs(d1):
        # growing differences: the extrapolant is a repelling fixed point
        # (1/x on the zero ladder lands exactly on 0 this way), not a limit
        return None
    # guard against cancellation blowup in a nearly-degenerate triple
    scale = abs(s0) + abs(s1) + abs(s2)
    if abs(denom) < 1e-14 * scale:
        return None
    a = s2 - d2 * d2 / denom
    if math.isfinite(a):
        return a
    # a difference past 1.3e154 squares to inf: divide first there
    if d2 * d2 < math.inf:
        return None
    a = s2 - d2 * (d2 / denom)
    return a if math.isfinite(a) else None


def _probe(f: Callable[[float], float], abscissas: tuple[float, ...]) -> LimitVerdict:
    samples: list[float] = []
    extrapolants: list[float] = []
    agree_streak = 0
    for x in abscissas:
        try:
            s = float(f(x))
        except Exception as exc:  # noqa: BLE001 - reported with the abscissa
            raise ProbeError(x, exc) from exc
        if math.isnan(s):
            raise ProbeError(x, ValueError("evaluated to NaN"))
        samples.append(s)

        # past OVERFLOW_GUARD times max(1, |first sample|); the unscaled
        # test first keeps the common sample to one comparison
        if (
            abs(s) > OVERFLOW_GUARD
            and abs(s) > OVERFLOW_GUARD * abs(samples[0])
            and len(samples) >= 3
            and abs(samples[-1]) > abs(samples[-2]) > abs(samples[-3])
        ):
            return LimitVerdict.diverges(1 if s > 0 else -1, tuple(zip(abscissas, samples)))

        if len(samples) >= 3:
            a = _aitken(samples[-3], samples[-2], samples[-1])
            if a is not None:
                extrapolants.append(a)
                if len(extrapolants) >= 2:
                    diff = abs(extrapolants[-1] - extrapolants[-2])
                    if diff <= _TOLERANCE * max(1.0, abs(extrapolants[-1])):
                        agree_streak += 1
                        # two consecutive agreements guard against a lucky pair
                        if agree_streak >= 2:
                            return LimitVerdict.finite(
                                extrapolants[-1], diff, tuple(zip(abscissas, samples))
                            )
                    else:
                        agree_streak = 0
            else:
                agree_streak = 0

    evidence = tuple(zip(abscissas, samples))
    window = samples[-_TRAILING_WINDOW:]
    if not all(math.isfinite(w) for w in window):
        finite_signs = {w > 0 for w in window}
        if len(finite_signs) == 1:
            return LimitVerdict.diverges(1 if window[-1] > 0 else -1, evidence)
        return LimitVerdict.no_limit(math.inf, evidence)
    amplitude = max(window) - min(window)
    scale = max(1.0, max(abs(w) for w in window))
    if amplitude > _TOLERANCE * scale:
        diffs = [b - a for a, b in zip(window, window[1:])]
        monotone = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
        if monotone and abs(window[-1]) > abs(window[0]):
            # steady drift with growing magnitude: slow divergence (log-like
            # growth never trips the overflow guard)
            return LimitVerdict.diverges(1 if window[-1] > 0 else -1, evidence)
        return LimitVerdict.no_limit(amplitude, evidence)
    best = extrapolants[-1] if extrapolants else window[-1]
    return LimitVerdict.finite(best, amplitude, evidence)


def limit_at_zero_plus(f: Callable[[float], float]) -> LimitVerdict:
    """Classify the limit of f(x) as x -> 0+."""
    return _probe(f, _ZERO_LADDER)


def limit_at_infinity(f: Callable[[float], float]) -> LimitVerdict:
    """Classify the limit of f(x) as x -> +infinity."""
    return _probe(f, _INFINITY_LADDER)
