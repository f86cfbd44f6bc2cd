"""Seeded input generators for the three benchmark workloads.

Each generator takes only the seed and returns a Workload: the request list
the program receives, plus the measured share of every input property and a
one-line reason for the workload.  Every request carries the analytic
reference the generator knows, so answers can be checked without trusting
the program under test.

Two seeds give the same mix and differ only in the drawn values: special
kinds come in fixed counts, every continuous parameter of an entry or a
kernel family is drawn as a Latin hypercube (one value in each equal slice
of its range), and the list order keeps every stratum in proportion in
every prefix.  Seed-to-seed spread of the timings then comes from the
program, not from a lucky or unlucky draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# A timed run walks its list from the start and wraps around; on a 2-core
# machine with CPython 3.11 a 40 s run covers each list about 1.5 to 20 times.
PER_ENTRY_SMOOTH = 600
PER_ENTRY_OSCILLATORY = 300
PIPELINE_REQUESTS = 1200

EQUAL_SCALE_EVERY = 10  # every 10th catalog binding with a scale pair
INCOMMENSURATE_EVERY = 30  # of each oscillatory entry's bindings
PIPELINE_SPECIAL = {  # kind -> share of the pipeline requests
    "non-applicable": 0.10,
    "slow-drift": 0.05,
    "oscillatory-finite": 0.02,
}

# irrational frequency ratios, written to nine decimals as a user would type
_IRRATIONAL = (1.414213562, 1.732050808, 2.236067977, 1.618033989, 2.718281828)


@dataclass(frozen=True)
class CatalogRequest:
    entry: str
    params: dict
    tol: float
    reference: float  # the identity's analytic value for these parameters
    equal_scales: bool
    kinds: tuple = ()  # input properties, e.g. "incommensurate"
    series_terms: int = 0  # GR-4.324.2: truncation order for the series check


@dataclass(frozen=True)
class PipelineRequest:
    kernel: str
    a: float
    b: float
    power: float
    tol: float
    family: str
    reference: float | None  # None when the kernel has no Frullani closed form
    kinds: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: list
    shares: dict


def _hypercube(rng: random.Random, n: int, dims: int) -> list:
    """n points of [0, 1)^dims with one point in each of n equal slices of
    every axis, in seeded order."""
    axes = []
    for _ in range(dims):
        slots = list(range(n))
        rng.shuffle(slots)
        axes.append([(k + rng.random()) / n for k in slots])
    return list(zip(*axes))


def _log_scale(u: float, lo: float, hi: float) -> float:
    """The point u of [0, 1) on a log scale from lo to hi, to 6 digits."""
    return float(f"{lo * (hi / lo) ** u:.6g}")


def _short(x: float, digits: int = 1) -> float:
    """A short decimal, as a user would type it; never rounds to zero."""
    return max(round(x, digits), 10.0**-digits)


def _scale_pair(rng: random.Random, u_base: float, ratio: float) -> tuple[float, float]:
    """Two scales with the given ratio around a base in [0.5, 2], in random order."""
    s = _log_scale(u_base, 0.5, 2.0)
    t = float(f"{s * ratio:.6g}") if ratio != 1.0 else s
    return (s, t) if rng.random() < 0.5 else (t, s)


def _interleave(rng: random.Random, requests: list, stratum) -> list:
    """Seeded order in which every prefix holds each stratum in proportion
    (within one request), so a timed run that stops part-way through the
    list still sees the stated mix.  Each stratum's k-th member of n is
    placed at (k + u)/n along the list, u uniform in [0, 1)."""
    groups: dict = {}
    for r in requests:
        groups.setdefault(stratum(r), []).append(r)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        n = len(members)
        keyed += [((k + rng.random()) / n, r) for k, r in enumerate(members)]
    keyed.sort(key=lambda kr: kr[0])
    return [r for _, r in keyed]


def _shares(requests: list, props: dict) -> dict:
    n = len(requests)
    return {name: sum(1 for r in requests if pred(r)) / n for name, pred in props.items()}


def _frullani(f0: float, finf: float, lo: float, hi: float, power: float = 1.0) -> float:
    """integral_0^inf (f(lo x^p) - f(hi x^p))/x dx = (f0 - finf) ln(hi/lo) / p."""
    return (f0 - finf) * math.log(hi / lo) / power


# ------------------------------------------------------------- catalog-smooth

SMOOTH_ENTRIES = (
    "GR-3.434.2", "GR-3.476.1", "GR-3.436", "GR-3.329", "GR-3.232",
    "GR-4.536.2", "GR-4.319.3", "GR-4.297.7", "GR-3.484", "GR-3.412.1",
    "R-3.1", "R-3.2", "R-3.3", "R-3.9",
)
FINITE_ENTRIES = ("GR-4.267.8",)


def _smooth_binding(rng: random.Random, entry: str, u: tuple, equal: bool):
    """(params, analytic reference, scale ratio) for one smooth-decay or
    finite-interval entry at hypercube point u.  The references come from
    each identity's kernel limits, written out here independently of the
    catalog."""
    ratio = 1.0 if equal else _log_scale(u[1], 1.0, 1e3)
    x, y = _scale_pair(rng, u[2], ratio)
    c, d, e, g = (_log_scale(v, 0.2, 5.0) for v in u[3:7])
    if entry == "GR-3.434.2":
        return {"a": x, "b": y}, _frullani(1.0, 0.0, x, y), ratio
    if entry == "GR-4.267.8":
        return {"a": x, "b": y}, math.log(y / x), ratio
    if entry == "GR-3.476.1":
        p = _log_scale(u[3], 0.25, 4.0)
        return {"v": x, "u": y, "p": p}, _frullani(1.0, 0.0, x, y, p), ratio
    if entry == "GR-3.436":
        return {"a": x, "b": y, "p": d, "q": c}, _frullani(d - c, 0.0, x, y), ratio
    if entry == "GR-3.329":
        return {"a": x, "b": y, "c": c}, _frullani(math.exp(-c), 0.0, x, y), ratio
    if entry == "GR-3.232":
        mu = _log_scale(u[4], 0.5, 3.0)
        return {"a": x, "b": y, "c": c, "mu": mu}, _frullani(c**-mu, 0.0, x, y), ratio
    if entry in ("GR-4.536.2", "R-3.1"):
        names = ("p", "q") if entry == "GR-4.536.2" else ("a", "b")
        return dict(zip(names, (x, y))), _frullani(0.0, 0.5 * math.pi, x, y), ratio
    if entry == "GR-4.319.3":
        params = {"a": d, "b": c, "p": x, "q": y}
        return params, _frullani(math.log(d + c), math.log(d), x, y), ratio
    if entry == "R-3.2":
        params = {"p": d, "q": c, "a": x, "b": y}
        return params, _frullani(math.log(d + c), math.log(d), x, y), ratio
    if entry == "GR-4.297.7":
        # kernel a*b*ln(1+t)/t: keep a*b moderate so tol stays meaningful
        if not equal:
            x, y = _log_scale(u[3], 0.3, 1.0), _log_scale(u[4], 1.0, 10.0)
            ratio = y / x
        return {"a": x, "b": y}, _frullani(x * y, 0.0, x, y), ratio
    if entry == "GR-3.484":
        a = _log_scale(u[3], 0.2, 2.0)
        return {"a": a, "p": y, "q": x}, _frullani(1.0, math.exp(a), x, y), ratio
    if entry == "GR-3.412.1":
        h = _log_scale(u[7], 0.2, 5.0)
        params = {"a": d, "b": e, "c": c, "g": g, "h": h, "p": x, "q": y}
        return params, _frullani((d + e) / (c + g + h), 0.0, x, y), ratio
    if entry == "R-3.3":
        n = float(f"{0.5 + 2.5 * u[5]:.6g}")
        params = {"a": x, "b": y, "p": d, "q": c, "n": n}
        return params, _frullani((d / c) ** n, 1.0, x, y), ratio
    if entry == "R-3.9":
        return {"a": x, "b": y}, _frullani(1.0, 0.0, x, y), ratio
    raise KeyError(entry)


def _catalog_stratum(r: CatalogRequest):
    return r.entry, r.kinds, r.equal_scales, round(math.log10(r.tol))


def catalog_smooth(seed: int) -> Workload:
    rng = random.Random(f"catalog-smooth/{seed}")
    requests = []
    for entry in SMOOTH_ENTRIES + FINITE_ENTRIES:
        for i, u in enumerate(_hypercube(rng, PER_ENTRY_SMOOTH, 8)):
            equal = i % EQUAL_SCALE_EVERY == 0
            params, ref, ratio = _smooth_binding(rng, entry, u, equal)
            tol = _log_scale(u[0], 1e-10, 1e-6)
            kinds = ("finite-interval",) if entry in FINITE_ENTRIES else ()
            if ratio >= 100.0:
                kinds += ("scale-ratio>=100",)
            requests.append(CatalogRequest(entry, params, tol, ref, equal, kinds))
    requests = _interleave(rng, requests, _catalog_stratum)
    return Workload(
        "catalog-smooth",
        "decaying map and G7/K15 panel on native integrands; expr and limits never run",
        requests,
        _shares(requests, {
            "equal-scale": lambda r: r.equal_scales,
            "scale-ratio>=100": lambda r: "scale-ratio>=100" in r.kinds,
            "tol<=1e-8": lambda r: r.tol <= 1e-8,
            "finite-interval": lambda r: "finite-interval" in r.kinds,
            "GR-3.476.1-power<1": lambda r: r.entry == "GR-3.476.1" and r.params["p"] < 1.0,
        }),
    )


# -------------------------------------------------------- catalog-oscillatory

OSCILLATORY_ENTRIES = ("GR-4.324.2", "R-3.4", "R-3.5", "R-3.6", "R-3.8")


def gr_4_324_2_reference(a: float, p: float, q: float) -> float:
    """2 ln(q/p) ln(1+a) for |a| <= 1, 2 ln(q/p) ln(1+1/a) beyond."""
    inner = math.log(1.0 + a) if abs(a) <= 1.0 else math.log(1.0 + 1.0 / a)
    return 2.0 * math.log(q / p) * inner


def _series_terms(a: float, tol: float) -> int:
    """Truncation order at which both series of GR-4.324.2 are below tol/100:
    the terms fall like A^K with A = 2a/(1+a^2)."""
    amp = abs(2.0 * a / (1.0 + a * a))
    return int(math.ceil(math.log(tol * 1e-2 * (1.0 - amp)) / math.log(amp))) + 2


def _oscillatory_binding(rng: random.Random, entry: str, u: tuple, equal: bool,
                         incommensurate: bool):
    # commensurate frequencies are halves in [0.5, 10], so the base frequency
    # of every pair is at least 0.5
    lo = 0.5 * (1 + int(4 * u[1]))
    if equal:
        hi = lo
    elif incommensurate:
        hi = round(lo * rng.choice(_IRRATIONAL), 9)
    else:
        hi = max(lo + 0.5, 0.5 * round(2.0 * lo * _log_scale(u[2], 1.1, 5.0)))
    if entry == "GR-4.324.2":
        a = _short(0.1 + 0.6 * u[3]) if u[4] < 0.5 else _short(1.5 + 2.5 * u[3])
        p, q = (lo, hi) if rng.random() < 0.5 else (hi, lo)
        return {"a": a, "p": p, "q": q}, gr_4_324_2_reference(a, p, q)
    if entry == "R-3.6":  # p > q > 0; spectrum {p - q, p + q}
        return {"p": hi, "q": lo}, 0.5 * math.log((hi + lo) / (hi - lo))
    x, y = (lo, hi) if rng.random() < 0.5 else (hi, lo)
    if entry == "R-3.4":
        return {"a": x, "b": y}, _frullani(1.0, 0.0, x, y)
    if entry == "R-3.5":  # sin((b-a)x/2) sin((b+a)x/2)/x = (cos ax - cos bx)/(2x)
        return {"a": x, "b": y}, 0.5 * math.log(y / x)
    if entry == "R-3.8":
        return {"a": x, "b": y}, 0.0
    raise KeyError(entry)


def catalog_oscillatory(seed: int) -> Workload:
    rng = random.Random(f"catalog-oscillatory/{seed}")
    requests = []
    for entry in OSCILLATORY_ENTRIES:
        for i, u in enumerate(_hypercube(rng, PER_ENTRY_OSCILLATORY, 5)):
            incommensurate = i % INCOMMENSURATE_EVERY == 1
            equal = entry != "R-3.6" and i % EQUAL_SCALE_EVERY == 5
            params, ref = _oscillatory_binding(rng, entry, u, equal, incommensurate)
            tol = _log_scale(u[0], 1e-8, 1e-4)
            terms = _series_terms(params["a"], tol) if entry == "GR-4.324.2" else 0
            kinds = ("incommensurate",) if incommensurate else ()
            requests.append(CatalogRequest(entry, params, tol, ref, equal, kinds, terms))
    requests = _interleave(rng, requests, _catalog_stratum)
    return Workload(
        "catalog-oscillatory",
        "the oscillatory tail carries most catalog compute; its tolerance ceiling "
        "and incommensurate-ratio failure show as ok_share and latency_p99_ms",
        requests,
        _shares(requests, {
            "equal-scale": lambda r: r.equal_scales,
            "incommensurate": lambda r: "incommensurate" in r.kinds,
            "tol<=1e-7": lambda r: r.tol <= 1e-7,
            "GR-4.324.2-series": lambda r: r.series_terms > 0,
        }),
    )


# ----------------------------------------------------------- pipeline-kernels

def _kernel_family(family: str, c: float, d: float, m: float):
    """(kernel text, f(0+), f(inf)) for short-decimal constants c, d, m."""
    if family == "exp-affine":
        return f"{c}*exp(-x)+{d}", c + d, d
    if family == "atan":
        return f"atan({c}*x)", 0.0, 0.5 * math.pi
    if family == "log-exp":
        return f"ln({c}+{d}*exp(-x))", math.log(c + d), math.log(c)
    if family == "shifted-power":
        return f"(x+{c})^(-{m})", c**-m, 0.0
    if family == "ratio-power":
        return f"((x+{c})/(x+{d}))^{m}", (c / d) ** m, 1.0
    if family == "compound":
        return f"(1+{c}/x)^x", 1.0, math.exp(c)
    if family == "sqrt-ratio":
        return "sqrt(x)/(1+sqrt(x))", 0.0, 1.0
    if family == "log-ratio":
        return "ln(1+x)/x", 1.0, 0.0
    raise KeyError(family)


PIPELINE_FAMILIES = (
    "exp-affine", "atan", "log-exp", "shifted-power",
    "ratio-power", "compound", "sqrt-ratio", "log-ratio",
)
# special kinds: kernel texts (used in turn) and their limit pair, None
# when the kernel has no finite limit at one end and NOT_APPLICABLE is right
_SPECIAL_KERNELS = {
    "non-applicable": (("sin(x)", "ln(1+x)", "cos(x)", "exp(x)", "x", "1/x"), None),
    # bounded, drifting to its limits slower than any geometric rate
    "slow-drift": (("1/(1+x^0.1)", "1/(1+x^0.15)", "1/(1+x^0.2)"), (1.0, 0.0)),
    # finite limits with an oscillating approach
    "oscillatory-finite": (("cos(x)/(1+x)", "abs(sin(x))/x"), (1.0, 0.0)),
}
PIPELINE_MAX_RATIO = 10.0


def _power_octile(power: float) -> int:
    return min(7, int(8 * math.log(power / 0.05) / math.log(100.0)))


def pipeline_kernels(seed: int) -> Workload:
    rng = random.Random(f"pipeline-kernels/{seed}")
    counts = {kind: round(share * PIPELINE_REQUESTS) for kind, share in PIPELINE_SPECIAL.items()}
    plain = PIPELINE_REQUESTS - sum(counts.values())
    for i, family in enumerate(PIPELINE_FAMILIES):
        counts[family] = plain // len(PIPELINE_FAMILIES) + (i < plain % len(PIPELINE_FAMILIES))
    requests = []
    for family, n in counts.items():
        for i, u in enumerate(_hypercube(rng, n, 6)):
            power = _log_scale(u[0], 0.05, 5.0)
            c, d = _short(_log_scale(u[1], 0.2, 5.0), 2), _short(_log_scale(u[2], 0.2, 5.0), 2)
            if family in _SPECIAL_KERNELS:
                texts, limits = _SPECIAL_KERNELS[family]
                kernel, tags = texts[i % len(texts)], (family,)
            else:
                kernel, f0, finf = _kernel_family(family, c, d, _short(0.5 + 2.5 * u[3]))
                limits, tags = (f0, finf), ()
            a, b = _scale_pair(rng, u[4], _log_scale(u[5], 1.0, PIPELINE_MAX_RATIO))
            ref = None if limits is None else _frullani(limits[0], limits[1], a, b, power)
            requests.append(PipelineRequest(kernel, a, b, power, 1e-6, family, ref, tags))
    requests = _interleave(rng, requests, lambda r: (r.family, _power_octile(r.power)))
    return Workload(
        "pipeline-kernels",
        "expr.evaluate dominates; probe-only and probe-plus-quadrature requests use "
        "the same layers in two ways",
        requests,
        _shares(requests, {
            "non-applicable": lambda r: "non-applicable" in r.kinds,
            "slow-drift": lambda r: "slow-drift" in r.kinds,
            "oscillatory-finite": lambda r: "oscillatory-finite" in r.kinds,
            "power<0.1": lambda r: r.power < 0.1,
            "power>1": lambda r: r.power > 1.0,
            "scale-ratio>=3": lambda r: max(r.a, r.b) / min(r.a, r.b) >= 3.0,
        }),
    )


GENERATORS = {
    "catalog-smooth": catalog_smooth,
    "catalog-oscillatory": catalog_oscillatory,
    "pipeline-kernels": pipeline_kernels,
}
