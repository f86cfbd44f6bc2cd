"""Catalog inventory, the default-grid verification sweep, the zero law,
constraint handling, and the grid-override file grammar."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from frullani import catalog, quadrature, records
from frullani.catalog import (
    CLASS_TOLERANCE,
    ConstraintViolation,
    base_frequency,
    class_tolerance,
    default_grid,
    entry_ids,
    get_entry,
    instantiate,
    list_entries,
    parse_grid_file,
    verify_entry,
)
from frullani.expr import DomainError, compile_kernel, evaluate, parse, substitute
from frullani.quadrature import (
    SEGMENT_PANELS,
    OscillatorySpec,
    integrate_adaptive,
    integrate_frullani,
    integrate_frullani_oscillatory,
    integrate_oscillatory_tail,
)
from reference import compensated_sum

ALL_IDS = entry_ids()


def scales(entry, params):
    """The entry's scale pair (alpha, beta) at a binding."""
    return tuple(evaluate(parse(text), params) for text in entry.scales)


def tail(entry, params):
    """The oscillatory entry's split-route tail s -> f(e^s) - M at a
    binding, through the compiled kernel, M being the entry's m."""
    f, m = compile_kernel(parse(entry.kernel), params), entry.m(params)
    return lambda s: f(math.exp(s)) - m


def cos_tail(s):
    return math.cos(math.exp(s))


def common_grid(integrand, pair, tol):
    """(value, error, evaluations) of the head on (0, c] plus the tail on
    the common half-period grid pi/base, added by hand."""
    start = max(math.pi / min(pair), 1.0)
    head = integrate_adaptive(integrand, 0.0, start, 0.4 * tol)
    tail = integrate_oscillatory_tail(
        integrand, OscillatorySpec(start, math.pi / base_frequency(pair)), 0.6 * tol
    )
    return (
        head.value + tail.value,
        head.error_estimate + tail.error_estimate,
        head.function_evaluations + tail.function_evaluations,
    )


class TestInventory:
    def test_twenty_entries(self):
        assert len(ALL_IDS) == 20
        assert len(set(ALL_IDS)) == 20

    def test_every_source_is_tagged(self):
        for eid in ALL_IDS:
            src = get_entry(eid).source
            assert src.startswith("G&R") or src.startswith("Ramanujan")

    def test_id_prefixes_match_sources(self):
        for eid in ALL_IDS:
            src = get_entry(eid).source
            if eid.startswith("GR-"):
                assert src.startswith("G&R")
            else:
                assert eid.startswith("R-") and src.startswith("Ramanujan")

    def test_get_entry_unknown_id(self):
        with pytest.raises(KeyError, match="unknown catalog entry"):
            get_entry("GR-0.0.0")

    def test_list_entries_shape(self):
        rows = list_entries()
        assert [r[0] for r in rows] == list(ALL_IDS)
        for _, source, prose, eval_class in rows:
            assert source and prose
            assert eval_class in CLASS_TOLERANCE

    def test_class_tolerances(self):
        assert sorted(CLASS_TOLERANCE) == ["oscillatory", "smooth-decay"]
        assert class_tolerance("smooth-decay") == 1e-6
        assert class_tolerance("oscillatory") == 1e-4
        with pytest.raises(KeyError):
            class_tolerance("mystery")

    def test_default_grid_returns_copies(self):
        g = default_grid("GR-3.434.2")
        g[0]["a"] = -999.0
        assert default_grid("GR-3.434.2")[0]["a"] == 1.0

    def test_every_entry_has_three_default_bindings(self):
        for eid in ALL_IDS:
            assert len(default_grid(eid)) == 3

    def test_only_a_nonzero_m_is_declared(self):
        # M is 0 where the entry omits it; the eight entries that declare it
        # each have a binding where it is not 0
        omitted = catalog.CatalogEntry._field_defaults["m"]
        declared = {eid for eid in ALL_IDS if get_entry(eid).m is not omitted}
        assert declared == {"GR-3.434.2", "GR-4.267.8", "GR-3.476.1", "GR-4.536.2",
                            "R-3.1", "R-3.3", "GR-3.484", "GR-4.324.2"}
        assert omitted({}) == 0.0
        for eid in declared:
            assert any(get_entry(eid).m(params) != 0.0 for params in default_grid(eid)), eid

    def test_oscillatory_entries_declare_frequencies(self):
        for eid in ALL_IDS:
            e = get_entry(eid)
            if e.eval_class != "oscillatory":
                continue
            for params in e.default_grid:
                alpha, beta = scales(e, params)
                assert alpha > 0 and beta > 0

    def test_kernel_and_scales_rebuild_the_printed_integrand(self):
        # the oracle integrates every entry's kernel, so each kernel must be
        # the printed one's: in x, or, under the substitution t = t(x), the
        # printed integrand in t times |dt/dx|, which is t for t = exp(-x)
        for eid in ALL_IDS:
            e = get_entry(eid)
            assert (e.power is None) == (eid != "GR-3.476.1")
            assert (e.substitution is None) == (eid != "GR-4.267.8")
            for params in e.default_grid:
                alpha, beta = scales(e, params)
                p = 1.0 if e.power is None else evaluate(parse(e.power), params)
                f = compile_kernel(parse(e.kernel), params)
                g, _ = instantiate(eid, params)
                for x in (0.3, 1.7, 12.5):
                    rebuilt = (f(alpha * x**p) - f(beta * x**p)) / x
                    if e.substitution is None:
                        printed = g(x)
                    else:
                        assert e.substitution == "exp(-x)"
                        t = evaluate(parse(e.substitution), {"x": x})
                        printed = t * g(t)
                    assert rebuilt == pytest.approx(printed, rel=1e-12, abs=1e-14), (eid, params, x)


def _sweep_cases():
    cases = []
    for eid in ALL_IDS:
        for i, params in enumerate(default_grid(eid)):
            cases.append(pytest.param(eid, params, id=f"{eid}-grid{i}"))
    return cases


class TestDefaultGridSweep:
    @pytest.mark.parametrize("eid,params", _sweep_cases())
    def test_entry_passes_at_class_tolerance(self, eid, params):
        entry = get_entry(eid)
        rec = verify_entry(eid, params)
        assert rec.status == "PASS", rec.detail
        assert rec.status in catalog.STATUSES
        assert math.isfinite(rec.expected)
        assert rec.abs_error <= class_tolerance(entry.eval_class)
        assert rec.abs_error == abs(rec.expected - rec.numeric)
        assert math.isfinite(rec.oracle_error) and rec.oracle_error >= 0.0
        assert rec.wall_time >= 0.0
        assert rec.params == params

    def test_finite_interval_value_is_the_corrected_one(self):
        # the printed log-ratio integrand over (0, 1) at a=1.5, b=2, which
        # t = exp(-x) turns into the kernel expm1(-x)'s Frullani integral,
        # evaluates to +ln(b/a); the sign and ratio orientation are pinned
        rec = verify_entry("GR-4.267.8", {"a": 1.5, "b": 2.0})
        assert rec.expected == math.log(2.0 / 1.5)
        assert rec.status == "PASS"
        assert rec.numeric == pytest.approx(0.2876820724517809, abs=1e-8)

    def test_double_exponential_at_a_tiny_decay(self):
        # at c = 1e-15 the a term is still about 0.2 a at y = a x = 35, since
        # c e^y is only 1.6 there: the integrand runs out to where exp saturates
        rec = verify_entry("GR-3.329", {"a": 1.0, "b": 2.0, "c": 1e-15})
        assert rec.status == "PASS", rec.detail
        assert rec.abs_error <= 1e-12

    def test_algebraic_endpoint_costs_few_panels(self):
        # [f(v x^p) - f(u x^p)]/x behaves like x^(p-1) at 0; under u = x^p
        # the oracle integrates the kernel's power-1 integrand, which the
        # decaying map took 2,415 evaluations to integrate in x
        # (TestDecaying.test_algebraic_endpoint_of_a_power_kernel)
        rec = verify_entry("GR-3.476.1", {"v": 1.0, "u": 2.0, "p": 0.25}, 1e-9)
        assert rec.status == "PASS", rec.detail
        assert rec.abs_error <= 1e-9
        assert rec.evaluations == 30

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.25, 8.0, allow_nan=False),
        b=st.floats(0.25, 8.0, allow_nan=False),
    )
    def test_exponential_difference_passes_everywhere(self, a, b):
        rec = verify_entry("GR-3.434.2", {"a": a, "b": b})
        assert rec.status == "PASS", rec.detail


# (status, numeric.hex(), evaluations) of every default-grid record, in grid
# order.  Every catalog integrand is built from expression text; the
# oscillatory figures were taken from hand-written closures before that, so
# any change in their arithmetic shows here bit for bit.  The smooth-decay
# figures are those of integrate_frullani: the head on (0, pi/max(alpha,
# beta)] and the kernel's tail f(e^s) - f(inf) over (ln alpha c, ln beta c),
# and 0.0 in no evaluations for equal scales.  GR-4.267.8 takes
# GR-3.434.2's kernel and grid, and so its bits.
PINNED_RECORDS = {
    "GR-3.434.2": (
        ("PASS", "0x1.62e42fefa39efp-1", 30),
        ("PASS", "0x1.26bb1bbb55516p+1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-4.267.8": (
        ("PASS", "0x1.62e42fefa39efp-1", 30),
        ("PASS", "0x1.26bb1bbb55516p+1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-3.476.1": (
        ("PASS", "0x1.62e42fefa39efp-1", 30),
        ("PASS", "0x1.26bb1bbb55516p+0", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-3.436": (
        ("PASS", "0x1.62e42fefa39ebp+0", 30),
        ("PASS", "0x1.26bb1bbb55516p+1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-3.329": (
        ("PASS", "0x1.051d4dc28ac47p-2", 60),
        ("PASS", "0x1.6586d22e55f20p+0", 120),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-3.232": (
        ("PASS", "0x1.62e42fefa39f3p-1", 60),
        ("PASS", "0x1.88f97a4f1c6c8p-1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-4.536.2": (
        ("PASS", "0x1.16bb24190a0b8p+0", 60),
        ("PASS", "0x1.cef652e568e58p+1", 60),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-4.319.3": (
        ("PASS", "0x1.ebfbdff82c58fp-2", 30),
        ("PASS", "0x1.0e0f26b99f543p+1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-4.297.7": (
        ("PASS", "0x1.62e42fefa39ecp+0", 60),
        ("PASS", "0x1.7069e2aa2aa5cp+4", 60),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-3.484": (
        ("PASS", "0x1.30e6d4ca68468p+0", 135),
        ("PASS", "0x1.d6c35748f8191p+3", 135),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-3.412.1": (
        ("PASS", "0x1.d9303fea2f810p-2", 30),
        ("PASS", "0x1.88f97a4f1c70ep+0", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "GR-4.324.2": (
        ("PASS", "0x1.1fc9f98c0147cp-1", 2520),
        ("PASS", "0x1.de033c08fa234p+0", 12390),
        ("PASS", "0x0.0p+0", 195),
    ),
    "R-3.1": (
        ("PASS", "0x1.16bb24190a0b8p+0", 60),
        ("PASS", "0x1.cef652e568e58p+1", 60),
        ("PASS", "0x0.0p+0", 0),
    ),
    "R-3.2": (
        ("PASS", "0x1.ebfbdff82c58fp-2", 30),
        ("PASS", "0x1.9895722dfdfb5p+1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
    "R-3.3": (
        ("PASS", "0x1.0a2b23f3bab71p-1", 30),
        ("PASS", "-0x1.26bb1bbb55516p+2", 60),
        ("PASS", "0x0.0p+0", 0),
    ),
    "R-3.4": (
        ("PASS", "0x1.62e394d19ecc4p-1", 360),
        ("PASS", "0x1.26baec7987bafp+1", 1890),
        ("PASS", "0x0.0p+0", 195),
    ),
    "R-3.5": (
        ("PASS", "0x1.62e394d19ecb8p-2", 360),
        ("PASS", "0x1.26baba98ba3f1p+0", 1680),
        ("PASS", "0x0.0p+0", 195),
    ),
    "R-3.6": (
        ("PASS", "0x1.62e394d19ecb8p-2", 360),
        ("PASS", "0x1.26baba98ba3f1p+0", 1680),
        ("PASS", "0x1.193f3be6b650ep-1", 315),
    ),
    "R-3.8": (
        ("PASS", "0x1.79bc9740c2000p-21", 195),
        ("PASS", "0x1.7a39584d72000p-21", 255),
        ("PASS", "0x0.0p+0", 195),
    ),
    "R-3.9": (
        ("PASS", "0x1.62e42fefa39edp-1", 30),
        ("PASS", "0x1.26bb1bbb5551dp+1", 30),
        ("PASS", "0x0.0p+0", 0),
    ),
}
# integrand evaluations of the default grid, per evaluation class
CLASS_EVALUATIONS = {"smooth-decay": 1470, "oscillatory": 22785}


class TestPinnedArithmetic:
    def test_default_grid_records_are_pinned(self):
        assert list(PINNED_RECORDS) == list(ALL_IDS)
        for eid in ALL_IDS:
            got = [
                (rec.status, rec.numeric.hex(), rec.evaluations)
                for rec in (verify_entry(eid, params) for params in default_grid(eid))
            ]
            assert got == list(PINNED_RECORDS[eid]), eid

    def test_records_do_not_depend_on_a_compensated_sum(self, monkeypatch):
        # sum() of floats is compensated from Python 3.12 on: the oracle sums
        # left to right, so every Python version gives the pinned bits
        monkeypatch.setattr(quadrature, "sum", compensated_sum, raising=False)
        self.test_default_grid_records_are_pinned()

    def test_class_evaluation_totals(self):
        totals = dict.fromkeys(CLASS_EVALUATIONS, 0)
        for eid in ALL_IDS:
            for params in default_grid(eid):
                totals[get_entry(eid).eval_class] += verify_entry(eid, params).evaluations
        assert totals == CLASS_EVALUATIONS


OSCILLATORY_IDS = tuple(e for e in ALL_IDS if get_entry(e).eval_class == "oscillatory")
# irrational frequency ratios, typed to nine decimals
IRRATIONAL = (1.414213562, 1.732050808, 2.236067977, 1.618033989, 2.718281828)
HALVES = st.integers(1, 20).map(lambda k: 0.5 * k)
AMPLITUDES = st.sampled_from((0.1, 0.5, 0.9, 1.5, 2.0, 4.0, -0.5, -3.0))


def _binding(eid, alpha, beta, a):
    """Parameters whose spectrum has the scale pair (alpha, beta); R-3.6
    needs alpha < beta."""
    if eid == "R-3.6":
        return {"p": 0.5 * (alpha + beta), "q": 0.5 * (beta - alpha)}
    if eid == "GR-4.324.2":
        return {"a": a, "p": alpha, "q": beta}
    return {"a": alpha, "b": beta}


class TestIncommensurateScales:
    @settings(max_examples=60, deadline=None)
    @given(
        eid=st.sampled_from(OSCILLATORY_IDS),
        alpha=HALVES,
        ratio=st.sampled_from(IRRATIONAL),
        swap=st.booleans(),
        a=AMPLITUDES,
    )
    def test_split_tail_never_fails(self, eid, alpha, ratio, swap, a):
        beta = round(alpha * ratio, 9)
        if swap and eid != "R-3.6":
            alpha, beta = beta, alpha
        assert max(alpha, beta) / base_frequency((alpha, beta)) > SEGMENT_PANELS
        rec = verify_entry(eid, _binding(eid, alpha, beta, a))
        assert rec.status == "PASS", rec.detail
        assert rec.evaluations <= TestEvaluationCount.EVALUATIONS

    @settings(max_examples=40, deadline=None)
    @given(
        eid=st.sampled_from(OSCILLATORY_IDS),
        pair=st.tuples(HALVES, HALVES).filter(lambda ab: ab[0] != ab[1]),
        a=AMPLITUDES,
    )
    def test_commensurate_scales_keep_the_common_grid(self, eid, pair, a):
        params = _binding(eid, *sorted(pair), a)
        tol = class_tolerance("oscillatory")
        rec = verify_entry(eid, params)
        integrand, _ = instantiate(eid, params)
        pair = scales(get_entry(eid), params)
        assert max(pair) / base_frequency(pair) <= SEGMENT_PANELS
        value, _, evaluations = common_grid(integrand, pair, tol * 0.25)
        assert repr(rec.numeric) == repr(value)
        assert rec.evaluations == evaluations


class TestEvaluationCount:
    # the dearest default-grid binding; a quadrature change that moves this
    # count changes the oracle's arithmetic
    BINDING = {"a": 2.0, "p": 1.0, "q": 10.0}
    EVALUATIONS = 12390

    def test_worst_binding_costs_a_fixed_count(self):
        integrand, _ = instantiate("GR-4.324.2", self.BINDING)
        tol = class_tolerance("oscillatory") * 0.25
        entry = get_entry("GR-4.324.2")
        res = integrate_frullani_oscillatory(
            integrand, scales(entry, self.BINDING), tail(entry, self.BINDING), tol
        )
        assert res.converged
        assert res.function_evaluations == self.EVALUATIONS

    def test_record_carries_the_count(self):
        rec = verify_entry("GR-4.324.2", self.BINDING)
        assert rec.status == "PASS"
        assert rec.evaluations == self.EVALUATIONS

    def test_skipped_record_counts_nothing(self):
        rec = verify_entry("GR-4.324.2", {"a": 1.0, "p": 1.0})
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert rec.evaluations == 0


class TestConfidentFailures:
    """True identities the oracle once contradicted with a small error
    estimate, FAIL where an honest oracle ends ORACLE_FAILED or PASS, and
    tolerances at the rounding floor of the oracle's panel sum."""

    @pytest.mark.parametrize(
        "entry_id, params, tol",
        [
            # integrated over (0, 1) in t, off by 1.9e-9 against an
            # estimate of 3.1e-11; in x, under t = exp(-x), it passes
            ("GR-4.267.8", {"a": 1.83309, "b": 46.285}, 4.34319e-10),
            # in t, the integrand raised a division by zero: ORACLE_FAILED
            ("GR-4.267.8", {"a": 1e-300, "b": 1e300}, None),
        ],
    )
    def test_true_identity_is_not_a_fail(self, entry_id, params, tol):
        rec = verify_entry(entry_id, params, tol)
        assert rec.status == "PASS", rec.detail

    @pytest.mark.parametrize("tol", [1e-15, 1e-14])
    def test_tolerance_below_the_rounding_floor_is_oracle_failed(self, tol):
        # the split route's integral over s spans 690.8 units, whose sum
        # rounds at 7.7e-14: the oracle once converged there, off by 3.07e-12
        rec = verify_entry("R-3.4", {"a": 1e300, "b": 1.0}, tol)
        assert rec.status == "ORACLE_FAILED"
        assert "is below the rounding floor 7.660e-14 of the panel sum" in rec.detail

    def test_tolerance_above_the_rounding_floor_passes(self):
        assert verify_entry("R-3.4", {"a": 1e300, "b": 1.0}, 1e-12).status == "PASS"


class TestSmoothSplitRoute:
    """Smooth-decay entries take Frullani's substitution: the head on
    (0, pi/max(alpha, beta)] and the kernel's tail f(e^s) - f(inf) over
    (ln alpha c, ln beta c), with f(inf) from the entry's m."""

    @pytest.mark.parametrize("entry_id, params, tol", [
        # the decaying map's mass sat at x of about 345-700, where every
        # node of its first panel read 0: a confident FAIL, estimate 0.0
        ("GR-3.412.1", {"a": 1.0, "b": 1.0, "c": 1e-300, "g": 1.0, "h": 1.0, "p": 1.0, "q": 2.0}, None),
        # the decaying map's first panel saw ((x + 1)/(x + 2))^n near zero
        # everywhere and converged at once, to -1.5e-93 against -ln 2
        ("R-3.3", {"a": 1.0, "b": 2.0, "p": 1.0, "q": 2.0, "n": 100000.0}, None),
        ("R-3.3", {"a": 1.0, "b": 2.0, "p": 1.0, "q": 2.0, "n": 1e300}, None),
        # a kernel decaying like x^-0.5, whose map reached t = 1
        ("GR-3.232", {"a": 1.0, "b": 2.0, "c": 1.0, "mu": 0.5}, 1e-7),
        ("GR-3.232", {"a": 1.0, "b": 2.0, "c": 1.0, "mu": 0.5}, 1e-12),
        # scales 1e600 apart, whose map reached t = 1
        ("GR-3.434.2", {"a": 1e-300, "b": 1e300}, None),
        # x^-0.95 at 0 in x; at power 1, under u = x^p, it is gone
        ("GR-3.476.1", {"v": 1.0, "u": 10.0, "p": 0.05}, 1e-10),
    ])
    def test_bindings_the_decaying_map_failed_pass(self, entry_id, params, tol):
        rec = verify_entry(entry_id, params, tol)
        assert rec.status == "PASS", rec.detail
        assert rec.abs_error <= 1e-12
        assert rec.evaluations <= 300

    @pytest.mark.parametrize("eid", [e for e in ALL_IDS if get_entry(e).eval_class == "smooth-decay"])
    def test_equal_scales_cost_no_evaluation(self, eid):
        entry = get_entry(eid)
        s0, s1 = entry.scales
        params = dict(entry.default_grid[0])
        params[s1] = params[s0]
        rec = verify_entry(eid, params)
        assert (rec.status, rec.numeric, rec.oracle_error, rec.evaluations) == ("PASS", 0.0, 0.0, 0)

    @pytest.mark.parametrize("eid", [e for e in ALL_IDS if get_entry(e).eval_class == "smooth-decay"])
    def test_declared_limit_far_out(self, eid):
        # the tail takes the kernel's f(inf) from the entry's m, 0 where it
        # is not declared, which the closed form does not read; far out the
        # kernel must be there
        entry = get_entry(eid)
        for params in entry.default_grid:
            f = compile_kernel(parse(entry.kernel), params)
            limit = entry.m(params)
            for x in (1e12, 1e14):
                assert f(x) == pytest.approx(limit, abs=1e-9 * max(1.0, abs(limit))), (params, x)

    def test_a_wrong_declared_limit_fails(self, monkeypatch):
        # a limit of 0.01 in place of 0 shifts the answer by 0.01 ln 2
        entry = get_entry("GR-3.232")
        wrong = entry._replace(m=lambda p: 0.01)
        monkeypatch.setitem(catalog._BY_ID, "GR-3.232", wrong)
        rec = verify_entry("GR-3.232", {"a": 1.0, "b": 2.0, "c": 1.0, "mu": 2.0})
        assert rec.status == "FAIL"
        assert rec.abs_error == pytest.approx(0.01 * math.log(2.0), abs=1e-12)

    def test_power_rule_divides_the_power_one_integral(self):
        # u = x^p: the oracle integrates the kernel's power-1 integrand at
        # tol/4 * p, and the record holds its value and estimate over p
        params = {"v": 1.0, "u": 2.0, "p": 0.3}
        rec = verify_entry("GR-3.476.1", params, 1e-9)
        integrand, pair, m_tail = catalog._bind(get_entry("GR-3.476.1"), params)
        res = integrate_frullani(integrand, pair, m_tail, 1e-9 * 0.25 * 0.3)
        assert rec.status == "PASS", rec.detail
        assert rec.numeric == res.value / 0.3
        assert rec.oracle_error == res.error_estimate / 0.3
        assert rec.evaluations == res.function_evaluations


class TestZeroLaw:
    @pytest.mark.parametrize(
        "eid", [e for e in ALL_IDS if get_entry(e).scale_params is not None]
    )
    def test_equal_scales_vanish(self, eid):
        entry = get_entry(eid)
        s0, s1 = entry.scale_params
        params = dict(entry.default_grid[0])
        params[s1] = params[s0]
        rec = verify_entry(eid, params)
        assert rec.expected == 0.0
        assert rec.status == "PASS", rec.detail
        assert abs(rec.numeric) <= class_tolerance(entry.eval_class)

    def test_sine_product_has_no_scale_pair(self):
        # p > q > 0 forbids p == q, so the zero law cannot apply
        assert get_entry("R-3.6").scale_params is None


class TestDerivedConsistency:
    def test_sine_product_halves_cosine_difference(self):
        # sin((b-a)x/2) sin((b+a)x/2) = (cos ax - cos bx)/2 pointwise, so
        # the closed forms and oracle values must track at half weight
        r34 = verify_entry("R-3.4", {"a": 1.0, "b": 2.0})
        r35 = verify_entry("R-3.5", {"a": 1.0, "b": 2.0})
        assert r35.expected == 0.5 * r34.expected
        assert abs(r35.numeric - 0.5 * r34.numeric) <= 2e-4

    def test_sine_pair_matches_rewritten_product(self):
        # sin px sin qx = sin((p-q)x) shape under a = p-q, b = p+q
        r36 = verify_entry("R-3.6", {"p": 3.0, "q": 1.0})
        r35 = verify_entry("R-3.5", {"a": 2.0, "b": 4.0})
        assert r36.expected == r35.expected
        assert abs(r36.numeric - r35.numeric) <= 1e-12


class TestConstraints:
    def test_sine_pair_ordering(self):
        rec = verify_entry("R-3.6", {"p": 1.0, "q": 3.0})
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert "p > q" in rec.detail
        with pytest.raises(ConstraintViolation) as info:
            instantiate("R-3.6", {"p": 1.0, "q": 3.0})
        assert info.value.entry_id == "R-3.6"
        assert "p > q" in info.value.prose

    def test_nonpositive_scale_rejected(self):
        rec = verify_entry("GR-3.434.2", {"a": -1.0, "b": 2.0})
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert math.isnan(rec.expected) and math.isnan(rec.numeric)

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_log_cosine_kernel_rejects_unit_amplitude(self, a):
        rec = verify_entry("GR-4.324.2", {"a": a, "p": 1.0, "q": 2.0})
        assert rec.status == "CONSTRAINT_VIOLATION"

    def test_log_cosine_kernel_allows_negative_amplitude(self):
        rec = verify_entry("GR-4.324.2", {"a": -0.5, "p": 1.0, "q": 2.0})
        assert rec.status == "PASS", rec.detail

    def test_double_exponential_needs_positive_decay(self):
        rec = verify_entry("GR-3.329", {"a": 1.0, "b": 2.0, "c": 0.0})
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert "c is positive" in rec.detail


class TestParamChecking:
    def test_missing_parameter_is_embedded(self):
        rec = verify_entry("GR-3.434.2", {"a": 1.0})
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert "missing b" in rec.detail

    def test_record_params_keep_declared_names_in_order(self):
        rec = verify_entry("R-3.2", {"b": 2.0, "a": 1.0, "q": 1.0, "p": 2.0})
        assert list(rec.params) == ["p", "q", "a", "b"]
        rec = verify_entry("R-3.4", {"c": 2.0, "a": 1.0})
        assert rec.status == "CONSTRAINT_VIOLATION"
        assert rec.params == {"a": 1.0}

    def test_record_type_is_shared_with_the_pipeline(self):
        assert catalog.VerificationRecord is records.VerificationRecord
        assert catalog.STATUSES is records.STATUSES

    def test_unexpected_parameter_raises_on_instantiate(self):
        with pytest.raises(ValueError, match="unexpected c"):
            instantiate("GR-3.434.2", {"a": 1.0, "b": 2.0, "c": 3.0})

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            instantiate("GR-3.434.2", {"a": math.inf, "b": 2.0})

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError):
            verify_entry("GR-3.434.2", {"a": 1.0, "b": 2.0}, tol=tol)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        # an infinite tolerance used to PASS after 15 evaluations with an
        # oracle error of 0.127
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_entry("GR-3.434.2", {"a": 1, "b": 2}, tol)

    def test_unknown_entry_raises(self):
        with pytest.raises(KeyError):
            verify_entry("X-1", {})


class TestBaseFrequency:
    @pytest.mark.parametrize("freqs,base", [
        ((1.0, 10.0), 1.0),
        ((2.0, 20.0), 2.0),
        ((1.5, 2.5), 0.5),
        ((3.0,), 3.0),
        ((1.0, 2.0, 3.0), 1.0),
        ((0.0, 2.0, 20.0), 2.0),
    ])
    def test_rational_content(self, freqs, base):
        assert base_frequency(freqs) == pytest.approx(base, rel=1e-12)

    def test_needs_a_positive_frequency(self):
        with pytest.raises(ValueError):
            base_frequency(())
        with pytest.raises(ValueError):
            base_frequency((0.0, -3.0))


def _cosine_pair(alpha, beta):
    return lambda x: (math.cos(alpha * x) - math.cos(beta * x)) / x


class TestOscillatoryPlan:
    @pytest.mark.parametrize("freqs", [(1.0, 10.0), (2.0, 20.0), (0.5, 11.5), (1.0, 200.0)])
    def test_common_grid(self, freqs):
        g = _cosine_pair(*freqs)
        res = integrate_frullani_oscillatory(g, freqs, cos_tail, 2.5e-5)
        assert (res.value, res.error_estimate, res.function_evaluations) == common_grid(
            g, freqs, 2.5e-5
        )

    @pytest.mark.parametrize("freqs", [(1.5, 2.121320343), (1.0, 1.414213562), (1.0, 201.0)])
    def test_no_common_grid(self, freqs):
        # the fastest component would need more half-periods per segment
        # than a segment may spend panels
        assert max(freqs) / base_frequency(freqs) > SEGMENT_PANELS
        # the tail is the kernel's integral over (alpha c, beta c): with the
        # mean 1 of 1 + cos u taken out of it, the answer is that of cos u
        # alone
        shifted = lambda s: 1.0 + math.cos(math.exp(s)) - 1.0
        g = _cosine_pair(*freqs)
        res = integrate_frullani_oscillatory(g, freqs, shifted, 2.5e-5)
        plain = integrate_frullani_oscillatory(g, freqs, cos_tail, 2.5e-5)
        alpha, beta = freqs
        assert res.converged and plain.converged
        assert res.value == pytest.approx(math.log(beta / alpha), abs=1e-12)
        assert plain.value == pytest.approx(math.log(beta / alpha), abs=1e-12)


class TestGridThatCannotAdvance:
    # a common tail grid whose half-period rounds away beside the tail start
    # of 1
    @pytest.mark.parametrize("eid,params,scale", [
        ("R-3.4", {"a": 1e300, "b": 2e300}, 1e300),
        ("GR-4.324.2", {"a": 0.5, "p": 1e300, "q": 2e300}, 1e300),
        ("R-3.8", {"a": 1e20, "b": 2e20}, 1e20),
        ("R-3.5", {"a": 1e200, "b": 2e200}, 1e200),
        ("R-3.6", {"p": 1e200, "q": 1.0}, 1e200),
    ])
    def test_the_grid_is_named(self, eid, params, scale):
        rec = verify_entry(eid, params)
        assert rec.status == "ORACLE_FAILED"
        assert rec.detail.startswith(f"oracle raised: the grid of scale {scale!r} cannot advance x")
        assert "half-period" in rec.detail and "tail start" in rec.detail

    def test_a_tail_start_that_overflows_is_named(self):
        # pi over the slower scale 1e-320 overflows, so no grid can start
        rec = verify_entry("GR-4.324.2", {"a": 0.5, "p": 1e-320, "q": 2e-320})
        assert rec.status == "ORACLE_FAILED"
        assert rec.detail == (
            "oracle raised: the tail start pi/1e-320 of the slower scale 1e-320 is not finite"
        )


class TestSplitScales:
    # scale pairs with no common grid: the head on (0, pi/max(alpha, beta)]
    # and the kernel's integral over (alpha c, beta c), in s = ln u
    @pytest.mark.parametrize("eid,params,tol", [
        # a confident FAIL by pi/4 when the head stopped at pi/slow
        ("R-3.8", {"a": 1e4, "b": 1.0}, None),
        ("R-3.8", {"a": 1e8, "b": 1.0}, None),
        ("R-3.8", {"a": 1e12, "b": 1.0}, None),
        # a per-scale grid that could not advance x
        ("R-3.4", {"a": 1e300, "b": 1.0}, None),
        ("R-3.4", {"a": 1e-300, "b": 1.0}, None),
        ("GR-4.324.2", {"a": 0.5, "p": 1e-200, "q": 1.0}, None),
        # a per-scale tail that reached the panel cap
        ("R-3.4", {"a": 1e6, "b": 1.0}, None),
        ("GR-4.324.2", {"a": 2.0, "p": 1.0, "q": 1e5}, None),
        ("R-3.5", {"a": 1.0, "b": 1e4}, None),
        ("R-3.6", {"p": 1e5, "q": 1.0}, None),
        # per-scale tails that stopped short of a tight tolerance
        ("R-3.4", {"a": 1.0, "b": 1.414213562}, 1e-8),
        ("R-3.4", {"a": 1.0, "b": 1.414213562}, 1e-10),
    ])
    def test_wide_and_incommensurate_pairs_pass(self, eid, params, tol):
        rec = verify_entry(eid, params, tol)
        assert rec.status == "PASS", rec.detail
        assert rec.abs_error <= 4e-13
        assert rec.evaluations <= 645

    def test_a_log_ratio_that_overflows(self):
        # p/q overflows but ln q - ln p does not; both orders agree
        up = verify_entry("GR-4.324.2", {"a": 0.5, "p": 1e-320, "q": 1.0})
        down = verify_entry("GR-4.324.2", {"a": 0.5, "p": 1.0, "q": 1e-320})
        assert (up.status, down.status) == ("PASS", "PASS")
        assert up.expected == -down.expected == 597.5154737697984

    @pytest.mark.parametrize("eid", OSCILLATORY_IDS)
    def test_declared_mean(self, eid):
        # the split route takes the kernel's mean at infinity from the
        # entry's m, 0 where it is not declared.  The average over a hundred
        # periods of 2 pi far out must match it.
        entry = get_entry(eid)
        window = 200.0 * math.pi
        for params in entry.default_grid:
            f = compile_kernel(parse(entry.kernel), params)
            far = integrate_adaptive(f, 1e4, 1e4 + window, 1e-9)
            assert far.converged
            assert far.value / window == pytest.approx(entry.m(params), abs=1e-9)

    @pytest.mark.parametrize("a", [-1e3, -3.0, -1.5, -0.5, 0.0, 0.2, 0.5, 0.999, 1.001, 2.0, 3.5, 1e3])
    def test_jensen_mean_is_the_period_average(self, a):
        # ln(1 + 2a cos x + a^2) = ln|1 + a e^(ix)|^2 has mean 2 ln max(1, |a|)
        entry = get_entry("GR-4.324.2")
        params = {"a": a, "p": 1.0, "q": 2.0}
        period = integrate_adaptive(compile_kernel(parse(entry.kernel), params), 0.0, 2.0 * math.pi, 1e-13)
        assert period.converged
        m = entry.m(params)
        assert abs(m - period.value / (2.0 * math.pi)) <= 1e-13 * max(1.0, abs(m))

    @pytest.mark.parametrize("eid", ALL_IDS)
    def test_compiled_tail_is_the_substituted_tree(self, eid):
        # the tail the catalog binds is f(exp(s)) - M, evaluated bit for bit,
        # M being the entry's m; past s = 709.78, exp
        # saturates to inf, through evaluate in the compiled code
        entry = get_entry(eid)
        tree = substitute(parse(entry.kernel), "x", parse("exp(x)"))
        rng = random.Random(eid)

        def outcome(f, s):
            try:
                return f(s).hex()
            except DomainError as exc:
                return exc.func, exc.argument

        for params in entry.default_grid:
            bound = catalog._bind(entry, params)[2]
            m = entry.m(params)
            points = [rng.uniform(-700.0, math.log(math.pi)) for _ in range(32)]
            for s in (*points, 709.9, 710.0, 711.0):
                want = outcome(lambda s: evaluate(tree, {**params, "x": s}) - m, s)
                assert outcome(bound, s) == want, (params, s)


class TestGridFile:
    def test_parses_bindings_in_order(self):
        text = """
        # overrides for the two-scale entries
        GR-3.434.2 a=1 b=4   # wider ratio
        GR-3.434.2 b=8 a=2
        R-3.1 a=3 b=1
        """
        grids = parse_grid_file(text)
        assert grids == {
            "GR-3.434.2": [{"a": 1.0, "b": 4.0}, {"a": 2.0, "b": 8.0}],
            "R-3.1": [{"a": 3.0, "b": 1.0}],
        }

    def test_parsed_bindings_verify(self):
        grids = parse_grid_file("R-3.1 a=2 b=1")
        rec = verify_entry("R-3.1", grids["R-3.1"][0])
        assert rec.status == "PASS"

    @pytest.mark.parametrize("line,fragment", [
        ("NO-SUCH a=1", "unknown catalog entry"),
        ("GR-3.434.2 a", "expected key=value"),
        ("GR-3.434.2 a=1 c=2", "no parameter 'c'"),
        ("GR-3.434.2 a=1 a=2", "duplicate parameter"),
        ("GR-3.434.2 a=oops b=2", "bad numeric value"),
        ("GR-3.434.2 a=1", "missing parameters b"),
    ])
    def test_rejects_malformed_lines(self, line, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_grid_file(line)

    def test_error_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_grid_file("\n# fine\nBAD-ID a=1\n")
