"""Catalog inventory, the default-grid verification sweep, the zero law,
constraint handling, and the grid-override file grammar."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from frullani import catalog, records
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
from frullani.quadrature import integrate_frullani_oscillatory, oscillatory_plan

ALL_IDS = entry_ids()


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
        assert class_tolerance("smooth-decay") == 1e-6
        assert class_tolerance("finite-interval") == 1e-6
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

    def test_oscillatory_entries_declare_frequencies(self):
        for eid in ALL_IDS:
            e = get_entry(eid)
            if e.eval_class == "oscillatory":
                assert e.frequencies is not None
                freqs = e.frequencies(e.default_grid[0])
                assert all(f > 0 for f in freqs)


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
        # the log-ratio kernel over (0, 1) at a=1.5, b=2 evaluates to
        # +ln(b/a); the sign and ratio orientation are pinned here
        rec = verify_entry("GR-4.267.8", {"a": 1.5, "b": 2.0})
        assert rec.expected == math.log(2.0 / 1.5)
        assert rec.status == "PASS"
        assert rec.numeric == pytest.approx(0.2876820724517809, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.25, 8.0, allow_nan=False),
        b=st.floats(0.25, 8.0, allow_nan=False),
    )
    def test_exponential_difference_passes_everywhere(self, a, b):
        rec = verify_entry("GR-3.434.2", {"a": a, "b": b})
        assert rec.status == "PASS", rec.detail


class TestEvaluationCount:
    # the dearest default-grid binding; a quadrature change that moves this
    # count changes the oracle's arithmetic
    BINDING = {"a": 2.0, "p": 1.0, "q": 10.0}
    EVALUATIONS = 12390

    def test_worst_binding_costs_a_fixed_count(self):
        integrand, _ = instantiate("GR-4.324.2", self.BINDING)
        plan = oscillatory_plan(get_entry("GR-4.324.2").frequencies(self.BINDING))
        tol = class_tolerance("oscillatory") * 0.25
        res = integrate_frullani_oscillatory(integrand, plan, tol)
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
