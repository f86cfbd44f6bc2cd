"""Quadrature stack: panels, adaptive refinement, mapped half-line,
oscillatory segmentation with series acceleration."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from frullani.quadrature import (
    IntegrandError,
    OscillatorySpec,
    QuadratureResult,
    Spectrum,
    gauss_kronrod_panel,
    integrate_adaptive,
    integrate_decaying,
    integrate_frullani_oscillatory,
    integrate_frullani_split,
    integrate_oscillatory_tail,
)
from reference import ci, reference_panel, reference_tail, si


class TestPanel:
    def test_exact_for_high_degree_polynomial(self):
        # 15-point Kronrod integrates degree <= 22 exactly
        value, err, _ = gauss_kronrod_panel(lambda x: x**10, 0.0, 2.0)
        assert value == pytest.approx(2.0**11 / 11, rel=1e-15)

    def test_error_estimate_bounds_true_error_for_smooth(self):
        value, err, _ = gauss_kronrod_panel(math.exp, 0.0, 1.0)
        true = math.e - 1.0
        assert abs(value - true) <= max(err, 1e-15)

    def test_open_rule_never_touches_endpoints(self):
        seen = []

        def f(x):
            seen.append(x)
            return 1.0

        gauss_kronrod_panel(f, 0.0, 1.0)
        assert 0.0 not in seen and 1.0 not in seen
        assert len(seen) == 15

    def test_nan_value_raises_with_abscissa(self):
        def f(x):
            return math.nan if x > 0.5 else 1.0

        with pytest.raises(IntegrandError) as info:
            gauss_kronrod_panel(f, 0.0, 1.0)
        assert info.value.abscissa > 0.5


class TestAdaptive:
    def test_entire_function(self):
        res = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_removable_singularity_at_both_endpoints(self):
        # (x - 1)/ln x -> 1 at x -> 1 and -> 0 at x -> 0+; integral is ln 2
        res = integrate_adaptive(lambda x: (x - 1.0) / math.log(x), 0.0, 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_integrable_log_singularity(self):
        res = integrate_adaptive(math.log, 0.0, 1.0, 1e-9)
        assert res.converged
        assert res.value == pytest.approx(-1.0, abs=1e-8)

    def test_interval_additivity(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        whole = integrate_adaptive(f, 0.0, 2.0, 1e-11)
        left = integrate_adaptive(f, 0.0, 0.7, 1e-11)
        right = integrate_adaptive(f, 0.7, 2.0, 1e-11)
        assert whole.value == pytest.approx(left.value + right.value, abs=1e-10)

    def test_needs_ordered_finite_bounds(self):
        with pytest.raises(ValueError):
            integrate_adaptive(math.sin, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            integrate_adaptive(math.sin, 0.0, math.inf, 1e-8)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            integrate_adaptive(math.sin, 0.0, 1.0, 0.0)

    def test_result_bookkeeping(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, 1e-10)
        assert isinstance(res, QuadratureResult)
        assert res.function_evaluations >= 15
        assert res.function_evaluations % 15 == 0
        assert res.error_estimate >= 0.0

    def test_integrand_exception_wrapped(self):
        def f(x):
            raise ArithmeticError("boom")

        with pytest.raises(IntegrandError):
            integrate_adaptive(f, 0.0, 1.0, 1e-8)

    def test_converged_result_has_no_diagnostic(self):
        res = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
        assert res.converged and res.diagnostic == ""

    def test_panel_cap_is_named(self):
        res = integrate_adaptive(lambda x: x**-0.9, 0.0, 1.0, 1e-12, max_panels=50)
        assert not res.converged
        assert res.diagnostic == "panel cap of 50 panels reached"

    def test_floating_point_resolution_is_named(self):
        # eight ulps wide: bisection reaches single-ulp panels long before
        # the cap, and their rounded nodes keep the error estimate above 0
        lo = 1.0
        hi = lo + 8 * math.ulp(lo)
        res = integrate_adaptive(lambda x: (x - 1.0) * 1e20, lo, hi, 1e-300)
        assert not res.converged
        assert res.diagnostic == "the error left sits in panels at floating-point resolution"

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-50.0, 50.0, allow_nan=False),
        b=st.floats(-50.0, 50.0, allow_nan=False),
        c=st.floats(-50.0, 50.0, allow_nan=False),
    )
    def test_quadratics_integrate_exactly(self, a, b, c):
        res = integrate_adaptive(lambda x: (a * x + b) * x + c, 0.0, 1.0, 1e-8)
        want = a / 3.0 + b / 2.0 + c
        assert res.value == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


class TestDecaying:
    def test_plain_exponential(self):
        res = integrate_decaying(lambda x: math.exp(-x), 1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_gamma_two(self):
        res = integrate_decaying(lambda x: x * math.exp(-x), 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_frullani_exponential_pair(self):
        f = lambda x: (math.exp(-x) - math.exp(-2.0 * x)) / x
        res = integrate_decaying(f, 1e-10)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_rational_decay(self):
        res = integrate_decaying(lambda x: (1.0 + x) ** -2, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_gaussian(self):
        res = integrate_decaying(lambda x: math.exp(-x * x), 1e-10)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-9)

    def test_survives_fast_underflow(self):
        # exp(-x^2) underflows to exactly 0 far out on the mapped axis;
        # the map's jacobian must not turn that into 0 * inf
        res = integrate_decaying(lambda x: math.exp(-(x * x)) * x, 1e-9)
        assert res.value == pytest.approx(0.5, abs=1e-8)


    def test_node_rounding_to_one_names_the_map(self):
        # a slowly decaying integrand drives nodes so close to t = 1 that
        # 1 - t rounds to 0; the abscissa reported is x = inf, not t
        def f(x):
            return (math.exp(-(x**0.05)) - math.exp(-2.0 * x**0.05)) / x

        with pytest.raises(IntegrandError, match=r"t/\(1-t\) reached t = 1") as info:
            integrate_decaying(f, 0.25e-6)
        assert info.value.abscissa == math.inf
        assert str(info.value).endswith("at x = inf")


class TestOscillatorySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorySpec(0.0, math.pi)
        with pytest.raises(ValueError):
            OscillatorySpec(1.0, 0.0)
        with pytest.raises(ValueError):
            OscillatorySpec(1.0, math.pi, max_segments=4)
        with pytest.raises(ValueError):
            OscillatorySpec(math.inf, 1.0)

    def test_segment_floor_allows_two_tail_estimates(self):
        # the first tail estimate comes at segment 11 and convergence needs
        # two in a row, so 11 segments could never converge
        with pytest.raises(ValueError, match="at least 12"):
            OscillatorySpec(1.0, math.pi, max_segments=11)
        spec = OscillatorySpec(math.pi, math.pi, max_segments=12)
        res = integrate_oscillatory_tail(lambda x: math.cos(x) / x, spec, 1e-4)
        assert res.converged
        assert res.function_evaluations == 12 * 15
        assert res.value == pytest.approx(-ci(math.pi), abs=1e-4)


class TestOscillatoryTail:
    def test_cosine_tail_matches_cosine_integral(self):
        # int_pi^inf cos(x)/x dx = -Ci(pi)
        spec = OscillatorySpec(math.pi, math.pi)
        res = integrate_oscillatory_tail(lambda x: math.cos(x) / x, spec, 1e-6)
        assert res.converged
        assert res.value == pytest.approx(-ci(math.pi), abs=1e-6)

    def test_sine_tail_matches_sine_integral(self):
        # int_1^inf sin(x)/x dx = pi/2 - Si(1)
        spec = OscillatorySpec(1.0, math.pi)
        res = integrate_oscillatory_tail(lambda x: math.sin(x) / x, spec, 1e-6)
        assert res.converged
        assert res.value == pytest.approx(math.pi / 2.0 - si(1.0), abs=1e-6)

    def test_square_decay_without_alternation_converges(self):
        spec = OscillatorySpec(1.0, math.pi)
        res = integrate_oscillatory_tail(lambda x: x**-2, spec, 1e-8)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_harmonic_tail_reports_failure_honestly(self):
        # int_1^inf dx/x diverges; the tail must refuse, not fabricate
        spec = OscillatorySpec(1.0, math.pi, max_segments=32)
        res = integrate_oscillatory_tail(lambda x: 1.0 / x, spec, 1e-6)
        assert not res.converged
        assert "tolerance" in res.diagnostic

    def test_zero_integrand(self):
        spec = OscillatorySpec(1.0, math.pi)
        res = integrate_oscillatory_tail(lambda x: 0.0, spec, 1e-10)
        assert res.converged
        assert res.value == 0.0


class TestWholeLineOscillatory:
    def test_cosine_pair_gives_log_ratio(self):
        f = lambda x: (math.cos(x) - math.cos(2.0 * x)) / x
        spec = OscillatorySpec(math.pi, math.pi)
        res = integrate_frullani_oscillatory(f, spec, 1e-5)
        assert res.converged
        assert res.value == pytest.approx(math.log(2.0), abs=1e-5)

    def test_wide_frequency_split(self):
        f = lambda x: (math.cos(x) - math.cos(10.0 * x)) / x
        spec = OscillatorySpec(math.pi, math.pi)
        res = integrate_frullani_oscillatory(f, spec, 1e-5)
        assert res.converged
        assert res.value == pytest.approx(math.log(10.0), abs=1e-5)

    def test_sine_product(self):
        # sin(11x) sin(9x)/x over the half line: spectrum {2, 20}
        f = lambda x: math.sin(11.0 * x) * math.sin(9.0 * x) / x
        spec = OscillatorySpec(math.pi / 2.0, math.pi / 2.0)
        res = integrate_frullani_oscillatory(f, spec, 1e-5)
        assert res.converged
        assert res.value == pytest.approx(0.5 * math.log(10.0), abs=1e-5)

    def test_evaluation_counts_accumulate(self):
        f = lambda x: (math.cos(x) - math.cos(2.0 * x)) / x
        spec = OscillatorySpec(math.pi, math.pi)
        res = integrate_frullani_oscillatory(f, spec, 1e-5)
        head = integrate_adaptive(f, 0.0, math.pi, 0.4e-5)
        assert res.function_evaluations > head.function_evaluations


class TestSplitTail:
    ALPHA, BETA = 1.0, 1.414213562

    def g(self, x):
        return (math.cos(self.ALPHA * x) - math.cos(self.BETA * x)) / x

    def test_incommensurate_cosine_pair(self):
        res = integrate_frullani_split(self.g, Spectrum(math.cos, (self.ALPHA, self.BETA)), 1e-5)
        assert res.converged, res.diagnostic
        assert res.value == pytest.approx(math.log(self.BETA / self.ALPHA), abs=1e-5)

    def test_periodic_mean_is_removed_and_counted(self):
        def shifted(u):
            return 1.0 + math.cos(u)

        plain = integrate_frullani_split(self.g, Spectrum(math.cos, (self.ALPHA, self.BETA)), 1e-5)
        res = integrate_frullani_split(
            self.g, Spectrum(shifted, (self.ALPHA, self.BETA), 2.0 * math.pi), 1e-5
        )
        assert res.converged, res.diagnostic
        assert res.value == pytest.approx(math.log(self.BETA / self.ALPHA), abs=1e-5)
        assert res.function_evaluations > plain.function_evaluations

    def test_diagnostic_names_each_piece_that_stopped(self):
        # with its mean of 1 left in, neither tail of 1 + cos u converges
        def shifted(u):
            return 1.0 + math.cos(u)

        res = integrate_frullani_split(self.g, Spectrum(shifted, (self.ALPHA, self.BETA)), 1e-5)
        assert not res.converged
        assert res.diagnostic.startswith("tail at scale 1.0: ")
        assert "; tail at scale 1.414213562: " in res.diagnostic
        assert "head" not in res.diagnostic


# --- the unrolled panel and incremental tail against their loop forms -------


def _outcome(fn, *args):
    """Result as exact bits, or the IntegrandError as its observable parts."""
    try:
        out = fn(*args)
    except IntegrandError as exc:
        return ("raised", repr(exc.abscissa), repr(exc.value), str(exc))
    if isinstance(out, QuadratureResult):
        return (
            out.value.hex(), out.error_estimate.hex(), out.function_evaluations,
            out.converged, out.diagnostic,
        )
    return tuple(float(v).hex() for v in out)


_intervals = st.tuples(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-12.0, 3.0),
    st.booleans(),
).map(lambda t: (t[0], t[0] + (-1.0 if t[2] else 1.0) * 10.0 ** t[1]))


def _polynomial(coeffs):
    def f(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc
    return f


_integrands = st.one_of(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=8).map(_polynomial),
    st.floats(-5.0, 5.0).map(lambda k: lambda x: math.exp(k * x)),
    st.tuples(st.floats(0.1, 50.0), st.floats(-3.0, 3.0)).map(
        lambda wp: lambda x: math.cos(wp[0] * x + wp[1]) / (1.0 + x * x)
    ),
)


class TestMatchesReference:
    """gauss_kronrod_panel and integrate_oscillatory_tail return the same bits,
    and raise the same errors, as the loop forms in reference.py."""

    @settings(max_examples=400, deadline=None)
    @given(_intervals, _integrands)
    def test_panel_bits(self, interval, f):
        lo, hi = interval
        assert _outcome(gauss_kronrod_panel, f, lo, hi) == _outcome(reference_panel, f, lo, hi)

    @settings(max_examples=400, deadline=None)
    @given(
        _intervals,
        st.lists(
            st.tuples(
                st.integers(0, 14),
                st.sampled_from(["nan", "inf", "-inf", "zero-division", "value", "integrand"]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_panel_failures(self, interval, faults):
        lo, hi = interval
        nodes = []
        gauss_kronrod_panel(lambda x: nodes.append(x) or 1.0, lo, hi)
        plan = {}
        for k, mode in faults:
            plan.setdefault(nodes[k], mode)

        def f(x):
            mode = plan.get(x)
            if mode is None:
                return math.sin(x)
            if mode in ("nan", "inf", "-inf"):
                return float(mode)
            if mode == "zero-division":
                return 1.0 / (x - x)
            if mode == "value":
                return math.sqrt(-1.0 - abs(x))
            raise IntegrandError(2.0 * x, 7.0, "gave up")

        new = _outcome(gauss_kronrod_panel, f, lo, hi)
        assert new[0] == "raised"
        assert new == _outcome(reference_panel, f, lo, hi)

    def test_panel_sum_overflow_from_finite_values_raises_nothing(self):
        f = lambda x: 1e308
        assert _outcome(gauss_kronrod_panel, f, 0.0, 1.0) == _outcome(reference_panel, f, 0.0, 1.0)

    def test_panel_signed_zero(self):
        f = lambda x: -0.0
        new = gauss_kronrod_panel(f, -1.0, 1.0)
        assert _outcome(gauss_kronrod_panel, f, -1.0, 1.0) == _outcome(reference_panel, f, -1.0, 1.0)
        assert math.copysign(1.0, new[0]) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["cos", "square", "harmonic"]),
        st.floats(0.5, 5.0),
        st.floats(0.5, 8.0),
        st.integers(12, 64),
        st.floats(-9.0, -3.0),
    )
    def test_tail_fields(self, kind, start, k, max_segments, log_tol):
        if kind == "cos":
            f = lambda x: math.cos(k * x) / x
            spec = OscillatorySpec(start, math.pi / k, max_segments)
        elif kind == "square":
            f = lambda x: x**-2
            spec = OscillatorySpec(start, k, max_segments)
        else:
            f = lambda x: 1.0 / x
            spec = OscillatorySpec(start, k, max_segments)
        tol = 10.0**log_tol
        assert _outcome(integrate_oscillatory_tail, f, spec, tol) == _outcome(
            reference_tail, f, spec, tol
        )
