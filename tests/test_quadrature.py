"""Quadrature stack: panels, adaptive refinement, mapped half-line,
oscillatory segmentation with series acceleration."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from frullani.catalog import default_grid, entry_ids, get_entry
from frullani.expr import (
    FUNCTIONS, BinOp, Call, Const, ExprError, Neg, Var, compile_family, parse,
)
from frullani.quadrature import (
    MAX_PANELS,
    IntegrandError,
    OscillatorySpec,
    QuadratureResult,
    gauss_kronrod_panel,
    integrate_adaptive,
    integrate_decaying,
    integrate_frullani,
    integrate_frullani_oscillatory,
    integrate_oscillatory_tail,
    _MAX_SEGMENTS,
    _accelerate_tail,
    _extend_plan,
    _tail_plan,
)
from reference import (
    ci,
    printed_integrand,
    reference_extrapolate,
    reference_graded,
    reference_mapped,
    reference_panel,
    reference_picks,
    reference_tail,
    reference_ts,
    si,
)


class TestPanel:
    def test_exact_for_high_degree_polynomial(self):
        # 15-point Kronrod integrates degree <= 22 exactly
        value, err = gauss_kronrod_panel(lambda x: x**10, 0.0, 2.0)
        assert value == pytest.approx(2.0**11 / 11, rel=1e-15)

    def test_error_estimate_bounds_true_error_for_smooth(self):
        value, err = gauss_kronrod_panel(math.exp, 0.0, 1.0)
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

    @pytest.mark.parametrize("g, lo, hi, tol, cap", [
        (math.exp, 0.0, 1.0, 1e-12, 2000),
        (lambda x: x**-0.9, 0.0, 1.0, 1e-12, 50),
        # the floating-point-resolution path, as in the test below
        (lambda x: 1e20 if x > 1.0 + 4 * math.ulp(1.0) else 0.0,
         1.0, 1.0 + 8 * math.ulp(1.0), 1e-300, 2000),
    ])
    def test_evaluations_count_the_panels(self, g, lo, hi, tol, cap):
        # n panels left after bisection took 2n - 1 panel runs of 15 nodes
        nodes = []
        res = integrate_adaptive(lambda x: nodes.append(x) or g(x), lo, hi, tol, cap)
        assert res.function_evaluations == len(nodes)
        assert len(nodes) % 30 == 15

    def test_result_rejects_assignment(self):
        res = integrate_adaptive(math.exp, 0.0, 1.0, 1e-10)
        with pytest.raises(AttributeError):
            res.value = 0.0
        changed = res._replace(diagnostic="x")
        assert changed[:4] == res[:4] and res.diagnostic == ""

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

    def test_first_panel_within_tol_returns_the_resummed_panel(self):
        # what the spatial resum of one panel gives, 0 + value: +0.0 for an
        # all -0.0 integrand, generic or compiled
        atan_at_equal_scales = compile_family(parse("atan(x)"))({})[1](1.5, 1.5)
        for f in (lambda x: -0.0, atan_at_equal_scales):
            res = integrate_adaptive(f, -2.0, -1.0, 1e-9)
            assert math.copysign(1.0, res.value) == 1.0
            assert res == QuadratureResult(0.0, 0.0, 15, True)

    def test_first_panel_with_nan_error_is_not_converged(self):
        # values of +-1e308 overflow the QUADPACK variation to inf, and the
        # sharpening turns inf * 0 into a nan error, which meets no
        # tolerance and stops bisection before it starts
        def f(x):
            return 1e300 if x == 0.5 else math.copysign(1e308, x - 0.5)

        res = integrate_adaptive(f, 0.0, 1.0, 1e-6)
        assert res.value == gauss_kronrod_panel(f, 0.0, 1.0)[0]
        assert math.isnan(res.error_estimate)
        assert (res.function_evaluations, res.converged, res.diagnostic) == (
            15, False, f"panel sums not finite: value {res.value!r}, error nan"
        )

    def test_overflowing_panel_sums_are_named(self):
        # every value is finite, but the weighted sums of the two halves
        # overflow to +-inf, and inf - inf leaves a nan value
        res = integrate_adaptive(lambda x: math.copysign(1e308, x - 0.5), 0.0, 1.0, 1e-6)
        assert math.isnan(res.value)
        assert (res.function_evaluations, res.converged, res.diagnostic) == (
            45, False, "panel sums not finite: value nan, error inf"
        )

    def test_infinite_value_is_not_converged(self):
        # a constant has no Gauss-Kronrod error, but 8e307 over a width of
        # 1000 is inf, which no tolerance makes a converged value
        res = integrate_adaptive(lambda x: 8e307, 0.0, 1000.0, 1e-6)
        assert (res.value, res.error_estimate, res.converged) == (math.inf, 0.0, False)
        assert res.diagnostic == "panel sums not finite: value inf, error 0.0"

    def test_floating_point_resolution_is_named(self):
        # eight ulps wide with a step at the fourth: bisection reaches
        # single-ulp panels long before the cap, and the step keeps their
        # error estimate above the rounding floor of the panel sum
        lo = 1.0
        hi = lo + 8 * math.ulp(lo)
        res = integrate_adaptive(lambda x: 1e20 if x > lo + 4 * math.ulp(lo) else 0.0, lo, hi, 1e-300)
        assert not res.converged
        assert res.diagnostic == "the error left sits in panels at floating-point resolution"
        assert res.function_evaluations == 135

    def test_bisection_stops_at_the_rounding_floor(self):
        # eight ulps wide and linear: the first panel's error estimate,
        # left by its rounded nodes, is already within one rounding unit of
        # the panel sum, which no bisection can go below
        lo = 1.0
        hi = lo + 8 * math.ulp(lo)
        res = integrate_adaptive(lambda x: (x - 1.0) * 1e20, lo, hi, 1e-300)
        assert (res.function_evaluations, res.converged) == (15, False)
        assert res.diagnostic == (
            "tolerance 1.000e-300 is below the rounding floor 1.752e-26 of the panel sum"
        )

    def test_tolerance_below_the_rounding_floor_is_not_converged(self):
        # a constant has no Gauss-Kronrod error, but its sum of 1000 rounds
        # at 2^-53 * 1000 = 1.1e-13: the floor changes the verdict, not the value
        above = integrate_adaptive(lambda x: 1000.0, 0.0, 1.0, 2e-13)
        below = integrate_adaptive(lambda x: 1000.0, 0.0, 1.0, 1e-13)
        assert above == QuadratureResult(1000.0, 0.0, 15, True)
        assert below == above._replace(
            converged=False,
            diagnostic="tolerance 1.000e-13 is below the rounding floor 1.110e-13 of the panel sum",
        )

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

    def test_converged_run_is_independent_of_the_budget(self):
        # bisection is deterministic: the full-budget run of a map that
        # converges within 200 panels is its 200-panel run, bit for bit
        f = lambda x: (math.exp(-x) - math.exp(-2.0 * x)) / x
        res = integrate_decaying(f, 1e-10)
        assert res.converged and res.function_evaluations < 15 * (2 * 200 - 1)
        assert res == integrate_adaptive(reference_mapped(f), 0.0, 1.0, 1e-10, 200)

    def test_budget_names_its_cap(self):
        # bounded and oscillating on the mapped axis: the full budget of
        # MAX_PANELS panels does not converge
        k = lambda x: math.cos(x) / (1.0 + x)
        f = lambda x: (k(1.3 * x) - k(2.7 * x)) / x
        res = integrate_decaying(f, 1e-12)
        assert not res.converged
        assert res.function_evaluations == 15 + 30 * (MAX_PANELS - 1)
        assert res.diagnostic == f"panel cap of {MAX_PANELS} panels reached"

    def test_survives_fast_underflow(self):
        # exp(-x^2) underflows to exactly 0 far out on the mapped axis;
        # the map's jacobian must not turn that into 0 * inf
        res = integrate_decaying(lambda x: math.exp(-(x * x)) * x, 1e-9)
        assert res.value == pytest.approx(0.5, abs=1e-8)


    def test_algebraic_endpoint_of_a_power_kernel(self):
        # GR-3.476.1's printed [f(v x^p) - f(u x^p)]/x behaves like x^(p-1)
        # at 0: the map x = t^2/(1-t) makes that t^(2p-1), where x = t/(1-t)
        # left t^(p-1) and took 4,485 evaluations
        entry, params = get_entry("GR-3.476.1"), {"v": 1.0, "u": 2.0, "p": 0.25}
        g, expected = printed_integrand(entry, params), entry.closed_form(params)
        res = integrate_decaying(g, 0.25e-9)
        assert res.converged
        assert abs(res.value - expected) <= 1e-9
        assert res.function_evaluations == 2415

    def test_node_rounding_to_one_names_the_map(self):
        # a slowly decaying integrand drives nodes so close to t = 1 that
        # 1 - t rounds to 0; the abscissa reported is x = inf, not t
        def f(x):
            return (math.exp(-(x**0.05)) - math.exp(-2.0 * x**0.05)) / x

        with pytest.raises(IntegrandError, match=r"t\^2/\(1-t\) reached t = 1") as info:
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
            OscillatorySpec(math.inf, 1.0)


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
        spec = OscillatorySpec(1.0, math.pi)
        res = integrate_oscillatory_tail(lambda x: 1.0 / x, spec, 1e-6)
        assert not res.converged
        assert "tolerance" in res.diagnostic

    def test_zero_integrand(self):
        spec = OscillatorySpec(1.0, math.pi)
        res = integrate_oscillatory_tail(lambda x: 0.0, spec, 1e-10)
        assert res.converged
        assert res.value == 0.0


def cos_tail(s):
    """The split-route tail of the kernel cos, whose mean is 0: cos(e^s)."""
    return math.cos(math.exp(s))


class TestWholeLineOscillatory:
    def test_cosine_pair_gives_log_ratio(self):
        f = lambda x: (math.cos(x) - math.cos(2.0 * x)) / x
        res = integrate_frullani_oscillatory(f, (1.0, 2.0), cos_tail, 1e-5)
        assert res.converged
        assert res.value == pytest.approx(math.log(2.0), abs=1e-5)

    def test_wide_frequency_split(self):
        f = lambda x: (math.cos(x) - math.cos(10.0 * x)) / x
        res = integrate_frullani_oscillatory(f, (1.0, 10.0), cos_tail, 1e-5)
        assert res.converged
        assert res.value == pytest.approx(math.log(10.0), abs=1e-5)

    def test_sine_product(self):
        # sin(11x) sin(9x)/x = [cos 2x - cos 20x]/(2x): scales (2, 20), so
        # the tail starts at pi/2 on the grid pi/2
        f = lambda x: math.sin(11.0 * x) * math.sin(9.0 * x) / x
        half_cos_tail = lambda s: 0.5 * math.cos(math.exp(s))
        res = integrate_frullani_oscillatory(f, (2.0, 20.0), half_cos_tail, 1e-5)
        assert res.converged
        assert res.value == pytest.approx(0.5 * math.log(10.0), abs=1e-5)
        head = integrate_adaptive(f, 0.0, math.pi / 2.0, 0.4e-5)
        tail = integrate_oscillatory_tail(f, OscillatorySpec(math.pi / 2.0, math.pi / 2.0), 0.6e-5)
        assert res.value == head.value + tail.value

    def test_evaluation_counts_accumulate(self):
        f = lambda x: (math.cos(x) - math.cos(2.0 * x)) / x
        res = integrate_frullani_oscillatory(f, (1.0, 2.0), cos_tail, 1e-5)
        head = integrate_adaptive(f, 0.0, math.pi, 0.4e-5)
        assert res.function_evaluations > head.function_evaluations

    def test_common_grid_ignores_the_tail(self):
        # the common grid integrates g alone, so it never calls the tail
        f = lambda x: (math.cos(x) - math.cos(2.0 * x)) / x

        def raising(s):
            raise AssertionError("the common grid called the tail")

        plain = integrate_frullani_oscillatory(f, (1.0, 2.0), cos_tail, 1e-5)
        assert integrate_frullani_oscillatory(f, (1.0, 2.0), raising, 1e-5) == plain

    def test_diagnostic_names_the_common_tail(self):
        # the head converges, the harmonic tail cannot
        f = lambda x: 1.0 / (1.0 + x)
        res = integrate_frullani_oscillatory(f, (1.0, 2.0), cos_tail, 1e-5)
        assert not res.converged
        assert res.diagnostic.startswith("tail on the common grid: ")
        assert "head" not in res.diagnostic


class TestFrullani:
    """integrate_frullani: the head on (0, pi/max(alpha, beta)] and the tail
    f(e^s) - M over (ln alpha c, ln beta c)."""

    @staticmethod
    def atan_pair(alpha, beta):
        return lambda x: (math.atan(alpha * x) - math.atan(beta * x)) / x

    @staticmethod
    def atan_tail(m):
        return lambda s: math.atan(math.exp(s)) - m

    @pytest.mark.parametrize("scales", [(1.0, 2.0), (2.0, 1.0), (0.3, 700.0), (1e-300, 1e300)])
    def test_limit_at_infinity(self, scales):
        # f(0) - f(inf) = -pi/2
        alpha, beta = scales
        res = integrate_frullani(self.atan_pair(*scales), scales, self.atan_tail(0.5 * math.pi), 1e-10)
        assert res.converged, res.diagnostic
        expected = -0.5 * math.pi * (math.log(beta) - math.log(alpha))
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_a_wrong_limit_costs_its_difference(self):
        # a tail that takes out 1.5 in place of the true limit pi/2 is off
        # by (pi/2 - 1.5) ln(beta/alpha)
        right = integrate_frullani(self.atan_pair(1.0, 3.0), (1.0, 3.0), self.atan_tail(0.5 * math.pi), 1e-10)
        wrong = integrate_frullani(self.atan_pair(1.0, 3.0), (1.0, 3.0), self.atan_tail(1.5), 1e-10)
        assert right.converged and wrong.converged
        assert wrong.value - right.value == pytest.approx((0.5 * math.pi - 1.5) * math.log(3.0), abs=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_equal_scales_give_zero_before_any_quadrature(self, scale):
        def raising(x):
            raise AssertionError("equal scales called the integrand")

        res = integrate_frullani(raising, (scale, scale), raising, 1e-10)
        assert res == QuadratureResult(0.0, 0.0, 0, True)

    @pytest.mark.parametrize("scales", [(1.0, 1.414213562), (1.0, 201.0), (1e-300, 1e300)])
    def test_is_the_oscillatory_split_route(self, scales):
        # with no common grid the oscillatory oracle runs integrate_frullani
        alpha, beta = scales
        g = lambda x: (math.cos(alpha * x) - math.cos(beta * x)) / x
        split = integrate_frullani(g, scales, cos_tail, 1e-5)
        assert integrate_frullani_oscillatory(g, scales, cos_tail, 1e-5) == split

    @staticmethod
    def pieces(g, scales, tail, tol, graded):
        """The head and the kernel piece of integrate_frullani, run apart:
        the head plain on (0, c], or graded, x = u^4, on (0, c^(1/4)]."""
        alpha, beta = scales
        fast = max(scales)
        end = math.pi / fast
        if graded:
            head = integrate_adaptive(reference_graded(g), 0.0, math.sqrt(math.sqrt(end)), 0.4 * tol)
        else:
            head = integrate_adaptive(g, 0.0, end, 0.4 * tol)
        lo, hi = sorted(math.log(math.pi) + math.log(s) - math.log(fast) for s in scales)
        body = integrate_adaptive(tail, lo, hi, 0.6 * tol)
        return head, body, head.value + (body.value if alpha < beta else -body.value)

    @pytest.mark.parametrize("scales", [(2.0, 1.0), (10.0, 1.0)])
    def test_an_analytic_head_stays_plain(self, scales):
        # GR-4.536.2's atan at tol 1e-10: the head bisects, the half at 0
        # loses most of the error, and the head carries on from the panels
        # of the test, with the bits and evaluations of a plain run
        g, tail = self.atan_pair(*scales), self.atan_tail(0.5 * math.pi)
        res = integrate_frullani(g, scales, tail, 1e-10)
        head, body, value = self.pieces(g, scales, tail, 1e-10, graded=False)
        assert head.function_evaluations > 15
        assert res.converged
        assert res.value.hex() == value.hex()
        assert res.function_evaluations == head.function_evaluations + body.function_evaluations

    @staticmethod
    def gr_3_484(a, p, q):
        """GR-3.484's integrand [f(q x) - f(p x)]/x, f = (1 + a/x)^x, whose
        f - 1 ~ x ln(a/x) at 0 gives g a ln x singularity, its tail, and
        its closed form (e^a - 1) ln(q/p)."""
        f = lambda x: math.exp(x * math.log1p(a / x))
        g = lambda x: (f(q * x) - f(p * x)) / x
        tail = lambda s: f(math.exp(s)) - math.exp(a)
        return g, (q, p), tail, math.expm1(a) * math.log(q / p)

    @staticmethod
    def sqrt_ratio(a, b):
        """f = sqrt(x)/(1+sqrt(x)), whose f - f(0) ~ x^(1/2) gives g ~
        x^(-1/2) at 0, with its tail and closed form -ln(b/a)."""
        f = lambda x: math.sqrt(x) / (1.0 + math.sqrt(x))
        g = lambda x: (f(a * x) - f(b * x)) / x
        tail = lambda s: f(math.exp(s)) - 1.0
        return g, (a, b), tail, -math.log(b / a)

    @pytest.mark.parametrize("case", [
        gr_3_484(1.0, 1.0, 2.0), gr_3_484(2.0, 1.0, 10.0), gr_3_484(0.2, 1.0, 1000.0),
        sqrt_ratio(1.0, 3.0), sqrt_ratio(0.76, 2.74),
    ])
    def test_a_head_singular_at_0_is_graded(self, case):
        # the half at 0 keeps a quarter of the error or more: the head
        # spends the 45 evaluations of the test and restarts graded
        g, scales, tail, closed = case
        tol = 1e-10
        res = integrate_frullani(g, scales, tail, tol)
        head, body, value = self.pieces(g, scales, tail, tol, graded=True)
        assert res.converged, res.diagnostic
        assert res.value.hex() == value.hex()
        assert res.function_evaluations == 45 + head.function_evaluations + body.function_evaluations
        assert abs(res.value - closed) <= tol

    def test_graded_head_meets_tol_on_a_square_root_singularity(self):
        # g ~ x^(-1/2) at 0, which x = u^4 maps to 4u: a few panels where
        # the plain head bisects towards 0 for thousands of evaluations
        g, scales, tail, closed = self.sqrt_ratio(1.0, 3.0)
        res = integrate_frullani(g, scales, tail, 1e-12)
        plain, body, value = self.pieces(g, scales, tail, 1e-12, graded=False)
        assert res.converged and plain.converged
        assert res.function_evaluations <= 150 < 1000 < plain.function_evaluations
        assert res.value == pytest.approx(value, abs=1e-12)
        assert res.value == pytest.approx(closed, abs=1e-12)

    def test_a_head_end_that_overflows_is_named(self):
        with pytest.raises(ValueError) as info:
            integrate_frullani(self.atan_pair(1e-320, 1e-310), (1e-320, 1e-310), self.atan_tail(0.0), 1e-5)
        assert str(info.value) == "the head end pi/1e-310 of the faster scale 1e-310 is not finite"


class TestSplitTail:
    ALPHA, BETA = 1.0, 1.414213562

    def g(self, x):
        return (math.cos(self.ALPHA * x) - math.cos(self.BETA * x)) / x

    def test_incommensurate_cosine_pair(self):
        res = integrate_frullani_oscillatory(self.g, (self.ALPHA, self.BETA), cos_tail, 1e-5)
        assert res.converged, res.diagnostic
        assert res.value == pytest.approx(math.log(self.BETA / self.ALPHA), abs=1e-5)

    def test_tail_with_its_mean_removed_by_the_caller(self):
        # the kernel 1 + cos u has mean 1, which the caller takes out of the
        # tail; the answer is that of cos u alone
        def shifted(s):
            return 1.0 + math.cos(math.exp(s)) - 1.0

        res = integrate_frullani_oscillatory(self.g, (self.ALPHA, self.BETA), shifted, 1e-5)
        assert res.converged, res.diagnostic
        assert res.value == pytest.approx(math.log(self.BETA / self.ALPHA), abs=1e-12)

    def test_diagnostic_names_each_piece_that_stopped(self):
        # neither the head of g nor the kernel's integral resolves sin(1e6 u)
        def fast(u):
            return math.sin(1e6 * u)

        def fast_tail(s):
            return math.sin(1e6 * math.exp(s))

        res = integrate_frullani_oscillatory(fast, (self.ALPHA, self.BETA), fast_tail, 1e-5)
        c = math.pi / self.BETA
        assert not res.converged
        assert res.diagnostic == (
            f"head on (0, {c!r}]: panel cap of 2000 panels reached; "
            f"kernel on ({self.ALPHA * c!r}, {self.BETA * c!r}): panel cap of 2000 panels reached"
        )

    def test_a_head_end_that_overflows_is_named(self):
        # no common grid, and pi over the faster scale 1e-310 overflows
        with pytest.raises(ValueError) as info:
            integrate_frullani_oscillatory(self.g, (1e-320, 1e-310), cos_tail, 1e-5)
        assert str(info.value) == "the head end pi/1e-310 of the faster scale 1e-310 is not finite"

    @pytest.mark.parametrize("scales", [(1.0, 1e300), (1e300, 1.0), (1e-300, 1e300)])
    def test_wide_ratio_takes_logs_not_products(self, scales):
        # alpha c and beta c may underflow, ln(alpha c) and ln(beta c) do not
        alpha, beta = scales

        def g(x):
            return (math.cos(alpha * x) - math.cos(beta * x)) / x

        res = integrate_frullani_oscillatory(g, scales, cos_tail, 1e-5)
        assert res.converged, res.diagnostic
        assert res.value == pytest.approx(math.log(beta) - math.log(alpha), abs=1e-11)


class TestGridThatCannotAdvance:
    @pytest.mark.parametrize("scales,stuck", [
        ((1e300, 2e300), "the grid of scale 1e+300"),
        ((1e17, 2e17), "the grid of scale 1e+17"),
        ((1e200, 1e200), "the grid of scale 1e+200"),
    ])
    def test_named_before_any_quadrature(self, scales, stuck):
        # on the common route neither the integrand nor the tail is called
        calls = []

        def g(x):
            calls.append(x)
            return 0.0

        def tail(s):
            calls.append(s)
            return cos_tail(s)

        with pytest.raises(ValueError, match="cannot advance x") as info:
            integrate_frullani_oscillatory(g, scales, tail, 1e-5)
        assert str(info.value).startswith(stuck)
        assert "tail start" in str(info.value)
        assert calls == []

    def test_only_the_grid_that_runs_is_checked(self):
        # the pair (1e15, 1e17) runs on the common grid pi/1e15, which
        # advances x from the tail start 1; the grid pi/1e17 of the faster
        # scale alone would not, but it never runs
        assert 1.0 + math.pi / 1e17 == 1.0 < 1.0 + math.pi / 1e15
        res = integrate_frullani_oscillatory(lambda x: 0.0, (1e15, 1e17), cos_tail, 1e-4)
        assert res.converged and res.value == 0.0


# --- the unrolled panel and incremental tail against their loop forms -------


def _outcome(fn, *args):
    """Result as exact bits, the IntegrandError as its observable parts, or
    the DomainError a compiled integrand's fallback raises as its message."""
    try:
        out = fn(*args)
    except IntegrandError as exc:
        return ("raised", repr(exc.abscissa), repr(exc.value), str(exc))
    except ExprError as exc:
        return ("raised", type(exc).__name__, str(exc))
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


# One kernel text per pipeline-kernels family and special kind, with the
# family's constants c, d and m; a compiled integrand carries its own panels.
_PIPELINE_KERNELS = (
    "{c}*exp(-x)+{d}", "atan({c}*x)", "ln({c}+{d}*exp(-x))", "(x+{c})^(-{m})",
    "((x+{c})/(x+{d}))^{m}", "(1+{c}/x)^x", "sqrt(x)/(1+sqrt(x))", "ln(1+x)/x",
    "sin(x)", "ln(1+x)", "cos(x)", "exp(x)", "x", "1/x", "1/(1+x^0.1)",
    "cos(x)/(1+x)", "abs(sin(x))/x",
)
_short = st.floats(0.2, 5.0).map(lambda v: round(v, 2))
_ops = st.sampled_from("+-*/^")
# trees in x of every node kind, whose nodes read once fold into their
# readers, with subtrees read twice and exp and expm1, whose operand the
# saturation test reads twice: nodes that keep a line of their own
_folding_trees = st.recursive(
    st.one_of(
        st.builds(Const, st.sampled_from([0.0, -0.0, math.inf, math.nan])),
        st.builds(Const, st.floats(-4.0, 4.0)),
        st.just(Var("x")),
    ),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(Call, st.sampled_from(("exp", "expm1")), kids),
        st.builds(BinOp, _ops, kids, kids),
        # one subtree read twice by one reader, and by two
        st.builds(lambda op, k: BinOp(op, k, k), _ops, kids),
        st.builds(lambda op, inner, k, j: BinOp(op, BinOp(inner, k, j), k), _ops, _ops, kids, kids),
    ),
    max_leaves=16,
)


def _chain(depth):
    """x under depth alternating sin and x + 0.5 nodes, each read once: a
    chain deeper than one expression may fold."""
    tree = Var("x")
    for i in range(depth):
        tree = Call("sin", tree) if i % 2 else BinOp("+", tree, Const(0.5))
    return tree


def _compiled_sources(roles):
    """Catalog bindings, pipeline kernels, and trees compiled in roles."""
    return st.one_of(
        st.tuples(st.just("catalog"), st.sampled_from(entry_ids()), st.integers(0, 3)),
        st.tuples(
            st.just("pipeline"),
            st.tuples(st.sampled_from(_PIPELINE_KERNELS), _short, _short, _short).map(
                lambda t: t[0].format(c=t[1], d=t[2], m=t[3])
            ),
            _short,
            _short,
        ),
        st.tuples(st.just("tree"), _folding_trees, st.sampled_from(roles), _short, _short),
    )


_compiled_integrands = _compiled_sources(["kernel", "integrand", "tail"])
# the only role with a graded panel: the kernel and the tail carry just
# panel(), the one integrate_adaptive runs on them
_frullani_integrands = _compiled_sources(["integrand"])


def _compiled_integrand(source):
    """The integrand a catalog binding or pipeline kernel integrates, or a
    tree's compiled kernel, Frullani integrand or log-tail of mean a."""
    if source[0] == "catalog":
        _, entry_id, k = source
        grid = default_grid(entry_id)
        return printed_integrand(get_entry(entry_id), grid[k % len(grid)])
    if source[0] == "tree":
        _, tree, role, a, b = source
        kernel, frullani, tail = compile_family(tree)({})
        return {"kernel": kernel, "integrand": frullani(a, b), "tail": tail(a)}[role]
    _, text, a, b = source
    return compile_family(parse(text))({})[1](a, b)


def _run_compiled(own, f):
    """What integrate_adaptive runs for f: the compiled panel own() gives,
    where f has one, or the generic panel where that returns None."""
    panel = own and own()
    return lambda lo, hi: (panel and panel(lo, hi)) or gauss_kronrod_panel(f, lo, hi)


class TestMatchesReference:
    """gauss_kronrod_panel, the compiled panels and integrate_oscillatory_tail
    return the same bits, and raise the same errors, as the plain forms in
    reference.py."""

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
        value, _ = gauss_kronrod_panel(f, -1.0, 1.0)
        assert _outcome(gauss_kronrod_panel, f, -1.0, 1.0) == _outcome(reference_panel, f, -1.0, 1.0)
        assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("f", [
        lambda x: -0.0,
        lambda x: -0.0 if x > 0.5 else math.exp(-x),
        lambda x: -0.0 if x < 2.0 else -1e-300 * math.exp(-x),
    ])
    def test_mapped_signed_zero(self, f):
        # the map keeps a -0.0 value's sign, which reference_mapped drops
        assert _outcome(integrate_decaying, f, 1e-8) == _outcome(
            integrate_adaptive, reference_mapped(f), 0.0, 1.0, 1e-8
        )

    @settings(max_examples=450, deadline=None)
    @given(_compiled_integrands, _intervals)
    # an exp argument in (709.78, 710] raises in the compiled code, and
    # evaluate saturates it to inf, so the kernel's value stays finite
    @example(("catalog", "GR-3.412.1", 0), (709.8, 710.0))
    # exp(a x) - exp(b x) is inf - inf: not finite
    @example(("pipeline", "exp(x)", 1.0, 2.0), (800.0, 900.0))
    # equal scales on negative x: every value is -0.0
    @example(("pipeline", "atan(1.0*x)", 1.5, 1.5), (-2.0, -1.0))
    # values near 4e307, finite, whose sum overflows
    @example(("pipeline", "1/x", 1.0, 2.0), (1.1e-154, 1.2e-154))
    # single-use nodes past the deepest fold, for every role
    @example(("tree", _chain(40), "kernel", 1.0, 2.0), (0.5, 1.5))
    @example(("tree", _chain(40), "integrand", 1.5, 0.7), (0.5, 1.5))
    @example(("tree", _chain(40), "tail", 1.5, 0.7), (0.5, 1.5))
    # exp(s) in (709.78, 710] raises in the tail's compiled code
    @example(("tree", Call("atan", Var("x")), "tail", 1.5, 0.7), (709.7, 709.9))
    def test_compiled_panel_bits(self, source, interval):
        f = _compiled_integrand(source)
        lo, hi = interval
        assert _outcome(_run_compiled(getattr(f, "panel", None), f), lo, hi) == _outcome(
            reference_panel, f, lo, hi
        )

    @settings(max_examples=200, deadline=None)
    @given(_frullani_integrands, _intervals)
    # the graded head of a kernel like sqrt(x) at 0
    @example(("pipeline", "sqrt(x)/(1+sqrt(x))", 0.76, 2.74), (0.0, 1e-3))
    # u^4 underflows to 0, where the integrand divides by x
    @example(("pipeline", "atan(x)", 1.0, 2.0), (0.0, 1e-85))
    def test_compiled_graded_panel_bits(self, source, interval):
        f = _compiled_integrand(source)
        graded = reference_graded(f)
        lo, hi = interval
        assert _outcome(_run_compiled(getattr(f, "graded_panel", None), graded), lo, hi) == _outcome(
            reference_panel, graded, lo, hi
        )

    @pytest.mark.parametrize(
        "source, interval, graded",
        [
            (("catalog", "GR-3.412.1", 0), (709.8, 710.0), False),
            (("pipeline", "exp(x)", 1.0, 2.0), (800.0, 900.0), False),
            (("pipeline", "atan(x)", 1.0, 2.0), (0.0, 1e-85), True),
            (("pipeline", "1/x", 1.0, 2.0), (1.1e-154, 1.2e-154), False),
            (("tree", Call("atan", Var("x")), "tail", 1.5, 0.7), (709.7, 709.9), False),
        ],
    )
    def test_compiled_panel_hands_failures_to_the_generic_panel(self, source, interval, graded):
        # the examples above that fail take the generic route
        f = _compiled_integrand(source)
        assert (f.graded_panel if graded else f.panel)()(*interval) is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["cos", "square", "harmonic"]),
        # a few grids repeat, so later tails read a plan earlier ones grew
        st.one_of(st.sampled_from([1.0, 2.5]), st.floats(0.5, 5.0)),
        st.one_of(st.sampled_from([1.0, 3.0]), st.floats(0.5, 8.0)),
        st.floats(-9.0, -3.0),
    )
    def test_tail_fields(self, kind, start, k, log_tol):
        if kind == "cos":
            f = lambda x: math.cos(k * x) / x
            spec = OscillatorySpec(start, math.pi / k)
        elif kind == "square":
            f = lambda x: x**-2
            spec = OscillatorySpec(start, k)
        else:
            f = lambda x: 1.0 / x
            spec = OscillatorySpec(start, k)
        tol = 10.0**log_tol
        assert _outcome(integrate_oscillatory_tail, f, spec, tol) == _outcome(
            reference_tail, f, spec, tol
        )


class TestTailPlan:
    """The plan of a tail grid, built once per grid and grown as tails reach
    further, holds what the accelerator computed at every segment before."""

    @pytest.mark.parametrize("ratio", [1e-3, 0.1, 1.0, 7.3, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("half_period", [1e-3, math.pi / 3, 1e4])
    def test_plan_matches_the_backward_scan(self, ratio, half_period):
        # start / half_period from 1e-3 to 1e12: near the origin the picks
        # thin out geometrically, far out no entry is far enough back and
        # they fall back to the two newest
        start, count = ratio * half_period, 120
        ts, link = [], []
        for _ in range(count):
            _extend_plan(ts, link, start, half_period)
        assert [t.hex() for t in ts] == [t.hex() for t in reference_ts(start, half_period, count, 8)]
        averaged = [math.sin(m) / (m + 1.0) for m in range(count)]
        for m in range(2, count):
            picked = reference_picks(ts, m + 1)
            chain = [m]
            while link[chain[-1]] >= 0 and len(chain) < 7:
                chain.append(link[chain[-1]])
            assert chain[::-1] == picked or (len(chain), picked) == (1, [m - 1, m]), m
            want = reference_extrapolate(averaged, ts, picked)
            got = _accelerate_tail(averaged[: m + 1], ts, link)
            assert [v.hex() for v in got] == [v.hex() for v in want], m

    def _check(self, f, spec, tol):
        assert _outcome(integrate_oscillatory_tail, f, spec, tol) == _outcome(
            reference_tail, f, spec, tol
        )

    def test_tails_sharing_a_grid(self):
        _tail_plan.cache_clear()
        start, h = 2.75, math.pi / 3
        # the first tail converges with 7 entries planned, the second never
        # converges and grows the plan to 56, the third reads it
        self._check(lambda x: math.cos(3.0 * x) / x, OscillatorySpec(start, h), 1e-6)
        self._check(lambda x: 1.0 / x, OscillatorySpec(start, h), 1e-6)
        self._check(lambda x: math.sin(3.0 * x) / x, OscillatorySpec(start, h), 1e-9)
        info = _tail_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_same_grid_with_more_segments(self):
        _tail_plan.cache_clear()
        ts, link = _tail_plan(1.5, 0.8)
        wave = lambda x: math.cos(math.pi / 0.8 * x) / x
        planned = []
        # each tail on the grid reaches further than the one before; the
        # last never converges and plans an entry for each of its segments
        # past the averaging depth
        for f, tol in ((wave, 1e-6), (wave, 1e-7), (lambda x: 1.0 / x, 1e-6)):
            self._check(f, OscillatorySpec(1.5, 0.8), tol)
            planned.append(len(ts))
        assert planned[0] < planned[1] < planned[2] == len(link) == _MAX_SEGMENTS - 8
