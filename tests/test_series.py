"""Series machinery for the cosine-log identity: partial sums against exact
rational oracles, the closed forms, and the convergence envelope."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frullani.series import (
    SeriesParams,
    central_binomial_closed,
    central_binomial_partial,
    discriminant_identity,
    gr_4_324_2_closed,
    gr_4_324_2_series,
    imaginary_exponential_check,
    log_series_partial,
    parity_weight,
)


class TestSeriesParams:
    def test_rejects_minus_one(self):
        with pytest.raises(ValueError):
            SeriesParams(-1.0, 1.0, 2.0, 10)

    def test_rejects_nonfinite_amplitude(self):
        with pytest.raises(ValueError):
            SeriesParams(math.inf, 1.0, 2.0, 10)

    @pytest.mark.parametrize("kwargs", [
        {"p": 0.0}, {"p": -1.0}, {"q": 0.0}, {"q": math.inf}, {"K": 0},
    ])
    def test_rejects_bad_frequencies_and_order(self, kwargs):
        base = {"a": 0.5, "p": 1.0, "q": 2.0, "K": 10}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SeriesParams(**base)

    def test_amplitude_coefficient_peaks_at_one(self):
        assert SeriesParams(1.0, 1.0, 2.0, 1).A == 1.0
        assert SeriesParams(0.0, 1.0, 2.0, 1).A == 0.0

    @pytest.mark.parametrize("a", [0.5, 2.0, -0.5, -3.0, 1.0 + 2.0**-26, 1.0 - 2.0**-26])
    def test_derived_quantities_stay_in_range(self, a):
        params = SeriesParams(a, 1.0, 2.0, 5)
        assert -1.0 <= params.A <= 1.0
        assert 0.0 <= params.Q <= 0.25

    def test_reciprocal_amplitudes_share_coefficients(self):
        # A(a) = A(1/a) exactly in exact arithmetic; floats agree to a few ulps
        lo, hi = SeriesParams(0.5, 1.0, 2.0, 1), SeriesParams(2.0, 1.0, 2.0, 1)
        assert lo.A == pytest.approx(hi.A, abs=4 * math.ulp(1.0))
        assert lo.Q == pytest.approx(hi.Q, abs=4 * math.ulp(0.25))


class TestLogSeries:
    def test_matches_exact_rational_partial_sum(self):
        for z in (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4)):
            for terms in (1, 2, 5, 13):
                exact = sum(
                    (-1) ** (k - 1) * z**k / k for k in range(1, terms + 1)
                )
                got = log_series_partial(float(z), terms)
                assert got == pytest.approx(float(exact), abs=1e-15)

    def test_converges_to_log1p(self):
        for z in (0.9, 0.5, -0.5, -0.9, 0.0):
            assert log_series_partial(z, 2000) == pytest.approx(
                math.log1p(z), abs=1e-12
            )

    def test_endpoint_z_equals_one_is_allowed(self):
        # alternating harmonic series, slow but well defined
        assert log_series_partial(1.0, 100000) == pytest.approx(
            math.log(2.0), abs=1e-4
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            log_series_partial(-1.0, 10)
        with pytest.raises(ValueError):
            log_series_partial(1.0 + 1e-12, 10)


class TestParityWeight:
    @given(st.integers(min_value=1, max_value=200))
    def test_equals_bruteforce_binomial_count(self, k):
        # weight = sum of binom(k, r) over r with 2r != k, exactly
        brute = sum(math.comb(k, r) for r in range(k + 1) if 2 * r != k)
        assert parity_weight(k) == brute

    def test_small_values(self):
        assert parity_weight(1) == 2
        assert parity_weight(2) == 2  # 4 - binom(2,1)
        assert parity_weight(3) == 8
        assert parity_weight(4) == 10  # 16 - binom(4,2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parity_weight(0)


class TestCentralBinomial:
    def test_partial_matches_exact_rational_sum(self):
        for q in (Fraction(1, 20), Fraction(1, 10), Fraction(3, 16)):
            for terms in (1, 3, 12):
                exact = sum(
                    math.comb(2 * m, m) * q**m / m for m in range(1, terms + 1)
                )
                got = central_binomial_partial(float(q), terms)
                assert got == pytest.approx(float(exact), rel=1e-14)

    def test_closed_form_boundary_values(self):
        assert central_binomial_closed(0.0) == 0.0
        assert central_binomial_closed(0.25) == pytest.approx(
            2.0 * math.log(2.0), abs=4 * math.ulp(2.0)
        )

    def test_partial_approaches_closed(self):
        for q in (0.05, 0.1, 0.15, 0.2):
            gap = abs(central_binomial_partial(q, 300) - central_binomial_closed(q))
            assert gap <= 1e-12

    def test_domain(self):
        for bad in (-0.01, 0.26):
            with pytest.raises(ValueError):
                central_binomial_partial(bad, 5)
            with pytest.raises(ValueError):
                central_binomial_closed(bad)
        with pytest.raises(ValueError):
            central_binomial_partial(0.1, 0)


class TestDiscriminantIdentity:
    def test_agreement_over_dense_grid(self):
        # 1 - 4Q == ((a^2-1)/(a^2+1))^2; the lhs cancels near |a| = 1, so
        # agreement is measured in ulps of max(|lhs|, |rhs|, 1)
        for i in range(1000):
            a = -10.0 + 20.0 * i / 999.0
            lhs, rhs = discriminant_identity(a)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 4.0 * math.ulp(scale), f"a={a!r}"

    def test_exact_at_zero_and_one(self):
        assert discriminant_identity(0.0) == (1.0, 1.0)
        lhs, rhs = discriminant_identity(1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            discriminant_identity(math.nan)


class TestClosedForm:
    def test_branches_agree_on_reciprocal_pairs(self):
        for a in (0.5, 2.0, 0.1, 10.0):
            v = gr_4_324_2_closed(a, 1.0, 2.0)
            w = gr_4_324_2_closed(1.0 / a, 1.0, 2.0)
            assert abs(v - w) <= 4.0 * math.ulp(max(abs(v), 1.0))

    def test_branch_seam_is_continuous(self):
        at_one = gr_4_324_2_closed(1.0, 1.0, 2.0)
        just_above = gr_4_324_2_closed(1.0 + 2.0**-40, 1.0, 2.0)
        assert abs(at_one - just_above) < 1e-11
        assert at_one == pytest.approx(2.0 * math.log(2.0) ** 2, rel=1e-15)

    def test_zero_amplitude_vanishes(self):
        assert gr_4_324_2_closed(0.0, 1.0, 7.0) == 0.0

    def test_equal_frequencies_vanish_exactly(self):
        assert gr_4_324_2_closed(0.5, 3.0, 3.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gr_4_324_2_closed(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            gr_4_324_2_closed(0.5, 0.0, 2.0)

    def test_printed_small_amplitude_form(self):
        # for n^2 < 1 the identity is quoted as ln(b/a) ln((1+n)^2); for
        # n^2 > 1 as ln(b/a) ln((1+1/n)^2).  Same function, squared inside.
        for n, a, b in ((0.5, 1.0, 2.0), (-0.5, 1.0, 3.0), (0.25, 2.0, 5.0)):
            quoted = math.log(b / a) * math.log((1.0 + n) ** 2)
            mine = gr_4_324_2_closed(n, a, b)
            assert abs(quoted - mine) <= 8.0 * math.ulp(max(abs(mine), 1.0))
        for n, a, b in ((3.0, 1.0, 2.0), (-4.0, 1.0, 3.0)):
            quoted = math.log(b / a) * math.log((1.0 + 1.0 / n) ** 2)
            mine = gr_4_324_2_closed(n, a, b)
            assert abs(quoted - mine) <= 8.0 * math.ulp(max(abs(mine), 1.0))


def _series_residual(a, K, p=1.0, q=2.0):
    return abs(gr_4_324_2_series(a, p, q, K) - gr_4_324_2_closed(a, p, q))


def _envelope(a, K, p=1.0, q=2.0):
    """Analytic bound on the truncation residual.

    The log-series tail is bounded by |A|^(K+1)/((K+1)(1-|A|)) and the
    central-binomial tail (K//2 terms kept) by (4Q)^(M+1)/((M+1)(1-4Q)),
    both scaled by |ln(q/p)|.
    """
    params = SeriesParams(a, p, q, K)
    A, Q = abs(params.A), params.Q
    scale = abs(math.log(q / p))
    m = K // 2
    log_tail = A ** (K + 1) / ((K + 1) * (1.0 - A))
    binom_tail = (4.0 * Q) ** (m + 1) / ((m + 1) * (1.0 - 4.0 * Q))
    return scale * (log_tail + 0.5 * binom_tail) + 64.0 * math.ulp(1.0)


class TestSeriesConvergence:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.6, -0.3, -0.6])
    def test_residual_stays_under_analytic_envelope(self, a):
        # the residual itself is not monotone for a > 0 (the two component
        # tails share a decay rate and interfere), but it never escapes the
        # decreasing analytic envelope
        for K in range(5, 120, 7):
            assert _series_residual(a, K) <= _envelope(a, K), f"K={K}"

    def test_residual_monotone_for_negative_amplitude(self):
        # with a < 0 both component tails alternate in step, so the
        # truncation error decreases monotonically (up to roundoff jitter)
        res = [_series_residual(-0.6, K) for K in range(2, 80)]
        for earlier, later in zip(res, res[1:]):
            assert later <= earlier + 1e-15

    @pytest.mark.parametrize("a", [-0.5, -0.1, 0.1, 0.3, 0.5, 0.6])
    def test_deep_truncation_reaches_closed_form(self, a):
        assert _series_residual(a, 400) <= 1e-8

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(-0.7, 0.7, allow_nan=False),
        p=st.floats(0.5, 4.0, allow_nan=False),
        q=st.floats(0.5, 4.0, allow_nan=False),
    )
    def test_series_agrees_with_closed_form_inside_disc(self, a, p, q):
        if a == -1.0:  # cannot happen in range, defensive
            return
        closed = gr_4_324_2_closed(a, p, q)
        part = gr_4_324_2_series(a, p, q, 600)
        assert abs(part - closed) <= 1e-10 * max(1.0, abs(closed))


class TestImaginaryExponentialCheck:
    def test_equal_frequencies_short_circuit(self):
        assert imaginary_exponential_check(3.0, 3.0) == (0.0, 0.0)

    def test_octave_pair(self):
        cos_part, sin_part = imaginary_exponential_check(1.0, 2.0)
        assert cos_part == pytest.approx(math.log(2.0), abs=1e-4)
        assert sin_part == pytest.approx(0.0, abs=1e-4)

    def test_incommensurate_pair(self):
        # no common period a tail segment resolves: the split tail serves
        cos_part, sin_part = imaginary_exponential_check(1.0, 1.414213562)
        assert cos_part == pytest.approx(math.log(1.414213562), abs=1e-4)
        assert sin_part == pytest.approx(0.0, abs=1e-4)

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            imaginary_exponential_check(0.0, 1.0)
