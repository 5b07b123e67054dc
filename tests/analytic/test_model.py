"""Tests for Eq. (3)-(5) and the abort model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExperimentError
from repro.analytic.model import (
    abort_probability,
    absolute_gain,
    hypergeometric_pmf,
    our_execution_time,
    speedup_over_twopl,
    twopl_abort_probability,
    twopl_execution_time,
)


class TestEq3:
    def test_no_conflicts_is_ideal(self):
        assert twopl_execution_time(0, n=100) == 1.0

    def test_all_conflicts_is_one_and_a_half(self):
        assert twopl_execution_time(100, n=100) == 1.5

    def test_linear_in_conflicts(self):
        values = [twopl_execution_time(c, n=100) for c in range(101)]
        deltas = {round(values[k + 1] - values[k], 12)
                  for k in range(100)}
        assert len(deltas) == 1

    def test_scales_with_tau(self):
        assert twopl_execution_time(50, n=100, tau_e=4.0) == \
            4.0 * twopl_execution_time(50, n=100, tau_e=1.0)

    def test_input_validation(self):
        with pytest.raises(ExperimentError):
            twopl_execution_time(5, n=0)
        with pytest.raises(ExperimentError):
            twopl_execution_time(-1, n=10)
        with pytest.raises(ExperimentError):
            twopl_execution_time(11, n=10)
        with pytest.raises(ExperimentError):
            twopl_execution_time(1, n=10, tau_e=0)


class TestEq4:
    def test_exact_small_case(self):
        # n=4, c=2, i=2: P(1) = C(2,1)C(2,1)/C(4,2) = 4/6
        assert hypergeometric_pmf(1, n=4, c=2, i=2) == pytest.approx(4 / 6)

    def test_impossible_k_is_zero(self):
        assert hypergeometric_pmf(3, n=4, c=2, i=2) == 0.0
        assert hypergeometric_pmf(0, n=4, c=4, i=3) == 0.0  # must draw an i

    @given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 40))
    def test_pmf_sums_to_one(self, n, c, i):
        c = min(c, n)
        i = min(i, n)
        total = sum(hypergeometric_pmf(k, n=n, c=c, i=i)
                    for k in range(0, min(i, c) + 1))
        assert total == pytest.approx(1.0)

    @given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 30))
    def test_mean_matches_hypergeometric(self, n, c, i):
        c = min(c, n)
        i = min(i, n)
        mean = sum(k * hypergeometric_pmf(k, n=n, c=c, i=i)
                   for k in range(0, min(i, c) + 1))
        assert mean == pytest.approx(c * i / n)


class TestEq5:
    def test_equals_ideal_when_no_incompatibles(self):
        for c in (0, 25, 50, 100):
            assert our_execution_time(c, 0, n=100) == 1.0

    def test_equals_twopl_when_all_incompatible(self):
        for c in (0, 30, 100):
            assert our_execution_time(c, 100, n=100) == \
                pytest.approx(twopl_execution_time(c, n=100))

    def test_never_exceeds_twopl(self):
        n = 60
        for c in range(0, n + 1, 10):
            for i in range(0, n + 1, 10):
                assert our_execution_time(c, i, n=n) <= \
                    twopl_execution_time(c, n=n) + 1e-12

    def test_monotone_in_incompatibles(self):
        n = 50
        values = [our_execution_time(30, i, n=n) for i in range(n + 1)]
        assert all(values[k] <= values[k + 1] + 1e-12
                   for k in range(n))

    def test_closed_form_via_expected_k(self):
        """Eq. (5) equals τ_2PL evaluated at E[k] because Eq. (3) is
        linear: E[τ(k)] = τ(E[k]) = τ_e (1 + c·i/(2n²))."""
        n, c, i = 80, 40, 20
        expected = 1.0 + (c * i / n) / (2 * n)
        assert our_execution_time(c, i, n=n) == pytest.approx(expected)

    def test_input_validation(self):
        with pytest.raises(ExperimentError):
            our_execution_time(5, -1, n=10)
        with pytest.raises(ExperimentError):
            our_execution_time(5, 11, n=10)


class TestGains:
    def test_paper_headline_gain(self):
        """Best case c=100%, i=0: gain = 0.5 τ_e (the paper's '50%')."""
        assert absolute_gain(100, 0, n=100) == pytest.approx(0.5)

    def test_relative_speedup_is_one_third(self):
        assert speedup_over_twopl(100, 0, n=100) == pytest.approx(1 / 3)

    def test_no_gain_when_all_incompatible(self):
        assert absolute_gain(50, 100, n=100) == pytest.approx(0.0)


class TestAbortModel:
    def test_product_form(self):
        assert abort_probability(0.5, 0.4, 0.2) == pytest.approx(0.04)

    def test_zero_factor_means_no_aborts(self):
        assert abort_probability(0.0, 1.0, 1.0) == 0.0
        assert abort_probability(1.0, 0.0, 1.0) == 0.0
        assert abort_probability(1.0, 1.0, 0.0) == 0.0

    def test_bounds_validated(self):
        with pytest.raises(ExperimentError):
            abort_probability(1.5, 0.5, 0.5)

    def test_twopl_reference(self):
        assert twopl_abort_probability(0.3) == pytest.approx(0.3)
        assert twopl_abort_probability(0.3, 0.5) == pytest.approx(0.15)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_ours_never_above_twopl_reference(self, d, c, i):
        assert abort_probability(d, c, i) <= \
            twopl_abort_probability(d) + 1e-12
