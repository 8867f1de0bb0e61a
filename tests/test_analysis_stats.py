"""Unit and property tests for the statistics module."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import (
    ALPHA,
    MIN_TRIALS,
    ProportionSample,
    two_proportion_z_test,
    weighted_average,
)


class TestProportionSample:
    def test_proportion(self):
        assert ProportionSample(3, 10).proportion == 0.3

    def test_empty_sample(self):
        assert ProportionSample(0, 0).proportion == 0.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ProportionSample(5, 3)
        with pytest.raises(ValueError):
            ProportionSample(-1, 3)


class TestZTest:
    def test_obvious_increase_significant(self):
        baseline = ProportionSample(10, 100)
        treatment = ProportionSample(90, 100)
        result = two_proportion_z_test(baseline, treatment)
        assert result.valid
        assert result.z > 0
        assert result.significant

    def test_obvious_decrease_negative_z(self):
        result = two_proportion_z_test(
            ProportionSample(90, 100), ProportionSample(10, 100)
        )
        assert result.z < 0
        assert result.significant

    def test_no_change_not_significant(self):
        result = two_proportion_z_test(
            ProportionSample(50, 100), ProportionSample(51, 100)
        )
        assert not result.significant

    def test_small_sample_invalid(self):
        result = two_proportion_z_test(
            ProportionSample(1, MIN_TRIALS - 1), ProportionSample(50, 100)
        )
        assert not result.valid
        assert not result.significant

    def test_degenerate_identical_proportions(self):
        result = two_proportion_z_test(
            ProportionSample(10, 10), ProportionSample(20, 20)
        )
        assert result.valid
        assert result.p_value == 1.0

    def test_paper_magnitude_example(self):
        """GPTBot disallow: ~0.02 -> 1.0 with hundreds of accesses gives
        an enormous z, like Table 10's 24.20."""
        result = two_proportion_z_test(
            ProportionSample(6, 300), ProportionSample(300, 300)
        )
        assert result.z > 15

    @given(
        st.integers(5, 200),
        st.integers(5, 200),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    def test_antisymmetry(self, n_a, n_b, k_a, k_b):
        a = ProportionSample(min(k_a, n_a), n_a)
        b = ProportionSample(min(k_b, n_b), n_b)
        forward = two_proportion_z_test(a, b)
        backward = two_proportion_z_test(b, a)
        assert forward.z == pytest.approx(-backward.z, abs=1e-12)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)

    @pytest.mark.parametrize(
        ("baseline", "treatment", "z", "p"),
        [
            ((50, 100), (51, 100), "0.14", "8.88e-01"),
            ((40, 100), (60, 100), "2.83", "4.68e-03"),
            ((10, 100), (90, 100), "11.31", "1.12e-29"),
            ((6, 300), (300, 300), "24.01", "2.20e-127"),
            ((700, 1000), (0, 1000), "-32.82", "3.42e-236"),
        ],
    )
    def test_rendered_p_values_are_pinned(self, baseline, treatment, z, p):
        """Table 10 renders, pinned for |z| <= 37.5, where the stdlib
        tail agrees with ``2 * scipy.stats.norm.sf(|z|)``."""
        result = two_proportion_z_test(
            ProportionSample(*baseline), ProportionSample(*treatment)
        )
        assert (f"{result.z:.2f}", f"{result.p_value:.2e}") == (z, p)

    @given(st.integers(5, 500), st.integers(0, 500))
    def test_p_value_in_range(self, n, k):
        sample = ProportionSample(min(k, n), n)
        other = ProportionSample(n // 2, n)
        result = two_proportion_z_test(sample, other)
        if result.valid:
            assert 0.0 <= result.p_value <= 1.0


class TestWeightedAverage:
    def test_simple(self):
        assert weighted_average([1.0, 0.0], [3.0, 1.0]) == 0.75

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_average([1.0], [1.0, 2.0])

    def test_zero_weights(self):
        with pytest.raises(ValueError):
            weighted_average([1.0], [0.0])

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=10),
        st.lists(st.floats(0.01, 100), min_size=1, max_size=10),
    )
    def test_bounded_by_extremes(self, values, weights):
        n = min(len(values), len(weights))
        values, weights = values[:n], weights[:n]
        average = weighted_average(values, weights)
        assert min(values) - 1e-9 <= average <= max(values) + 1e-9


class TestConstants:
    def test_alpha_constant(self):
        assert ALPHA == 0.05
