"""Unit tests for the dynamic storage access accumulator."""

import pytest

from repro.config import INTEL_OPTANE, SAMSUNG_980PRO
from repro.core.accumulator import REDIRECT_SMOOTHING, DynamicAccessAccumulator
from repro.errors import ConfigError
from repro.sim.ssd import SSDArray


def make(ssd=INTEL_OPTANE, num_ssds=1, **kwargs):
    return DynamicAccessAccumulator(SSDArray(ssd, num_ssds), **kwargs)


class TestThresholds:
    def test_storage_threshold_matches_model(self):
        acc = make(target_fraction=0.95)
        assert acc.storage_threshold == acc.array.required_overlapping(0.95)

    def test_node_threshold_equals_storage_when_no_redirects(self):
        acc = make()
        assert acc.node_threshold == acc.storage_threshold

    def test_node_threshold_scales_with_redirects(self):
        """Section 3.2: redirected accesses raise the node-level threshold."""
        acc = make()
        base = acc.node_threshold
        acc.observe(storage_accesses=500, total_accesses=1000)
        assert acc.redirect_fraction == pytest.approx(0.5)
        assert acc.node_threshold == pytest.approx(2 * base, rel=0.01)

    def test_redirect_estimate_smoothed(self):
        acc = make()
        acc.observe(0, 100)    # redirect 1.0 (first sample taken whole)
        acc.observe(100, 100)  # redirect 0.0
        assert acc.redirect_fraction == pytest.approx(1 - REDIRECT_SMOOTHING)

    def test_extreme_redirect_capped(self):
        acc = make()
        acc.observe(0, 1000)  # everything redirected
        # Threshold must stay finite (survivor fraction floored at 5%).
        assert acc.node_threshold <= acc.storage_threshold / 0.05 + 1

    def test_higher_latency_ssd_needs_more(self):
        assert make(SAMSUNG_980PRO).storage_threshold > make().storage_threshold

    def test_more_ssds_need_more(self):
        assert (
            make(num_ssds=2).storage_threshold
            > make(num_ssds=1).storage_threshold
        )


class TestMergeDecision:
    def test_merges_until_threshold(self):
        acc = make()
        threshold = acc.node_threshold
        assert acc.should_merge_more(threshold - 1, merged_iterations=1)
        assert not acc.should_merge_more(threshold, merged_iterations=1)

    def test_respects_merge_cap(self):
        acc = make(max_merged_iterations=4)
        assert not acc.should_merge_more(0, merged_iterations=4)


class TestObserveValidation:
    def test_zero_total_ignored(self):
        acc = make()
        acc.observe(0, 0)
        assert acc.redirect_fraction == 0.0

    def test_storage_exceeding_total_rejected(self):
        with pytest.raises(ConfigError):
            make().observe(10, 5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            make().observe(-1, 5)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            make(target_fraction=0.0)
        with pytest.raises(ConfigError):
            make(max_merged_iterations=0)
