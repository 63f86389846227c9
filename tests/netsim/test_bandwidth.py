"""Unit tests for the end-to-end bandwidth estimator."""

import pytest

from repro.netsim.bandwidth import EwmaBandwidthEstimator


class TestEwma:
    def test_no_estimate_before_observation(self):
        assert EwmaBandwidthEstimator().estimate is None

    def test_first_observation_sets_estimate(self):
        est = EwmaBandwidthEstimator()
        est.observe(1000, 1.0)
        assert est.estimate == 1000.0

    def test_converges_toward_new_regime(self):
        est = EwmaBandwidthEstimator(alpha=0.5)
        est.observe(1000, 1.0)
        for _ in range(20):
            est.observe(100, 1.0)
        assert est.estimate == pytest.approx(100.0, rel=0.01)

    def test_smooths_spikes(self):
        est = EwmaBandwidthEstimator(alpha=0.2)
        est.observe(1000, 1.0)
        est.observe(100000, 1.0)  # one spike
        assert est.estimate < 25000

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EwmaBandwidthEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaBandwidthEstimator(alpha=1.5)

    def test_invalid_observations(self):
        est = EwmaBandwidthEstimator()
        with pytest.raises(ValueError):
            est.observe(-1, 1.0)
        with pytest.raises(ValueError):
            est.observe(10, 0.0)

    def test_reset(self):
        est = EwmaBandwidthEstimator()
        est.observe(500, 1.0)
        est.reset()
        assert est.estimate is None
        assert est.observations == 0
