"""Tests for disconnection models."""

import numpy as np
import pytest

from repro.mobile.network import (
    BernoulliDisconnection,
    RenewalDisconnection,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBernoulliDisconnection:
    def test_beta_zero_never_disconnects(self):
        model = BernoulliDisconnection(beta=0.0)
        assert all(not model.plan(rng(seed), 10.0) for seed in range(20))

    def test_beta_one_always_disconnects(self):
        model = BernoulliDisconnection(beta=1.0)
        assert all(len(model.plan(rng(seed), 10.0)) == 1
                   for seed in range(20))

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BernoulliDisconnection(beta=1.5)
        with pytest.raises(ValueError):
            BernoulliDisconnection(beta=-0.1)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            BernoulliDisconnection(beta=0.5, duration_mean=0)

    def test_empirical_rate_close_to_beta(self):
        model = BernoulliDisconnection(beta=0.3)
        generator = rng(42)
        hits = sum(bool(model.plan(generator, 10.0)) for _ in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_outage_within_execution(self):
        model = BernoulliDisconnection(beta=1.0)
        for seed in range(20):
            (event,) = model.plan(rng(seed), 10.0)
            assert 0.0 < event.at_fraction < 1.0
            assert event.duration > 0

    def test_fixed_duration(self):
        model = BernoulliDisconnection(beta=1.0, fixed_duration=5.0)
        (event,) = model.plan(rng(1), 10.0)
        assert event.duration == 5.0

    def test_exponential_duration_mean(self):
        model = BernoulliDisconnection(beta=1.0, duration_mean=4.0)
        generator = rng(7)
        durations = [model.plan(generator, 10.0)[0].duration
                     for _ in range(3000)]
        assert 3.5 < np.mean(durations) < 4.5


class TestRenewalDisconnection:
    def test_rejects_bad_means(self):
        with pytest.raises(ValueError):
            RenewalDisconnection(up_mean=0, down_mean=1)
        with pytest.raises(ValueError):
            RenewalDisconnection(up_mean=1, down_mean=0)

    def test_multiple_outages_for_long_transactions(self):
        model = RenewalDisconnection(up_mean=2.0, down_mean=1.0)
        events = model.plan(rng(3), work_time=100.0)
        assert len(events) > 1

    def test_outages_ordered_and_bounded(self):
        model = RenewalDisconnection(up_mean=2.0, down_mean=1.0)
        events = model.plan(rng(5), work_time=50.0)
        fractions = [event.at_fraction for event in events]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f < 1.0 for f in fractions)

    def test_max_events_cap(self):
        model = RenewalDisconnection(up_mean=0.01, down_mean=0.01,
                                     max_events=4)
        events = model.plan(rng(1), work_time=1000.0)
        assert len(events) == 4

    def test_short_transaction_often_unaffected(self):
        model = RenewalDisconnection(up_mean=1000.0, down_mean=1.0)
        assert model.plan(rng(0), work_time=0.1) == ()
