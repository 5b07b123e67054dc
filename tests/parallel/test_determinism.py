"""Campaign digests: a pure function of (config, seed, episodes)."""

from __future__ import annotations

import pytest

from repro.check.fuzzer import FuzzConfig
from repro.check.runner import CampaignReport, run_campaign

SEED = 424242
EPISODES = 10


@pytest.fixture(scope="module")
def serial_campaign() -> CampaignReport:
    return run_campaign(FuzzConfig(scheduler="gtm"), seed=SEED,
                        episodes=EPISODES)


def test_campaign_digest_is_order_sensitive(serial_campaign):
    other = run_campaign(FuzzConfig(scheduler="gtm"), seed=SEED + 1,
                         episodes=EPISODES)
    assert other.digest != serial_campaign.digest
