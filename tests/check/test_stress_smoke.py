"""Fixed-seed fuzz campaigns are reproducible and seed-sensitive.

The in-suite twin of the CI ``stress-smoke`` job is
``test_golden_digests.py``: it pins the 200-episode seed-42 campaign
of every scheduler, and each pinned digest hashes every episode's
verdict, so a failing episode moves it.
"""

from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign


def test_campaigns_are_reproducible():
    config = FuzzConfig(scheduler="gtm")
    first = run_campaign(config, seed=9, episodes=15,
                         shrink_failures=False)
    second = run_campaign(config, seed=9, episodes=15,
                          shrink_failures=False)
    assert (first.committed, first.aborted) == (second.committed,
                                                second.aborted)


def test_distinct_seeds_explore_distinct_episodes():
    config = FuzzConfig(scheduler="gtm")
    first = run_campaign(config, seed=1, episodes=15,
                         shrink_failures=False)
    second = run_campaign(config, seed=2, episodes=15,
                          shrink_failures=False)
    assert (first.committed, first.aborted) != (second.committed,
                                                second.aborted)
