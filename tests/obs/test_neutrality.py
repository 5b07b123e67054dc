"""Digest neutrality on small campaigns (the CI job runs the big one).

``python -m repro.obs.selfcheck`` proves neutrality at campaign scale;
these tests keep a fast in-suite version so a regression is caught by
plain ``pytest`` too.
"""

from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign
from repro.obs.selfcheck import (
    check_campaign_neutrality,
    check_differential_neutrality,
    main,
)

EPISODES = 6


def test_campaign_digest_neutral():
    ok, evidence, observed = check_campaign_neutrality(
        seed=2008, episodes=EPISODES, jobs=1)
    assert ok, evidence
    assert observed.metrics.episodes == EPISODES


def test_differential_digest_neutral():
    ok, evidence = check_differential_neutrality(
        seed=2008, episodes=EPISODES, jobs=1)
    assert ok, evidence


def test_selfcheck_main_reads_proven(capsys):
    assert main(["--episodes", "3", "--jobs", "1", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "observability neutrality: PROVEN" in out
    assert "gtm_wait_seconds" in out
    # one leg per harness: bus-less schedulers would compare a run
    # with itself
    assert "[2pl" not in out and "[optimistic" not in out


def test_observed_campaign_carries_merged_frame():
    report = run_campaign(FuzzConfig(scheduler="gtm"), 2008, EPISODES,
                          shrink_failures=False, observe=True)
    frame = report.metrics
    assert frame is not None
    assert frame.episodes == EPISODES
    assert frame.counter_total("gtm_commits") > 0


def test_jobs_merge_matches_serial():
    serial = run_campaign(FuzzConfig(scheduler="gtm"), 2008, EPISODES,
                          shrink_failures=False, observe=True)
    sharded = run_campaign(FuzzConfig(scheduler="gtm"), 2008, EPISODES,
                           shrink_failures=False, observe=True, jobs=2)
    assert serial.digest == sharded.digest
    assert serial.metrics.metrics == sharded.metrics.metrics
    assert serial.metrics.episodes == sharded.metrics.episodes
