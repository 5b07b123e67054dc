"""Seeded differential fuzz campaigns: the optimisation changes nothing.

Per episode the harness compares the full observable outcome (trace,
permanent object state, invariants) of the reference conflict engine
and the bitmask engine.  Baseline schedulers (which have no engine
switch) degrade to run-twice determinism checks.  The satellite
requirement is >=200 episodes x 3 schedulers across reference/bitmask;
they are parametrized so each scheduler stays inside the default
per-test budget.
"""

import pytest

from repro.check.differential import (
    GTM_VARIANTS,
    compare_episode,
    comparison_digest,
    run_differential_campaign,
)
from repro.core.conflicts import CONFLICT_ENGINES
from repro.check.fuzzer import SCHEDULER_NAMES, FuzzConfig, generate_episode

EPISODES_PER_SCHEDULER = 200


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_differential_campaign_has_zero_divergences(scheduler):
    config = FuzzConfig(scheduler=scheduler)
    report = run_differential_campaign(config, seed=2008,
                                       episodes=EPISODES_PER_SCHEDULER)
    assert report.ok, "\n".join(c.summary() for c in report.divergent)
    assert report.episodes == EPISODES_PER_SCHEDULER


def test_gtm_variant_matrix_covers_every_conflict_engine():
    """The 200-episode campaigns above derive their coverage from
    GTM_VARIANTS, so pin what that matrix actually contains: every
    engine ``build_conflict_checker`` accepts."""
    engines = {overrides["conflict_engine"]
               for _, overrides in GTM_VARIANTS}
    assert engines == set(CONFLICT_ENGINES) == {"reference", "bitmask"}


def test_gtm_episode_compares_all_variants():
    spec = generate_episode(FuzzConfig(scheduler="gtm"), seed=7, index=0)
    comparison = compare_episode(spec)
    assert comparison.ok, comparison.summary()
    assert [run.label for run in comparison.runs] == \
        [label for label, _ in GTM_VARIANTS]
    # every GTM variant exposes a lock table to inspect
    assert all(run.permanent is not None for run in comparison.runs)


def test_baseline_episode_runs_twice():
    spec = generate_episode(FuzzConfig(scheduler="2pl"), seed=7, index=0)
    comparison = compare_episode(spec)
    assert comparison.ok, comparison.summary()
    assert [run.label for run in comparison.runs] == \
        ["2pl-run1", "2pl-run2"]


def test_second_run_in_one_process_reproduces_the_digest():
    """No state outlives an episode: the same contended episode run
    twice through the full comparison (all conflict engines) in one
    process gives byte-identical digests."""
    config = FuzzConfig(scheduler="gtm", max_objects=1, max_txns=24,
                        max_ops_per_txn=3, arrival_spread=1.0)
    spec = generate_episode(config, seed=2008, index=0)
    first = compare_episode(spec)
    second = compare_episode(spec)
    assert first.ok and second.ok
    assert comparison_digest(first) == comparison_digest(second)
