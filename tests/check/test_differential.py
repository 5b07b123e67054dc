"""Seeded differential fuzz campaigns: the optimisation changes nothing.

Per episode the harness compares the full observable outcome (trace,
permanent object state, invariants) of the kernel run with the pairwise
conflict oracle and with its own bitmask checker.  Baseline schedulers (which have no engine
switch) degrade to run-twice determinism checks.  The satellite
requirement is >=200 episodes x 3 schedulers across reference/bitmask;
they are parametrized so each scheduler stays inside the default
per-test budget.
"""

import pytest

from repro.check import differential
from repro.check.differential import (
    GTM_VARIANTS,
    compare_episode,
    comparison_digest,
    run_differential_campaign,
)
from repro.check.fuzzer import SCHEDULER_NAMES, FuzzConfig, generate_episode
from repro.check.pairwise import PairwiseConflictChecker, PairwiseRoundSet
from repro.core.conflicts import ConflictChecker

EPISODES_PER_SCHEDULER = 200


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_differential_campaign_has_zero_divergences(scheduler):
    config = FuzzConfig(scheduler=scheduler)
    report = run_differential_campaign(config, seed=2008,
                                       episodes=EPISODES_PER_SCHEDULER)
    assert report.ok, "\n".join(c.summary() for c in report.divergent)
    assert report.episodes == EPISODES_PER_SCHEDULER


#: A small contended episode shape: one object, up to 24 transactions
#: arriving within a second, so most grant rounds hold several waiters.
CONTENDED = FuzzConfig(scheduler="gtm", max_objects=1, max_txns=24,
                       max_ops_per_txn=3, arrival_spread=1.0)


def test_gtm_variant_matrix_covers_every_conflict_engine():
    """The 200-episode campaigns above derive their coverage from
    GTM_VARIANTS, so pin what it contains: the pairwise oracle handed
    to the kernel, labelled ``reference``, and the kernel's own checker
    (no checker handed in), labelled ``bitmask``."""
    assert [label for label, _ in GTM_VARIANTS] == ["reference", "bitmask"]
    reference, bitmask = (checker for _, checker in GTM_VARIANTS)
    assert type(reference) is PairwiseConflictChecker
    assert bitmask is None


def test_the_reference_variant_runs_the_pairwise_checker(monkeypatch):
    """Each variant's kernel asks its own checker every admission
    question, and the reference variant never asks the kernel's."""
    asked = {PairwiseConflictChecker: 0, ConflictChecker: 0}

    def counting(cls):
        object_blocked = cls.object_blocked

        def counted(self, obj, txn_id, invocation):
            asked[cls] += 1
            return object_blocked(self, obj, txn_id, invocation)
        return counted

    for cls in asked:
        monkeypatch.setattr(cls, "object_blocked", counting(cls))
    comparison = compare_episode(generate_episode(CONTENDED, seed=2008,
                                                  index=0))
    assert comparison.ok, comparison.summary()
    assert asked[PairwiseConflictChecker] == asked[ConflictChecker] > 0


class _BlindRoundSet(PairwiseRoundSet):
    """A grant round's set that never conflicts: one rule broken."""

    def conflicts(self, invocation):
        return False


class _BrokenOracle(PairwiseConflictChecker):
    def new_round_set(self):
        return _BlindRoundSet(self)


#: Contended episodes the broken oracle must be caught within (seed
#: 2008 diverges at its third).
CONTROL_EPISODES = 5


def test_a_broken_oracle_diverges_within_the_budget(monkeypatch):
    """Control leg for the ``checker=`` seam: a reference variant whose
    oracle lets a grant round admit conflicting waiters together must
    show up as a divergence.  A seam that ignored the checker it is
    handed would run the kernel's twice and keep every pin green."""
    healthy = run_differential_campaign(CONTENDED, seed=2008,
                                        episodes=CONTROL_EPISODES)
    assert healthy.ok, "\n".join(c.summary() for c in healthy.divergent)
    monkeypatch.setattr(differential, "GTM_VARIANTS",
                        (("reference", _BrokenOracle()),
                         ("bitmask", None)))
    broken = run_differential_campaign(CONTENDED, seed=2008,
                                       episodes=CONTROL_EPISODES,
                                       max_divergences=1)
    assert not broken.ok


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
    spec = generate_episode(CONTENDED, seed=2008, index=0)
    first = compare_episode(spec)
    second = compare_episode(spec)
    assert first.ok and second.ok
    assert comparison_digest(first) == comparison_digest(second)
