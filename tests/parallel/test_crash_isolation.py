"""Fault isolation: one poisoned episode never sinks a campaign."""

from __future__ import annotations

from repro.check import differential, runner
from repro.check.differential import run_differential_campaign
from repro.check.fuzzer import FuzzConfig, generate_episode
from repro.check.runner import run_campaign

SEED = 997


def test_poisoned_episode_does_not_sink_the_campaign(monkeypatch):
    real_workload = runner.episode_workload

    def poisoned(spec):
        if spec.index == 2:
            raise RuntimeError("injected crash at episode 2")
        return real_workload(spec)

    monkeypatch.setattr(runner, "episode_workload", poisoned)
    report = run_campaign(FuzzConfig(scheduler="gtm"), seed=SEED,
                          episodes=8, max_failures=8,
                          shrink_failures=False)
    # exactly the injected episode failed; the rest ran and counted.
    assert len(report.failures) == 1
    assert "injected crash at episode 2" in report.failures[0].crash
    assert report.episodes == 8
    assert report.committed > 0


def test_a_crash_outside_the_run_is_a_finding(monkeypatch):
    """The oracle and the invariant sweeps run inside the episode's own
    ``try``: a checker that raises is a ``crash=`` outcome, not an
    exception out of :func:`run_episode`."""
    def broken_oracle(*args, **kwargs):
        raise RuntimeError("oracle blew up")

    monkeypatch.setattr(runner, "check_episode", broken_oracle)
    spec = generate_episode(FuzzConfig(scheduler="gtm"), SEED, 0)
    outcome = runner.run_episode(spec)
    assert not outcome.ok
    assert "oracle blew up" in outcome.crash


def test_a_crash_in_a_differential_variant_is_a_divergence(monkeypatch):
    def broken_sweep(gtm):
        raise RuntimeError("sweep blew up")

    monkeypatch.setattr(differential, "check_episode_invariants",
                        broken_sweep)
    report = run_differential_campaign(FuzzConfig(scheduler="gtm"), SEED,
                                       episodes=3, max_divergences=3)
    assert len(report.divergent) == 3
    assert "sweep blew up" in report.divergent[0].diffs[0]
