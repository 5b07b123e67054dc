"""Determinism and detection-power tests for the service fuzzer.

Two properties make ``--service-fuzz`` trustworthy:

1. **Determinism** — an episode spec (and therefore its frame schedule,
   transcript digest, and a whole campaign's rolling digest) is a pure
   function of ``(seed, index)``, byte-identical from run to run; a
   failure seen in CI replays exactly on a laptop.
2. **Detection power** — the control leg: reverting a fix this fuzzer
   found must make a short campaign fail again.  If a revert sails
   through, the oracle went blind, not the code clean.
"""

import pytest

from repro.check.service_fuzzer import (
    ClientActionSpec,
    ServiceClientSpec,
    ServiceEpisodeSpec,
    ServiceFuzzConfig,
    generate_service_episode,
    run_service_campaign,
    run_service_episode,
)
from repro.service.core import GTMService
from repro.service.session import SessionStore


@pytest.mark.parametrize("seed", [0, 7, 42])
class TestDeterminism:
    def test_frame_schedule_is_pure_function_of_seed(self, seed):
        config = ServiceFuzzConfig()
        for index in range(12):
            first = generate_service_episode(config, seed, index)
            again = generate_service_episode(config, seed, index)
            assert first == again

    def test_episode_outcome_digest_is_stable(self, seed):
        spec = generate_service_episode(ServiceFuzzConfig(), seed, 3)
        first = run_service_episode(spec)
        again = run_service_episode(spec)
        assert first.ok and again.ok
        assert first.digest == again.digest
        assert first.summary() == again.summary()


class TestControlLeg:
    """Revert a shipped fix; the campaign must catch it quickly."""

    def test_reverted_held_delivery_is_caught(self, monkeypatch):
        # pre-fix: correlated pushes went straight to session.send and
        # were dropped while detached (the lost-grant race).  Found at
        # seed 42 episode 14.
        monkeypatch.setattr(
            GTMService, "_push_correlated",
            lambda self, session, frame: session.send(frame))
        report = run_service_campaign(ServiceFuzzConfig(), 42, 200,
                                      shrink_failures=False)
        assert not report.ok
        failure = report.failures[0]
        assert failure.spec.index <= 200
        assert any("never got its grant reply" in violation
                   for violation in failure.invariant_violations)

    def test_reverted_session_purge_is_caught(self, monkeypatch):
        # pre-fix: retire_finished never evicted EXPIRED/CLOSED tokens.
        # Found at seed 42 episode 2.
        monkeypatch.setattr(SessionStore, "purge_finished",
                            lambda self: 0)
        report = run_service_campaign(ServiceFuzzConfig(), 42, 200,
                                      shrink_failures=False)
        assert not report.ok
        assert any("not purged" in violation
                   for violation in report.failures[0].invariant_violations)

    def test_transaction_left_open_is_caught(self):
        """The liveness verdict: a script that never ends its
        transaction leaves it Active when the engine runs dry, and the
        episode names it (shutdown would have aborted it unseen)."""
        spec = ServiceEpisodeSpec(
            seed=0, index=0, objects=(("X0", 100, "add"),),
            clients=(ServiceClientSpec(name="c0", actions=(
                ClientActionSpec(at=0.0, kind="connect"),
                ClientActionSpec(at=0.1, kind="begin", txn="c0t0"),
                ClientActionSpec(at=0.2, kind="op", txn="c0t0",
                                 object_name="X0", op="add", operand=1),
            )),),
            bto_timeout=None)
        outcome = run_service_episode(spec)
        assert not outcome.ok
        assert outcome.invariant_violations == [
            "txn 'c0t0': active, neither committed nor aborted when the "
            "engine ran dry (liveness)"]
