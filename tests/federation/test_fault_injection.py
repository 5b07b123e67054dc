"""Fault injection: break the certifier, watch the oracle object.

The same break-the-protocol-on-purpose method as the late-grant
control of the admission layer: flip the one seam the certifier
exposes (``validate_promotions=False`` skips the snapshot-promotion
order check and nothing else) and prove the final-state
serializability oracle catches the resulting anomaly within a bounded
fuzz budget.  The anomaly mechanism is precise — a transaction reads a
hot object lock-free, another transaction's commit supersedes the
pinned snapshot, and the reader's write is then granted anyway, so its
virtual copy chains off a stale image while reconciliation runs
against the new one.  The control leg replays the *same* episode specs
with the check intact: every episode stays serializable, and the
nonzero rejection count proves the check is load-bearing rather than
vacuous.
"""

import pytest

from repro.check.fuzzer import FuzzConfig, episode_workload, \
    generate_episode
from repro.check.oracle import check_episode, record_gtm
from repro.core.gtm import GTMConfig
from repro.core.mvcc import CommitmentOrderCertifier
from repro.schedulers.gtm_scheduler import GTMScheduler, \
    GTMSchedulerConfig

#: One hot multi-member object, short read-heavy transactions, dense
#: arrivals: maximizes read-then-write promotions racing commits.
CONFIG = FuzzConfig(scheduler="gtm", max_objects=1, max_txns=8,
                    max_ops_per_txn=3, p_multi_member=1.0, p_read=0.5,
                    p_assign=0.0, p_skip_apply=0.0, p_outage=0.0,
                    p_wait_timeout=0.0, arrival_spread=1.0)
SEED = 424242
#: The ISSUE's budget; seed 424242 actually catches at episode 0.
MAX_EPISODES = 200
CONTROL_EPISODES = 60


def _run_episode(index):
    spec = generate_episode(CONFIG, SEED, index)
    scheduler = GTMScheduler(GTMSchedulerConfig(
        gtm_config=GTMConfig(mvcc_reads=True),
        wait_timeout=spec.wait_timeout))
    scheduler.run(episode_workload(spec))
    return scheduler.last_gtm


@pytest.fixture
def broken_certifier(monkeypatch):
    """Disable promotion validation in every certifier built below."""
    original = CommitmentOrderCertifier.__init__

    def sabotaged(self, validate_promotions=True):
        original(self, validate_promotions=False)

    monkeypatch.setattr(CommitmentOrderCertifier, "__init__", sabotaged)


def test_oracle_catches_the_broken_certifier(broken_certifier):
    """Skipping the promotion order check must externalize a final
    state no serial order explains, within ≤200 fuzz episodes."""
    for index in range(MAX_EPISODES):
        gtm = _run_episode(index)
        assert not gtm.certifier.validate_promotions  # seam is active
        report = check_episode(record_gtm(gtm))
        if not report.serializable:
            assert report.committed > 1
            return
    pytest.fail(f"oracle saw {MAX_EPISODES} episodes with the broken "
                f"certifier and never flagged one as non-serializable")


def test_intact_certifier_control_stays_serializable():
    """The control leg: the same episode specs, the check left on —
    every episode serializable, and the certifier demonstrably firing
    (it rejects stale promotions the broken leg waves through)."""
    rejections = 0
    for index in range(CONTROL_EPISODES):
        gtm = _run_episode(index)
        rejections += gtm.certifier.promotions_rejected
        report = check_episode(record_gtm(gtm))
        assert report.serializable, (
            f"episode {index} (seed {SEED}) not serializable with the "
            f"certifier intact")
    assert rejections > 0
