"""The MVCC manager on the read-heavy mix: its schedule and its gain.

The stream: SHA-256 over the per-episode outcome digests (trace,
permanent state, commit-order witness) of 200 fuzz episodes at seed 42
on the read-heavy mix under ``GTMConfig(mvcc_reads=True)``.  The value
was recorded on commit 88b2c10, while commit sequence numbers were
still kept per object partition; ``mvcc_reads`` alone implied one
partition there, and the 2-, 4- and 8-partition streams were the same —
the digest does not cover the values READs return, which is where the
partitions differed (``tests/core/test_mvcc_snapshot.py``).

The gain: on the 10 read-heavy episodes at seed 2008, lock-free READs
must finish in less *simulated* time than locking READs (READs never
park in the wait queue).  Makespan is read off the virtual clock, so the
gate is exact and needs no wall clock.
"""

import hashlib
import json

import pytest

from repro.check.differential import MVCC_VARIANTS, _gtm_variant_scheduler
from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.metrics.trace import episode_trace

#: FuzzConfig overrides of the read-heavy mix — the one mix where the
#: READ path decides the schedule.
READ_HEAVY_MIX = {
    "max_objects": 4, "max_txns": 24, "max_ops_per_txn": 3,
    "p_read": 0.85, "arrival_spread": 2.0, "p_outage": 0.0,
    "p_wait_timeout": 0.0}

SEED = 42
EPISODES = 200
GOLDEN = "a931633381eb52f377c03682ea80f02660963a404317e8171d57496da186d5e7"


def _episode_digest(scheduler, result):
    """Canonical SHA-256 of one episode run's observable outcome."""
    gtm = scheduler.last_gtm
    payload = {
        "trace": episode_trace(result),
        "permanent": {name: {"exists": obj.exists,
                             "members": dict(obj.permanent)}
                      for name, obj in gtm.objects.items()},
        "witness": list(gtm.history.commit_order),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_read_heavy_mvcc_stream_is_unchanged():
    config = FuzzConfig(**READ_HEAVY_MIX)
    rolling = hashlib.sha256()
    for index in range(EPISODES):
        spec = generate_episode(config, SEED, index)
        scheduler = _gtm_variant_scheduler(spec, {"mvcc_reads": True})
        result = scheduler.run(episode_workload(spec))
        rolling.update(
            f"{index}|{_episode_digest(scheduler, result)}\n".encode())
    assert rolling.hexdigest() == GOLDEN


def test_lock_free_reads_finish_the_read_heavy_mix_sooner():
    config = FuzzConfig(**READ_HEAVY_MIX)
    specs = [generate_episode(config, 2008, index) for index in range(10)]
    makespan, served = {}, {}
    for label, overrides in MVCC_VARIANTS:
        makespan[label] = served[label] = 0
        for spec in specs:
            scheduler = _gtm_variant_scheduler(spec, overrides)
            makespan[label] += scheduler.run(
                episode_workload(spec)).stats.makespan
            certifier = getattr(scheduler.last_gtm, "certifier", None)
            if certifier is not None:
                served[label] += certifier.reads_served
    assert served == {"monolith": 0, "mvcc": 253}
    assert makespan["mvcc"] == pytest.approx(43.861, abs=5e-4)
    assert makespan["monolith"] == pytest.approx(44.371, abs=5e-4)
    assert makespan["mvcc"] < makespan["monolith"]
