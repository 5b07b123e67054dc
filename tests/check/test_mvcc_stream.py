"""The MVCC manager's schedule on the read-heavy mix, pinned as a digest.

SHA-256 over the per-episode outcome digests (trace, permanent state,
commit-order witness) of 200 fuzz episodes at seed 42 on the perf
harness's read-heavy mix under ``GTMConfig(mvcc_reads=True)``.  The
value was recorded on commit 88b2c10, while commit sequence numbers were
still kept per object partition; ``mvcc_reads`` alone implied one
partition there, and the 2-, 4- and 8-partition streams were the same —
the digest does not cover the values READs return, which is where the
partitions differed (``tests/core/test_mvcc_snapshot.py``).
"""

import hashlib

from repro.bench.perf import READ_HEAVY_MIX, _episode_digest
from repro.check.differential import _gtm_variant_scheduler
from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode

SEED = 42
EPISODES = 200
GOLDEN = "a931633381eb52f377c03682ea80f02660963a404317e8171d57496da186d5e7"


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
