"""Memory ceiling for the GTM hot path.

Not a paper artifact.  **tracemalloc peak per warm episode** of the
hotspot mix (48 transactions on one object) stays under a loose
absolute ceiling.  Peak traced memory is churn-insensitive
(alloc/free pairs reuse blocks without raising the high-water mark), so
it says nothing about how many records an episode builds; it nets out
gross regressions such as an accidentally retained per-event structure.
"""

import gc
import tracemalloc

from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.check.runner import build_scheduler

#: Peak traced KiB observed per warm hotspot episode is ~122; the
#: ceiling leaves ~60% headroom for platform variance while still
#: catching a leaked per-event retention.
PEAK_KIB_CEILING = 192.0

_CONFIG = FuzzConfig(scheduler="gtm", max_objects=1, max_txns=48,
                     max_ops_per_txn=6, arrival_spread=1.0,
                     p_outage=0.1, p_wait_timeout=0.0)


def _run_episode(spec):
    build_scheduler(spec).run(episode_workload(spec))


def test_tracemalloc_peak_per_episode_within_ceiling():
    spec = generate_episode(_CONFIG, 2008, 0)
    for _ in range(2):  # warm imports and caches
        _run_episode(spec)
    gc.collect()
    tracemalloc.start()
    try:
        _run_episode(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_kib = peak / 1024.0
    assert peak_kib <= PEAK_KIB_CEILING, (
        f"peak traced memory {peak_kib:.1f} KiB per episode exceeds "
        f"the {PEAK_KIB_CEILING} KiB ceiling")
