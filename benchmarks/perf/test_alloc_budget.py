"""Allocation budget for the GTM hot path.

Not a paper artifact — this pins the allocation-free-hot-path work so it
cannot silently regress.  Two gates:

1. **Fresh hot-record constructions per warm episode <= 50% of the
   pre-optimisation count.**  Before the pools/batching landed, the
   same four contended episodes constructed on average ~119 hot records
   each (≈7 ``WaitEntry`` + ≈112 ``ScheduledEvent``, measured by
   instrumenting ``__new__`` on the pre-optimisation tree at seed
   2008).  With the per-process free lists warm, recycled records
   replace most of those constructions; the remainder is dominated by
   persistent (non-transient) event handles whose callers keep a
   cancellation handle and therefore must not be pooled.  Construction
   counts at a fixed seed are deterministic, so the 50% bound is
   noise-free; extra pool warmth from earlier tests can only lower the
   count.

2. **tracemalloc peak per warm episode** stays under a loose absolute
   ceiling.  Peak traced memory is churn-insensitive (alloc/free pairs
   reuse blocks without raising the high-water mark) so it cannot
   express the 50% goal, but it nets out gross regressions such as an
   accidentally retained per-event structure.
"""

import gc
import tracemalloc

from repro.check.differential import _gtm_variant_scheduler
from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.core.objects import _WAIT_ENTRY_POOL, WaitEntry
from repro.sim.engine import _EVENT_POOL, ScheduledEvent

#: Average fresh constructions per episode on the pre-optimisation tree
#: (instrumented measurement, see module docstring).
PRE_OPTIMISATION_CONSTRUCTIONS = 119.2

#: Peak traced KiB observed per warm hotspot episode is ~122; the
#: ceiling leaves ~60% headroom for platform variance while still
#: catching a leaked per-event retention.
PEAK_KIB_CEILING = 192.0

_CONFIG = FuzzConfig(scheduler="gtm", max_objects=1, max_txns=48,
                     max_ops_per_txn=6, arrival_spread=1.0,
                     p_outage=0.1, p_wait_timeout=0.0)
_EPISODES = 4


def _run_episode(spec):
    scheduler = _gtm_variant_scheduler(
        spec, {"conflict_engine": "bitmask"}, False)
    scheduler.run(episode_workload(spec))


def test_hot_record_constructions_halved_vs_pre_optimisation():
    """Counts every fresh hot record: pool misses surface in the free
    lists' ``created`` telemetry, and records built around the pools
    (non-transient event handles, direct constructions) are counted by
    patching ``__init__`` — which pooled acquires never call.
    (``__new__`` cannot be patched-and-restored: CPython leaves
    ``tp_new`` on the Python-level dispatcher after the delete, which
    breaks later plain constructions.)"""
    specs = [generate_episode(_CONFIG, 2008, index)
             for index in range(_EPISODES)]
    for spec in specs:  # warm the per-process pools
        _run_episode(spec)

    counts = {"constructions": 0}

    def counting(original):
        def patched(self, *args, **kwargs):
            counts["constructions"] += 1
            return original(self, *args, **kwargs)
        return patched

    wait_init, event_init = WaitEntry.__init__, ScheduledEvent.__init__
    WaitEntry.__init__ = counting(wait_init)
    ScheduledEvent.__init__ = counting(event_init)
    pool_created = _WAIT_ENTRY_POOL.created + _EVENT_POOL.created
    try:
        for spec in specs:
            _run_episode(spec)
    finally:
        WaitEntry.__init__ = wait_init
        ScheduledEvent.__init__ = event_init
    counts["constructions"] += (_WAIT_ENTRY_POOL.created
                                + _EVENT_POOL.created - pool_created)

    per_episode = counts["constructions"] / _EPISODES
    budget = 0.5 * PRE_OPTIMISATION_CONSTRUCTIONS
    assert per_episode <= budget, (
        f"{per_episode:.1f} fresh hot-record constructions per warm "
        f"episode exceeds the budget of {budget:.1f} "
        f"(50% of the pre-optimisation {PRE_OPTIMISATION_CONSTRUCTIONS})")


def test_tracemalloc_peak_per_episode_within_ceiling():
    spec = generate_episode(_CONFIG, 2008, 0)
    for _ in range(2):  # warm pools, imports, caches
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
