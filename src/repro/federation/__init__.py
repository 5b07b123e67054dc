"""Object-partitioned GTM federation (see docs/PERFORMANCE.md §10).

There is one transaction manager:
:class:`~repro.core.gtm.GlobalTransactionManager` runs Algorithms 1-11
over one lock table, admission controller, commit pipeline and sleep
manager.  A federation is that kernel plus state
keyed by object *partition*: per-partition commit-order logs under a
commitment-ordering certifier, and the version rings that serve the
READ class lock-free (``GTMConfig.mvcc_reads``).

Module map:

- :mod:`~repro.federation.routing` — stable crc32 object partitioning;
- :mod:`~repro.federation.certifier` — per-partition commit-order logs,
  snapshot pins, the promotion order check and the inversion audit;
- :mod:`~repro.federation.manager` — the kernel subclass that wires them.

Every construction site (schedulers, the check harness, the bench
harness, the live service) goes through
:func:`build_transaction_manager`, which keeps ``GTMConfig`` the single
switch: ``gtm_shards=0`` (the default) returns the monolith unchanged.
"""

from __future__ import annotations

from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.federation.certifier import CommitLogEntry, CommitmentOrderCertifier
from repro.federation.manager import FederatedTransactionManager
from repro.federation.routing import ObjectRouter

__all__ = [
    "CommitLogEntry",
    "CommitmentOrderCertifier",
    "FederatedTransactionManager",
    "ObjectRouter",
    "build_transaction_manager",
]


def build_transaction_manager(
        config=None, clock=None, sst_executor=None, observer=None
) -> GlobalTransactionManager:
    """The one construction seam for monolith vs. federation.

    ``GTMConfig(gtm_shards=0, mvcc_reads=False)`` — the default —
    returns the plain :class:`GlobalTransactionManager`; any shard
    count >= 1 (or ``mvcc_reads=True``, which implies one shard)
    returns its federated subclass.
    """
    config = config or GTMConfig()
    cls = (GlobalTransactionManager
           if config.gtm_shards <= 0 and not config.mvcc_reads
           else FederatedTransactionManager)
    return cls(config=config, clock=clock, sst_executor=sst_executor,
               observer=observer)
