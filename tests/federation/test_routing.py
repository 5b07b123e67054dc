"""Property tests for object-to-partition routing (federation satellite).

The federation's correctness argument starts with the partition: one
partition's commit sequence orders *all* committed state of an object.
These tests pin that the crc32 routing is total (every name lands on
exactly one partition), stable across router instances and equal to the
raw formula every committed digest depends on, and that the one
:class:`~repro.core.admission.LockTable` iterates in registration order
for any shard count — what keeps reports and final-value dumps
byte-stable.
"""

import random
import zlib

import pytest

from repro.core.admission import LockTable
from repro.core.gtm import GTMConfig
from repro.core.opclass import add
from repro.errors import GTMError
from repro.federation import build_transaction_manager
from repro.federation.routing import ObjectRouter

SHARD_COUNTS = (1, 2, 3, 4, 8)


def _names(count, seed):
    rng = random.Random(seed)
    return [f"obj-{rng.randrange(10 ** 6):06d}-{index}"
            for index in range(count)]


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_every_object_routes_to_exactly_one_shard(shard_count):
    """The partition is disjoint and complete: each registered object
    lives once in the kernel's one lock table, owns one version ring,
    and a commit on it lands in exactly its partition's log."""
    names = _names(64, seed=11)
    manager = build_transaction_manager(GTMConfig(gtm_shards=shard_count))
    for name in names:
        manager.create_object(name, value=1)
    assert type(manager.lock_table) is LockTable
    assert len(manager.lock_table) == len(names)
    assert set(manager.versions.rings) == set(names)
    for index, name in enumerate(names):
        txn_id = f"t{index}"
        manager.begin(txn_id)
        manager.invoke(txn_id, name, add(1))
        manager.apply(txn_id, name, add(1))
        manager.request_commit(txn_id)
        owners = [shard for shard, log
                  in enumerate(manager.certifier.commit_logs)
                  if any(entry.txn_id == txn_id for entry in log)]
        assert owners == [manager.router.index_of(name)]
    assert sum(manager.certifier.shard_csn) == len(names)


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_routing_is_stable_and_matches_the_lock_table_scheme(shard_count):
    """Two routers agree with each other and with the raw crc32 formula
    — the scheme every committed federation digest depends on."""
    first = ObjectRouter(shard_count)
    second = ObjectRouter(shard_count)
    for name in _names(100, seed=23):
        expected = zlib.crc32(name.encode("utf-8")) % shard_count
        assert first.index_of(name) == expected
        assert second.index_of(name) == expected


def test_iteration_follows_registration_order_for_any_shard_count():
    """Directory iteration (and the ``objects`` view) is the
    registration order, identically for every shard count."""
    names = _names(48, seed=5)
    random.Random(7).shuffle(names)
    for shard_count in SHARD_COUNTS:
        manager = build_transaction_manager(
            GTMConfig(gtm_shards=shard_count))
        for name in names:
            manager.create_object(name, value=0)
        assert [obj.name for obj in manager.lock_table.values()] == names
        assert list(manager.objects) == names


def test_duplicate_registration_is_rejected():
    manager = build_transaction_manager(GTMConfig(gtm_shards=4))
    manager.create_object("x", value=1)
    with pytest.raises(GTMError):
        manager.create_object("x", value=2)


def test_invalid_shard_configurations_are_rejected():
    with pytest.raises(GTMError):
        ObjectRouter(0)
    with pytest.raises(GTMError):
        ObjectRouter(-2)
