"""Multi-version permanent state: ring semantics the MVCC path rests on.

The MVCC manager's lock-free READ serves ``ring.as_of(pin)`` — these
tests pin the ring's csn monotonicity, bounded retention (the
snapshot-too-old trade), the as-of lookup, and the
:class:`VersionStore` seeding/publication discipline.
"""

import pytest

from repro.errors import GTMError, SnapshotTooOld
from repro.ldbs.versions import Version, VersionRing, VersionStore


def test_version_copies_its_values():
    values = {"value": 1}
    version = Version(3, values)
    values["value"] = 99
    assert version.values == {"value": 1}
    assert version.csn == 3 and version.exists


def test_ring_requires_monotonic_csns():
    ring = VersionRing("x", capacity=4)
    ring.append(Version(1, {"value": 1}))
    with pytest.raises(GTMError):
        ring.append(Version(1, {"value": 2}))
    with pytest.raises(GTMError):
        ring.append(Version(0, {"value": 2}))
    assert ring.latest().csn == 1


def test_ring_evicts_oldest_past_capacity():
    ring = VersionRing("x", capacity=2)
    for csn in (1, 2, 3):
        ring.append(Version(csn, {"value": csn}))
    assert [version.csn for version in ring] == [2, 3]
    assert len(ring) == 2


def test_as_of_returns_newest_at_or_below_the_pin():
    ring = VersionRing("x", capacity=8)
    for csn in (0, 2, 5):
        ring.append(Version(csn, {"value": csn}))
    assert ring.as_of(0).csn == 0
    assert ring.as_of(1).csn == 0
    assert ring.as_of(2).csn == 2
    assert ring.as_of(4).csn == 2
    assert ring.as_of(99).csn == 5


def test_as_of_raises_snapshot_too_old_past_retention():
    ring = VersionRing("x", capacity=1)
    ring.append(Version(0, {"value": 0}))
    ring.append(Version(2, {"value": 2}))  # evicts csn 0
    with pytest.raises(SnapshotTooOld) as excinfo:
        ring.as_of(1)
    error = excinfo.value
    assert error.object_name == "x"
    assert error.csn == 1
    assert error.oldest == 2


def test_empty_ring_latest_raises():
    with pytest.raises(GTMError):
        VersionRing("x").latest()
    with pytest.raises(GTMError):
        VersionRing("x", capacity=0)


def test_store_seeds_at_csn_zero_and_publishes_commits():
    store = VersionStore(capacity=4)
    store.seed("x", {"value": 10})
    store.publish("x", 1, {"value": 15})
    ring = store.ring("x")
    assert [version.csn for version in ring] == [0, 1]
    assert ring.latest().values == {"value": 15}


def test_store_rejects_double_seed_and_unknown_objects():
    store = VersionStore()
    store.seed("x", {"value": 1})
    with pytest.raises(GTMError):
        store.seed("x", {"value": 2})
    with pytest.raises(GTMError):
        store.ring("y")
