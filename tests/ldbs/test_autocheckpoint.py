"""The memory backend bounds the engine's WAL by checkpointing it.

Nothing else ever truncates the in-memory engine's log, so a service
that commits for hours would retain its whole write history.  The
backend takes the engine's quiesced checkpoint whenever a transaction
finishes with ``WAL_AUTOCHECKPOINT`` records logged and nothing open.
"""

import sys

import pytest

from repro.ldbs import backend as backend_module
from repro.ldbs.backend import WAL_AUTOCHECKPOINT, MemoryBackend
from repro.ldbs.schema import Column, ColumnType, TableSchema

OBJECTS = 32


def make_backend() -> MemoryBackend:
    backend = MemoryBackend()
    backend.create_table(TableSchema(
        "gtm_objects",
        (Column("name", ColumnType.TEXT),
         Column("value", ColumnType.FLOAT, nullable=True)),
        primary_key="name"))
    backend.seed("gtm_objects", [{"name": f"o{index}", "value": 0.0}
                                 for index in range(OBJECTS)])
    return backend


def run_ssts(backend: MemoryBackend, count: int, start: int = 0) -> None:
    """``count`` commits shaped like an SST: probe, write two rows."""
    for serial in range(start, start + count):
        with backend.begin(f"sst:t{serial}#1", write=True) as txn:
            for offset in (0, 7):
                name = f"o{(serial + offset) % OBJECTS}"
                assert txn.has_key("gtm_objects", name)
                txn.update_by_key("gtm_objects", name,
                                  {"value": float(serial)})
        if serial % 10 == 9:  # and one in ten more rolls back
            rolled_back = backend.begin(f"sst:t{serial}#2", write=True)
            rolled_back.update_by_key("gtm_objects", "o0", {"value": -1.0})
            rolled_back.abort()


def test_ten_thousand_commits_keep_the_wal_bounded():
    backend = make_backend()
    wal = backend.database.wal
    longest = 0
    for batch in range(100):
        run_ssts(backend, 100, start=batch * 100)
        longest = max(longest, len(wal))
    # one transaction's records past the threshold at the very most
    assert longest < WAL_AUTOCHECKPOINT + 10
    assert len(wal._finished) <= WAL_AUTOCHECKPOINT
    assert backend.database.commits >= 10_000


def test_no_checkpoint_while_another_transaction_is_open():
    backend = make_backend()
    holder = backend.begin("holder")
    run_ssts(backend, WAL_AUTOCHECKPOINT)  # needs no lock the holder has
    assert len(backend.database.wal) > WAL_AUTOCHECKPOINT
    holder.commit()  # the quiescent moment
    assert len(backend.database.wal) == 0


def test_seeding_counts_towards_the_threshold():
    backend = make_backend()
    for index in range(WAL_AUTOCHECKPOINT):
        backend.seed("gtm_objects", [{"name": f"s{index}", "value": 1.0}])
    assert len(backend.database.wal) < WAL_AUTOCHECKPOINT


@pytest.mark.parametrize("commits", [400, 1234])
def test_crash_recovers_what_an_uncheckpointed_twin_does(
        commits, monkeypatch):
    checkpointed = make_backend()
    run_ssts(checkpointed, commits)
    monkeypatch.setattr(backend_module, "WAL_AUTOCHECKPOINT", sys.maxsize)
    twin = make_backend()
    run_ssts(twin, commits)
    assert len(twin.database.wal) > len(checkpointed.database.wal)

    # an SST caught mid-flight by the crash is lost on both
    for backend in (checkpointed, twin):
        loser = backend.begin("sst:loser#1", write=True)
        loser.update_by_key("gtm_objects", "o3", {"value": -5.0})
    before = twin.dump()
    assert checkpointed.dump() == before
    checkpointed.crash()
    twin.crash()
    assert checkpointed.dump() == twin.dump()
    assert twin.dump()["gtm_objects"]["o3"]["value"] != -5.0
