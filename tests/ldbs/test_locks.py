"""Tests for the shared/exclusive lock manager."""

import pytest

from repro.errors import LockError
from repro.ldbs.locks import LockManager, LockMode


class TestBasicGrants:
    def test_x_lock_granted_on_free_resource(self):
        locks = LockManager()
        assert locks.acquire("A", "X", LockMode.X)
        assert locks.mode_held("A", "X") is LockMode.X

    def test_s_locks_share(self):
        locks = LockManager()
        assert locks.acquire("A", "X", LockMode.S)
        assert locks.acquire("B", "X", LockMode.S)
        assert set(locks.holders("X")) == {"A", "B"}

    def test_x_blocks_s(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        assert not locks.acquire("B", "X", LockMode.S)
        assert locks.waiters("X") == ("B",)

    def test_s_blocks_x(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.S)
        assert not locks.acquire("B", "X", LockMode.X)

    def test_reacquire_same_mode_is_noop_grant(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.S)
        assert locks.acquire("A", "X", LockMode.S)

    def test_s_request_while_holding_x_is_satisfied(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        assert locks.acquire("A", "X", LockMode.S)
        assert locks.mode_held("A", "X") is LockMode.X

    def test_duplicate_queued_request_raises(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("B", "X", LockMode.X)
        with pytest.raises(LockError):
            locks.acquire("B", "X", LockMode.X)

    def test_independent_resources_do_not_interact(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        assert locks.acquire("B", "Y", LockMode.X)


class TestQueueDiscipline:
    def test_release_grants_next_in_fifo(self):
        locks = LockManager()
        granted = []
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("B", "X", LockMode.X,
                      on_grant=lambda t, r: granted.append(t))
        locks.acquire("C", "X", LockMode.X,
                      on_grant=lambda t, r: granted.append(t))
        locks.release("A", "X")
        assert granted == ["B"]
        locks.release("B", "X")
        assert granted == ["B", "C"]

    def test_release_grants_batch_of_compatible_readers(self):
        locks = LockManager()
        granted = []
        locks.acquire("W", "X", LockMode.X)
        for reader in ("R1", "R2", "R3"):
            locks.acquire(reader, "X", LockMode.S,
                          on_grant=lambda t, r: granted.append(t))
        locks.release("W", "X")
        assert granted == ["R1", "R2", "R3"]

    def test_no_queue_jumping_past_blocked_writer(self):
        locks = LockManager()
        locks.acquire("R1", "X", LockMode.S)
        locks.acquire("W", "X", LockMode.X)   # queued behind R1
        # a fresh reader must NOT overtake the queued writer
        assert not locks.acquire("R2", "X", LockMode.S)
        assert locks.waiters("X") == ("W", "R2")

    def test_writer_granted_then_queued_reader(self):
        locks = LockManager()
        granted = []
        locks.acquire("R1", "X", LockMode.S)
        locks.acquire("W", "X", LockMode.X,
                      on_grant=lambda t, r: granted.append(t))
        locks.acquire("R2", "X", LockMode.S,
                      on_grant=lambda t, r: granted.append(t))
        locks.release("R1", "X")
        assert granted == ["W"]
        locks.release("W", "X")
        assert granted == ["W", "R2"]


class TestUpgrades:
    def test_upgrade_sole_holder_immediate(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.S)
        assert locks.acquire("A", "X", LockMode.X)
        assert locks.mode_held("A", "X") is LockMode.X

    def test_upgrade_waits_for_other_readers(self):
        locks = LockManager()
        granted = []
        locks.acquire("A", "X", LockMode.S)
        locks.acquire("B", "X", LockMode.S)
        assert not locks.acquire("A", "X", LockMode.X,
                                 on_grant=lambda t, r: granted.append(t))
        locks.release("B", "X")
        assert granted == ["A"]
        assert locks.mode_held("A", "X") is LockMode.X

    def test_upgrade_takes_precedence_over_queued_writers(self):
        locks = LockManager()
        granted = []
        locks.acquire("A", "X", LockMode.S)
        locks.acquire("B", "X", LockMode.S)
        locks.acquire("W", "X", LockMode.X,
                      on_grant=lambda t, r: granted.append(("W", r)))
        locks.acquire("A", "X", LockMode.X,
                      on_grant=lambda t, r: granted.append(("A", r)))
        locks.release("B", "X")
        assert granted[0] == ("A", "X")

    def test_unsupported_downgrade_raises(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        # X -> S handled as no-op; only S -> X is an upgrade; other
        # combinations cannot occur, so nothing raises here.
        assert locks.acquire("A", "X", LockMode.S)

    def test_double_upgrade_request_raises(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.S)
        locks.acquire("B", "X", LockMode.S)
        locks.acquire("A", "X", LockMode.X)
        with pytest.raises(LockError):
            locks.acquire("A", "X", LockMode.X)


class TestRelease:
    def test_release_unheld_raises(self):
        with pytest.raises(LockError):
            LockManager().release("A", "X")

    def test_release_all_returns_resources(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("A", "Y", LockMode.S)
        released = locks.release_all("A")
        assert set(released) == {"X", "Y"}
        assert locks.holders("X") == {}

    def test_release_all_cancels_queued_requests(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("B", "X", LockMode.X)
        locks.release_all("B")
        assert locks.waiters("X") == ()

    def test_release_all_pumps_waiters(self):
        locks = LockManager()
        granted = []
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("B", "X", LockMode.X,
                      on_grant=lambda t, r: granted.append(t))
        locks.release_all("A")
        assert granted == ["B"]

    def test_cancel_request(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("B", "X", LockMode.X)
        assert locks.cancel_request("B", "X")
        assert locks.waiters("X") == ()
        assert not locks.cancel_request("B", "X")

    def test_cancel_unblocks_queue_behind(self):
        locks = LockManager()
        granted = []
        locks.acquire("R", "X", LockMode.S)
        locks.acquire("W", "X", LockMode.X)
        locks.acquire("R2", "X", LockMode.S,
                      on_grant=lambda t, r: granted.append(t))
        locks.cancel_request("W", "X")
        assert granted == ["R2"]


class TestBlockers:
    def test_blockers_are_incompatible_holders(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("B", "X", LockMode.S)
        assert locks.blockers_of("B", "X") == ("A",)

    def test_blockers_include_queued_ahead(self):
        locks = LockManager()
        locks.acquire("R", "X", LockMode.S)
        locks.acquire("W", "X", LockMode.X)
        locks.acquire("R2", "X", LockMode.S)
        assert set(locks.blockers_of("R2", "X")) == {"W"}

    def test_blockers_of_non_waiter_is_empty(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        assert locks.blockers_of("A", "X") == ()

    def test_resources_held_by(self):
        locks = LockManager()
        locks.acquire("A", "X", LockMode.X)
        locks.acquire("A", "Y", LockMode.S)
        assert set(locks.resources_held_by("A")) == {"X", "Y"}


class TestUncontendedAcquire:
    """The one path every SST row takes: a lock nobody holds or awaits
    is granted with one slotted state and no queued-request object."""

    def test_builds_no_request(self, monkeypatch):
        from repro.ldbs import locks as locks_module

        built = []

        class CountedRequest(locks_module.LockRequest):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(locks_module, "LockRequest", CountedRequest)
        locks = LockManager()
        assert locks.acquire("A", ("t", 1), LockMode.X)
        assert locks.acquire("A", ("t", 2), LockMode.S)
        assert locks.acquire("B", ("t", 2), LockMode.S)  # shares, no wait
        assert built == []
        state = locks._resources[("t", 1)]
        assert not hasattr(state, "__dict__")
        assert state.holders == {"A": LockMode.X} and state.queue == []
        # a request that has to wait is still queued as one
        assert not locks.acquire("C", ("t", 1), LockMode.S)
        assert built == ["C"]

    def test_release_all_without_waiters_forgets_the_resources(self):
        locks = LockManager()
        locks.acquire("A", ("t", 1), LockMode.X)
        locks.acquire("A", ("t", 2), LockMode.S)
        locks.acquire("B", ("t", 2), LockMode.S)
        assert locks.release_all("A") == (("t", 1), ("t", 2))
        assert list(locks._resources) == [("t", 2)]
        assert locks.holders(("t", 2)) == {"B": LockMode.S}
        assert locks.release_all("B") == (("t", 2),)
        assert locks._resources == {}
