"""Tests for the EventBus: fan-out multiplexing and exception isolation."""

import pytest

from repro.core.events import EventBus, GTMObserver
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign
from repro.core.states import TransactionState

_S = TransactionState


class Recorder(GTMObserver):
    def __init__(self):
        self.events = []

    def on_begin(self, txn, now):
        self.events.append(("begin", txn.txn_id))

    def on_grant(self, txn, obj, invocation, now):
        self.events.append(("grant", txn.txn_id, obj.name))

    def on_global_commit(self, txn, now):
        self.events.append(("commit", txn.txn_id))

    def on_global_abort(self, txn, now, reason):
        self.events.append(("abort", txn.txn_id, reason))


class Exploder(GTMObserver):
    """Raises from every hook it overrides."""

    def on_begin(self, txn, now):
        raise RuntimeError("begin boom")

    def on_grant(self, txn, obj, invocation, now):
        raise RuntimeError("grant boom")

    def on_global_commit(self, txn, now):
        raise RuntimeError("commit boom")


class TestFanOut:
    def test_all_subscribers_receive_every_event(self):
        first, second = Recorder(), Recorder()
        gtm = GlobalTransactionManager(observer=first)
        gtm.subscribe(second)
        gtm.create_object("X", value=10)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.apply("A", "X", add(1))
        gtm.request_commit("A")
        assert first.events == second.events
        assert ("commit", "A") in first.events

    def test_unsubscribe_stops_delivery(self):
        recorder = Recorder()
        bus = EventBus([recorder])
        gtm = GlobalTransactionManager()
        gtm.bus.subscribe(recorder)
        gtm.create_object("X", value=10)
        gtm.begin("A")
        gtm.bus.unsubscribe(recorder)
        gtm.begin("B")
        assert ("begin", "A") in recorder.events
        assert ("begin", "B") not in recorder.events
        assert bus.observers() == (recorder,)

    def test_subscribers_called_in_subscription_order(self):
        order = []

        class Tagged(GTMObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_begin(self, txn, now):
                order.append(self.tag)

        bus = EventBus([Tagged("first"), Tagged("second")])
        bus.on_begin(None, 0.0)
        assert order == ["first", "second"]


class TestChangesDuringDispatch:
    """Subscribe or unsubscribe from inside a hook: the event in flight
    finishes on the handler list it started with, the change takes
    effect from the next event.  (``subscribe`` used to append to the
    live list, so a late subscriber also heard the event that was
    being delivered when it subscribed.)"""

    class Latecomer(GTMObserver):
        def __init__(self):
            self.begins = []

        def on_begin(self, txn, now):
            self.begins.append(txn)

    def test_subscribe_in_a_hook_takes_effect_from_the_next_event(self):
        latecomer = self.Latecomer()

        class Inviter(GTMObserver):
            def on_begin(self, txn, now):
                if txn == "first":
                    bus.subscribe(latecomer)

        bus = EventBus([Inviter()])
        bus.on_begin("first", 0.0)
        assert latecomer.begins == []
        bus.on_begin("second", 1.0)
        assert latecomer.begins == ["second"]

    def test_unsubscribe_in_a_hook_takes_effect_from_the_next_event(self):
        victim = self.Latecomer()

        class Bouncer(GTMObserver):
            def on_begin(self, txn, now):
                bus.unsubscribe(victim)

        bus = EventBus([Bouncer(), victim])
        bus.on_begin("first", 0.0)
        assert victim.begins == ["first"]
        bus.on_begin("second", 1.0)
        assert victim.begins == ["first"]
        assert bus.errors == []

    def test_subscribe_inside_a_facade_call(self):
        """The same rule through the kernel: a recorder attached from
        ``on_grant`` hears nothing of the invoke that attached it."""
        recorder = Recorder()

        class Inviter(GTMObserver):
            def on_grant(self, txn, obj, invocation, now):
                if recorder not in gtm.bus.observers():
                    gtm.subscribe(recorder)

        gtm = GlobalTransactionManager(observer=Inviter())
        gtm.create_object("X", value=10)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        assert recorder.events == []
        gtm.apply("A", "X", add(1))
        gtm.request_commit("A")
        assert recorder.events == [("commit", "A")]


class TestExceptionIsolation:
    """A raising observer must not corrupt GTM state (satellite fix)."""

    def test_raising_observer_does_not_break_protocol(self):
        exploder = Exploder()
        recorder = Recorder()
        gtm = GlobalTransactionManager(observer=exploder)
        gtm.subscribe(recorder)
        gtm.create_object("X", value=10)
        gtm.begin("A")
        gtm.invoke("A", "X", add(5))
        gtm.apply("A", "X", add(5))
        gtm.request_commit("A")
        # the protocol completed despite the exploding observer...
        assert gtm.transaction("A").state is _S.COMMITTED
        assert gtm.object("X").permanent_value() == 15
        # ...later observers still got the stream...
        assert ("commit", "A") in recorder.events
        # ...and the failures were recorded, not swallowed silently.
        hooks = {error.hook for error in gtm.bus.errors}
        assert {"on_begin", "on_grant", "on_global_commit"} <= hooks

    def test_state_consistent_for_concurrent_txns_with_bad_observer(self):
        gtm = GlobalTransactionManager(observer=Exploder())
        gtm.create_object("X", value=100)
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))   # queued behind A
        gtm.apply("A", "X", assign(1))
        gtm.request_commit("A")
        # the unlock pump ran even though on_grant raised mid-pump
        assert gtm.object("X").is_pending("B")
        assert gtm.transaction("B").state is _S.ACTIVE
        gtm.check_invariants()

    def test_on_error_callback_invoked(self):
        seen = []
        bus = EventBus([Exploder()], on_error=seen.append)
        bus.on_begin(None, 0.0)
        assert len(seen) == 1
        assert seen[0].hook == "on_begin"
        assert isinstance(seen[0].error, RuntimeError)

    def test_plain_gtm_rejects_nothing_without_observers(self):
        bus = EventBus()
        bus.on_begin(None, 0.0)   # no subscribers: a no-op
        assert bus.errors == []

    def test_keyboard_interrupt_not_swallowed(self):
        class Interrupter(GTMObserver):
            def on_begin(self, txn, now):
                raise KeyboardInterrupt

        bus = EventBus([Interrupter()])
        with pytest.raises(KeyboardInterrupt):
            bus.on_begin(None, 0.0)
