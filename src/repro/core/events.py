"""The GTM's observer stream (paper Section IV).

:class:`GTMObserver` is the hook contract — one hook per thing the GTM
announces while it runs the ⟨...⟩ events of Algorithms 1-11 — and
:class:`EventBus` the fan-out multiplexer that isolates the GTM from
misbehaving observers.  The events themselves have no objects: each is
a method of :class:`~repro.core.gtm.GlobalTransactionManager`
(``docs/PROTOCOL.md`` lists event against method).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.opclass import Invocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.objects import ManagedObject
    from repro.core.transaction import GTMTransaction


class GTMObserver:
    """Hook points for metrics and schedulers.  All no-ops by default."""

    def on_begin(self, txn: "GTMTransaction", now: float) -> None: ...

    def on_grant(self, txn: "GTMTransaction", obj: "ManagedObject",
                 invocation: Invocation, now: float) -> None: ...

    def on_wait(self, txn: "GTMTransaction", obj: "ManagedObject",
                invocation: Invocation, now: float) -> None: ...

    def on_local_commit(self, txn: "GTMTransaction", obj: "ManagedObject",
                        now: float) -> None: ...

    def on_commit_deferred(self, txn: "GTMTransaction", obj: "ManagedObject",
                           now: float) -> None: ...

    def on_global_commit(self, txn: "GTMTransaction", now: float) -> None: ...

    def on_global_abort(self, txn: "GTMTransaction", now: float,
                        reason: str) -> None: ...

    def on_sleep(self, txn: "GTMTransaction", now: float) -> None: ...

    def on_awake(self, txn: "GTMTransaction", now: float,
                 survived: bool) -> None: ...

    def on_unlock(self, obj: "ManagedObject",
                  granted: tuple[str, ...], now: float) -> None: ...

    # -- protocol-episode hooks (observability; no-ops by default) -----
    # These fire *after* the subsystem finished mutating state, carry
    # only already-computed values, and must never be used to steer the
    # protocol: observers are read-only consumers.

    def on_reconcile(self, txn: "GTMTransaction", obj: "ManagedObject",
                     invocation: Invocation, now: float) -> None:
        """One Eq. (1)/(2) reconciliation dispatched at ⟨commit, X, A⟩."""

    def on_revalidate(self, txn: "GTMTransaction", obj: "ManagedObject",
                      conflicted: bool, now: float) -> None:
        """Algorithm 9's conflict predicate evaluated for one object."""

    def on_pump(self, obj: "ManagedObject", examined: int,
                granted: tuple[str, ...], overtakes: int,
                now: float) -> None:
        """One ⟨unlock, X⟩ pump pass over a non-empty wait queue."""

    def on_repolice(self, obj: "ManagedObject", refreshed: int,
                    now: float) -> None:
        """A post-pump wait-for-edge sweep re-derived ``refreshed`` edges."""


@dataclass
class ObserverError:
    """One exception swallowed by the :class:`EventBus`."""

    hook: str
    observer: GTMObserver
    error: Exception


#: Every hook the bus multiplexes, in contract order.
_HOOKS = (
    "on_begin", "on_grant", "on_wait", "on_local_commit",
    "on_commit_deferred", "on_global_commit", "on_global_abort",
    "on_sleep", "on_awake", "on_unlock", "on_reconcile",
    "on_revalidate", "on_pump", "on_repolice")

#: (hook name, base no-op function) pairs, resolved once — subscribing
#: compares against these to skip hooks an observer never overrode.
_HOOK_BASES = tuple((hook, getattr(GTMObserver, hook)) for hook in _HOOKS)

#: Per-class cache of overridden hook names.  A fresh bus is built per
#: episode and every subscribe used to walk all 14 hooks with three
#: getattrs each; the override set only depends on the observer's class,
#: so resolve it once per class instead of once per subscription.
_OVERRIDE_CACHE: dict[type, tuple[str, ...]] = {}


def _overridden_hooks(cls: type) -> tuple[str, ...]:
    hooks = _OVERRIDE_CACHE.get(cls)
    if hooks is None:
        hooks = tuple(
            hook for hook, base in _HOOK_BASES
            if getattr(cls, hook, None) is not base)
        _OVERRIDE_CACHE[cls] = hooks
    return hooks


class EventBus(GTMObserver):
    """Fan-out multiplexer for :class:`GTMObserver` callbacks.

    The GTM dispatches every hook through one bus; any number of
    subscribers (scheduler signals, metrics timelines, traces) consume
    the same stream.  A raising subscriber must never corrupt GTM state
    mid-algorithm, so every callback is isolated: exceptions are caught,
    recorded in :attr:`errors`, and optionally forwarded to ``on_error``.

    A hook is delivered at the instant it is emitted: in emission order,
    inside the facade call that caused it, against the state the
    algorithm had reached at that step.  A subscriber may re-enter the
    facade from a hook (the service applies a queued operation from
    ``on_grant``); what it then emits is delivered, depth first, before
    the outer emission returns.

    Dispatch is through per-hook lists of bound methods.  Observers that
    inherit a hook's no-op from :class:`GTMObserver` are left out of
    that hook's list, so a discrete-event run pays per event only for
    the hooks its observers actually implement — this is what keeps
    observability inside its overhead budget on sub-millisecond
    episodes.  The lists are copy-on-write: ``subscribe`` and
    ``unsubscribe`` replace them and never mutate one in place, so a
    change made from inside a hook takes effect from the next event —
    the event in flight finishes on the list it started with.
    """

    def __init__(self, observers: tuple[GTMObserver, ...] | list = (),
                 on_error: Callable[[ObserverError], None] | None = None,
                 ) -> None:
        self._observers: list[GTMObserver] = []
        self._on_error = on_error
        #: Exceptions raised by subscribers, in dispatch order.
        self.errors: list[ObserverError] = []
        for hook in _HOOKS:
            setattr(self, "_h_" + hook, [])
        for observer in observers:
            self.subscribe(observer)

    def subscribe(self, observer: GTMObserver) -> GTMObserver:
        self._observers.append(observer)
        self._add_handlers(observer)
        return observer

    def unsubscribe(self, observer: GTMObserver) -> None:
        self._observers = [o for o in self._observers if o is not observer]
        for hook in _HOOKS:
            setattr(self, "_h_" + hook, [])
        for remaining in self._observers:
            self._add_handlers(remaining)

    def observers(self) -> tuple[GTMObserver, ...]:
        return tuple(self._observers)

    def _add_handlers(self, observer: GTMObserver) -> None:
        """Add one observer's overridden hooks to the per-hook lists.

        Incremental on purpose: a fresh bus is built per episode, so
        subscription cost is part of the per-episode overhead budget —
        a full rebuild per subscribe was measurable on sub-millisecond
        fuzz episodes.  Each touched list is replaced by a longer copy, never
        appended to: a hook being dispatched right now iterates the old
        one.  Class-level overrides come from the per-class cache;
        instance-level callables (e.g. test doubles assigning plain
        functions onto an observer) are picked up by the ``__dict__``
        scan below.
        """
        overridden = _overridden_hooks(type(observer))
        for hook in overridden:
            # getattr resolves instance-over-class shadowing too, so a
            # hook present in both is added exactly once.
            self._add_handler(hook, getattr(observer, hook))
        instance_attrs = getattr(observer, "__dict__", None)
        if instance_attrs:
            for hook in _HOOKS:
                if hook in instance_attrs and hook not in overridden:
                    self._add_handler(hook, instance_attrs[hook])

    def _add_handler(self, hook: str, handler: Callable[..., None]) -> None:
        name = "_h_" + hook
        setattr(self, name, getattr(self, name) + [handler])

    def _record(self, hook: str, fn: Any, exc: Exception) -> None:
        record = ObserverError(hook=hook,
                               observer=getattr(fn, "__self__", fn),
                               error=exc)
        self.errors.append(record)
        if self._on_error is not None:
            self._on_error(record)

    # -- GTMObserver hooks, multiplexed -------------------------------------
    # Each hook iterates its prebuilt handler list; the try/except is
    # effectively free in CPython 3.11 when nothing raises.

    def on_begin(self, txn, now):
        for fn in self._h_on_begin:
            try:
                fn(txn, now)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                self._record("on_begin", fn, exc)

    def on_grant(self, txn, obj, invocation, now):
        for fn in self._h_on_grant:
            try:
                fn(txn, obj, invocation, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_grant", fn, exc)

    def on_wait(self, txn, obj, invocation, now):
        for fn in self._h_on_wait:
            try:
                fn(txn, obj, invocation, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_wait", fn, exc)

    def on_local_commit(self, txn, obj, now):
        for fn in self._h_on_local_commit:
            try:
                fn(txn, obj, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_local_commit", fn, exc)

    def on_commit_deferred(self, txn, obj, now):
        for fn in self._h_on_commit_deferred:
            try:
                fn(txn, obj, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_commit_deferred", fn, exc)

    def on_global_commit(self, txn, now):
        for fn in self._h_on_global_commit:
            try:
                fn(txn, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_global_commit", fn, exc)

    def on_global_abort(self, txn, now, reason):
        for fn in self._h_on_global_abort:
            try:
                fn(txn, now, reason)
            except Exception as exc:  # noqa: BLE001
                self._record("on_global_abort", fn, exc)

    def on_sleep(self, txn, now):
        for fn in self._h_on_sleep:
            try:
                fn(txn, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_sleep", fn, exc)

    def on_awake(self, txn, now, survived):
        for fn in self._h_on_awake:
            try:
                fn(txn, now, survived)
            except Exception as exc:  # noqa: BLE001
                self._record("on_awake", fn, exc)

    def on_unlock(self, obj, granted, now):
        for fn in self._h_on_unlock:
            try:
                fn(obj, granted, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_unlock", fn, exc)

    def on_reconcile(self, txn, obj, invocation, now):
        for fn in self._h_on_reconcile:
            try:
                fn(txn, obj, invocation, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_reconcile", fn, exc)

    def on_revalidate(self, txn, obj, conflicted, now):
        for fn in self._h_on_revalidate:
            try:
                fn(txn, obj, conflicted, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_revalidate", fn, exc)

    def on_pump(self, obj, examined, granted, overtakes, now):
        for fn in self._h_on_pump:
            try:
                fn(obj, examined, granted, overtakes, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_pump", fn, exc)

    def on_repolice(self, obj, refreshed, now):
        for fn in self._h_on_repolice:
            try:
                fn(obj, refreshed, now)
            except Exception as exc:  # noqa: BLE001
                self._record("on_repolice", fn, exc)
