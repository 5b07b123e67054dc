"""Spans around the program's public entry points, recorded from outside.

The traced run replaces each entry point (a module function or a class
method) with a wrapper that times the call.  Every wrapped call is
synchronous and the process has one thread, so one stack gives each
span its parent; a span's *self time* is its duration minus the part
its child spans cover, and self times of all spans plus the untraced
remainder add up to the timed window.

Self times and call counts are aggregated per span name as spans close.
The first ``keep_spans`` spans are also kept whole (id, parent, name,
start, end, request id) and written out after the window closes; spans
of one request share the request id of their root span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Aggregates spans while ``enabled``; wrappers are inert otherwise."""

    def __init__(self, keep_spans: int = 20000) -> None:
        self.enabled = False
        #: span name -> [calls, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: counts taken at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        #: (id, parent id, name, start, end, request id), bounded.
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *,
             ident: Callable[..., str] | None = None,
             before: Callable[..., None] | None = None,
             after: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper named ``name``.

        ``ident(*args)`` names the request a root span belongs to;
        ``before(counts, *args)`` and ``after(counts, result, *args)``
        take counts at the boundary, outside the span's own interval.
        """
        fn = getattr(owner, attr)
        tracer = self
        total = self.totals[name]
        stack = self._stack
        spans = self.spans
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(counts, *args)
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            keep = span_id < tracer.keep_spans
            if parent is not None:
                request = parent[2]
            elif keep and ident is not None:
                request = ident(*args)
            else:
                request = None
            frame = [span_id, 0.0, request]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                total[0] += 1
                total[1] += duration - frame[1]
                if keep:
                    spans.append((span_id,
                                  None if parent is None else parent[0],
                                  name, start, end, request))
            if after is not None:
                after(counts, result, *args)
            return result

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every replaced entry point back."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- reading --------------------------------------------------------

    def traced_s(self) -> float:
        """Sum of every span's self time (= time under any span)."""
        return sum(total[1] for total in self.totals.values())

    def span_count(self) -> int:
        return self._next_id

    def write(self, path: str, extra: dict[str, Any]) -> None:
        """Dump the aggregates and the kept spans (after the window)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                **extra,
                "totals": {name: {"calls": total[0], "self_s": total[1]}
                           for name, total in sorted(self.totals.items())},
                "counts": dict(sorted(self.counts.items())),
                "span_fields": ["id", "parent", "name", "start", "end",
                                "request"],
                "spans": self.spans,
            }, handle)
            handle.write("\n")


# ---------------------------------------------------------------------------
# the entry points, by layer
# ---------------------------------------------------------------------------

_LDBS_VERBS = ("has_key", "get_row", "insert", "update_by_key",
               "delete_by_key")


def _request_of_handle(service, session, frame) -> str:
    return f"{session.token}:{frame.get('id')}:{frame.get('txn')}"


def _request_of_connect(service, frame, sink) -> str:
    return f"{frame.get('token')}:{frame.get('id')}:hello"


def _request_of_disconnect(service, session) -> str:
    return f"{session.token}:drop"


def _count_bytes_in(counts, frame, line) -> None:
    counts["protocol.bytes_in"] += len(line)


def _count_bytes_out(counts, data, frame) -> None:
    counts["protocol.bytes_out"] += len(data)
    counts["frames." + frame["type"]] += 1


def _count_held(counts, service, frame, sink) -> None:
    # Pushes held across the outage are replayed (and cleared) inside
    # connect, so they are only visible before the call.
    session = service.sessions.get(frame.get("token") or "")
    if session is not None:
        counts["service.held_pushes"] += len(session.held)


def _count_outcome(counts, outcome, *args) -> None:
    counts["gtm.invoke." + str(outcome)] += 1


def _count_verdict(counts, survived, *args) -> None:
    counts["gtm.awake." + ("survived" if survived else "aborted")] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (class level, so
    objects built afterwards — and bound methods they capture — are
    traced).  ``server``/``client`` import the codec by name, so their
    own module attributes are the ones to replace: the server's pair is
    the ``protocol`` layer, the client's is load-generator cost."""
    from repro.core.gtm import GlobalTransactionManager
    from repro.core.sst import SSTExecutor
    from repro.ldbs import backend, sqlite_backend
    from repro.schedulers.gtm_scheduler import GTMScheduler
    from repro.service import client, server
    from repro.service.core import GTMService
    from repro.workload import generator

    tracer.wrap(server, "decode_frame", "protocol.decode",
                after=_count_bytes_in)
    tracer.wrap(server, "encode_frame", "protocol.encode",
                after=_count_bytes_out)
    tracer.wrap(client, "decode_frame", "loadgen.codec")
    tracer.wrap(client, "encode_frame", "loadgen.codec")

    tracer.wrap(GTMService, "handle", "service.handle",
                ident=_request_of_handle)
    tracer.wrap(GTMService, "connect", "service.connect",
                ident=_request_of_connect, before=_count_held)
    tracer.wrap(GTMService, "disconnect", "service.disconnect",
                ident=_request_of_disconnect)

    gtm = GlobalTransactionManager
    tracer.wrap(gtm, "begin", "gtm.begin")
    tracer.wrap(gtm, "invoke", "gtm.invoke", after=_count_outcome)
    tracer.wrap(gtm, "apply", "gtm.apply")
    tracer.wrap(gtm, "request_commit", "gtm.commit")
    tracer.wrap(gtm, "try_finish_commit", "gtm.commit")
    tracer.wrap(gtm, "abort", "gtm.abort")
    tracer.wrap(gtm, "sleep", "gtm.sleep")
    tracer.wrap(gtm, "awake", "gtm.awake", after=_count_verdict)

    tracer.wrap(SSTExecutor, "execute", "sst.execute")

    tracer.wrap(backend.MemoryBackend, "begin", "ldbs.begin")
    tracer.wrap(sqlite_backend.SQLiteBackend, "begin", "ldbs.begin")
    for verb in _LDBS_VERBS:
        tracer.wrap(backend._MemoryTransaction, verb, "ldbs.stmt")
        tracer.wrap(sqlite_backend.SQLiteTransaction, verb, "ldbs.stmt")
    # The SST commits by leaving its ``with`` block: the memory adapter
    # commits inside __exit__, the SQLite one through its own commit().
    tracer.wrap(backend._MemoryTransaction, "__exit__", "ldbs.commit")
    tracer.wrap(sqlite_backend.SQLiteTransaction, "commit", "ldbs.commit")

    tracer.wrap(GTMScheduler, "run", "sim.run")
    tracer.wrap(generator, "generate_paper_workload",
                "sim.workload_generate")
