"""Section VII deadlock policing: one wait-for graph and its victim rule.

The paper notes its model adds no deadlock conditions beyond 2PL and
that "classical approaches as timeout or wait for graphs techniques can
be used to detect the deadlock presence".  Both are here: a lock-wait
timeout is the schedulers' ``wait_timeout``, and detection is
:class:`DeadlockPolicing`, which every
:class:`~repro.core.gtm.GlobalTransactionManager` builds for itself and
its admission controller consults on every blocked wait.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable


class VictimPolicy(enum.Enum):
    """How to pick the victim of a detected deadlock cycle."""

    #: Abort the youngest transaction (largest start timestamp) — cheap to
    #: redo, the classic choice.
    YOUNGEST = "youngest"
    #: Abort the oldest transaction.
    OLDEST = "oldest"


class WaitForGraph:
    """A directed graph of ``waiter -> holder`` edges with cycle detection.

    Edges are maintained incrementally by the transactional layer, with
    a reverse map (who waits on a node), so removing a node touches only
    its own edges and its in-neighbours'.

    The graph also remembers where a cycle could be.  A new edge
    ``W -> T`` closes a cycle only if somebody waits on ``W`` and ``T``
    waits on somebody; losing edges closes none.  Such a ``W`` becomes a
    *suspect*, so every cycle passes through a suspect.  With none,
    :meth:`find_cycle` answers None without a walk — the common case, a
    new waiter nobody waits on.  Otherwise it first walks from each
    suspect (ordered DFS, sharing finished nodes); one that reaches no
    cycle stops being a suspect, and if none is left the answer is None.
    A suspect that does reach one stays, and the cycle stands (the
    caller may spare its victim): until an edge is lost, later checks
    walk from ``start`` alone.  Every answer is the one the ordered DFS
    from ``start`` gives on its own.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        #: node -> the waiters with an edge to it (the reverse of _edges;
        #: a node nobody waits on has no entry).
        self._waiters: dict[str, set[str]] = {}
        #: node -> its targets as a sorted tuple (the DFS visit order);
        #: filled lazily, dropped whenever the node's edge set changes.
        self._sorted: dict[str, tuple[str, ...]] = {}
        #: every cycle passes through one of these (see above).
        self._suspects: set[str] = set()
        #: the suspects were walked, a cycle was found, and no edge has
        #: been lost since: it still stands.
        self._standing = False

    # -- edge maintenance ----------------------------------------------------

    def add_waits(self, waiter: str, holders: Iterable[str]) -> None:
        targets = {h for h in holders if h != waiter}
        if not targets:
            return
        current = self._edges.setdefault(waiter, set())
        self._sorted.pop(waiter, None)
        gained = targets - current
        if gained:
            current |= gained
            self._link(waiter, gained)

    def replace_waits(self, waiter: str, holders: Iterable[str]) -> bool:
        """Set ``waiter``'s outgoing edges to exactly ``holders`` (minus
        any self-loop).  Returns True when the edge set actually changed.
        """
        targets = {h for h in holders if h != waiter}
        current = self._edges.get(waiter)
        if not targets:
            if current is None:
                return False
            del self._edges[waiter]
            self._sorted.pop(waiter, None)
            self._unlink(waiter, current)
            return True
        if current == targets:
            return False
        self._edges[waiter] = targets
        self._sorted.pop(waiter, None)
        if current is None:
            self._link(waiter, targets)
            return True
        lost = current - targets
        if lost:
            self._unlink(waiter, lost)
        gained = targets - current
        if gained:
            self._link(waiter, gained)
        return True

    def clear_waits(self, waiter: str) -> None:
        """Remove all outgoing edges of ``waiter`` (it stopped waiting)."""
        targets = self._edges.pop(waiter, None)
        self._sorted.pop(waiter, None)
        if targets:
            self._unlink(waiter, targets)

    def remove_node(self, node: str) -> None:
        """Remove a transaction entirely (commit/abort).

        Its in-neighbours keep their (possibly now empty) edge sets, as
        they always have: only their edge *to* ``node`` goes.
        """
        targets = self._edges.pop(node, None)
        self._sorted.pop(node, None)
        if targets:
            self._unlink(node, targets)
        self._suspects.discard(node)
        waiters = self._waiters.pop(node, None)
        if waiters:
            for waiter in waiters:
                self._edges[waiter].discard(node)
                self._sorted.pop(waiter, None)
            self._standing = False

    def _link(self, waiter: str, gained: set[str]) -> None:
        """Record ``waiter``'s new edges in the reverse map and in what is
        known about cycles: a new one must run ``waiter -> target -> ...
        -> waiter``, so it needs somebody waiting on ``waiter`` and a
        gained target that waits on somebody."""
        waiters_of = self._waiters
        edges = self._edges
        onward = False
        for target in gained:
            into = waiters_of.get(target)
            if into is None:
                waiters_of[target] = {waiter}
            else:
                into.add(waiter)
            if not onward and edges.get(target):
                onward = True
        if onward and waiter in waiters_of:
            self._suspects.add(waiter)

    def _unlink(self, waiter: str, targets: set[str]) -> None:
        """Drop ``waiter``'s edges to ``targets`` from the reverse map."""
        waiters_of = self._waiters
        for target in targets:
            into = waiters_of[target]
            into.discard(waiter)
            if not into:
                del waiters_of[target]
        if not self._edges.get(waiter):
            self._suspects.discard(waiter)  # no edge out: on no cycle
        self._standing = False

    @property
    def acyclic(self) -> bool:
        """Known to hold no cycle, with no walk needed to say so."""
        return not self._suspects

    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((src, dst)
                     for src, targets in self._edges.items()
                     for dst in sorted(targets))

    def waits_of(self, waiter: str) -> frozenset[str]:
        return frozenset(self._edges.get(waiter, ()))

    # -- cycle detection -----------------------------------------------------

    def find_cycle(self, start: str | None = None) -> tuple[str, ...] | None:
        """Return one cycle as a node tuple, or None.

        If ``start`` is given only cycles reachable from it are searched
        (sufficient after adding edges from ``start``); otherwise the whole
        graph is scanned, roots in sorted order.  Either way the answer
        is the ordered DFS's, but the walk is skipped where the graph
        already knows it finds nothing (see the class docstring).
        """
        suspects = self._suspects
        if not suspects:
            return None
        # a node finished by any walk reaches no cycle, so every walk of
        # this call may skip it without changing what it finds.
        done: set[str] = set()
        if not self._standing:
            found = None
            for node in tuple(suspects):
                cycle = (self._cycle_from(node, done)
                         if node in self._waiters else None)
                if cycle is None:
                    suspects.discard(node)
                elif node == start:
                    found = cycle
            if not suspects:
                return None
            self._standing = True
            if found is not None:
                return found
        if start is not None:
            return self._cycle_from(start, done)
        for root in sorted(self._edges):
            if root not in done:
                cycle = self._cycle_from(root, done)
                if cycle is not None:
                    return cycle
        return None

    def _adjacency(self, node: str) -> tuple[str, ...]:
        """Sorted targets of ``node`` (the deterministic DFS order)."""
        adj = self._sorted.get(node)
        if adj is None:
            adj = tuple(sorted(self._edges.get(node, ())))
            self._sorted[node] = adj
        return adj

    def _cycle_from(self, root: str,
                    done: set[str] | None = None) -> tuple[str, ...] | None:
        # Iterative DFS with an explicit path stack (colouring scheme).
        path: list[str] = []
        on_path: set[str] = set()
        if done is None:
            done = set()
        stack: list[tuple[str, Iterable[str]]] = [
            (root, iter(self._adjacency(root)))]
        path.append(root)
        on_path.add(root)
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child in on_path:
                    # found a cycle: slice the path from child onwards
                    idx = path.index(child)
                    return tuple(path[idx:])
                if child in done:
                    continue
                path.append(child)
                on_path.add(child)
                stack.append((child, iter(self._adjacency(child))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(node)
                done.add(node)
                path.pop()
        return None


class DeadlockPolicing:
    """The wait-for graph and the victim rule, consulted by the
    admission controller on every blocked wait.

    Every wait is checked for a cycle through the waiter, but a check
    walks the graph only when the waiter's new edges can have closed one
    (see :class:`WaitForGraph`): a waiter nobody waits on, or a refresh
    that gained no edge, costs a few dictionary lookups.  A closed cycle
    is broken by aborting the transaction :meth:`victim` names.
    """

    #: The victim rule.  A class attribute, not an option: YOUNGEST is
    #: the rule, and OLDEST stays only for tests and the golden pins'
    #: control leg, which patch it here.
    victim_policy = VictimPolicy.YOUNGEST

    def __init__(self, start_time_of: Callable[[str], float]) -> None:
        self.graph = WaitForGraph()
        #: begin-time lookup for the victim rule.
        self.start_time_of = start_time_of
        #: how many cycles were found (each named one victim).
        self.detections = 0
        # bound straight to the graph: the waiter stopped waiting, or the
        # transaction finished, and no frame of this class in between.
        self.on_stop_waiting = self.graph.clear_waits
        self.on_finished = self.graph.remove_node

    @property
    def settled(self) -> bool:
        """The graph is known acyclic, so a refresh that keeps a
        waiter's edges finds no cycle; the re-police sweep then skips
        the consult."""
        return self.graph.acyclic

    def on_wait(self, waiter: str, blockers: Iterable[str]) -> str | None:
        """``waiter`` queued behind ``blockers``: record the edges and
        return the victim of a cycle through ``waiter``, or None."""
        graph = self.graph
        graph.add_waits(waiter, blockers)
        cycle = graph.find_cycle(waiter)
        return None if cycle is None else self.victim(cycle)

    def refresh_wait(self, waiter: str,
                     blockers: Iterable[str]) -> str | None:
        """Replace ``waiter``'s recorded edges and re-check (the
        re-police path): stale edges go in the same step."""
        graph = self.graph
        graph.replace_waits(waiter, blockers)
        cycle = graph.find_cycle(waiter)
        return None if cycle is None else self.victim(cycle)

    def victim(self, cycle: tuple[str, ...]) -> str:
        """Count the detection and name the member of ``cycle`` that
        :attr:`victim_policy` picks (ties broken by transaction id)."""
        self.detections += 1
        start_time_of = self.start_time_of
        pick = max if self.victim_policy is VictimPolicy.YOUNGEST else min
        return pick(cycle, key=lambda txn: (start_time_of(txn), txn))
