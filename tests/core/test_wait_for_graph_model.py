"""Stateful model test: ``WaitForGraph`` answers exactly as a plain one.

The model below is the wait-for graph without any bookkeeping — edge
sets, a full rescan of every edge set on ``remove_node``, and the
ordered DFS run on every ``find_cycle`` call.  Hypothesis interleaves
every mutator with both kinds of cycle search, closes rings on purpose
and leaves them standing, and every return value must match: the
cycle tuple (or None), ``replace_waits``'s changed flag, ``edges()``
in order and every ``waits_of``.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.deadlock import WaitForGraph

NODES = tuple(f"T{n}" for n in range(6))
node = st.sampled_from(NODES)
holders = st.lists(node, max_size=4)


class PlainGraph:
    """The wait-for graph with no shortcuts: the reference."""

    def __init__(self):
        self.edges_of = {}

    def add_waits(self, waiter, holders):
        targets = {h for h in holders if h != waiter}
        if targets:
            self.edges_of.setdefault(waiter, set()).update(targets)

    def replace_waits(self, waiter, holders):
        targets = {h for h in holders if h != waiter}
        current = self.edges_of.get(waiter)
        if not targets:
            if current is None:
                return False
            del self.edges_of[waiter]
            return True
        if current == targets:
            return False
        self.edges_of[waiter] = targets
        return True

    def clear_waits(self, waiter):
        self.edges_of.pop(waiter, None)

    def remove_node(self, node):
        self.edges_of.pop(node, None)
        for targets in self.edges_of.values():
            targets.discard(node)

    def edges(self):
        return tuple((src, dst) for src, targets in self.edges_of.items()
                     for dst in sorted(targets))

    def waits_of(self, waiter):
        return frozenset(self.edges_of.get(waiter, ()))

    def find_cycle(self, start=None):
        roots = [start] if start is not None else sorted(self.edges_of)
        for root in roots:
            cycle = self.cycle_from(root)
            if cycle is not None:
                return cycle
        return None

    def cycle_from(self, root):
        path, on_path, done = [root], {root}, set()
        stack = [(root, iter(sorted(self.edges_of.get(root, ()))))]
        while stack:
            current, children = stack[-1]
            for child in children:
                if child in on_path:
                    return tuple(path[path.index(child):])
                if child in done:
                    continue
                path.append(child)
                on_path.add(child)
                stack.append(
                    (child, iter(sorted(self.edges_of.get(child, ())))))
                break
            else:
                stack.pop()
                on_path.discard(current)
                done.add(current)
                path.pop()
        return None


class WaitForGraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = WaitForGraph()
        self.model = PlainGraph()

    @rule(waiter=node, blockers=holders)
    def add_waits(self, waiter, blockers):
        self.graph.add_waits(waiter, blockers)
        self.model.add_waits(waiter, blockers)

    @rule(waiter=node, blockers=holders)
    def replace_waits(self, waiter, blockers):
        assert self.graph.replace_waits(waiter, blockers) == \
            self.model.replace_waits(waiter, blockers)

    @rule(waiter=node)
    def clear_waits(self, waiter):
        self.graph.clear_waits(waiter)
        self.model.clear_waits(waiter)

    @rule(gone=node)
    def remove_node(self, gone):
        self.graph.remove_node(gone)
        self.model.remove_node(gone)

    @rule(ring=st.lists(node, min_size=2, max_size=4, unique=True))
    def close_a_ring_and_leave_it_standing(self, ring):
        for waiter, holder in zip(ring, ring[1:] + ring[:1]):
            self.graph.add_waits(waiter, [holder])
            self.model.add_waits(waiter, [holder])

    @rule(start=node)
    def find_cycle_from(self, start):
        assert self.graph.find_cycle(start) == self.model.find_cycle(start)

    @precondition(lambda self: self.model.edges_of)
    @rule()
    def find_any_cycle(self):
        assert self.graph.find_cycle() == self.model.find_cycle()

    @invariant()
    def same_edges(self):
        assert self.graph.edges() == self.model.edges()
        for name in NODES:
            assert self.graph.waits_of(name) == self.model.waits_of(name)


WaitForGraphMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestWaitForGraphMatchesPlainGraph = WaitForGraphMachine.TestCase
