"""Span self-time arithmetic on a hand-built nested call tree."""

from e2e import trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Tree:
    """root(10) -> child_a(3) -> leaf(1); root -> child_b(2), twice."""

    def __init__(self, clock):
        self.clock = clock

    def root(self, request):
        self.clock.now += 1.0
        self.child_a()
        self.clock.now += 1.0
        self.child_b()
        self.child_b()
        self.clock.now += 1.0
        return request

    def child_a(self):
        self.clock.now += 1.0
        self.leaf()
        self.clock.now += 1.0

    def child_b(self):
        self.clock.now += 2.0

    def leaf(self):
        self.clock.now += 1.0


def _traced_tree(monkeypatch, keep_spans=100):
    clock = FakeClock()
    monkeypatch.setattr(trace, "perf_counter", clock)
    tracer = trace.Tracer(keep_spans=keep_spans)
    tracer.wrap(Tree, "root", "layer.root",
                ident=lambda tree, request: request)
    tracer.wrap(Tree, "child_a", "layer.child_a")
    tracer.wrap(Tree, "child_b", "layer.child_b")
    tracer.wrap(Tree, "leaf", "layer.leaf")
    return tracer, Tree(clock)


def test_self_time_is_duration_minus_children(monkeypatch):
    tracer, tree = _traced_tree(monkeypatch)
    try:
        tracer.enabled = True
        tree.root("req-1")
    finally:
        tracer.uninstall()
    assert tree.clock.now == 10.0
    assert tracer.totals["layer.root"] == [1, 3.0]      # 10 - 3 - 2 - 2
    assert tracer.totals["layer.child_a"] == [1, 2.0]   # 3 - 1
    assert tracer.totals["layer.child_b"] == [2, 4.0]
    assert tracer.totals["layer.leaf"] == [1, 1.0]
    assert tracer.traced_s() == 10.0  # self times add up to the root span
    assert tracer.span_count() == 5


def test_spans_record_parent_and_share_the_request_id(monkeypatch):
    tracer, tree = _traced_tree(monkeypatch)
    try:
        tracer.enabled = True
        tree.root("req-1")
    finally:
        tracer.uninstall()
    by_name = {}
    for span_id, parent, name, start, end, request in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, start, end))
        assert request == "req-1"
    (root_id, root_parent, root_start, root_end), = by_name["layer.root"]
    assert (root_parent, root_start, root_end) == (None, 0.0, 10.0)
    (a_id, a_parent, a_start, a_end), = by_name["layer.child_a"]
    assert (a_parent, a_start, a_end) == (root_id, 1.0, 4.0)
    (_, leaf_parent, _, _), = by_name["layer.leaf"]
    assert leaf_parent == a_id
    assert [parent for _, parent, _, _ in by_name["layer.child_b"]] == [
        root_id, root_id]


def test_disabled_tracer_records_nothing_and_uninstall_restores(monkeypatch):
    original = Tree.root
    tracer, tree = _traced_tree(monkeypatch)
    tree.root("req-1")
    assert tracer.span_count() == 0 and tracer.traced_s() == 0.0
    tracer.uninstall()
    assert Tree.root is original


def test_kept_spans_are_bounded_but_totals_are_not(monkeypatch):
    tracer, tree = _traced_tree(monkeypatch, keep_spans=3)
    try:
        tracer.enabled = True
        tree.root("req-1")
        tree.root("req-2")
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 3
    assert tracer.totals["layer.root"] == [2, 6.0]


def test_hooks_count_at_the_boundary(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(trace, "perf_counter", clock)
    tracer = trace.Tracer()
    tracer.wrap(
        Tree, "root", "layer.root",
        before=lambda counts, tree, request: counts.__setitem__(
            "seen", counts["seen"] + 1),
        after=lambda counts, result, tree, request: counts.__setitem__(
            "bytes", counts["bytes"] + len(result)))
    try:
        tracer.enabled = True
        Tree(clock).root("four")
    finally:
        tracer.uninstall()
    assert tracer.counts == {"seen": 1, "bytes": 4}
