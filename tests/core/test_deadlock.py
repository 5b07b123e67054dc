"""Tests for the deadlock component: the wait-for graph and its victim
rule."""

from repro.core.deadlock import DeadlockPolicing, VictimPolicy, WaitForGraph


class TestWaitForGraph:
    def test_no_cycle_in_chain(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B"])
        graph.add_waits("B", ["C"])
        assert graph.find_cycle() is None

    def test_two_cycle(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B"])
        graph.add_waits("B", ["A"])
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"A", "B"}

    def test_three_cycle_found_from_start(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B"])
        graph.add_waits("B", ["C"])
        graph.add_waits("C", ["A"])
        cycle = graph.find_cycle(start="A")
        assert cycle is not None
        assert set(cycle) == {"A", "B", "C"}

    def test_cycle_not_reachable_from_start_is_missed(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B"])  # A -> B, no cycle via A
        graph.add_waits("C", ["D"])
        graph.add_waits("D", ["C"])
        assert graph.find_cycle(start="A") is None
        assert graph.find_cycle() is not None  # full scan finds C<->D

    def test_self_edges_are_ignored(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["A"])
        assert graph.find_cycle() is None

    def test_clear_waits_removes_cycle(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B"])
        graph.add_waits("B", ["A"])
        graph.clear_waits("A")
        assert graph.find_cycle() is None

    def test_remove_node_removes_incoming_edges(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B"])
        graph.add_waits("B", ["A"])
        graph.remove_node("B")
        assert graph.find_cycle() is None
        assert graph.waits_of("A") == frozenset()

    def test_edges_listing(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B", "C"])
        assert graph.edges() == (("A", "B"), ("A", "C"))

    def test_diamond_without_cycle(self):
        graph = WaitForGraph()
        graph.add_waits("A", ["B", "C"])
        graph.add_waits("B", ["D"])
        graph.add_waits("C", ["D"])
        assert graph.find_cycle() is None


class TestDeadlockPolicing:
    def test_on_wait_detects_cycle_and_names_victim(self):
        starts = {"A": 1.0, "B": 2.0}
        policing = DeadlockPolicing(starts.__getitem__)
        assert policing.on_wait("A", ["B"]) is None
        assert policing.on_wait("B", ["A"]) == "B"  # youngest
        assert policing.detections == 1

    def test_oldest_policy(self, monkeypatch):
        monkeypatch.setattr(DeadlockPolicing, "victim_policy",
                            VictimPolicy.OLDEST)
        starts = {"A": 1.0, "B": 2.0}
        policing = DeadlockPolicing(starts.__getitem__)
        policing.on_wait("A", ["B"])
        assert policing.on_wait("B", ["A"]) == "A"

    def test_stop_waiting_prevents_false_positives(self):
        policing = DeadlockPolicing(lambda txn: 0.0)
        policing.on_wait("A", ["B"])
        policing.on_stop_waiting("A")
        assert policing.on_wait("B", ["A"]) is None
        assert policing.detections == 0

    def test_finished_transaction_removed(self):
        policing = DeadlockPolicing(lambda txn: 0.0)
        policing.on_wait("A", ["B"])
        policing.on_finished("B")
        assert policing.graph.waits_of("A") == frozenset()
        assert policing.on_wait("B", ["A"]) is None

