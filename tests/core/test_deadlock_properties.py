"""Property tests: WaitForGraph vs networkx on random graphs."""

import networkx as nx
from hypothesis import given, strategies as st

from repro.core.deadlock import WaitForGraph

nodes = st.integers(0, 7).map(lambda n: f"T{n}")
edges = st.lists(st.tuples(nodes, nodes), min_size=0, max_size=25)


def build_both(edge_list):
    graph = WaitForGraph()
    reference = nx.DiGraph()
    reference.add_nodes_from(f"T{n}" for n in range(8))
    for src, dst in edge_list:
        if src != dst:
            graph.add_waits(src, [dst])
            reference.add_edge(src, dst)
    return graph, reference


class TestAgainstNetworkx:
    @given(edges)
    def test_cycle_existence_matches(self, edge_list):
        graph, reference = build_both(edge_list)
        ours = graph.find_cycle() is not None
        theirs = not nx.is_directed_acyclic_graph(reference)
        assert ours == theirs

    @given(edges)
    def test_reported_cycle_is_a_real_cycle(self, edge_list):
        graph, reference = build_both(edge_list)
        cycle = graph.find_cycle()
        if cycle is None:
            return
        assert len(cycle) >= 2
        # every consecutive pair (wrapping) is an edge of the graph
        for index, node in enumerate(cycle):
            successor = cycle[(index + 1) % len(cycle)]
            assert reference.has_edge(node, successor), \
                f"{node} -> {successor} not an edge"

    @given(edges, nodes)
    def test_start_scoped_search_sound(self, edge_list, start):
        """A cycle reported from `start` must be reachable from it."""
        graph, reference = build_both(edge_list)
        cycle = graph.find_cycle(start=start)
        if cycle is None:
            return
        reachable = nx.descendants(reference, start) | {start}
        assert set(cycle) <= reachable

    @given(edges)
    def test_remove_node_equivalent(self, edge_list):
        graph, reference = build_both(edge_list)
        graph.remove_node("T0")
        reference.remove_node("T0")
        ours = graph.find_cycle() is not None
        theirs = not nx.is_directed_acyclic_graph(reference)
        assert ours == theirs
