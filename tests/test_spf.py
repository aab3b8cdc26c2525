"""Static SPF: Dijkstra with ECMP parents and first hops."""

from repro.controlplane.rib import NextHop
from repro.controlplane.spf import INFINITY, SpfGraph, dijkstra, first_hops


def nh(u: str, v: str) -> frozenset[NextHop]:
    return frozenset({NextHop(interface=f"{u}:{v}", neighbor=v)})


def diamond() -> SpfGraph:
    """a -> {b, c} -> d, all costs 1 (two equal-cost paths a..d)."""
    graph = SpfGraph()
    for u, v in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        graph.set_edge(u, v, 1, nh(u, v))
        graph.set_edge(v, u, 1, nh(v, u))
    return graph


class TestGraph:
    def test_set_and_remove_edge(self):
        graph = diamond()
        assert graph.cost("a", "b") == 1
        graph.remove_edge("a", "b")
        assert graph.cost("a", "b") == INFINITY
        assert "a" not in graph.predecessors("b")

    def test_num_edges(self):
        assert diamond().num_edges() == 8


class TestDijkstra:
    def test_distances(self):
        dist, _parents = dijkstra(diamond(), "a")
        assert dist == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_ecmp_parents(self):
        _dist, parents = dijkstra(diamond(), "a")
        assert parents["d"] == {"b", "c"}

    def test_unreachable_absent(self):
        graph = diamond()
        graph.add_node("island")
        dist, _ = dijkstra(graph, "a")
        assert "island" not in dist

    def test_weighted_path_choice(self):
        graph = SpfGraph()
        graph.set_edge("a", "b", 10, nh("a", "b"))
        graph.set_edge("a", "c", 1, nh("a", "c"))
        graph.set_edge("c", "b", 2, nh("c", "b"))
        dist, parents = dijkstra(graph, "a")
        assert dist["b"] == 3
        assert parents["b"] == {"c"}


class TestFirstHops:
    def test_direct_neighbor_uses_attachment(self):
        graph = diamond()
        dist, parents = dijkstra(graph, "a")
        fh = first_hops(graph, "a", dist, parents)
        assert fh["b"] == nh("a", "b")

    def test_ecmp_union(self):
        graph = diamond()
        dist, parents = dijkstra(graph, "a")
        fh = first_hops(graph, "a", dist, parents)
        assert fh["d"] == nh("a", "b") | nh("a", "c")

    def test_source_has_no_hops(self):
        graph = diamond()
        dist, parents = dijkstra(graph, "a")
        fh = first_hops(graph, "a", dist, parents)
        assert fh["a"] == frozenset()

    def test_parallel_link_attachments(self):
        graph = SpfGraph()
        hops = frozenset(
            {
                NextHop(interface="eth0", neighbor="b"),
                NextHop(interface="eth1", neighbor="b"),
            }
        )
        graph.set_edge("a", "b", 1, hops)
        dist, parents = dijkstra(graph, "a")
        fh = first_hops(graph, "a", dist, parents)
        assert fh["b"] == hops
