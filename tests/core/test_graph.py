"""Tests for the query network DAG."""

import pytest

from repro.core.graph import GraphError, QueryGraph
from repro.core.operator import MapOperator, SinkOperator, SourceOperator


def diamond():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(MapOperator("B", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.connect("S", "A").connect("S", "B").connect("A", "K").connect("B", "K")
    return g


def test_valid_diamond():
    g = diamond()
    g.validate()
    assert len(g) == 4
    assert g.source_names() == ["S"]
    assert g.sink_names() == ["K"]
    assert set(g.upstream_of("K")) == {"A", "B"}
    assert set(g.downstream_of("S")) == {"A", "B"}


def test_duplicate_name_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    with pytest.raises(GraphError):
        g.add_operator(SourceOperator("S"))


def test_unknown_operator_in_connect():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    with pytest.raises(GraphError):
        g.connect("S", "missing")


def test_self_loop_rejected():
    g = QueryGraph()
    g.add_operator(MapOperator("A", lambda p: p))
    with pytest.raises(GraphError):
        g.connect("A", "A")


def test_cycle_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(MapOperator("B", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.chain("S", "A", "B", "K")
    g.connect("B", "A")
    with pytest.raises(GraphError, match="cycle"):
        g.validate()
    with pytest.raises(GraphError, match="cycle"):
        g.topological_order()


def test_duplicate_connect_is_a_noop():
    g = diamond()
    g.connect("S", "A")
    assert g.edges() == [("S", "A"), ("S", "B"), ("A", "K"), ("B", "K")]
    assert g.downstream_of("S") == ["A", "B"]
    assert g.upstream_of("A") == ["S"]
    g.validate()


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        QueryGraph().validate()


def test_no_source_rejected():
    g = QueryGraph()
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.connect("A", "K")
    with pytest.raises(GraphError, match="source"):
        g.validate()


def test_source_with_upstream_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(SourceOperator("S2"))
    g.add_operator(SinkOperator("K"))
    g.connect("S", "S2")
    g.connect("S2", "K")
    with pytest.raises(GraphError, match="upstream"):
        g.validate()


def test_unreachable_operator_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(SinkOperator("K"))
    g.add_operator(MapOperator("orphan", lambda p: p))
    g.add_operator(SinkOperator("K2"))
    g.connect("S", "K")
    g.connect("orphan", "K2")
    with pytest.raises(GraphError, match="unreachable"):
        g.validate()


def test_dangling_operator_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.connect("S", "K")
    g.connect("S", "A")  # A reaches no sink
    with pytest.raises(GraphError, match="sink"):
        g.validate()


def test_topological_order():
    g = diamond()
    order = g.topological_order()
    assert order.index("S") < order.index("A") < order.index("K")
    assert order.index("S") < order.index("B") < order.index("K")


def test_node_graph_collapse():
    g = diamond()
    ng = g.node_graph({"S": "n0", "A": "n1", "B": "n1", "K": "n2"})
    assert set(ng) == {"n0", "n1", "n2"}
    assert {(u, v) for u, vs in ng.items() for v in vs} == {("n0", "n1"), ("n1", "n2")}


def test_node_graph_cycle_rejected():
    g = QueryGraph()
    g.add_operator(SourceOperator("S"))
    g.add_operator(MapOperator("A", lambda p: p))
    g.add_operator(MapOperator("B", lambda p: p))
    g.add_operator(SinkOperator("K"))
    g.chain("S", "A", "B", "K")
    # A on n1, B on n2, but K back on n1 with S->A: n1->n2->n1 cycle.
    with pytest.raises(GraphError, match="cycle"):
        g.node_graph({"S": "n0", "A": "n1", "B": "n2", "K": "n1"})


def test_node_graph_missing_assignment():
    g = diamond()
    with pytest.raises(GraphError):
        g.node_graph({"S": "n0"})


def test_contains_and_names():
    g = diamond()
    assert "A" in g
    assert "missing" not in g
    assert g.names() == ["S", "A", "B", "K"]
