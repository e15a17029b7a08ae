"""Pinned graph orders for every registered application.

Placement builders assign phones by ``topological_order()``, routing
fans out in ``downstream_of`` order, and checkpoint tokens start at the
node graph's in-degree-zero nodes in node order — so these orders are
part of the artifact contract.  The literals below were captured from
the networkx-backed graph this module replaced, whose
``topological_sort`` is generation-by-generation Kahn; any drift here
would silently reshuffle placements and message orders.
"""

import pytest

from repro.apps.registry import get_app


def _w(text):
    return text.split()


def _adj(table):
    return {k: _w(v) for k, v in table.items()}


#: Per app: topological order, edges, upstream/downstream lists, and
#: the chain-0 node graph (phone ids without the "region0." prefix).
PINNED = {
    "bcp": {
        "topo": "S0 S1 N H A L D C0 C1 C2 C3 B J P K",
        "edges": "S0>N N>A N>L A>J L>J S1>H H>D D>C0 D>C1 D>C2 D>C3 "
                 "C0>B C1>B C2>B C3>B B>J J>P P>K",
        "up": {"S0": "", "N": "S0", "A": "N", "L": "N", "S1": "", "H": "S1",
               "D": "H", "C0": "D", "C1": "D", "C2": "D", "C3": "D",
               "B": "C0 C1 C2 C3", "J": "A L B", "P": "J", "K": "P"},
        "down": {"S0": "N", "N": "A L", "A": "J", "L": "J", "S1": "H",
                 "H": "D", "D": "C0 C1 C2 C3", "C0": "B", "C1": "B",
                 "C2": "B", "C3": "B", "B": "J", "J": "P", "P": "K", "K": ""},
        "nodes": {"p0": "p6", "p6": "p7", "p1": "p2 p3 p4 p5", "p2": "p6",
                  "p3": "p6", "p4": "p6", "p5": "p6", "p7": ""},
    },
    "signalguru": {
        "topo": "S0 S1 C0 C1 C2 A0 A1 A2 M0 M1 M2 V G P K",
        "edges": "S0>G S1>C0 S1>C1 S1>C2 C0>A0 A0>M0 M0>V C1>A1 A1>M1 "
                 "M1>V C2>A2 A2>M2 M2>V V>G G>P P>K",
        "up": {"S0": "", "S1": "", "C0": "S1", "A0": "C0", "M0": "A0",
               "C1": "S1", "A1": "C1", "M1": "A1", "C2": "S1", "A2": "C2",
               "M2": "A2", "V": "M0 M1 M2", "G": "S0 V", "P": "G", "K": "P"},
        "down": {"S0": "G", "S1": "C0 C1 C2", "C0": "A0", "A0": "M0",
                 "M0": "V", "C1": "A1", "A1": "M1", "M1": "V", "C2": "A2",
                 "A2": "M2", "M2": "V", "V": "G", "G": "P", "P": "K", "K": ""},
        "nodes": {"p0": "p6", "p1": "p2 p3 p4", "p2": "p5", "p3": "p5",
                  "p4": "p5", "p5": "p6", "p6": "p7", "p7": ""},
    },
    "edgeml": {
        "topo": "S0 S F0 F1 F2 F3 P K",
        "edges": "S0>P S>F0 F0>F1 F1>F2 F2>F3 F3>P P>K",
        "up": {"S0": "", "S": "", "F0": "S", "F1": "F0", "F2": "F1",
               "F3": "F2", "P": "S0 F3", "K": "P"},
        "down": {"S0": "P", "S": "F0", "F0": "F1", "F1": "F2", "F2": "F3",
                 "F3": "P", "P": "K", "K": ""},
        "nodes": {"p0": "p5 p1", "p1": "p2", "p2": "p3", "p3": "p4",
                  "p4": "p5", "p5": ""},
    },
}


def _build(name):
    app = get_app(name).create()
    graph = app.build_graph()
    phones = [f"region0.p{i}" for i in range(app.compute_phones_needed())]
    return graph, app.build_placement(phones)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_operator_orders_are_pinned(name):
    graph, _placement = _build(name)
    pinned = PINNED[name]
    assert graph.topological_order() == _w(pinned["topo"])
    assert graph.edges() == [tuple(e.split(">")) for e in _w(pinned["edges"])]
    assert {op: graph.upstream_of(op) for op in graph.names()} == _adj(pinned["up"])
    assert {op: graph.downstream_of(op) for op in graph.names()} == _adj(pinned["down"])
    # Dict equality ignores key order; the iteration orders matter too.
    assert list(pinned["up"]) == graph.names()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_node_graph_adjacency_is_pinned(name):
    graph, placement = _build(name)
    ng = graph.node_graph(placement.chain_assignment(0))
    short = {u.replace("region0.", ""): [v.replace("region0.", "") for v in vs]
             for u, vs in ng.items()}
    assert short == _adj(PINNED[name]["nodes"])
    assert list(short) == list(PINNED[name]["nodes"])

