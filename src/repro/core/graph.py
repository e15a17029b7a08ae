"""The query network: a DAG of operators (Section II-A, Fig. 1a).

Stored as insertion-ordered successor/predecessor lists in plain dicts;
the graphs are tiny (under 20 operators), so this needs no third-party
graph library.  Every observable order is deterministic: nodes iterate
in insertion order, neighbours in edge-insertion order, and
:meth:`QueryGraph.topological_order` is Kahn's algorithm taken
generation by generation (in-degree-zero nodes in insertion order, then
each node's children in successor order).  Placement builders assign
phones by that order, so it is part of the artifact contract.

The graph also derives the *high-level* query network between nodes
(Fig. 1b) once a placement maps operators to phones — the token
protocol, failure monitoring, and stream routing all operate at node
granularity ("a group of operators on a node can be treated as a single
super operator").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.operator import Operator

#: Successor lists keyed by node, both in insertion order.
Adjacency = Dict[str, List[str]]


class GraphError(Exception):
    """Raised for malformed query networks."""


def _kahn_order(succ: Adjacency) -> Optional[List[str]]:
    """Topological order of ``succ``, or ``None`` if it has a cycle.

    Breadth-first Kahn: start from the in-degree-zero nodes in key
    order, then release each node's children in successor order.
    """
    indegree = dict.fromkeys(succ, 0)
    for children in succ.values():
        for child in children:
            indegree[child] += 1
    order = [n for n, d in indegree.items() if d == 0]
    for node in order:  # ``order`` grows while it is walked: a FIFO queue
        for child in succ[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    return order if len(order) == len(succ) else None


def _reach(adjacency: Adjacency, start: str) -> Set[str]:
    """``start`` plus every node reachable from it along ``adjacency``."""
    seen = {start}
    stack = [start]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen


class QueryGraph:
    """A directed acyclic graph of named operators."""

    def __init__(self) -> None:
        self._operators: Dict[str, Operator] = {}
        self._succ: Adjacency = {}
        self._pred: Adjacency = {}

    # -- construction ------------------------------------------------------
    def add_operator(self, op: Operator) -> "QueryGraph":
        """Add an operator (name must be unique). Returns self for chaining."""
        if op.name in self._operators:
            raise GraphError(f"duplicate operator name {op.name!r}")
        self._operators[op.name] = op
        self._succ[op.name] = []
        self._pred[op.name] = []
        return self

    def connect(self, upstream: str, downstream: str) -> "QueryGraph":
        """Add a stream from ``upstream`` to ``downstream`` (no-op if present)."""
        for name in (upstream, downstream):
            if name not in self._operators:
                raise GraphError(f"unknown operator {name!r}")
        if upstream == downstream:
            raise GraphError("self-loops are not allowed")
        if downstream not in self._succ[upstream]:
            self._succ[upstream].append(downstream)
            self._pred[downstream].append(upstream)
        return self

    def chain(self, *names: str) -> "QueryGraph":
        """Connect a linear pipeline ``names[0] -> names[1] -> ...``."""
        for a, b in zip(names, names[1:]):
            self.connect(a, b)
        return self

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of a query network.

        * acyclic,
        * at least one source and one sink operator,
        * source operators have no upstream edges; sinks no downstream,
        * every operator reachable from some source,
        * every operator reaches some sink.
        """
        if not self._operators:
            raise GraphError("empty query network")
        if _kahn_order(self._succ) is None:
            raise GraphError("query network contains a cycle")
        sources = self.source_names()
        sinks = self.sink_names()
        if not sources:
            raise GraphError("query network has no source operator")
        if not sinks:
            raise GraphError("query network has no sink operator")
        for s in sources:
            if self.upstream_of(s):
                raise GraphError(f"source {s!r} has upstream edges")
        for s in sinks:
            if self.downstream_of(s):
                raise GraphError(f"sink {s!r} has downstream edges")
        reachable: Set[str] = set()
        for s in sources:
            reachable |= _reach(self._succ, s)
        if reachable != set(self._operators):
            missing = set(self._operators) - reachable
            raise GraphError(f"operators unreachable from sources: {sorted(missing)}")
        reaches_sink: Set[str] = set()
        for s in sinks:
            reaches_sink |= _reach(self._pred, s)
        if reaches_sink != set(self._operators):
            dangling = set(self._operators) - reaches_sink
            raise GraphError(f"operators that reach no sink: {sorted(dangling)}")

    # -- queries --------------------------------------------------------------
    def operator(self, name: str) -> Operator:
        """The operator object called ``name``."""
        return self._operators[name]

    def operators(self) -> List[Operator]:
        """All operators, in insertion order."""
        return list(self._operators.values())

    def names(self) -> List[str]:
        """All operator names, in insertion order."""
        return list(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __len__(self) -> int:
        return len(self._operators)

    def upstream_of(self, name: str) -> List[str]:
        """Direct upstream operator names, in edge-insertion order."""
        return list(self._pred[name])

    def downstream_of(self, name: str) -> List[str]:
        """Direct downstream operator names, in edge-insertion order."""
        return list(self._succ[name])

    def edges(self) -> List[Tuple[str, str]]:
        """All (upstream, downstream) operator pairs, grouped by upstream."""
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    def source_names(self) -> List[str]:
        """Operators flagged as sources."""
        return [n for n, op in self._operators.items() if op.is_source]

    def sink_names(self) -> List[str]:
        """Operators flagged as sinks."""
        return [n for n, op in self._operators.items() if op.is_sink]

    def topological_order(self) -> List[str]:
        """Operator names in a topological order (see the module docstring)."""
        order = _kahn_order(self._succ)
        if order is None:
            raise GraphError("query network contains a cycle")
        return order

    # -- node-level derivation (Fig. 1b) --------------------------------------
    def node_graph(self, assignment: Dict[str, str]) -> Adjacency:
        """Collapse the operator DAG onto nodes via ``assignment``.

        ``assignment`` maps operator name -> node id.  Edges between
        operators on the same node vanish (intra-node data pass); edges
        between different nodes become node-level streams.  Returns the
        node-level successor lists: every node is a key (in order of its
        first operator), each list in first-edge order.  Raises
        :class:`GraphError` if the collapsed graph has a cycle (a
        placement must not create node-level cycles, or the token protocol
        would deadlock).
        """
        ng: Adjacency = {}
        for op_name in self._operators:
            if op_name not in assignment:
                raise GraphError(f"operator {op_name!r} has no node assignment")
            ng.setdefault(assignment[op_name], [])
        for u, v in self.edges():
            nu, nv = assignment[u], assignment[v]
            if nu != nv and nv not in ng[nu]:
                ng[nu].append(nv)
        if _kahn_order(ng) is None:
            raise GraphError("placement induces a cycle between nodes")
        return ng

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n_edges = sum(len(vs) for vs in self._succ.values())
        return f"<QueryGraph ops={len(self._operators)} edges={n_edges}>"
