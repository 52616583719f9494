"""Co-occurrence graphs over extracted entities, with the metrics reported
per branch: density, connected components, and top nodes by degree.

Graphs are simple (no self-loops, no multi-edges). Every pair of distinct
entity names sharing a group forms an edge (one clique per group); repeat
co-occurrence is recorded as an edge count attribute for export but does
not add parallel edges or weight the density.

Density is edges over possible edges: 2E / (N(N-1)) for undirected graphs,
E / (N(N-1)) for directed ones, undefined when N < 2.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

from .ner import EntityRecord


class UndefinedDensityError(Exception):
    """Density is undefined for graphs with fewer than two nodes."""


@dataclass(frozen=True, eq=True)
class EntityGraph:
    """Immutable entity graph.

    Undirected edges are stored once in canonical (sorted) order. Node
    attributes carry the entity type; edge counts carry how many groups
    produced each co-occurrence.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    directed: bool = False
    node_types: Mapping[str, str] = field(default_factory=dict)
    edge_counts: Mapping[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references a missing node")
            if not self.directed and a > b:
                raise ValueError(f"undirected edge ({a!r}, {b!r}) is not canonically ordered")

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        *,
        directed: bool = False,
        node_types: Mapping[str, str] | None = None,
    ) -> "EntityGraph":
        node_set = frozenset(nodes)
        if directed:
            edge_set = frozenset((a, b) for a, b in edges)
        else:
            edge_set = frozenset(tuple(sorted((a, b))) for a, b in edges)
        return cls(
            nodes=node_set,
            edges=edge_set,
            directed=directed,
            node_types=dict(node_types or {}),
            edge_counts={},
        )


def build_graph(records: Iterable[EntityRecord]) -> EntityGraph:
    """Build the undirected co-occurrence graph: one node per distinct
    entity name, one edge per pair of names sharing at least one group.
    A name's node type is the type of its least ``(group, type)`` record.

    Permutation-invariant over the input records; empty input yields the
    empty graph.
    """
    by_group: defaultdict[int, set[str]] = defaultdict(set)
    least: dict[str, tuple[int, str]] = {}  # name -> its least (group, type)
    for record in records:
        name = record.entity_name
        by_group[record.group].add(name)
        key = (record.group, record.entity_type)
        if key < least.setdefault(name, key):
            least[name] = key

    edge_counts: dict[tuple[str, str], int] = {}
    for names in by_group.values():
        for pair in combinations(sorted(names), 2):
            edge_counts[pair] = edge_counts.get(pair, 0) + 1

    return EntityGraph(
        nodes=frozenset(least),
        edges=frozenset(edge_counts),
        directed=False,
        node_types={name: entity_type for name, (_, entity_type) in least.items()},
        edge_counts=edge_counts,
    )


def density(graph: EntityGraph) -> float:
    """Edges over possible edges; raises UndefinedDensityError when N < 2."""
    n = len(graph.nodes)
    if n < 2:
        raise UndefinedDensityError(f"density undefined for {n} node(s)")
    possible = n * (n - 1) if graph.directed else n * (n - 1) / 2
    return len(graph.edges) / possible


def connected_components(graph: EntityGraph) -> list[frozenset[str]]:
    """Maximal sets of nodes joined by paths (edge direction ignored),
    ordered by each component's smallest member."""
    adj: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for start in sorted(graph.nodes):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        members = {start}
        while queue:
            node = queue.popleft()
            for neighbor in adj[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    members.add(neighbor)
                    queue.append(neighbor)
        components.append(frozenset(members))
    return components


def degrees(graph: EntityGraph) -> dict[str, int]:
    """Connections per node; for directed graphs this is in-degree plus
    out-degree."""
    out = {node: 0 for node in graph.nodes}
    for a, b in graph.edges:
        out[a] += 1
        out[b] += 1
    return out


def top_degree(graph: EntityGraph, k: int) -> list[tuple[str, int]]:
    """The min(k, N) highest-degree nodes, descending by degree with ties
    broken lexicographically by name."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(degrees(graph).items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def compute_metrics(graph: EntityGraph, k: int = 5) -> dict:
    """One branch of report.json's ``metrics`` section: ``nodes``,
    ``edges``, ``density`` (exact here, None when undefined;
    ``reporting.build_report`` rounds it), ``components``, and
    ``top_degree``, the top-k degree ranking as ``[name, degree]`` lists."""
    try:
        dens: float | None = density(graph)
    except UndefinedDensityError:
        dens = None
    return {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "density": dens,
        "components": len(connected_components(graph)),
        "top_degree": [[name, deg] for name, deg in top_degree(graph, k)] if graph.nodes else [],
    }


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: EntityGraph, name: str = "entities") -> str:
    """DOT text with entity_type node attributes and count edge attributes."""
    keyword, connector = ("digraph", "->") if graph.directed else ("graph", "--")
    lines = [f"{keyword} {name} {{"]
    for node in sorted(graph.nodes):
        entity_type = graph.node_types.get(node)
        attr = f" [entity_type={_dot_quote(entity_type)}]" if entity_type else ""
        lines.append(f"  {_dot_quote(node)}{attr};")
    for a, b in sorted(graph.edges):
        count = graph.edge_counts.get((a, b))
        attr = f" [count={count}]" if count is not None else ""
        lines.append(f"  {_dot_quote(a)} {connector} {_dot_quote(b)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _xml_attr(value: str) -> str:
    """``value`` escaped and in double quotes. Line breaks and tabs become
    character references, which an XML parser does not normalise away."""
    escaped = _xml_text(value).replace('"', "&quot;").replace("\n", "&#10;").replace("\r", "&#13;")
    return '"' + escaped.replace("\t", "&#9;") + '"'


def graph_to_graphml(graph: EntityGraph) -> str:
    """GraphML text with the same node/edge attributes as the DOT export."""
    default = "directed" if graph.directed else "undirected"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="entity_type" attr.type="string"/>',
        '  <key id="d1" for="edge" attr.name="count" attr.type="int"/>',
        f'  <graph id="G" edgedefault="{default}">',
    ]
    for node in sorted(graph.nodes):
        entity_type = graph.node_types.get(node)
        if entity_type:
            lines.append(
                f"    <node id={_xml_attr(node)}><data key=\"d0\">{_xml_text(entity_type)}</data></node>"
            )
        else:
            lines.append(f"    <node id={_xml_attr(node)}/>")
    for a, b in sorted(graph.edges):
        count = graph.edge_counts.get((a, b))
        if count is not None:
            lines.append(
                f"    <edge source={_xml_attr(a)} target={_xml_attr(b)}>"
                f'<data key="d1">{count}</data></edge>'
            )
        else:
            lines.append(f"    <edge source={_xml_attr(a)} target={_xml_attr(b)}/>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"
