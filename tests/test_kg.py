from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizeval.kg import (
    EntityGraph,
    UndefinedDensityError,
    build_graph,
    compute_metrics,
    connected_components,
    degrees,
    density,
    graph_to_dot,
    graph_to_graphml,
    top_degree,
)
from quizeval.ner import EntityRecord

from .bruteforce import bf_clique_edges, bf_component_count, bf_degrees, bf_density, bf_graph_to_graphml


def record(name: str, group: int, entity_type: str = "CONDITION", ok: bool = False) -> EntityRecord:
    return EntityRecord(entity_type, name, group, ok)


def random_graph(rng: random.Random, max_nodes: int = 12) -> EntityGraph:
    n = rng.randint(0, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    p = rng.random()
    edges = {pair for pair in combinations(nodes, 2) if rng.random() < p}
    return EntityGraph.from_edges(nodes, edges)


class TestBuildGraph:
    def test_single_group_triangle(self):
        graph = build_graph([record("a", 0), record("b", 0), record("c", 0)])
        assert len(graph.nodes) == 3
        assert graph.edges == frozenset({("a", "b"), ("a", "c"), ("b", "c")})

    def test_disjoint_groups(self):
        graph = build_graph([record("a", 0), record("b", 0), record("c", 1), record("d", 1)])
        assert len(graph.nodes) == 4
        assert graph.edges == frozenset({("a", "b"), ("c", "d")})
        assert len(connected_components(graph)) == 2

    def test_shared_member_chain(self):
        graph = build_graph([record("a", 0), record("b", 0), record("b", 1), record("c", 1)])
        assert graph.edges == frozenset({("a", "b"), ("b", "c")})
        assert len(connected_components(graph)) == 1
        assert degrees(graph)["b"] == 2

    def test_empty_records(self):
        graph = build_graph([])
        assert graph.nodes == frozenset() and graph.edges == frozenset()

    def test_no_self_loops_and_dedup(self):
        graph = build_graph([record("a", 0), record("a", 0), record("a", 1), record("b", 1),
                             record("a", 2), record("b", 2)])
        assert graph.edges == frozenset({("a", "b")})
        assert graph.edge_counts[("a", "b")] == 2  # groups 1 and 2

    def test_matches_clique_oracle(self):
        rng = random.Random(99)
        names = [f"e{i}" for i in range(8)]
        for _ in range(100):
            groups: dict[int, set[str]] = {}
            records = []
            for group in range(rng.randint(0, 5)):
                members = set(rng.sample(names, rng.randint(0, 5)))
                groups[group] = members
                records.extend(record(name, group) for name in members)
            rng.shuffle(records)
            graph = build_graph(records)
            assert graph.edges == frozenset(bf_clique_edges(groups))
            assert graph.nodes == {name for members in groups.values() for name in members}

    def test_permutation_invariance(self):
        records = [record(n, g) for g, names in enumerate(["abc", "bcd", "ae"]) for n in names]
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert build_graph(records) == build_graph(shuffled)

    def test_node_types_recorded(self):
        graph = build_graph([record("a", 0, "ORGAN"), record("b", 0, "DISEASE")])
        assert graph.node_types == {"a": "ORGAN", "b": "DISEASE"}

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3), st.sampled_from(["DISEASE", "ORGAN"])),
                    max_size=12).flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
    def test_node_type_is_that_of_the_least_group_and_type(self, drawn):
        rows, permuted = drawn
        graph = build_graph([record(name, group, entity_type) for name, group, entity_type in permuted])
        assert graph.node_types == {
            name: min((group, entity_type) for n, group, entity_type in rows if n == name)[1]
            for name, _, _ in rows
        }


class TestDensity:
    def test_direct_substitution(self):
        graph = EntityGraph.from_edges("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        assert density(graph) == pytest.approx(0.4, abs=1e-12)

    def test_complete_graph(self):
        nodes = "abcd"
        graph = EntityGraph.from_edges(nodes, combinations(nodes, 2))
        assert density(graph) == 1.0

    def test_directed_substitution(self):
        graph = EntityGraph.from_edges("abc", [("a", "b"), ("b", "c"), ("c", "a")], directed=True)
        assert density(graph) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1])
    def test_undefined_below_two_nodes(self, n):
        graph = EntityGraph.from_edges([f"n{i}" for i in range(n)], [])
        with pytest.raises(UndefinedDensityError):
            density(graph)
        assert compute_metrics(graph).density is None

    def test_bounds_and_extremes(self):
        rng = random.Random(5)
        for _ in range(200):
            graph = random_graph(rng)
            if len(graph.nodes) < 2:
                continue
            value = density(graph)
            assert 0.0 <= value <= 1.0
            n = len(graph.nodes)
            assert (value == 1.0) == (len(graph.edges) == n * (n - 1) // 2)
            assert (value == 0.0) == (len(graph.edges) == 0)


class TestComponents:
    def test_edgeless(self):
        graph = EntityGraph.from_edges([f"n{i}" for i in range(6)], [])
        assert len(connected_components(graph)) == 6

    def test_triangle_plus_isolated(self):
        graph = EntityGraph.from_edges("abcd", [("a", "b"), ("a", "c"), ("b", "c")])
        components = connected_components(graph)
        assert len(components) == 2
        assert frozenset("abc") in components and frozenset("d") in components

    def test_matches_reachability_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            graph = random_graph(rng)
            expected = bf_component_count(sorted(graph.nodes), set(graph.edges))
            assert len(connected_components(graph)) == expected

    def test_membership_partitions_nodes(self):
        rng = random.Random(23)
        graph = random_graph(rng)
        components = connected_components(graph)
        union = set().union(*components) if components else set()
        assert union == set(graph.nodes)
        assert sum(len(c) for c in components) == len(graph.nodes)


class TestTopDegree:
    def test_star_center(self):
        edges = [("center", f"leaf{i}") for i in range(5)]
        graph = EntityGraph.from_edges(["center"] + [f"leaf{i}" for i in range(5)], edges)
        assert top_degree(graph, 1) == [("center", 5)]

    def test_empty_graph(self):
        graph = EntityGraph.from_edges([], [])
        assert top_degree(graph, 4) == []
        assert compute_metrics(graph, 4).top_degree == ()

    def test_lexicographic_tie_break(self):
        graph = EntityGraph.from_edges("abcd", [("a", "b"), ("c", "d")])
        assert top_degree(graph, 4) == [("a", 1), ("b", 1), ("c", 1), ("d", 1)]

    def test_length_is_min_k_n(self):
        graph = EntityGraph.from_edges("abc", [("a", "b")])
        assert len(top_degree(graph, 10)) == 3
        assert len(top_degree(graph, 2)) == 2

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_degree(EntityGraph.from_edges("ab", [("a", "b")]), 0)


class TestComputeMetrics:
    def test_triangle(self):
        graph = EntityGraph.from_edges("abc", combinations("abc", 2))
        metrics = compute_metrics(graph)
        assert (metrics.node_count, metrics.edge_count) == (3, 3)
        assert metrics.density == 1.0
        assert metrics.component_count == 1

    def test_two_node_single_edge(self):
        metrics = compute_metrics(EntityGraph.from_edges("ab", [("a", "b")]))
        assert metrics.density == 1.0
        assert metrics.component_count == 1
        assert metrics.top_degree == (("a", 1), ("b", 1))


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            EntityGraph.from_edges("ab", [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            EntityGraph.from_edges("ab", [("a", "z")])

    def test_unordered_undirected_edge_rejected(self):
        with pytest.raises(ValueError, match="not canonically ordered"):
            EntityGraph(nodes=frozenset("ab"), edges=frozenset({("b", "a")}))


@settings(max_examples=150)
@given(st.data())
def test_handshake_property(data):
    n = data.draw(st.integers(0, 12))
    nodes = [f"n{i}" for i in range(n)]
    if n >= 2:
        edges = data.draw(st.sets(st.sampled_from(sorted(combinations(nodes, 2))), max_size=30))
    else:
        edges = set()
    graph = EntityGraph.from_edges(nodes, edges)
    assert sum(degrees(graph).values()) == 2 * len(graph.edges)


@settings(max_examples=100)
@given(st.integers(2, 12), st.random_module())
def test_edge_addition_monotonicity(n, _rng):
    rng = random.Random(n * 7919)
    nodes = [f"n{i}" for i in range(n)]
    edges = {pair for pair in combinations(nodes, 2) if rng.random() < 0.3}
    non_edges = [pair for pair in combinations(nodes, 2) if pair not in edges]
    if not non_edges:
        return
    graph = EntityGraph.from_edges(nodes, edges)
    grown = EntityGraph.from_edges(nodes, edges | {rng.choice(non_edges)})
    assert len(connected_components(grown)) <= len(connected_components(graph))
    assert density(grown) >= density(graph)


# Text an XML document can hold, with the characters GraphML escapes made likely.
XML_TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs", "Cn")) | st.sampled_from("&<>\"'\n\r\t"), max_size=6)


class TestExports:
    def triangle(self) -> EntityGraph:
        return build_graph([record("alpha", 0, "ORGAN"), record("beta", 0, "DISEASE"),
                            record("gamma", 0, "CONDITION")])

    def test_dot_statement_counts(self):
        text = graph_to_dot(self.triangle())
        node_lines = [l for l in text.splitlines() if "[entity_type=" in l]
        edge_lines = [l for l in text.splitlines() if " -- " in l]
        assert len(node_lines) == 3
        assert len(edge_lines) == 3
        assert text.startswith("graph ")

    def test_dot_escaping(self):
        graph = EntityGraph.from_edges(['sa"y', "b"], [("b", 'sa"y')])
        text = graph_to_dot(graph)
        assert '"sa\\"y"' in text

    def test_directed_dot(self):
        graph = EntityGraph.from_edges("ab", [("a", "b")], directed=True)
        text = graph_to_dot(graph)
        assert text.startswith("digraph ") and " -> " in text

    def test_graphml_well_formed_and_complete(self):
        text = graph_to_graphml(self.triangle())
        root = ET.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph_el = root.find(f"{ns}graph")
        assert graph_el.get("edgedefault") == "undirected"
        nodes = graph_el.findall(f"{ns}node")
        edges = graph_el.findall(f"{ns}edge")
        assert len(nodes) == 3 and len(edges) == 3
        types = {n.get("id"): n.find(f"{ns}data").text for n in nodes}
        assert types == {"alpha": "ORGAN", "beta": "DISEASE", "gamma": "CONDITION"}
        assert all(e.find(f"{ns}data").text == "1" for e in edges)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(XML_TEXT, XML_TEXT, st.integers(0, 3)), max_size=10))
    def test_graphml_matches_saxutils_and_parses_back(self, rows):
        graph = build_graph([record(name, group, entity_type) for entity_type, name, group in rows])
        text = graph_to_graphml(graph)
        if not any('"' in name for name in graph.nodes):
            assert text == bf_graph_to_graphml(dict(graph.node_types), dict(graph.edge_counts))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph_el = ET.fromstring(text).find(f"{ns}graph")
        types = {}
        for node in graph_el.findall(f"{ns}node"):
            data = node.find(f"{ns}data")
            types[node.get("id")] = "" if data is None else data.text or ""
        # A parser reads a raw carriage return in text as a newline; in an
        # attribute it is written as &#13; and read back as itself.
        assert types == {name: t.replace("\r\n", "\n").replace("\r", "\n") for name, t in graph.node_types.items()}
        edges = graph_el.findall(f"{ns}edge")
        assert {(e.get("source"), e.get("target")): int(e.find(f"{ns}data").text) for e in edges} == graph.edge_counts


class TestOracleSuite:
    """Seeded random graphs checked exactly against the brute-force oracle."""

    def test_metrics_match_oracle(self):
        rng = random.Random(20240817)
        for _ in range(250):
            graph = random_graph(rng)
            nodes = sorted(graph.nodes)
            edges = set(graph.edges)
            assert degrees(graph) == bf_degrees(nodes, edges)
            assert len(connected_components(graph)) == bf_component_count(nodes, edges)
            if len(nodes) >= 2:
                assert density(graph) == bf_density(len(nodes), len(edges))
            ranking = top_degree(graph, len(nodes) or 1)
            expected = sorted(bf_degrees(nodes, edges).items(), key=lambda kv: (-kv[1], kv[0]))
            assert ranking == expected
