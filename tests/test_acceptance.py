"""Acceptance gate: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Replay-backed reproduction criteria use the bundled sample corpus and
fixture. Graph-metric criteria run against the independent brute-force
oracles in ``bruteforce.py``. Absolute graph values from any particular
external evaluation run are not reproducible without that run's full
response texts, so graph metrics are asserted as formula-consistency checks
over fixtures rather than as absolute targets (criterion 9).
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations, permutations

import pytest

from quizeval.cli import main as cli_main
from quizeval.evaluator import extract_choice, load_transcript, score
from quizeval.kg import EntityGraph, UndefinedDensityError, compute_metrics, connected_components, degrees, density, top_degree
from quizeval.reporting import KIND_DENSE_FAILURE_CLUSTER, KIND_TAG_CONCENTRATION
from quizeval.sampledata import materialize_sample

from .bruteforce import bf_component_count, bf_degrees, bf_density

EXPECTED_PATTERN = {
    "quiz1": (8, 10), "quiz2": (7, 10), "quiz3": (9, 10), "quiz4": (9, 10),
    "quiz5": (6, 10), "quiz6": (10, 10), "quiz7": (9, 9), "quiz8": (8, 10),
}
EXPECTED_INCORRECT_HIST = {
    "CV": 3, "SKIN": 2, "ENDO": 2, "EYE": 1, "LIVER": 1, "HN": 1, "FEM": 1, "INFL": 1, "LUNG": 1,
}

RESPONSE_WRONG_LETTER = (
    "The image shows a gross pathology specimen of a heart that appears "
    "enlarged and has thickened walls, particularly in the left ventricle. "
    "There are no signs of nodules, extensive fibrosis, or inflammatory "
    "lesions indicative of the other conditions listed. Choice:B"
)
RESPONSE_RIGHT_LETTER = (
    "Given the history of a traumatic laceration, the subsequent development "
    "of this lesion over months, and the appearance of the tissue, which "
    "suggests excessive growth possibly due to scar formation, microscopic "
    "examination is most likely to show dense collagen bundles, which are "
    "indicative of a scar or keloid formation.Choice:D"
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    paths = materialize_sample(root / "sample")
    return root, paths


def run_cli(*argv: str) -> int:
    return cli_main(list(argv))


def seeded_random_graphs(count: int = 1000, max_nodes: int = 12):
    rng = random.Random(20240817)
    for _ in range(count):
        n = rng.randint(0, max_nodes)
        nodes = [f"n{i:02d}" for i in range(n)]
        p = rng.random()
        edges = {pair for pair in combinations(nodes, 2) if rng.random() < p}
        yield EntityGraph.from_edges(nodes, edges), rng


def test_c1_score_reproduction(bundle, capsys):
    root, paths = bundle
    with criterion(1, "replay run reports 66/79 overall (0.8354) with the fixed per-quiz pattern in < 5 s"):
        out = root / "run-c1"
        started = time.perf_counter()
        code = run_cli(
            "run", "--manifest", str(paths.manifest),
            "--backend", "replay", "--fixture", str(paths.fixture), "--out", str(out),
        )
        elapsed = time.perf_counter() - started
        printed = capsys.readouterr().out
        assert code == 0
        assert "total 66/79 (83.54%)" in printed
        assert "ratio 0.8354" in printed
        transcript = load_transcript(out / "transcript.json")
        summary = score(transcript)
        assert {s["quiz_id"]: (s["correct"], s["total"]) for s in summary["per_quiz"]} == EXPECTED_PATTERN
        assert (summary["correct"], summary["total"], summary["ratio"]) == (66, 79, 0.8354)
        assert elapsed < 5.0, f"run took {elapsed:.2f}s"


def test_c2_ima_reproduction(bundle, capsys):
    root, paths = bundle
    with criterion(2, "incorrect tag histogram matches exactly and sums to 13; EYE and HN are incorrect-only"):
        run_out, analysis_out = root / "run-c2", root / "analysis-c2"
        assert run_cli("run", "--manifest", str(paths.manifest), "--backend", "replay",
                       "--fixture", str(paths.fixture), "--out", str(run_out)) == 0
        assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                       "--manifest", str(paths.manifest), "--out", str(analysis_out)) == 0
        capsys.readouterr()
        doc = json.loads((analysis_out / "report.json").read_text())
        assert doc["ima"]["incorrect"] == EXPECTED_INCORRECT_HIST
        assert sum(doc["ima"]["incorrect"].values()) == 13
        assert set(doc["ima"]["incorrect_only_tags"]) >= {"EYE", "HN"}


def _marker_variant_cases(count: int = 200) -> list[tuple[str, str]]:
    rng = random.Random(42)
    markers = ["Correct Choice:", "correct choice:", "CORRECT CHOICE:", "Correct Choice :",
               "Choice:", "choice:", "CHOICE:"]
    whitespace = ["", " ", "  ", "\n", "\t"]
    punctuation = ["", ".", ",", "!", ")"]
    prefixes = [
        "",
        "The lesion is well demarcated. ",
        "Choice: A looked plausible at first. ",
        "Correct Choice:E was my first guess, but on reflection: ",
    ]
    suffixes = ["", "\n", " That concludes the analysis.", ". Reviewed."]
    cases: list[tuple[str, str]] = []
    while len(cases) < count:
        letter = rng.choice("ABCDE")
        cased = letter if rng.random() < 0.5 else letter.lower()
        shown = f"({cased})" if rng.random() < 0.2 else cased
        text = (
            rng.choice(prefixes)
            + rng.choice(markers)
            + rng.choice(whitespace)
            + shown
            + rng.choice(punctuation)
            + rng.choice(suffixes)
        )
        cases.append((text, letter))
    return cases


def test_c3_choice_extraction(bundle):
    with criterion(3, "both recorded response texts parse (B, D); 200 generated marker variants parse last-marker-wins"):
        assert extract_choice(RESPONSE_WRONG_LETTER) == "B"
        assert extract_choice(RESPONSE_RIGHT_LETTER) == "D"
        cases = _marker_variant_cases(200)
        assert len(cases) == 200
        for text, expected in cases:
            assert extract_choice(text) == expected, repr(text)


def test_c4_density_formula(bundle):
    with criterion(4, "complete/edgeless densities are exactly 1/0 for N in 2..10, both formulas; N<2 is undefined"):
        for n in range(2, 11):
            nodes = [f"n{i}" for i in range(n)]
            undirected_complete = EntityGraph.from_edges(nodes, combinations(nodes, 2))
            assert abs(density(undirected_complete) - 1.0) <= 1e-12
            edgeless = EntityGraph.from_edges(nodes, [])
            assert density(edgeless) == 0.0
            directed_complete = EntityGraph.from_edges(nodes, permutations(nodes, 2), directed=True)
            assert abs(density(directed_complete) - 1.0) <= 1e-12
            directed_edgeless = EntityGraph.from_edges(nodes, [], directed=True)
            assert density(directed_edgeless) == 0.0
        for n in (0, 1):
            graph = EntityGraph.from_edges([f"n{i}" for i in range(n)], [])
            with pytest.raises(UndefinedDensityError):
                density(graph)
            assert compute_metrics(graph)["density"] is None


def test_c5_graph_oracle_equivalence(bundle):
    with criterion(5, "1000 seeded random graphs (N<=12): density, components, and degree rankings match brute force"):
        checked = 0
        for graph, _rng in seeded_random_graphs(1000):
            nodes = sorted(graph.nodes)
            edges = set(graph.edges)
            assert degrees(graph) == bf_degrees(nodes, edges)
            assert len(connected_components(graph)) == bf_component_count(nodes, edges)
            if len(nodes) >= 2:
                assert density(graph) == bf_density(len(nodes), len(edges))
            expected_ranking = sorted(bf_degrees(nodes, edges).items(), key=lambda kv: (-kv[1], kv[0]))
            assert top_degree(graph, max(len(nodes), 1)) == expected_ranking
            checked += 1
        assert checked == 1000


def test_c6_handshake_and_monotonicity(bundle):
    with criterion(6, "handshake (sum of degrees = 2E) and edge-addition monotonicity hold on the same suite"):
        for graph, rng in seeded_random_graphs(1000):
            assert sum(degrees(graph).values()) == 2 * len(graph.edges)
            nodes = sorted(graph.nodes)
            non_edges = [pair for pair in combinations(nodes, 2) if pair not in graph.edges]
            if not non_edges:
                continue
            grown = EntityGraph.from_edges(nodes, set(graph.edges) | {rng.choice(non_edges)})
            assert len(connected_components(grown)) <= len(connected_components(graph))
            if len(nodes) >= 2:
                assert density(grown) >= density(graph)


def test_c7_pipeline_determinism(bundle, capsys):
    root, paths = bundle
    with criterion(7, "parallelism 1 and 8 replay runs produce byte-identical transcripts and reports (timestamps excluded)"):
        normalized_transcripts, normalized_reports = [], []
        for parallelism in ("1", "8"):
            run_out = root / f"determinism-run-{parallelism}"
            analysis_out = root / f"determinism-analysis-{parallelism}"
            assert run_cli("run", "--manifest", str(paths.manifest), "--backend", "replay",
                           "--fixture", str(paths.fixture), "--parallelism", parallelism,
                           "--out", str(run_out)) == 0
            assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                           "--manifest", str(paths.manifest), "--out", str(analysis_out)) == 0
            transcript_doc = json.loads((run_out / "transcript.json").read_text())
            transcript_doc["run"].pop("timestamp")
            normalized_transcripts.append(json.dumps(transcript_doc, sort_keys=True).encode())
            report_doc = json.loads((analysis_out / "report.json").read_text())
            report_doc["run"].pop("timestamp")
            normalized_reports.append(json.dumps(report_doc, sort_keys=True).encode())
        capsys.readouterr()
        assert normalized_transcripts[0] == normalized_transcripts[1]
        assert normalized_reports[0] == normalized_reports[1]


def test_c8_requirements_derivation(bundle, capsys):
    root, paths = bundle
    with criterion(8, "requirements flag TagConcentration for CV/SKIN/ENDO and DenseFailureCluster (denser failure branch)"):
        run_out, analysis_out = root / "run-c8", root / "analysis-c8"
        assert run_cli("run", "--manifest", str(paths.manifest), "--backend", "replay",
                       "--fixture", str(paths.fixture), "--out", str(run_out)) == 0
        assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                       "--manifest", str(paths.manifest), "--out", str(analysis_out)) == 0
        capsys.readouterr()
        doc = json.loads((analysis_out / "report.json").read_text())
        concentrated = {w["subject"] for w in doc["requirements"] if w["kind"] == KIND_TAG_CONCENTRATION}
        assert concentrated >= {"CV", "SKIN", "ENDO"}
        incorrect_density = doc["metrics"]["incorrect"]["density"]
        correct_density = doc["metrics"]["correct"]["density"]
        assert incorrect_density > correct_density  # the bundle is built this way
        clusters = [w for w in doc["requirements"] if w["kind"] == KIND_DENSE_FAILURE_CLUSTER]
        assert len(clusters) == 1
        assert clusters[0]["evidence"] == {
            "incorrect_density": incorrect_density, "correct_density": correct_density,
        }


def test_c9_density_formula_consistency(bundle):
    root, _ = bundle
    with criterion(9, "every emitted density equals 2E/(N(N-1)) to 4 decimals; absolute external values are not targets"):
        # Random fixtures.
        for graph, _rng in seeded_random_graphs(300):
            metrics = compute_metrics(graph)
            n, e = metrics["nodes"], metrics["edges"]
            if n < 2:
                assert metrics["density"] is None
            else:
                assert round(metrics["density"], 4) == round(2 * e / (n * (n - 1)), 4)
        # The analysis bundle's own branch graphs.
        report_path = root / "analysis-c8" / "report.json"
        doc = json.loads(report_path.read_text())
        for branch in ("correct", "incorrect"):
            metrics = doc["metrics"][branch]
            n, e = metrics["nodes"], metrics["edges"]
            assert metrics["density"] == round(2 * e / (n * (n - 1)), 4)
