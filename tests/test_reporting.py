from __future__ import annotations

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

import quizeval
from quizeval.evaluator import RunMetadata, RunTranscript, Verdict
from quizeval.ima import analyze_images
from quizeval.kg import build_graph, compute_metrics
from quizeval.ner import EntityRecord
from quizeval.reporting import (
    KIND_DENSE_FAILURE_CLUSTER,
    KIND_HIGH_DEGREE_FAILURE,
    KIND_INCORRECT_ONLY_TAG,
    KIND_TAG_CONCENTRATION,
    RunMismatchError,
    AnalysisReport,
    build_report,
    export,
)
from quizeval.sampledata import materialize_sample

README = Path(__file__).resolve().parents[1] / "README.md"


def verdict(qid: str, tag: str, ok: bool, analysis: str) -> Verdict:
    return Verdict(
        question_id=qid,
        quiz_id="qz1",
        domain_tag=tag,
        raw_response=analysis if ok else "Correct Choice:B",
        extracted_letter="A" if ok else "B",
        correct_letter="A",
        is_correct=ok,
        analysis_text=analysis,
    )


def small_run():
    """Two correct verdicts with sparse entities, three incorrect ones whose
    entities form a clique-heavy (denser) graph."""
    meta = RunMetadata("m", 10, "https://example.test/x", None, "rules Correct Choice:", "ts", "replay", "0" * 64)
    verdicts = (
        verdict("q0", "CV", True, "plain tissue. Correct Choice:A"),
        verdict("q1", "LUNG", True, "the lung. Correct Choice:A"),
        verdict("q2", "CV", False, "dissection with aneurysm of the aorta"),
        verdict("q3", "CV", False, "aneurysm and dissection of the aorta again"),
        verdict("q4", "EYE", False, "dissection near the retina with edema and aneurysm"),
    )
    transcript = RunTranscript(run=meta, verdicts=verdicts)
    records = [
        EntityRecord("BODY PART", "Tissue", 0, True),
        EntityRecord("ORGAN", "Lung", 1, True),
        EntityRecord("CONDITION", "Dissection", 2, False),
        EntityRecord("CONDITION", "Aneurysm", 2, False),
        EntityRecord("BODY PART", "Aorta", 2, False),
        EntityRecord("CONDITION", "Aneurysm", 3, False),
        EntityRecord("CONDITION", "Dissection", 3, False),
        EntityRecord("BODY PART", "Aorta", 3, False),
        EntityRecord("CONDITION", "Dissection", 4, False),
        EntityRecord("BODY PART", "Retina", 4, False),
        EntityRecord("CONDITION", "Edema", 4, False),
        EntityRecord("CONDITION", "Aneurysm", 4, False),
    ]
    return transcript, records


class TestRequirements:
    def test_all_kinds_derived(self):
        transcript, records = small_run()
        requirements = build_report(transcript, records).document["requirements"]
        kinds = {w["kind"] for w in requirements}
        assert kinds == {
            KIND_INCORRECT_ONLY_TAG,
            KIND_TAG_CONCENTRATION,
            KIND_HIGH_DEGREE_FAILURE,
            KIND_DENSE_FAILURE_CLUSTER,
        }
        only = [w for w in requirements if w["kind"] == KIND_INCORRECT_ONLY_TAG]
        assert {w["subject"] for w in only} == {"EYE"}
        concentrated = [w for w in requirements if w["kind"] == KIND_TAG_CONCENTRATION]
        assert {w["subject"] for w in concentrated} == {"CV"}  # 2 incorrect >= default threshold

    def test_tag_threshold_configurable(self):
        transcript, records = small_run()
        report = build_report(transcript, records, tag_threshold=1)
        concentrated = {w["subject"] for w in report.document["requirements"] if w["kind"] == KIND_TAG_CONCENTRATION}
        assert concentrated == {"CV", "EYE"}

    def test_top_k_limits_failure_entities(self):
        transcript, records = small_run()
        report = build_report(transcript, records, top_k=2)
        failures = [w for w in report.document["requirements"] if w["kind"] == KIND_HIGH_DEGREE_FAILURE]
        assert len(failures) == 2
        assert failures[0]["subject"] in {"Aneurysm", "Dissection"}

    def test_dense_cluster_needs_both_densities(self):
        meta = RunMetadata("m", 10, "https://example.test/x", None, "r Correct Choice:", "ts", "replay", "0" * 64)
        transcript = RunTranscript(
            run=meta,
            verdicts=(verdict("q0", "CV", True, "tissue. Correct Choice:A"),
                      verdict("q1", "CV", True, "lung. Correct Choice:A")),
        )
        records = [EntityRecord("BODY PART", "Tissue", 0, True), EntityRecord("ORGAN", "Lung", 1, True)]
        doc = build_report(transcript, records).document
        kinds = {w["kind"] for w in doc["requirements"]}
        assert KIND_DENSE_FAILURE_CLUSTER not in kinds
        assert doc["metrics"]["incorrect"]["density"] is None

    def test_dense_cluster_evidence_matches_metrics(self):
        transcript, records = small_run()
        report = build_report(transcript, records)
        (cluster,) = [w for w in report.document["requirements"] if w["kind"] == KIND_DENSE_FAILURE_CLUSTER]
        correct_density = compute_metrics(report.correct_graph)["density"]
        incorrect_density = compute_metrics(report.incorrect_graph)["density"]
        assert cluster["evidence"]["incorrect_density"] == round(incorrect_density, 4)
        assert cluster["evidence"]["correct_density"] == round(correct_density, 4)
        assert incorrect_density > correct_density

    def test_evidence_appears_in_report_tables(self):
        transcript, records = small_run()
        doc = build_report(transcript, records).document
        for weak_path in doc["requirements"]:
            evidence = weak_path["evidence"]
            if weak_path["kind"] in (KIND_INCORRECT_ONLY_TAG, KIND_TAG_CONCENTRATION):
                tag = weak_path["subject"]
                assert evidence["incorrect"] == doc["ima"]["incorrect"][tag]
                assert evidence["correct"] == doc["ima"]["correct"].get(tag, 0)
                assert evidence["error_rate"] == doc["ima"]["error_rate"][tag]
            elif weak_path["kind"] == KIND_HIGH_DEGREE_FAILURE:
                pairs = dict(map(tuple, doc["metrics"]["incorrect"]["top_degree"]))
                assert evidence["degree"] == pairs[weak_path["subject"]]
            else:
                assert evidence["incorrect_density"] == doc["metrics"]["incorrect"]["density"]
                assert evidence["correct_density"] == doc["metrics"]["correct"]["density"]


class TestRunMismatch:
    def test_record_group_out_of_range(self):
        transcript, records = small_run()
        bad = records + [EntityRecord("ORGAN", "Liver", 99, False)]
        with pytest.raises(RunMismatchError):
            build_report(transcript, bad)

    def test_record_flag_disagrees_with_verdict(self):
        transcript, records = small_run()
        bad = records + [EntityRecord("ORGAN", "Liver", 0, False)]  # verdict 0 is correct
        with pytest.raises(RunMismatchError):
            build_report(transcript, bad)

    def test_records_of_a_longer_run(self):
        transcript, records = small_run()
        shorter = dataclasses.replace(transcript, verdicts=transcript.verdicts[:-1])
        with pytest.raises(RunMismatchError):
            build_report(shorter, records)

    def test_tables_derive_from_the_inputs(self):
        transcript, records = small_run()
        report = build_report(transcript, records, top_k=2)
        doc = report.document
        ima = analyze_images(transcript)
        assert doc["ima"] == {**ima, "error_rate": {tag: round(rate, 4) for tag, rate in ima["error_rate"].items()}}
        correct_graph = build_graph([r for r in records if r.from_correct])
        incorrect_graph = build_graph([r for r in records if not r.from_correct])
        assert (report.correct_graph, report.incorrect_graph) == (correct_graph, incorrect_graph)
        for branch, graph in (("correct", correct_graph), ("incorrect", incorrect_graph)):
            metrics = compute_metrics(graph, k=2)
            assert doc["metrics"][branch] == {**metrics, "density": round(metrics["density"], 4)}
            assert [node["name"] for node in doc["graphs"][branch]["nodes"]] == sorted(graph.nodes)


class TestSerialization:
    def test_report_is_its_document(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        assert [f.name for f in dataclasses.fields(AnalysisReport)] == ["document", "correct_graph", "incorrect_graph"]
        (path,) = export(report, "json", tmp_path)
        assert path.read_text() == json.dumps(report.document, indent=2, sort_keys=True) + "\n"

    def test_deterministic_bytes(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        (first,) = export(report, "json", tmp_path / "a")
        (second,) = export(report, "json", tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()

    def test_floats_have_at_most_four_decimals(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        (path,) = export(report, "json", tmp_path)
        doc = json.loads(path.read_text())

        def walk(node):
            if isinstance(node, float):
                assert node == round(node, 4), node
            elif isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(doc)


class TestExport:
    def test_csv_bundle_inventory(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        written = export(report, "csv-bundle", tmp_path)
        assert sorted(p.name for p in written) == [
            "entity_frequencies.csv", "graph_metrics.csv", "ima.csv", "requirements.csv", "scores.csv",
        ]
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores == ["quiz_id,correct,total,ratio", "qz1,2,5,0.4", "TOTAL,2,5,0.4"]
        # One row per tag, sorted, with the error rate rounded as in report.json.
        ima_lines = (tmp_path / "ima.csv").read_text().splitlines()
        assert ima_lines == ["tag,correct,incorrect,error_rate", "CV,1,2,0.6667", "EYE,0,1,1.0", "LUNG,1,0,0.0"]

    def test_dot_export_of_triangle(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        export(report, "dot", tmp_path)
        # incorrect graph group 2 is the triangle {Dissection, Aneurysm, Aorta}
        text = (tmp_path / "incorrect_graph.dot").read_text()
        assert text.count(" -- ") == len(report.incorrect_graph.edges)
        correct_text = (tmp_path / "correct_graph.dot").read_text()
        assert '"Tissue"' in correct_text and '"Lung"' in correct_text

    def test_graphml_export(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        written = export(report, "graphml", tmp_path)
        assert sorted(p.name for p in written) == ["correct_graph.graphml", "incorrect_graph.graphml"]

    def test_unknown_format_rejected(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        with pytest.raises(ValueError):
            export(report, "pdf", tmp_path)

    def test_no_temp_files_left_behind(self, tmp_path):
        transcript, records = small_run()
        report = build_report(transcript, records)
        for fmt in ("json", "csv-bundle", "dot", "graphml"):
            export(report, fmt, tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


def _library_use_block() -> str:
    """The code of README's "Library use" block."""
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    return block.group(1)


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    """README's "Library use" block, run unchanged against the bundled sample,
    so the documented API cannot drift from the code."""
    materialize_sample(tmp_path / "sample")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_use_block(), str(README), "exec"), namespace)
    assert capsys.readouterr().out == "0.8354\n"
    written = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert written == namespace["report"].document


def test_readme_library_use_imports_exactly_the_package_surface():
    """The names the "Library use" block imports from quizeval are
    ``quizeval.__all__``, and each resolves, so the documented surface and
    the exported one cannot drift apart."""
    imports = [node for node in ast.walk(ast.parse(_library_use_block()))
               if isinstance(node, ast.ImportFrom) and node.module == "quizeval"]
    assert len(imports) == 1
    names = [alias.name for alias in imports[0].names]
    assert set(names) == set(quizeval.__all__)
    assert len(names) == len(set(names)) and len(quizeval.__all__) == len(set(quizeval.__all__))
    assert all(hasattr(quizeval, name) for name in names)
