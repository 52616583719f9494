"""Aggregation of the run's analyses into one versioned report, plus the
derived fine-tuning requirements and the exporters.

A requirement is a machine-derived pointer at a place where failures
concentrate: a tag seen only on failures, a tag with enough failures to
matter, a high-degree node in the failure-branch graph, or a failure branch
that is denser than the success branch. Every evidence number in a
requirement also appears in the report's own tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .atomic import write_atomic, write_csv, write_json
from .evaluator import RunTranscript, score, scores_to_dict
from .ima import IMAReport, analyze_images
from .kg import EntityGraph, GraphMetrics, build_graph, compute_metrics, graph_to_dot, graph_to_graphml
from .ner import EntityRecord, entity_frequencies

REPORT_SCHEMA_VERSION = 1
DEFAULT_TAG_THRESHOLD = 2
DEFAULT_TOP_K = 5

KIND_TAG_CONCENTRATION = "TagConcentration"
KIND_INCORRECT_ONLY_TAG = "IncorrectOnlyTag"
KIND_HIGH_DEGREE_FAILURE = "HighDegreeFailureEntity"
KIND_DENSE_FAILURE_CLUSTER = "DenseFailureCluster"


class RunMismatchError(Exception):
    """The entity records (or, in the CLI, the corpus) do not come from the
    transcript's run."""


@dataclass(frozen=True)
class AnalysisReport:
    """``document`` is what report.json holds: stable key order, floats fixed
    to 4 decimals. The branch graphs are kept for the DOT and GraphML
    exporters."""

    document: dict
    correct_graph: EntityGraph
    incorrect_graph: EntityGraph


def _r4(value: float | None) -> float | None:
    return None if value is None else round(value, 4)


def _check_same_run(transcript: RunTranscript, records: list[EntityRecord]) -> None:
    count = len(transcript.verdicts)
    for record in records:
        if not (0 <= record.group < count):
            raise RunMismatchError(f"entity record group {record.group} is outside the run")
        if record.from_correct != transcript.verdicts[record.group].is_correct:
            raise RunMismatchError(
                f"entity record in group {record.group} disagrees with that verdict's correctness"
            )


def derive_requirements(
    ima_report: IMAReport,
    correct_metrics: GraphMetrics,
    incorrect_metrics: GraphMetrics,
    *,
    tag_threshold: int = DEFAULT_TAG_THRESHOLD,
) -> list[dict]:
    """Derive the report's requirement entries, ``{"kind", "subject",
    "evidence"}`` (a pure function of the report tables).

    The densities are compared unrounded; the evidence holds them rounded,
    as the metrics table does. The high-degree failure entities are
    ``incorrect_metrics.top_degree``, so their number is the ``k`` those
    metrics were computed with."""

    def tag_path(kind: str, tag: str) -> dict:
        return {
            "kind": kind,
            "subject": tag,
            "evidence": {
                "incorrect": ima_report.incorrect_hist[tag],
                "correct": ima_report.correct_hist.get(tag, 0),
                "error_rate": _r4(ima_report.per_tag_error_rate[tag]),
            },
        }

    paths = [tag_path(KIND_INCORRECT_ONLY_TAG, tag) for tag in sorted(ima_report.incorrect_only_tags)]
    concentrated = sorted(
        (tag for tag, n in ima_report.incorrect_hist.items() if n >= tag_threshold),
        key=lambda tag: (-ima_report.incorrect_hist[tag], tag),
    )
    paths.extend(tag_path(KIND_TAG_CONCENTRATION, tag) for tag in concentrated)
    paths.extend(
        {"kind": KIND_HIGH_DEGREE_FAILURE, "subject": name, "evidence": {"degree": degree}}
        for name, degree in incorrect_metrics.top_degree
    )
    if (
        correct_metrics.density is not None
        and incorrect_metrics.density is not None
        and incorrect_metrics.density > correct_metrics.density
    ):
        paths.append(
            {
                "kind": KIND_DENSE_FAILURE_CLUSTER,
                "subject": "incorrect-branch",
                "evidence": {
                    "incorrect_density": _r4(incorrect_metrics.density),
                    "correct_density": _r4(correct_metrics.density),
                },
            }
        )
    return paths


def build_report(
    transcript: RunTranscript,
    entity_records: list[EntityRecord],
    *,
    tag_threshold: int = DEFAULT_TAG_THRESHOLD,
    top_k: int = DEFAULT_TOP_K,
) -> AnalysisReport:
    """Analyse one run: tag histograms, per-branch entity frequencies,
    graphs and metrics (top ``top_k`` nodes by degree), and the derived
    requirements, built once into report.json's document.

    ``entity_records`` are the run's extracted entities (see
    ``ner.extract_from_transcript``); a RunMismatchError is raised when
    one of them does not belong to a verdict of ``transcript``.
    """
    _check_same_run(transcript, entity_records)
    ima_report = analyze_images(transcript)
    correct_graph = build_graph([r for r in entity_records if r.from_correct])
    incorrect_graph = build_graph([r for r in entity_records if not r.from_correct])
    correct_metrics = compute_metrics(correct_graph, k=top_k)
    incorrect_metrics = compute_metrics(incorrect_graph, k=top_k)

    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "run": asdict(transcript.run),
        "scores": scores_to_dict(score(transcript)),
        "ima": {
            "correct": ima_report.correct_hist,
            "incorrect": ima_report.incorrect_hist,
            "incorrect_only_tags": sorted(ima_report.incorrect_only_tags),
            "error_rate": {t: _r4(r) for t, r in ima_report.per_tag_error_rate.items()},
        },
        "entity_frequencies": entity_frequencies(entity_records),
        "graphs": {
            "correct": _graph_to_obj(correct_graph),
            "incorrect": _graph_to_obj(incorrect_graph),
        },
        "metrics": {
            "correct": _metrics_to_obj(correct_metrics),
            "incorrect": _metrics_to_obj(incorrect_metrics),
        },
        "requirements": derive_requirements(
            ima_report, correct_metrics, incorrect_metrics, tag_threshold=tag_threshold
        ),
    }
    return AnalysisReport(document, correct_graph, incorrect_graph)


def _graph_to_obj(graph: EntityGraph) -> dict:
    return {
        "nodes": [
            {"name": n, "entity_type": graph.node_types.get(n, "")} for n in sorted(graph.nodes)
        ],
        "edges": [
            {"source": a, "target": b, "count": graph.edge_counts.get((a, b), 1)}
            for a, b in sorted(graph.edges)
        ],
    }


def _metrics_to_obj(metrics: GraphMetrics) -> dict:
    return {
        "nodes": metrics.node_count,
        "edges": metrics.edge_count,
        "density": _r4(metrics.density),
        "components": metrics.component_count,
        "top_degree": [[name, deg] for name, deg in metrics.top_degree],
    }


def export(report: AnalysisReport, format: str, destination: str | Path) -> list[Path]:
    """Write the report in one format under ``destination``.

    Formats: "json", "csv-bundle" (one file per table of the document),
    "dot" and "graphml" (one file per branch graph). All writes are atomic
    (temp file + rename).
    """
    destination = Path(destination)
    written: list[Path] = []
    if format == "json":
        written.append(write_json(destination / "report.json", report.document))
    elif format == "csv-bundle":
        doc = report.document
        scores, ima = doc["scores"], doc["ima"]
        tables = {
            "scores.csv": (["quiz_id", "correct", "total", "ratio"], [
                *([s["quiz_id"], s["correct"], s["total"], _r4(s["correct"] / s["total"] if s["total"] else 0.0)]
                  for s in scores["per_quiz"]),
                ["TOTAL", scores["correct"], scores["total"], scores["ratio"]],
            ]),
            "ima.csv": (["tag", "correct", "incorrect", "error_rate"], [
                (tag, ima["correct"].get(tag, 0), ima["incorrect"].get(tag, 0), rate)
                for tag, rate in ima["error_rate"].items()
            ]),
            "entity_frequencies.csv": (["branch", "entity_type", "entity_name", "groups"], [
                (branch, entity_type, name, count)
                for branch in ("correct", "incorrect")
                for entity_type, names in sorted(doc["entity_frequencies"].get(branch, {}).items())
                for name, count in names.items()
            ]),
            "graph_metrics.csv": (["branch", "nodes", "edges", "density", "components", "top_degree"], [
                [branch, m["nodes"], m["edges"], m["density"], m["components"],
                 ";".join(f"{name}:{deg}" for name, deg in m["top_degree"])]
                for branch, m in doc["metrics"].items()
            ]),
            "requirements.csv": (["kind", "subject", "evidence"], [
                (w["kind"], w["subject"], json.dumps(w["evidence"], sort_keys=True)) for w in doc["requirements"]
            ]),
        }
        written.extend(write_csv(destination / name, header, rows) for name, (header, rows) in tables.items())
    elif format == "dot":
        for branch, graph in (("correct", report.correct_graph), ("incorrect", report.incorrect_graph)):
            written.append(write_atomic(destination / f"{branch}_graph.dot", graph_to_dot(graph, f"{branch}_branch")))
    elif format == "graphml":
        for branch, graph in (("correct", report.correct_graph), ("incorrect", report.incorrect_graph)):
            written.append(write_atomic(destination / f"{branch}_graph.graphml", graph_to_graphml(graph)))
    else:
        raise ValueError(f"unknown export format {format!r}")
    return written
