from __future__ import annotations

from collections import Counter

import pytest

from quizeval.evaluator import RunMetadata, RunTranscript, Verdict
from quizeval.ima import analyze_images


def verdict(qid: str, tag: str, ok: bool) -> Verdict:
    return Verdict(
        question_id=qid,
        quiz_id="qz1",
        domain_tag=tag,
        raw_response="Correct Choice:A" if ok else "Correct Choice:B",
        extracted_letter="A" if ok else "B",
        correct_letter="A",
        is_correct=ok,
        analysis_text="x",
    )


def transcript(verdicts) -> RunTranscript:
    meta = RunMetadata("m", 10, "https://example.test/x", None, "rules Correct Choice:", "ts", "replay", "0" * 64)
    return RunTranscript(run=meta, verdicts=tuple(verdicts))


class TestAnalyzeImages:
    def test_partition_by_correctness(self):
        report = analyze_images(
            transcript([verdict("a", "CV", True), verdict("b", "CV", False), verdict("c", "SKIN", True)])
        )
        assert report.correct_hist == {"CV": 1, "SKIN": 1}
        assert report.incorrect_hist == {"CV": 1}
        assert sum(report.correct_hist.values()) + sum(report.incorrect_hist.values()) == 3

    def test_incorrect_only_tags_and_unit_error_rate(self):
        report = analyze_images(
            transcript([verdict("a", "CV", True), verdict("b", "EYE", False), verdict("c", "HN", False)])
        )
        assert report.incorrect_only_tags == frozenset({"EYE", "HN"})
        for tag in report.incorrect_only_tags:
            assert report.per_tag_error_rate[tag] == 1.0

    def test_all_correct_run(self):
        report = analyze_images(transcript([verdict("a", "CV", True), verdict("b", "SKIN", True)]))
        assert report.incorrect_hist == {}
        assert report.incorrect_only_tags == frozenset()

    def test_reorder_invariance(self):
        verdicts = [verdict("a", "CV", True), verdict("b", "EYE", False), verdict("c", "CV", False)]
        assert analyze_images(transcript(verdicts)) == analyze_images(transcript(reversed(verdicts)))

    def test_rates_in_unit_interval(self, sample_transcript):
        report = analyze_images(sample_transcript)
        assert all(0.0 <= rate <= 1.0 for rate in report.per_tag_error_rate.values())

    def test_per_tag_totals_match_corpus(self, sample_transcript, sample_corpus):
        report = analyze_images(sample_transcript)
        histogram = Counter(q.image.domain_tag for q in sample_corpus.iter_questions())
        for tag, total in histogram.items():
            assert report.correct_hist.get(tag, 0) + report.incorrect_hist.get(tag, 0) == total

    def test_sample_incorrect_histogram(self, sample_transcript):
        report = analyze_images(sample_transcript)
        assert report.incorrect_hist == {
            "CV": 3, "SKIN": 2, "ENDO": 2, "EYE": 1, "LIVER": 1,
            "HN": 1, "FEM": 1, "INFL": 1, "LUNG": 1,
        }
        assert sum(report.incorrect_hist.values()) == 13
        assert report.incorrect_only_tags >= {"EYE", "HN"}

    def test_sample_correct_histogram_leaders(self, sample_transcript):
        report = analyze_images(sample_transcript)
        assert report.correct_hist["SKIN"] >= 13
        assert report.correct_hist["CV"] == 14
        assert report.correct_hist["ENDO"] == 9

    def test_error_rate_definition(self):
        report = analyze_images(
            transcript([verdict(f"s{i}", "SKIN", True) for i in range(13)]
                       + [verdict(f"f{i}", "SKIN", False) for i in range(2)])
        )
        assert report.per_tag_error_rate["SKIN"] == pytest.approx(2 / 15)
