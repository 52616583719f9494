from __future__ import annotations

import pytest

from quizeval.corpus import (
    CorpusValidationError,
    MalformedManifestError,
    corpus_stats,
    load_corpus,
)

from .conftest import make_manifest, make_question


def issue_kinds(exc: CorpusValidationError) -> set[str]:
    return {issue.kind for issue in exc.issues}


class TestLoadCorpus:
    def test_sample_corpus_counts(self, sample_corpus):
        assert sample_corpus.question_count == 79
        assert len(sample_corpus.quizzes) == 8
        assert sample_corpus.question_count == sum(len(qz.questions) for qz in sample_corpus.quizzes)

    def test_empty_manifest_is_valid(self, manifest_factory):
        path = manifest_factory({"tag_vocabulary": [], "quizzes": []})
        corpus = load_corpus(path)
        assert corpus.question_count == 0
        assert corpus.quizzes == ()

    def test_correct_letter_outside_choices(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1", correct="F")]})
        path = manifest_factory(manifest)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert issue_kinds(excinfo.value) == {"InvalidCorrectLetter"}

    def test_missing_image(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1")]})
        path = manifest_factory(manifest, create_images=False)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "MissingImage" in issue_kinds(excinfo.value)

    def test_duplicate_question_id(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1"), make_question("q1")]})
        path = manifest_factory(manifest)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "DuplicateId" in issue_kinds(excinfo.value)

    def test_duplicate_quiz_id(self, manifest_factory, tmp_path):
        manifest = make_manifest({"qz1": [make_question("q1")]})
        manifest["quizzes"].append({"id": "qz1", "title": "again", "questions": []})
        path = manifest_factory(manifest)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "DuplicateId" in issue_kinds(excinfo.value)

    def test_unknown_tag(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1", tag="XYZZY")]})
        path = manifest_factory(manifest)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "UnknownTag" in issue_kinds(excinfo.value)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{nope")
        with pytest.raises(MalformedManifestError):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedManifestError):
            load_corpus(tmp_path / "absent.json")

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        with pytest.raises(MalformedManifestError):
            load_corpus(path)

    def test_empty_explanation_rejected(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1", explanation="  ")]})
        path = manifest_factory(manifest)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "MalformedManifest" in issue_kinds(excinfo.value)

    def test_noncontiguous_choice_letters(self, manifest_factory):
        question = make_question("q1")
        question["choices"][1]["letter"] = "C"
        path = manifest_factory(make_manifest({"qz1": [question]}))
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "MalformedManifest" in issue_kinds(excinfo.value)

    @pytest.mark.parametrize("n_choices", [1, 6])
    def test_choice_count_bounds(self, manifest_factory, n_choices):
        question = make_question("q1", n_choices=5)
        letters = "ABCDEF"[:n_choices]
        question["choices"] = [{"letter": letter, "text": "x"} for letter in letters]
        question["correct_letter"] = "A"
        path = manifest_factory(make_manifest({"qz1": [question]}))
        with pytest.raises(CorpusValidationError):
            load_corpus(path)

    def test_unsupported_image_encoding(self, manifest_factory, tmp_path):
        question = make_question("q1", image="images/q1.gif")
        path = manifest_factory(make_manifest({"qz1": [question]}))
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert "MalformedManifest" in issue_kinds(excinfo.value)

    def test_all_issues_reported_together(self, manifest_factory):
        manifest = make_manifest(
            {"qz1": [make_question("q1", correct="F"), make_question("q2", tag="XYZZY")]}
        )
        path = manifest_factory(manifest)
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert issue_kinds(excinfo.value) >= {"InvalidCorrectLetter", "UnknownTag"}


class TestCorpusStats:
    def test_sample_per_quiz_counts(self, sample_corpus):
        stats = corpus_stats(sample_corpus)
        assert stats.per_quiz["quiz7"] == 9
        assert all(count == 10 for quiz_id, count in stats.per_quiz.items() if quiz_id != "quiz7")
        assert stats.total_questions == 79

    def test_singleton_histogram(self, manifest_factory):
        path = manifest_factory(make_manifest({"qz1": [make_question("q1", tag="CV")]}))
        stats = corpus_stats(load_corpus(path))
        assert stats.tag_histogram == {"CV": 1}

    def test_totals_and_ownership(self, sample_corpus):
        stats = corpus_stats(sample_corpus)
        assert sum(stats.per_quiz.values()) == stats.total_questions == sample_corpus.question_count
        assert sum(stats.tag_histogram.values()) == stats.total_questions
        assert set(stats.tag_histogram) <= set(sample_corpus.tag_vocabulary)
        owners: dict[str, list[str]] = {}
        for quiz in sample_corpus.quizzes:
            for question in quiz.questions:
                owners.setdefault(question.id, []).append(quiz.id)
        assert all(len(quiz_ids) == 1 for quiz_ids in owners.values())
        assert len(owners) == sample_corpus.question_count
