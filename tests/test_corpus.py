from __future__ import annotations

from collections import Counter

import pytest

from quizeval.corpus import (
    CorpusValidationError,
    MalformedManifestError,
    ValidationIssue,
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

    def test_empty_tag_rejected(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1", tag="")]}, vocabulary=["CV", ""])
        path = manifest_factory(manifest)
        with pytest.raises(MalformedManifestError, match="tag_vocabulary"):
            load_corpus(path)

    def test_tag_not_writable_as_utf8_rejected(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1", tag="\ud800")]}, vocabulary=["CV", "\ud800"])
        with pytest.raises(MalformedManifestError, match="tag_vocabulary must be an array of non-empty UTF-8"):
            load_corpus(manifest_factory(manifest))

    def test_quiz_id_not_writable_as_utf8_rejected(self, manifest_factory):
        path = manifest_factory(make_manifest({"\ud800": [make_question("q1")]}))
        with pytest.raises(CorpusValidationError) as excinfo:
            load_corpus(path)
        assert excinfo.value.issues == (
            ValidationIssue("MalformedManifest", "quiz id '\\ud800' is not writable as UTF-8"),
        )

    def test_tag_written_as_a_surrogate_pair_escape_loads(self, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1", tag="\U0001f600")]}, vocabulary=["\U0001f600"])
        path = manifest_factory(manifest)
        assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.tag_vocabulary == {"\U0001f600"}
        assert corpus.quizzes[0].questions[0].image.domain_tag == "\U0001f600"

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

    @pytest.mark.parametrize("image", ["images/q1.gif", "images/q1.bmp"], ids=["gif", "bmp"])
    def test_unsupported_image_encoding(self, image, manifest_factory, tmp_path):
        question = make_question("q1", image=image)
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



def _set_quiz(manifest: dict, **fields) -> None:
    manifest["quizzes"][0].update(fields)


def _set_question(manifest: dict, **fields) -> None:
    manifest["quizzes"][0]["questions"][0].update(fields)


# One malformed shape each, with the issue it must produce. The manifest has
# one quiz "qz1" holding one question "q1".
_MALFORMED_SHAPES = {
    "quiz-not-object": (lambda m: m.update(quizzes=[5]), "quiz entry must be an object"),
    "quiz-id-empty": (lambda m: _set_quiz(m, id=""), "quiz id must be a non-empty string"),
    "title-not-string": (lambda m: _set_quiz(m, title=5), "quiz qz1: title must be a string"),
    "questions-not-array": (lambda m: _set_quiz(m, questions={}), "quiz qz1: questions must be an array"),
    "question-not-object": (lambda m: _set_quiz(m, questions=["q1"]), "quiz qz1: question entry must be an object"),
    "question-id-not-string": (lambda m: _set_question(m, id=7), "quiz qz1: question id must be a non-empty string"),
    "stem-not-string": (lambda m: _set_question(m, stem=None), "question q1: stem must be a string"),
    "correct-letter-not-string": (lambda m: _set_question(m, correct_letter=0),
                                  "question q1: correct_letter must be a string"),
    "choice-without-text": (lambda m: m["quizzes"][0]["questions"][0]["choices"][0].pop("text"),
                            "question q1: each choice needs letter and text"),
    "image-without-tag": (lambda m: _set_question(m, image={"path": "images/q1.png"}),
                          "question q1: image needs path and domain_tag"),
}


@pytest.mark.parametrize("shape", _MALFORMED_SHAPES)
def test_malformed_shape_is_reported(shape, manifest_factory):
    manifest = make_manifest({"qz1": [make_question("q1")]})
    break_it, message = _MALFORMED_SHAPES[shape]
    break_it(manifest)
    path = manifest_factory(manifest, create_images=False)
    with pytest.raises(CorpusValidationError) as excinfo:
        load_corpus(path)
    assert ValidationIssue("MalformedManifest", message) in excinfo.value.issues


class TestCorpusStats:
    def test_sample_per_quiz_counts(self, sample_corpus):
        per_quiz = {quiz.id: len(quiz.questions) for quiz in sample_corpus.quizzes}
        assert per_quiz["quiz7"] == 9
        assert all(count == 10 for quiz_id, count in per_quiz.items() if quiz_id != "quiz7")
        assert sum(per_quiz.values()) == 79

    def test_totals_and_ownership(self, sample_corpus):
        per_quiz = {quiz.id: len(quiz.questions) for quiz in sample_corpus.quizzes}
        tag_histogram = Counter(q.image.domain_tag for q in sample_corpus.iter_questions())
        assert sum(per_quiz.values()) == sample_corpus.question_count
        assert sum(tag_histogram.values()) == sample_corpus.question_count
        assert set(tag_histogram) <= set(sample_corpus.tag_vocabulary)
        owners: dict[str, list[str]] = {}
        for quiz in sample_corpus.quizzes:
            for question in quiz.questions:
                owners.setdefault(question.id, []).append(quiz.id)
        assert all(len(quiz_ids) == 1 for quiz_ids in owners.values())
        assert len(owners) == sample_corpus.question_count
