from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quizeval.corpus import (
    Choice,
    CorpusValidationError,
    MalformedManifestError,
    ValidationIssue,
    load_corpus,
    read_answer_key,
)

from .bruteforce import bf_load_corpus, bf_read_answer_key
from .conftest import make_manifest, make_question
from .memory_ratios import traced_kept, traced_peak, write_scaled_sample


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

    def test_the_corpus_keeps_less_than_twice_the_file(self, sample_paths, tmp_path, monkeypatch):
        path = write_scaled_sample(sample_paths, tmp_path)
        # Loaded by a relative path, so the length of the test's directory
        # does not enter the image paths the corpus keeps.
        monkeypatch.chdir(tmp_path)
        corpus, kept = traced_kept(load_corpus, path.name)
        assert corpus.question_count == 1975
        # Everything kept, with one record per distinct choice: 0.88-0.93x on
        # Python 3.10-3.13 as tests/memory_ratios.py prints it, 1.01x on 3.11
        # under pytest; with a record and a text string per choice, 1.47-1.56x
        # and 1.64x.
        assert kept < 1.2 * path.stat().st_size

    def test_the_parse_never_holds_every_choice_object(self, sample_paths, tmp_path):
        path = write_scaled_sample(sample_paths, tmp_path)
        corpus, peak = traced_peak(load_corpus, path)
        assert corpus.question_count == 1975
        # Choice objects become shared records as each question is parsed:
        # 2.22-2.42x on Python 3.10-3.13 (tests/memory_ratios.py); a record
        # per choice, 2.81-3.05x; parsing the whole document first, 3.62-4.14x.
        assert peak < 2.6 * path.stat().st_size
        assert corpus == bf_load_corpus(path)

    def test_the_choice_table_costs_little_without_repeated_choices(self, sample_paths, tmp_path):
        path = write_scaled_sample(sample_paths, tmp_path, unique_texts=True)
        corpus, peak = traced_peak(load_corpus, path)
        assert corpus.question_count == 1975
        # No (letter, text) pair repeats, so the table shares nothing and only
        # costs its own entries: 2.82-3.15x on Python 3.10-3.13
        # (tests/memory_ratios.py), against 2.77-3.00x with no table.
        assert peak < 3.3 * path.stat().st_size

    def test_equal_choices_share_one_record_within_a_load(self, sample_paths, sample_corpus):
        choices = [choice for question in sample_corpus.iter_questions() for choice in question.choices]
        assert len(choices) == 395
        assert len({id(choice) for choice in choices}) == len(set(choices)) == 119
        again = load_corpus(sample_paths.manifest)
        assert again == sample_corpus
        assert not {id(choice) for choice in choices} & {
            id(choice) for question in again.iter_questions() for choice in question.choices}

    def test_one_text_under_two_letters_keeps_two_records(self, manifest_factory):
        questions = [make_question(qid, n_choices=2) for qid in ("q1", "q2")]
        for question in questions:
            question["choices"] = [{"letter": "A", "text": "X"}, {"letter": "B", "text": "X"}]
        first, second = load_corpus(manifest_factory(make_manifest({"qz1": questions}))).quizzes[0].questions
        assert first.choices == (Choice("A", "X"), Choice("B", "X"))
        assert [a is b for a, b in zip(first.choices, second.choices)] == [True, True]

    def test_records_hold_no_instance_dict(self, sample_corpus, sample_transcript):
        quiz = sample_corpus.quizzes[0]
        question = quiz.questions[0]
        records = (sample_corpus, quiz, question, question.choices[0], question.image, sample_transcript.verdicts[0])
        assert [type(record).__name__ for record in records] == [
            "QuizCorpus", "Quiz", "Question", "Choice", "ImageRef", "Verdict"]
        assert [type(record).__name__ for record in records if hasattr(record, "__dict__")] == []

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


class TestReadAnswerKey:
    def test_sample_key_and_digest(self, sample_paths, sample_corpus):
        key, digest = read_answer_key(sample_paths.manifest)
        assert list(key.items()) == [
            (q.id, (q.quiz_id, q.correct_letter, q.image.domain_tag)) for q in sample_corpus.iter_questions()
        ]
        assert digest == sample_corpus.manifest_sha256
        assert digest == hashlib.sha256(sample_paths.manifest.read_bytes()).hexdigest()

    def test_touches_no_image(self, manifest_factory):
        path = manifest_factory(make_manifest({"qz1": [make_question("q1", correct="C", tag="EYE")]}),
                                create_images=False)
        with pytest.raises(CorpusValidationError):
            load_corpus(path)
        assert read_answer_key(path)[0] == {"q1": ("qz1", "C", "EYE")}

    @pytest.mark.parametrize("break_it", [
        lambda m: m.pop("quizzes"),
        lambda m: m.update(quizzes=5),
        lambda m: m.update(quizzes={"qz1": []}),
        lambda m: m.update(quizzes="qz1"),
        lambda m: m.update(quizzes=[5]),
        lambda m: _set_quiz(m, id=["qz1"]),
        lambda m: _set_quiz(m, questions={}),
        lambda m: _set_quiz(m, questions=[None]),
        lambda m: _set_question(m, id={"q": 1}),
        lambda m: _set_question(m, correct_letter=0),
        lambda m: _set_question(m, image="images/q1.png"),
        lambda m: _set_question(m, image={"path": "images/q1.png"}),
        lambda m: _set_question(m, image={"path": "images/q1.png", "domain_tag": [1]}),
    ])
    def test_unreadable_index_names_the_file(self, break_it, manifest_factory):
        manifest = make_manifest({"qz1": [make_question("q1")]})
        break_it(manifest)
        path = manifest_factory(manifest, create_images=False)
        with pytest.raises(MalformedManifestError, match=re.escape(f"manifest {path} is not manifest-shaped")):
            read_answer_key(path)

    @staticmethod
    def _one_question(tmp_path, members: str):
        path = tmp_path / "manifest.json"
        path.write_text('{"quizzes": [{"id": "qz1", "questions": [{%s, "correct_letter": "B", '
                        '"image": {"domain_tag": "CV"}}]}]}' % members, encoding="utf-8")
        return path

    def test_a_repeated_id_member_keeps_its_last_value(self, tmp_path):
        path = self._one_question(tmp_path, '"id": 7, "stem": "s", "id": "q1"')
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert read_answer_key(path) == bf_read_answer_key(path) == ({"q1": ("qz1", "B", "CV")}, digest)

    def test_a_repeated_id_member_ending_in_a_number_is_refused(self, tmp_path):
        path = self._one_question(tmp_path, '"id": "q1", "stem": "s", "id": 7')
        for read in (read_answer_key, bf_read_answer_key):
            with pytest.raises(MalformedManifestError):
                read(path)

    def test_peak_memory_is_about_the_bytes_and_text_of_the_file(self, sample_paths, tmp_path):
        path = write_scaled_sample(sample_paths, tmp_path)
        (key, _), peak = traced_peak(read_answer_key, path)
        assert len(key) == 1975
        # The file's bytes and its decoded text are held together once; the
        # parsed document, which keeps only the key's members, stays below that.
        assert peak <= 2.25 * path.stat().st_size


_KEPT_NAMES = ["quizzes", "questions", "id", "correct_letter", "image", "domain_tag"]
_MEMBER_NAMES = st.sampled_from(_KEPT_NAMES) | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_MEMBER_NAMES, children, max_size=3),
    max_leaves=8,
)


# Pathology options come from a small pool of diagnoses, so the same choice
# recurs across questions, and one text can sit under two letters.
_CHOICE_TEXTS = ["Nevus", "Melanoma"]


@st.composite
def _manifests(draw):
    """Manifest-shaped documents with extra members at every level, the key's
    member names nested in choices and unknown members, and choice texts from
    ``_CHOICE_TEXTS``. About half the documents are drawn broken: in those,
    now and then a member is missing or swapped for any JSON value (the top
    level included), an id repeats, or a choice count or correct letter is
    out of range. The others have unique ids and load."""
    broken = draw(st.booleans())
    used_ids: dict[str, list[str]] = {"qz": [], "q": []}

    def rarely() -> bool:
        return broken and draw(st.integers(0, 24)) == 24

    def new_id(prefix: str) -> str:
        used = used_ids[prefix]
        if used and rarely():
            return draw(st.sampled_from(used))
        used.append(f"{prefix}{len(used) + 1}")
        return used[-1]

    def obj(members: dict) -> dict:
        document = draw(st.dictionaries(_MEMBER_NAMES, _JSON_VALUES, max_size=1))
        for name, make in members.items():
            if rarely():
                document.pop(name, None)
            else:
                document[name] = draw(_JSON_VALUES) if rarely() else make()
        return document

    def question() -> dict:
        return obj({
            "id": lambda: new_id("q"),
            "stem": lambda: draw(st.text(max_size=4)),
            "choices": lambda: [obj({"letter": lambda: letter, "text": lambda: draw(st.sampled_from(_CHOICE_TEXTS))})
                                for letter in "ABC"[: draw(st.integers(0, 1) if rarely() else st.integers(2, 3))]],
            "correct_letter": lambda: "C" if rarely() else draw(st.sampled_from("AB")),
            "explanation": lambda: draw(st.text(min_size=1, max_size=4)),
            "image": lambda: obj({"path": lambda: "images/q.png",
                                  "domain_tag": lambda: draw(st.sampled_from(["CV", "EYE"]))}),
        })

    def quiz() -> dict:
        return obj({
            "id": lambda: new_id("qz"),
            "title": lambda: draw(st.text(max_size=4)),
            "questions": lambda: [question() for _ in range(draw(st.integers(1, 3)))],
        })

    if rarely():
        return draw(_JSON_VALUES)
    return obj({
        "tag_vocabulary": lambda: ["CV", "EYE"],
        "quizzes": lambda: [quiz() for _ in range(draw(st.integers(1, 3)))],
    })


def _load_outcome(load, path):
    """A loader's corpus, or the type of what it raised with its issues or message."""
    try:
        return load(path)
    except CorpusValidationError as exc:
        return CorpusValidationError, exc.issues
    except MalformedManifestError as exc:
        return MalformedManifestError, str(exc)


def _record_choices(value) -> Iterator[list]:
    """Each non-empty ``choices`` array in ``value`` whose entries are all
    objects with a string letter and text, which the parse turns into records."""
    if isinstance(value, list):
        for item in value:
            yield from _record_choices(item)
    elif isinstance(value, dict):
        choices = value.get("choices")
        if isinstance(choices, list) and choices and all(
            isinstance(c, dict) and isinstance(c.get("letter"), str) and isinstance(c.get("text"), str)
            for c in choices
        ):
            yield choices
        for item in value.values():
            yield from _record_choices(item)


@settings(max_examples=300, deadline=None)
@given(manifest=_manifests())
def test_read_answer_key_agrees_with_a_full_parse(tmp_path_factory, manifest):
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        expected = bf_read_answer_key(path)
    except MalformedManifestError:
        with pytest.raises(MalformedManifestError):
            read_answer_key(path)
    else:
        key, digest = read_answer_key(path)
        assert (list(key.items()), digest) == (list(expected[0].items()), expected[1])

    # load_corpus builds choice records during the parse; its corpus, or its
    # issues in order, must be those of a walk over the whole parsed document.
    (path.parent / "images").mkdir()
    (path.parent / "images" / "q.png").write_bytes(b"png")
    corpus = _load_outcome(load_corpus, path)
    arrays = list(_record_choices(manifest))
    pairs = Counter(pair for array in arrays for pair in {(c["letter"], c["text"]) for c in array})
    event(f"choices all lettered and texted: {bool(arrays)}")
    event(f"a (letter, text) pair repeats across questions: {any(n > 1 for n in pairs.values())}")
    event(f"load_corpus: {type(corpus).__name__}")
    assert corpus == _load_outcome(bf_load_corpus, path)


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
