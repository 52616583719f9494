"""Loading and validation of image-paired multiple-choice quiz corpora.

A corpus lives in a single JSON manifest:

    {
      "tag_vocabulary": ["CV", "SKIN", ...],
      "quizzes": [
        {"id": "quiz1", "title": "...", "questions": [
          {"id": "q101",
           "stem": "...",
           "choices": [{"letter": "A", "text": "..."}, ...],
           "correct_letter": "D",
           "explanation": "...",
           "image": {"path": "images/q101.png", "domain_tag": "CV"}}
        ]}
      ]
    }

Image paths are resolved against the manifest's directory and kept as
strings (``os.path.join``); each must name a readable JPEG or PNG file.
Every question carries exactly one domain tag drawn from the
corpus-declared vocabulary. Loaded corpora are immutable and safe to share
across threads.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .atomic import is_utf8, read_json_and_digest

LETTER_SEQUENCE = "ABCDE"
MIN_CHOICES = 2
MAX_CHOICES = 5
IMAGE_MEDIA_TYPES = {".png": "image/png", ".jpg": "image/jpeg", ".jpeg": "image/jpeg"}


class CorpusError(Exception):
    """Base class for corpus loading and validation failures."""


class MalformedManifestError(CorpusError):
    """The manifest file is missing, unparseable, or not manifest-shaped."""


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating a manifest.

    ``kind`` is one of: MissingImage, DuplicateId, InvalidCorrectLetter,
    UnknownTag, MalformedManifest.
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class CorpusValidationError(CorpusError):
    """Raised with the full list of issues found in a manifest."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = tuple(issues)
        summary = "; ".join(str(i) for i in self.issues[:5])
        if len(self.issues) > 5:
            summary += f" (+{len(self.issues) - 5} more)"
        super().__init__(f"{len(self.issues)} validation issue(s): {summary}")


@dataclass(frozen=True, slots=True)
class ImageRef:
    """A question's image: its file path, a ``str`` resolved against the
    manifest's directory, its domain tag (e.g. CV, SKIN) and its media type
    (from ``IMAGE_MEDIA_TYPES``)."""

    path: str
    domain_tag: str
    media_type: str


@dataclass(frozen=True, slots=True)
class Choice:
    letter: str
    text: str


@dataclass(frozen=True, slots=True)
class Question:
    """One quiz item: stem, lettered choices, official answer and explanation.

    The explanation is mandatory even though only incorrectly answered
    questions consume it downstream; which answers will be wrong is unknown
    until a run happens.
    """

    id: str
    quiz_id: str
    stem: str
    choices: tuple[Choice, ...]
    correct_letter: str
    explanation: str
    image: ImageRef

    @property
    def choice_letters(self) -> tuple[str, ...]:
        return tuple(c.letter for c in self.choices)


@dataclass(frozen=True, slots=True)
class Quiz:
    id: str
    title: str
    questions: tuple[Question, ...]


@dataclass(frozen=True, slots=True)
class QuizCorpus:
    """A validated corpus, with the sha256 hex digest of the manifest bytes it
    was validated from."""

    quizzes: tuple[Quiz, ...]
    tag_vocabulary: frozenset[str]
    manifest_sha256: str

    @property
    def question_count(self) -> int:
        return sum(len(q.questions) for q in self.quizzes)

    def iter_questions(self) -> Iterator[Question]:
        for quiz in self.quizzes:
            yield from quiz.questions


def load_corpus(manifest_path: str | Path) -> QuizCorpus:
    """Load and fully validate a corpus manifest.

    Raises MalformedManifestError when the file cannot be parsed at all, and
    CorpusValidationError carrying every issue found otherwise.
    """
    doc, digest = _read_manifest(manifest_path, object_hook=_choice_records())
    issues: list[ValidationIssue] = []

    vocab_raw = doc.get("tag_vocabulary")
    # Tags reach the CSV, DOT and GraphML outputs, which are UTF-8.
    if not isinstance(vocab_raw, list) or not all(isinstance(t, str) and t and is_utf8(t) for t in vocab_raw):
        raise MalformedManifestError("tag_vocabulary must be an array of non-empty UTF-8 strings")
    vocabulary = frozenset(vocab_raw)

    quizzes_raw = doc.get("quizzes")
    if not isinstance(quizzes_raw, list):
        raise MalformedManifestError("quizzes must be an array")

    base_dir = os.path.dirname(manifest_path)
    seen_question_ids: set[str] = set()
    seen_quiz_ids: set[str] = set()
    quizzes: list[Quiz] = []
    for qz in quizzes_raw:
        quiz = _parse_quiz(qz, base_dir, vocabulary, seen_question_ids, seen_quiz_ids, issues)
        if quiz is not None:
            quizzes.append(quiz)

    if issues:
        raise CorpusValidationError(issues)
    return QuizCorpus(quizzes=tuple(quizzes), tag_vocabulary=vocabulary, manifest_sha256=digest)


# What a verdict must agree on with its question: (quiz id, correct letter, domain tag).
AnswerKey = dict[str, tuple[str, str, str]]
# The only member names read_answer_key's walk reads.
_ANSWER_KEY_NAMES = frozenset({"quizzes", "questions", "id", "correct_letter", "image", "domain_tag"})


def read_answer_key(manifest_path: str | Path) -> tuple[AnswerKey, str]:
    """Each question id's ``AnswerKey`` entry, in manifest order, and the
    manifest's sha256 hex digest, without validating the manifest or touching
    an image. Each object keeps only its ``_ANSWER_KEY_NAMES`` members as it
    is parsed (a repeated name's last value wins, as in ``json.loads``), so
    stems, choices and explanations are never held. A manifest the key cannot
    be read from raises MalformedManifestError."""
    doc, digest = _read_manifest(
        manifest_path, object_pairs_hook=lambda pairs: {k: v for k, v in pairs if k in _ANSWER_KEY_NAMES}
    )
    key: AnswerKey = {}
    try:
        for quiz in _array(doc["quizzes"]):
            for question in _array(quiz["questions"]):
                qid, entry = question["id"], (quiz["id"], question["correct_letter"], question["image"]["domain_tag"])
                if not all(isinstance(text, str) for text in (qid, *entry)):
                    raise TypeError("ids, letters and tags must be strings")
                key[qid] = entry
    except (KeyError, TypeError) as exc:
        raise MalformedManifestError(f"manifest {manifest_path} is not manifest-shaped: {exc!r}") from exc
    return key, digest


def _array(value: object) -> list:
    # A JSON string or object would iterate too, as its characters or keys.
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _read_manifest(manifest_path: str | Path, **loads_kwargs) -> tuple[dict, str]:
    doc, digest = read_json_and_digest(manifest_path, MalformedManifestError, "manifest", **loads_kwargs)
    if not isinstance(doc, dict):
        raise MalformedManifestError(f"manifest {manifest_path} must hold a JSON object at the top level")
    return doc, digest


def _choice_records() -> Callable[[dict], dict]:
    """A new ``object_hook`` for one ``load_corpus`` call: an object's
    ``choices`` array whose every entry is an object with string ``letter``
    and ``text`` becomes a tuple of ``Choice`` records, so each question's
    choice objects are freed as it is parsed. Equal (letter, text) pairs in
    one manifest share one record, built the first time the pair is seen.
    ``_parse_choices`` checks the count and the letters."""
    records: defaultdict[str, dict[str, Choice]] = defaultdict(dict)

    def hook(obj: dict) -> dict:
        raw = obj.get("choices")
        if isinstance(raw, list) and all(
            isinstance(item, dict) and isinstance(item.get("letter"), str) and isinstance(item.get("text"), str)
            for item in raw
        ):
            choices = []
            for item in raw:
                by_text = records[item["letter"]]
                if (choice := by_text.get(item["text"])) is None:
                    choice = by_text[item["text"]] = Choice(letter=item["letter"], text=item["text"])
                choices.append(choice)
            obj["choices"] = tuple(choices)
        return obj

    return hook


def _parse_quiz(
    qz: object,
    base_dir: str,
    vocabulary: frozenset[str],
    seen_question_ids: set[str],
    seen_quiz_ids: set[str],
    issues: list[ValidationIssue],
) -> Quiz | None:
    if not isinstance(qz, dict):
        issues.append(ValidationIssue("MalformedManifest", "quiz entry must be an object"))
        return None
    quiz_id = qz.get("id")
    title = qz.get("title", "")
    questions_raw = qz.get("questions")
    if not isinstance(quiz_id, str) or not quiz_id:
        issues.append(ValidationIssue("MalformedManifest", "quiz id must be a non-empty string"))
        return None
    if not is_utf8(quiz_id):
        issues.append(ValidationIssue("MalformedManifest", f"quiz id {quiz_id!r} is not writable as UTF-8"))
        return None
    if quiz_id in seen_quiz_ids:
        issues.append(ValidationIssue("DuplicateId", f"quiz id {quiz_id!r} appears more than once"))
        return None
    seen_quiz_ids.add(quiz_id)
    if not isinstance(title, str):
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: title must be a string"))
        title = ""
    if not isinstance(questions_raw, list):
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: questions must be an array"))
        return None

    questions: list[Question] = []
    for entry in questions_raw:
        q = _parse_question(entry, quiz_id, base_dir, vocabulary, seen_question_ids, issues)
        if q is not None:
            questions.append(q)
    return Quiz(id=quiz_id, title=title, questions=tuple(questions))


def _parse_question(
    entry: object,
    quiz_id: str,
    base_dir: str,
    vocabulary: frozenset[str],
    seen_question_ids: set[str],
    issues: list[ValidationIssue],
) -> Question | None:
    if not isinstance(entry, dict):
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: question entry must be an object"))
        return None
    qid = entry.get("id")
    if not isinstance(qid, str) or not qid:
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: question id must be a non-empty string"))
        return None
    if qid in seen_question_ids:
        issues.append(ValidationIssue("DuplicateId", f"question id {qid!r} appears more than once"))
        return None
    seen_question_ids.add(qid)

    ok = True
    stem = entry.get("stem")
    if not isinstance(stem, str):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: stem must be a string"))
        ok = False

    choices = _parse_choices(entry.get("choices"), qid, issues)
    if choices is None:
        ok = False

    correct = entry.get("correct_letter")
    if not isinstance(correct, str):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: correct_letter must be a string"))
        ok = False
    elif choices is not None and correct not in tuple(c.letter for c in choices):
        issues.append(
            ValidationIssue(
                "InvalidCorrectLetter",
                f"question {qid}: correct_letter {correct!r} is not among the choice letters",
            )
        )
        ok = False

    explanation = entry.get("explanation")
    if not isinstance(explanation, str) or not explanation.strip():
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: explanation must be non-empty"))
        ok = False

    image = _parse_image(entry.get("image"), qid, base_dir, vocabulary, issues)
    if image is None:
        ok = False

    if not ok:
        return None
    return Question(
        id=qid,
        quiz_id=quiz_id,
        stem=stem,
        choices=choices,
        correct_letter=correct,
        explanation=explanation,
        image=image,
    )


def _parse_choices(raw: object, qid: str, issues: list[ValidationIssue]) -> tuple[Choice, ...] | None:
    if not isinstance(raw, (list, tuple)) or not (MIN_CHOICES <= len(raw) <= MAX_CHOICES):
        issues.append(
            ValidationIssue(
                "MalformedManifest",
                f"question {qid}: choices must be an array of {MIN_CHOICES}-{MAX_CHOICES} entries",
            )
        )
        return None
    # _choice_records leaves an array a list only if an entry lacks a string letter or text.
    if isinstance(raw, list):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: each choice needs letter and text"))
        return None
    letters = tuple(c.letter for c in raw)
    if letters != tuple(LETTER_SEQUENCE[: len(letters)]):
        issues.append(
            ValidationIssue(
                "MalformedManifest",
                f"question {qid}: choice letters must be A..{LETTER_SEQUENCE[len(letters) - 1]} in order, got {letters}",
            )
        )
        return None
    return raw


def _parse_image(
    raw: object, qid: str, base_dir: str, vocabulary: frozenset[str], issues: list[ValidationIssue]
) -> ImageRef | None:
    if not isinstance(raw, dict) or not isinstance(raw.get("path"), str) or not isinstance(raw.get("domain_tag"), str):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: image needs path and domain_tag"))
        return None
    tag = raw["domain_tag"]
    ok = True
    if tag not in vocabulary:
        issues.append(ValidationIssue("UnknownTag", f"question {qid}: tag {tag!r} is not in the tag vocabulary"))
        ok = False
    path = os.path.join(base_dir, raw["path"])
    media_type = IMAGE_MEDIA_TYPES.get(os.path.splitext(path)[1].lower())
    if media_type is None:
        name = os.path.basename(path)
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: image {name!r} is not a JPEG or PNG file"))
        ok = False
    # False, not an error, for a name the file system refuses, such as one too long.
    if not os.path.isfile(path) or not os.access(path, os.R_OK):
        issues.append(ValidationIssue("MissingImage", f"question {qid}: image file {path!r} is not readable"))
        ok = False
    if not ok:
        return None
    return ImageRef(path=path, domain_tag=tag, media_type=media_type)

