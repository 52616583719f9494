"""Run a corpus through a completion function, score it, and persist the
transcript.

The per-question outcome is a Verdict. Its analysis text follows one rule:
the model's own response when the answer was correct, the official
explanation when it was not. That text is what the downstream tag, entity,
and graph stages consume.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_type_hints

from .atomic import has_json_type, is_utf8, read_json, write_json
from .client import ClientError, CompletionFn
from .corpus import Question, QuizCorpus
from .pool import ordered_map
from .prompting import EngineConfig, RulesOfConduct, build_prompt

TRANSCRIPT_SCHEMA_VERSION = 2

# The answer marker, in any case; the LAST occurrence in the response decides.
# The greedy ``.*`` backtracks from the end, so the match ends where the last
# marker ends; a "Correct " prefix never moves that end, so it is not matched.
_MARKER_RE = re.compile(r".*choice\s*:", re.IGNORECASE | re.DOTALL)
_LETTER_RE = re.compile(r"\s*\(?\s*([A-Za-z])(?:\s*\))?")
_SHA256_RE = re.compile(r"[0-9a-f]{64}")


def extract_choice(response_text: str) -> str | None:
    """Pull the answered letter out of a model response.

    Finds the last occurrence of the answer marker ("Correct Choice:"
    preferred, bare "Choice:" accepted, any case), tolerates whitespace,
    parentheses, and trailing punctuation around the letter, and returns the
    letter uppercased. Returns None when no parseable marker+letter exists;
    the result depends only on the final marker occurrence.
    """
    last = _MARKER_RE.match(response_text)
    if last is None:
        return None
    letter_match = _LETTER_RE.match(response_text, last.end())
    if letter_match is None:
        return None
    following = response_text[letter_match.end() : letter_match.end() + 1]
    if following.isalnum():
        return None
    return letter_match.group(1).upper()


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome for one question.

    ``error`` is None for a clean parse, "ParseFailure" when no letter could
    be extracted, "ExtractedButInvalid" when the letter is not one of the
    question's choices, or "ClientError:<kind>" when the request itself
    failed after retries.
    """

    question_id: str
    quiz_id: str
    domain_tag: str
    raw_response: str
    extracted_letter: str | None
    correct_letter: str
    is_correct: bool
    analysis_text: str
    error: str | None = None


@dataclass(frozen=True)
class RunMetadata:
    """How a run was made. ``manifest_sha256`` is the sha256 hex digest of
    the manifest bytes the run read; a version-1 transcript recorded none, and
    loads with None."""

    model_id: str
    max_tokens: int
    endpoint_url: str
    temperature: float | None
    rules_text: str
    timestamp: str
    backend: str
    manifest_sha256: str | None


# The Python types each field accepts from JSON: its annotation's members.
_VERDICT_FIELD_TYPES, _RUN_FIELD_TYPES = (
    {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()} for cls in (Verdict, RunMetadata)
)
# Every tuple of exact types, field by field, that the verdict type check
# accepts as it is. A verdict whose types are not among them is checked field
# by field with ``has_json_type``.
_VERDICT_FIELDS = attrgetter(*_VERDICT_FIELD_TYPES)
_VERDICT_EXACT_TYPES = frozenset(product(*_VERDICT_FIELD_TYPES.values()))


@dataclass(frozen=True)
class QuizScore:
    quiz_id: str
    correct: int
    total: int


@dataclass(frozen=True)
class ScoreSummary:
    per_quiz: tuple[QuizScore, ...]
    correct: int
    total: int
    ratio: float


@dataclass(frozen=True)
class RunTranscript:
    run: RunMetadata
    verdicts: tuple[Verdict, ...]


def _verdict(question: Question, response_text: str, client_error: ClientError | None = None) -> Verdict:
    """Score one response. A request that failed (``client_error``) gets
    empty response text, no letter and error "ClientError:<kind>"."""
    if client_error is not None:
        letter, error = None, f"ClientError:{client_error.kind}"
    else:
        letter = extract_choice(response_text)
        if letter is None:
            error = "ParseFailure"
        elif letter not in question.choice_letters:
            error = "ExtractedButInvalid"
        else:
            error = None
    is_correct = letter is not None and letter == question.correct_letter
    return Verdict(
        question_id=question.id,
        quiz_id=question.quiz_id,
        domain_tag=question.image.domain_tag,
        raw_response=response_text,
        extracted_letter=letter,
        correct_letter=question.correct_letter,
        is_correct=is_correct,
        analysis_text=response_text if is_correct else question.explanation,
        error=error,
    )


def run_evaluation(
    corpus: QuizCorpus,
    rules: RulesOfConduct,
    config: EngineConfig,
    completion: CompletionFn,
    parallelism: int = 1,
    *,
    backend: str = "live",
    transcript_path: str | Path | None = None,
) -> RunTranscript:
    """Evaluate every question and assemble the run transcript.

    Each question's envelope is built by the worker that sends it, and its
    image is streamed into the request a block at a time, so memory does not
    grow with the corpus or the images. Client failures on one question
    become error verdicts; only corpus-level failures (an image that cannot
    be read whole) abort, and an abort skips the questions that have not
    started, so they are never paid for. Results are aggregated in corpus
    order, so any ``parallelism`` level produces the same transcript. When
    ``transcript_path`` is given the transcript is persisted before return.
    """
    def evaluate_one(question: Question) -> Verdict:
        envelope = build_prompt(question, rules)
        try:
            response_text = completion(envelope)
        except ClientError as err:
            return _verdict(question, "", err)
        return _verdict(question, response_text)

    verdicts = ordered_map(evaluate_one, tuple(corpus.iter_questions()), parallelism)

    metadata = RunMetadata(
        **asdict(config),
        rules_text=rules.instruction_text,
        timestamp=datetime.now(timezone.utc).isoformat(),
        backend=backend,
        manifest_sha256=corpus.manifest_sha256,
    )
    transcript = RunTranscript(run=metadata, verdicts=tuple(verdicts))
    if transcript_path is not None:
        save_transcript(transcript, transcript_path)
    return transcript


def score(transcript: RunTranscript) -> ScoreSummary:
    """Per-quiz (correct, total) pairs plus the overall ratio.

    The ratio is correct/total rounded to 4 decimal places; an empty
    transcript scores 0 questions with ratio 0.0 rather than dividing by
    zero.
    """
    counts: dict[str, list[int]] = {}  # quiz id -> [correct, total], in first-seen order
    for verdict in transcript.verdicts:
        tally = counts.setdefault(verdict.quiz_id, [0, 0])
        tally[0] += verdict.is_correct
        tally[1] += 1
    per_quiz = tuple(QuizScore(qid, correct, total) for qid, (correct, total) in counts.items())
    total = sum(s.total for s in per_quiz)
    correct = sum(s.correct for s in per_quiz)
    ratio = round(correct / total, 4) if total else 0.0
    return ScoreSummary(per_quiz=per_quiz, correct=correct, total=total, ratio=ratio)


def scores_to_dict(summary: ScoreSummary) -> dict:
    """The serialised form of a score summary, in the transcript and the report alike."""
    return {
        "per_quiz": [{"quiz_id": s.quiz_id, "correct": s.correct, "total": s.total} for s in summary.per_quiz],
        "correct": summary.correct,
        "total": summary.total,
        "ratio": summary.ratio,
    }


def transcript_to_dict(transcript: RunTranscript) -> dict:
    # Every verdict field is immutable, so asdict's deep copy would only cost time.
    names = [f.name for f in fields(Verdict)]
    return {
        "schema_version": TRANSCRIPT_SCHEMA_VERSION,
        "run": asdict(transcript.run),
        "verdicts": [{name: getattr(v, name) for name in names} for v in transcript.verdicts],
        "scores": scores_to_dict(score(transcript)),
    }


def transcript_from_dict(doc: dict, source: str = "document") -> RunTranscript:
    """Rebuild a version-2 or version-1 transcript; any malformed document
    raises ValueError: wrong shape (the message names ``source``) or keys, a
    run or verdict field of the wrong JSON type, a version-2 manifest digest
    that is not a sha256 hex digest, a non-finite temperature, an empty domain
    tag, a verdict whose ``is_correct`` breaks the scoring rule, or stored
    scores that differ from the verdicts' scores. A version-1 run's
    ``payload_order`` is accepted and dropped, and its digest is None."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    # has_json_type, because true == 1 and 2.0 == 2 in Python.
    if not has_json_type(version, (int,)) or version not in (1, TRANSCRIPT_SCHEMA_VERSION):
        raise ValueError(f"{source} is not a version-1 or version-{TRANSCRIPT_SCHEMA_VERSION} transcript")
    try:
        run = doc["run"]
        if version == 1 and isinstance(run, dict):
            run = {**run, "manifest_sha256": None}
            run.pop("payload_order", None)
        transcript = RunTranscript(run=RunMetadata(**run), verdicts=tuple(Verdict(**v) for v in doc["verdicts"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed transcript: {exc}") from exc
    for name, types in _RUN_FIELD_TYPES.items():
        if not has_json_type(getattr(transcript.run, name), types):
            raise ValueError(f"run: {name} has the wrong type")
    if version != 1 and not _SHA256_RE.fullmatch(transcript.run.manifest_sha256 or ""):
        raise ValueError("run: manifest_sha256 is not a sha256 hex digest")
    if transcript.run.temperature is not None and not math.isfinite(transcript.run.temperature):
        raise ValueError("run: temperature is not finite")
    writable: set[str] = set()  # the quiz ids and tags found writable as UTF-8
    for v in transcript.verdicts:
        if tuple(map(type, _VERDICT_FIELDS(v))) not in _VERDICT_EXACT_TYPES:
            for name, types in _VERDICT_FIELD_TYPES.items():
                if not has_json_type(getattr(v, name), types):
                    raise ValueError(f"verdict for {v.question_id!r}: {name} has the wrong type")
        if not v.domain_tag:
            raise ValueError(f"verdict for {v.question_id!r}: domain_tag is empty")
        for name in ("quiz_id", "domain_tag"):  # both reach the UTF-8 CSV outputs
            value = getattr(v, name)
            if value not in writable:
                if not is_utf8(value):
                    raise ValueError(f"verdict for {v.question_id!r}: {name} is not writable as UTF-8")
                writable.add(value)
        if v.is_correct != (v.extracted_letter is not None and v.extracted_letter == v.correct_letter):
            raise ValueError(f"verdict for {v.question_id!r}: is_correct contradicts its letters")
    if doc.get("scores") != scores_to_dict(score(transcript)):
        raise ValueError("stored scores differ from the scores of the verdicts")
    return transcript


def save_transcript(transcript: RunTranscript, path: str | Path) -> Path:
    """Persist the transcript as stable, sorted-key JSON (atomic write)."""
    return write_json(path, transcript_to_dict(transcript))


def load_transcript(path: str | Path) -> RunTranscript:
    """Read and check a transcript; an unreadable or malformed file raises ValueError.

    Each distinct string value of ``raw_response``, ``analysis_text``,
    ``quiz_id`` and ``domain_tag`` is kept as one object, shared as each
    object is parsed, so a correct verdict's analysis text (its response) and
    the repeated quiz ids and tags are never held twice."""
    shared: dict[str, str] = {}

    def share(obj: dict) -> dict:
        for name in ("raw_response", "analysis_text", "quiz_id", "domain_tag"):
            value = obj.get(name)
            if isinstance(value, str):  # any other type must reach transcript_from_dict's type check
                obj[name] = shared.setdefault(value, value)
        return obj

    return transcript_from_dict(read_json(path, ValueError, "transcript", object_hook=share), f"transcript {path}")
