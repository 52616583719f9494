"""Run a corpus through a completion function, score it, and persist the
transcript.

The per-question outcome is a Verdict. Its analysis text follows one rule:
the model's own response when the answer was correct, the official
explanation when it was not. That text is what the downstream tag, entity,
and graph stages consume.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .atomic import write_atomic
from .client import ChatResponse, ClientError
from .corpus import Question, QuizCorpus
from .prompting import EngineConfig, PromptEnvelope, RulesOfConduct, build_prompt

TRANSCRIPT_SCHEMA_VERSION = 1

# Answer markers, most specific first; matching is case-insensitive and the
# LAST occurrence in the response decides.
_MARKER_RE = re.compile(r"(?:correct\s+)?choice\s*:", re.IGNORECASE)
_LETTER_RE = re.compile(r"\s*\(?\s*([A-Za-z])(?:\s*\))?")


def extract_choice(response_text: str) -> str | None:
    """Pull the answered letter out of a model response.

    Finds the last occurrence of the answer marker ("Correct Choice:"
    preferred, bare "Choice:" accepted, any case), tolerates whitespace,
    parentheses, and trailing punctuation around the letter, and returns the
    letter uppercased. Returns None when no parseable marker+letter exists;
    the result depends only on the final marker occurrence.
    """
    last = None
    for match in _MARKER_RE.finditer(response_text):
        last = match
    if last is None:
        return None
    letter_match = _LETTER_RE.match(response_text, last.end())
    if letter_match is None:
        return None
    following = response_text[letter_match.end() : letter_match.end() + 1]
    if following.isalnum():
        return None
    return letter_match.group(1).upper()


@dataclass(frozen=True)
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
    model_id: str
    max_tokens: int
    endpoint_url: str
    temperature: float | None
    rules_text: str
    timestamp: str
    backend: str
    payload_order: str = "text,image"


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


def _verdict_for_response(question: Question, response: ChatResponse) -> Verdict:
    letter = extract_choice(response.response_text)
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
        raw_response=response.response_text,
        extracted_letter=letter,
        correct_letter=question.correct_letter,
        is_correct=is_correct,
        analysis_text=response.response_text if is_correct else question.explanation,
        error=error,
    )


def _verdict_for_error(question: Question, error: ClientError) -> Verdict:
    return Verdict(
        question_id=question.id,
        quiz_id=question.quiz_id,
        domain_tag=question.image.domain_tag,
        raw_response="",
        extracted_letter=None,
        correct_letter=question.correct_letter,
        is_correct=False,
        analysis_text=question.explanation,
        error=f"ClientError:{error.kind}",
    )


def run_evaluation(
    corpus: QuizCorpus,
    rules: RulesOfConduct,
    config: EngineConfig,
    completion: Callable[[PromptEnvelope], ChatResponse],
    parallelism: int = 1,
    *,
    backend: str = "live",
    transcript_path: str | Path | None = None,
) -> RunTranscript:
    """Evaluate every question and assemble the run transcript.

    Each question's envelope is built by the worker that sends it, so about
    ``parallelism`` images are held in memory at once, whatever the corpus
    size. Client failures on individual questions become error verdicts
    rather than aborting the run; only corpus-level failures (an unreadable
    image) abort, and an abort skips the questions that have not started, so
    they are never paid for. Results are aggregated in corpus order, so any
    ``parallelism`` level produces the same transcript. When
    ``transcript_path`` is given the transcript is persisted before return.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")

    def evaluate_one(question: Question) -> Verdict:
        envelope = build_prompt(question, rules)
        try:
            response = completion(envelope)
        except ClientError as err:
            return _verdict_for_error(question, err)
        return _verdict_for_response(question, response)

    if parallelism == 1:
        verdicts = [evaluate_one(q) for q in corpus.iter_questions()]
    else:
        pool = ThreadPoolExecutor(max_workers=parallelism)
        try:
            verdicts = list(pool.map(evaluate_one, corpus.iter_questions()))
        finally:
            pool.shutdown(cancel_futures=True)

    metadata = RunMetadata(
        model_id=config.model_id,
        max_tokens=config.max_tokens,
        endpoint_url=config.endpoint_url,
        temperature=config.temperature,
        rules_text=rules.instruction_text,
        timestamp=datetime.now(timezone.utc).isoformat(),
        backend=backend,
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
    order: list[str] = []
    counts: dict[str, list[int]] = {}
    for verdict in transcript.verdicts:
        if verdict.quiz_id not in counts:
            order.append(verdict.quiz_id)
            counts[verdict.quiz_id] = [0, 0]
        counts[verdict.quiz_id][1] += 1
        if verdict.is_correct:
            counts[verdict.quiz_id][0] += 1
    per_quiz = tuple(QuizScore(qid, counts[qid][0], counts[qid][1]) for qid in order)
    total = sum(s.total for s in per_quiz)
    correct = sum(s.correct for s in per_quiz)
    ratio = round(correct / total, 4) if total else 0.0
    return ScoreSummary(per_quiz=per_quiz, correct=correct, total=total, ratio=ratio)


def _scores_to_dict(transcript: RunTranscript) -> dict:
    summary = score(transcript)
    return {
        "per_quiz": [asdict(s) for s in summary.per_quiz],
        "correct": summary.correct,
        "total": summary.total,
        "ratio": summary.ratio,
    }


def transcript_to_dict(transcript: RunTranscript) -> dict:
    return {
        "schema_version": TRANSCRIPT_SCHEMA_VERSION,
        "run": asdict(transcript.run),
        "verdicts": [asdict(v) for v in transcript.verdicts],
        "scores": _scores_to_dict(transcript),
    }


def transcript_from_dict(doc: dict) -> RunTranscript:
    """Rebuild a transcript; any malformed document raises ValueError: wrong
    shape or keys, a verdict whose ``is_correct`` breaks the scoring rule,
    or stored scores that differ from the verdicts' scores."""
    if not isinstance(doc, dict) or doc.get("schema_version") != TRANSCRIPT_SCHEMA_VERSION:
        raise ValueError(f"not a version-{TRANSCRIPT_SCHEMA_VERSION} transcript document")
    try:
        transcript = RunTranscript(
            run=RunMetadata(**doc["run"]), verdicts=tuple(Verdict(**v) for v in doc["verdicts"])
        )
        scores = _scores_to_dict(transcript)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed transcript: {exc}") from exc
    for v in transcript.verdicts:
        if v.is_correct != (v.extracted_letter is not None and v.extracted_letter == v.correct_letter):
            raise ValueError(f"verdict for {v.question_id!r}: is_correct contradicts its letters")
    if doc.get("scores") != scores:
        raise ValueError("stored scores differ from the scores of the verdicts")
    return transcript


def save_transcript(transcript: RunTranscript, path: str | Path) -> Path:
    """Persist the transcript as stable, sorted-key JSON (atomic write)."""
    return write_atomic(path, json.dumps(transcript_to_dict(transcript), indent=2, sort_keys=True) + "\n")


def load_transcript(path: str | Path) -> RunTranscript:
    with open(path, encoding="utf-8") as handle:
        return transcript_from_dict(json.load(handle))
