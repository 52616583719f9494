from __future__ import annotations

import json
import threading
import time
import weakref

import pytest

from quizeval import evaluator
from quizeval.client import open_replay
from quizeval.corpus import load_corpus
from quizeval.evaluator import (
    RunTranscript,
    Verdict,
    extract_choice,
    load_transcript,
    run_evaluation,
    save_transcript,
    score,
    transcript_from_dict,
    transcript_to_dict,
)
from quizeval.prompting import EngineConfig, ImageReadError, RulesOfConduct
from quizeval.sampledata import materialize_sample

from .conftest import make_manifest, make_question

CONFIG = EngineConfig(endpoint_url="https://example.test/v1/chat/completions")


class TestExtractChoice:
    @pytest.mark.parametrize("text,expected", [
        ("Correct Choice:D", "D"),
        ("Choice:B", "B"),
        ("correct choice: b.", "B"),
        ("CHOICE:  (C)", "C"),
        ("Something first. Correct Choice:\nA", "A"),
        ("No marker at all here.", None),
        ("The answer is probably early.", None),
        ("", None),
        ("Choice:(E),", "E"),
        ("blah.Choice:D", "D"),
        ("Correct Choice : d!", "D"),
    ])
    def test_basic_forms(self, text, expected):
        assert extract_choice(text) == expected

    def test_last_marker_wins(self):
        assert extract_choice("Choice:A is tempting. Correct Choice:C") == "C"
        assert extract_choice("Correct Choice:C ... final choice: e") == "E"

    def test_last_marker_without_letter_fails(self):
        # Result depends solely on the final marker occurrence.
        assert extract_choice("Correct Choice:B then Correct Choice:(ONLY the correct letter).") is None

    def test_letter_must_stand_alone(self):
        assert extract_choice("Choice:Dr Smith agrees") is None
        assert extract_choice("Choice:B2") is None

    def test_idempotent(self):
        text = "Summary. Correct Choice:D."
        assert extract_choice(text) == extract_choice(text) == "D"

    def test_trailing_text_without_marker_keeps_result(self):
        base = "Correct Choice:B."
        assert extract_choice(base + " Nothing more to add here.") == "B"
        assert extract_choice(base + "\n(see notes)") == "B"

    def test_trailing_new_marker_changes_result(self):
        assert extract_choice("Correct Choice:B. Wait, choice: a") == "A"


def tiny_corpus(manifest_factory, responses: dict[str, str], n: int = 3):
    questions = [make_question(f"q{i}", correct="ABCDE"[i % 5]) for i in range(n)]
    path = manifest_factory(make_manifest({"qz1": questions}))
    corpus = load_corpus(path)
    fixture = path.with_name("fixture.json")
    fixture.write_text(json.dumps(responses))
    return corpus, open_replay(fixture)


class TestRunEvaluation:
    def test_perfect_oracle(self, manifest_factory):
        responses = {f"q{i}": f"Correct Choice:{'ABCDE'[i % 5]}" for i in range(3)}
        corpus, completion = tiny_corpus(manifest_factory, responses)
        transcript = run_evaluation(corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay")
        assert all(v.is_correct for v in transcript.verdicts)
        assert score(transcript).ratio == 1.0

    def test_one_verdict_per_question_despite_failures(self, manifest_factory):
        responses = {"q0": "Correct Choice:A", "q2": "Correct Choice:C"}  # q1 missing
        corpus, completion = tiny_corpus(manifest_factory, responses)
        transcript = run_evaluation(corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay")
        assert len(transcript.verdicts) == 3
        failed = transcript.verdicts[1]
        assert failed.question_id == "q1"
        assert failed.error == "ClientError:Malformed"
        assert not failed.is_correct
        assert failed.extracted_letter is None
        assert failed.analysis_text == "Because of the finding."

    def test_parse_failure_verdict(self, manifest_factory):
        responses = {"q0": "No marker here.", "q1": "Correct Choice:B", "q2": "Correct Choice:C"}
        corpus, completion = tiny_corpus(manifest_factory, responses)
        transcript = run_evaluation(corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay")
        assert transcript.verdicts[0].error == "ParseFailure"
        assert transcript.verdicts[0].extracted_letter is None
        assert not transcript.verdicts[0].is_correct

    def test_extracted_but_invalid_letter(self, manifest_factory):
        responses = {"q0": "Correct Choice:Z", "q1": "Correct Choice:B", "q2": "Correct Choice:C"}
        corpus, completion = tiny_corpus(manifest_factory, responses)
        transcript = run_evaluation(corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay")
        assert transcript.verdicts[0].error == "ExtractedButInvalid"
        assert transcript.verdicts[0].extracted_letter == "Z"
        assert not transcript.verdicts[0].is_correct

    def test_empty_corpus(self, manifest_factory):
        path = manifest_factory({"tag_vocabulary": [], "quizzes": []})
        corpus = load_corpus(path)
        transcript = run_evaluation(
            corpus, RulesOfConduct(), CONFIG, lambda env: (_ for _ in ()).throw(AssertionError), 1
        )
        assert transcript.verdicts == ()
        summary = score(transcript)
        assert summary.total == 0 and summary.ratio == 0.0

    def test_parallelism_invariance(self, sample_paths, sample_corpus):
        completion = open_replay(sample_paths.fixture)
        serial = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay")
        parallel = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, completion, 4, backend="replay")
        assert serial.verdicts == parallel.verdicts

    def test_invalid_parallelism(self, sample_corpus):
        with pytest.raises(ValueError):
            run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, lambda e: None, 0)

    def test_analysis_text_rule_holds_for_every_verdict(self, sample_transcript, sample_corpus):
        explanations = {q.id: q.explanation for q in sample_corpus.iter_questions()}
        for verdict in sample_transcript.verdicts:
            if verdict.is_correct:
                assert verdict.analysis_text == verdict.raw_response
            else:
                assert verdict.analysis_text == explanations[verdict.question_id]

    def test_correctness_iff_extracted_equals_official(self, sample_transcript):
        for verdict in sample_transcript.verdicts:
            expected = verdict.extracted_letter is not None and verdict.extracted_letter == verdict.correct_letter
            assert verdict.is_correct == expected

    def test_transcript_persisted_before_return(self, manifest_factory, tmp_path):
        responses = {f"q{i}": f"Correct Choice:{'ABCDE'[i % 5]}" for i in range(3)}
        corpus, completion = tiny_corpus(manifest_factory, responses)
        out = tmp_path / "sub" / "transcript.json"
        transcript = run_evaluation(
            corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay", transcript_path=out
        )
        assert out.is_file()
        assert load_transcript(out) == transcript


class TestRunLoop:
    def test_envelopes_alive_bounded_by_parallelism(self, sample_paths, sample_corpus, monkeypatch):
        lock = threading.Lock()
        alive, peak = [0], [0]
        build_prompt = evaluator.build_prompt

        def freed():
            with lock:
                alive[0] -= 1

        def counting_build_prompt(*args):
            envelope = build_prompt(*args)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(envelope, freed)
            return envelope

        monkeypatch.setattr(evaluator, "build_prompt", counting_build_prompt)
        completion = open_replay(sample_paths.fixture)
        transcript = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, completion, 2, backend="replay")
        assert len(transcript.verdicts) == sample_corpus.question_count
        assert 1 <= peak[0] <= 3

    def test_unreadable_image_skips_questions_not_started(self, tmp_path):
        paths = materialize_sample(tmp_path / "sample")
        corpus = load_corpus(paths.manifest)
        position = 10
        list(corpus.iter_questions())[position].image.path.unlink()
        replay = open_replay(paths.fixture)
        calls = []

        def counting(envelope):
            calls.append(envelope.question_id)
            # Like an endpoint, a call takes time; an instant one would let
            # the workers drain the queue before the abort reaches it.
            time.sleep(0.005)
            return replay(envelope)

        out = tmp_path / "transcript.json"
        with pytest.raises(ImageReadError):
            run_evaluation(corpus, RulesOfConduct(), CONFIG, counting, 2, backend="replay", transcript_path=out)
        assert len(calls) <= position + 2
        assert not out.exists()


class TestScore:
    def make_transcript(self, pattern: dict[str, tuple[int, int]]) -> RunTranscript:
        from quizeval.evaluator import RunMetadata

        verdicts = []
        for quiz_id, (right, total) in pattern.items():
            for i in range(total):
                ok = i < right
                verdicts.append(
                    Verdict(
                        question_id=f"{quiz_id}-{i}",
                        quiz_id=quiz_id,
                        domain_tag="CV",
                        raw_response="Correct Choice:A" if ok else "Correct Choice:B",
                        extracted_letter="A" if ok else "B",
                        correct_letter="A",
                        is_correct=ok,
                        analysis_text="x",
                    )
                )
        meta = RunMetadata("m", 10, "https://example.test/x", None, "r Correct Choice:", "t", "replay")
        return RunTranscript(run=meta, verdicts=tuple(verdicts))

    def test_published_style_ratio(self):
        transcript = self.make_transcript({"a": (33, 40), "b": (33, 39)})
        summary = score(transcript)
        assert (summary.correct, summary.total) == (66, 79)
        assert summary.ratio == 0.8354

    def test_perfect_quiz(self):
        summary = score(self.make_transcript({"a": (10, 10)}))
        assert summary.ratio == 1.0
        assert summary.per_quiz[0].correct == 10

    def test_all_wrong(self):
        summary = score(self.make_transcript({"a": (0, 7)}))
        assert summary.ratio == 0.0

    def test_totals_are_sums(self):
        transcript = self.make_transcript({"a": (3, 5), "b": (2, 4), "c": (0, 1)})
        summary = score(transcript)
        assert summary.correct == sum(s.correct for s in summary.per_quiz)
        assert summary.total == sum(s.total for s in summary.per_quiz)


class TestPersistence:
    def test_round_trip(self, sample_transcript, tmp_path):
        path = tmp_path / "t.json"
        save_transcript(sample_transcript, path)
        assert load_transcript(path) == sample_transcript

    def test_rejects_other_schema(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError):
            load_transcript(path)

    def test_stable_bytes_for_same_transcript(self, sample_transcript, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_transcript(sample_transcript, first)
        save_transcript(sample_transcript, second)
        assert first.read_bytes() == second.read_bytes()


class TestTranscriptValidation:
    """Every malformed transcript document is a ValueError, never a raw
    TypeError/KeyError or a silently accepted run."""

    @pytest.fixture
    def doc(self, sample_transcript):
        return transcript_to_dict(sample_transcript)

    def test_non_object_verdict(self, doc):
        doc["verdicts"][3] = ["not", "an", "object"]
        with pytest.raises(ValueError, match="malformed"):
            transcript_from_dict(doc)

    def test_unknown_run_key(self, doc):
        doc["run"]["seed"] = 7
        with pytest.raises(ValueError, match="malformed"):
            transcript_from_dict(doc)

    def test_missing_verdict_key(self, doc):
        del doc["verdicts"][0]["raw_response"]
        with pytest.raises(ValueError, match="malformed"):
            transcript_from_dict(doc)

    def test_is_correct_contradicts_letters(self, doc, sample_transcript):
        verdict = next(v for v in doc["verdicts"] if not v["is_correct"])
        verdict["is_correct"] = True
        # Stored scores agree with the flipped verdict, so only the rule can catch it.
        rescored = RunTranscript(run=sample_transcript.run, verdicts=tuple(Verdict(**v) for v in doc["verdicts"]))
        doc["scores"] = transcript_to_dict(rescored)["scores"]
        with pytest.raises(ValueError, match="is_correct"):
            transcript_from_dict(doc)

    def test_stored_scores_differ(self, doc):
        doc["scores"]["correct"] += 1
        with pytest.raises(ValueError, match="scores"):
            transcript_from_dict(doc)
