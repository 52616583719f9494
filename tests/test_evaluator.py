from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import re
import tempfile
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizeval import evaluator
from quizeval.client import ClientError, make_live_completion, open_replay
from quizeval.corpus import load_corpus
from quizeval.evaluator import (
    RunMetadata,
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

from .bruteforce import bf_extract_choice
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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        # Whole markers, and pieces that join into one ("choic" + "e:").
        st.sampled_from(["Choice:", "Correct Choice:", "CHOICE :", "choice", "Correct ", "CHOICE", "choic", "e:", ":"]),
        # Whitespace, parentheses, letters, digits, and code points that case-fold onto ASCII.
        st.sampled_from([" ", "\n", "\t", "(", ")", "a", "B", "z", "7", "İ", "ı", "ſ", "\u212a"]),
    ), max_size=20).map("".join))
    def test_agrees_with_a_scan_over_every_marker(self, text):
        assert extract_choice(text) == bf_extract_choice(text)


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
        assert score(transcript)["ratio"] == 1.0

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
        assert summary["total"] == 0 and summary["ratio"] == 0.0

    def test_parallelism_invariance(self, sample_paths, sample_corpus):
        completion = open_replay(sample_paths.fixture)
        serial = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, completion, 1, backend="replay")
        parallel = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, completion, 4, backend="replay")
        assert serial.verdicts == parallel.verdicts

    def test_plain_function_is_a_completion(self, sample_paths, sample_corpus):
        # A completion is any function from an envelope to the response text.
        fixture = json.loads(sample_paths.fixture.read_text(encoding="utf-8"))
        plain = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, lambda envelope: fixture[envelope.question_id])
        replayed = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, open_replay(sample_paths.fixture))
        assert plain.verdicts == replayed.verdicts
        assert dataclasses.replace(plain.run, timestamp="") == dataclasses.replace(replayed.run, timestamp="")

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
        Path(list(corpus.iter_questions())[position].image.path).unlink()
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

    @pytest.mark.parametrize("change", ["delete", "truncate", "grow"])
    def test_image_changed_after_its_prompt_aborts_the_run(self, change, tmp_path):
        corpus = load_corpus(materialize_sample(tmp_path / "sample").manifest)
        attempts, sleeps = [], []

        def changing(url, body, headers):
            attempts.append(body.image_path)
            if len(attempts) == 3:
                {"delete": os.unlink, "truncate": lambda p: os.truncate(p, 1),
                 "grow": lambda p: Path(p).write_bytes(Path(p).read_bytes() + b"x")}[change](body.image_path)
            bytes(body)
            return 200, json.dumps({"choices": [{"message": {"content": "Correct Choice:A"}}]})

        completion = make_live_completion(CONFIG, "key", transport=changing, sleep=sleeps.append)
        out = tmp_path / "transcript.json"
        with pytest.raises(ImageReadError) as excinfo:
            run_evaluation(corpus, RulesOfConduct(), CONFIG, completion, 1, transcript_path=out)
        assert not isinstance(excinfo.value, ClientError)
        # The third question is neither retried nor followed by a fourth.
        assert len(attempts) == 3 and sleeps == []
        assert not out.exists()

    def test_too_deeply_nested_reply_is_one_malformed_verdict(self, sample_corpus):
        lock = threading.Lock()
        calls = []

        def transport(url, body, headers):
            with lock:
                calls.append(body)
                fifth = len(calls) == 5
            if fifth:
                return 200, "[" * 100_000
            return 200, json.dumps({"choices": [{"message": {"content": "Correct Choice:A"}}]})

        completion = make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)
        transcript = run_evaluation(sample_corpus, RulesOfConduct(), CONFIG, completion, 2)
        assert len(transcript.verdicts) == len(calls) == sample_corpus.question_count
        assert [v.error for v in transcript.verdicts].count("ClientError:Malformed") == 1
        assert {v.error for v in transcript.verdicts} <= {None, "ClientError:Malformed"}


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
        meta = RunMetadata("m", 10, "https://example.test/x", None, "r Correct Choice:", "t", "replay", "0" * 64)
        return RunTranscript(run=meta, verdicts=tuple(verdicts))

    def test_published_style_ratio(self):
        transcript = self.make_transcript({"a": (33, 40), "b": (33, 39)})
        summary = score(transcript)
        assert (summary["correct"], summary["total"]) == (66, 79)
        assert summary["ratio"] == 0.8354

    def test_perfect_quiz(self):
        summary = score(self.make_transcript({"a": (10, 10)}))
        assert summary["ratio"] == 1.0
        assert summary["per_quiz"][0]["correct"] == 10

    def test_all_wrong(self):
        summary = score(self.make_transcript({"a": (0, 7)}))
        assert summary["ratio"] == 0.0

    def test_totals_are_sums(self):
        transcript = self.make_transcript({"a": (3, 5), "b": (2, 4), "c": (0, 1)})
        summary = score(transcript)
        assert summary["correct"] == sum(s["correct"] for s in summary["per_quiz"])
        assert summary["total"] == sum(s["total"] for s in summary["per_quiz"])


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

    def test_records_the_digest_of_the_manifest_bytes(self, sample_paths, sample_transcript):
        digest = hashlib.sha256(sample_paths.manifest.read_bytes()).hexdigest()
        assert sample_transcript.run.manifest_sha256 == digest

    def test_stable_bytes_for_same_transcript(self, sample_transcript, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_transcript(sample_transcript, first)
        save_transcript(sample_transcript, second)
        assert first.read_bytes() == second.read_bytes()


def _replay_shaped(count: int) -> RunTranscript:
    """Verdicts shaped like the replay benchmark's: unique 40-60 word texts,
    80% correct (so 80% of analysis texts are their response), short wrong
    responses, 16 quiz ids and 5 tags."""
    rng = random.Random(19)
    words = ["a", "second", "look", "confirms", "cirrhosis", "hemosiderin", "ulcer", "amyloidosis", "aortic",
             "without", "any", "doubt", "in", "this", "setting", "is", "the", "usual", "explanation"]

    def text(token: str) -> str:
        return f"Review of {token} follows. " + " ".join(rng.choice(words) for _ in range(rng.randint(40, 60)))

    verdicts = []
    for i in range(count):
        correct = i % 5 != 0
        response = text(f"CASE-R{i:06d}") + " Choice: B" if correct else f"CASE-R{i:06d} favors another. Choice: D"
        verdicts.append(Verdict(
            question_id=f"q{i:06d}", quiz_id=f"quiz{i % 16}", domain_tag=["CV", "GI", "NE", "PU", "RE"][i % 5],
            raw_response=response, extracted_letter="B" if correct else "D", correct_letter="B",
            is_correct=correct, analysis_text=response if correct else text(f"CASE-X{i:06d}"),
        ))
    meta = RunMetadata("m", 10, "https://example.test/x", None, "r Correct Choice:", "t", "replay", "0" * 64)
    return RunTranscript(run=meta, verdicts=tuple(verdicts))


class TestTranscriptSharing:
    """``load_transcript`` keeps one object per distinct response, analysis
    text, quiz id and tag."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return save_transcript(_replay_shaped(2_000), tmp_path_factory.mktemp("shared") / "transcript.json")

    def test_equal_values_are_one_object(self, path):
        verdicts = load_transcript(path).verdicts
        same_text = [v for v in verdicts if v.analysis_text == v.raw_response]
        assert len(same_text) == 1_600
        assert all(v.analysis_text is v.raw_response for v in same_text)
        for name in ("quiz_id", "domain_tag"):
            values = [getattr(v, name) for v in verdicts]
            assert len({id(value) for value in values}) == len(set(values))

    def test_memory_kept_after_the_load_is_bounded(self, path):
        gc.collect()
        tracemalloc.start()
        try:
            transcript = load_transcript(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(transcript.verdicts) == 2_000
        # On this document: 1.18x the file's size when every value is its own
        # string, 0.71x when equal values are shared.
        assert kept < 0.9 * path.stat().st_size


class _Text(str):
    """A string whose exact type no verdict field names."""


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

    @pytest.mark.parametrize("field, value", [
        ("analysis_text", 5), ("question_id", None), ("extracted_letter", 7), ("error", ["x"]), ("is_correct", 0),
        ("is_correct", 1),
    ])
    def test_field_of_wrong_type(self, doc, field, value):
        doc["verdicts"][2][field] = value
        with pytest.raises(ValueError, match=f"{field} has the wrong type"):
            transcript_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("extracted_letter", None), ("error", None), ("error", "ParseFailure"), ("raw_response", _Text("r")),
    ])
    def test_field_of_right_type_accepted(self, doc, field, value):
        ordinal = next(i for i, v in enumerate(doc["verdicts"]) if not v["is_correct"])
        doc["verdicts"][ordinal][field] = value
        assert getattr(transcript_from_dict(doc).verdicts[ordinal], field) is value

    @pytest.mark.parametrize("field", ["quiz_id", "domain_tag"])
    def test_unwritable_value_shared_by_several_verdicts_names_the_first(self, doc, field):
        for ordinal in (3, 5, 8):
            doc["verdicts"][ordinal][field] = "\ud800"
        first = doc["verdicts"][3]["question_id"]
        with pytest.raises(ValueError, match=re.escape(f"verdict for {first!r}: {field} is not writable as UTF-8")):
            transcript_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("max_tokens", "x"), ("max_tokens", True), ("max_tokens", 1.5), ("temperature", "hot"),
        ("temperature", False), ("model_id", 5), ("timestamp", None),
    ])
    def test_run_field_of_wrong_type(self, doc, field, value):
        doc["run"][field] = value
        with pytest.raises(ValueError, match=f"run: {field} has the wrong type"):
            transcript_from_dict(doc)

    @pytest.mark.parametrize("temperature", [0.2, 1])
    def test_integer_accepted_for_float(self, doc, temperature):
        doc["run"]["temperature"] = temperature
        assert transcript_from_dict(doc).run.temperature == temperature

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature(self, doc, temperature, tmp_path):
        doc["run"]["temperature"] = temperature
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))  # NaN / Infinity literals, which json.loads accepts
        with pytest.raises(ValueError, match="run: temperature must be a finite number >= 0"):
            load_transcript(path)

    def test_empty_domain_tag(self, doc):
        doc["verdicts"][4]["domain_tag"] = ""
        with pytest.raises(ValueError, match="domain_tag is empty"):
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

    @pytest.mark.parametrize("version", [True, 2.0, "2", None])
    def test_schema_version_must_be_one_or_two(self, doc, version):
        doc["schema_version"] = version
        with pytest.raises(ValueError, match="is not a version-1 or version-2 transcript"):
            transcript_from_dict(doc)

    def test_payload_order_is_not_a_version_2_field(self, doc):
        doc["run"]["payload_order"] = "text,image"
        with pytest.raises(ValueError, match="malformed transcript"):
            transcript_from_dict(doc)

    @pytest.mark.parametrize("payload_order", [{"payload_order": "text,image"}, {"payload_order": 5}, {}])
    def test_version_1_loads_without_a_digest(self, doc, sample_transcript, payload_order):
        doc["schema_version"] = 1
        del doc["run"]["manifest_sha256"]
        doc["run"].update(payload_order)
        transcript = transcript_from_dict(doc)
        assert transcript.run == dataclasses.replace(sample_transcript.run, manifest_sha256=None)
        assert transcript.verdicts == sample_transcript.verdicts

    def test_version_1_is_checked_as_version_2_is(self, doc):
        doc["schema_version"] = 1
        doc["run"]["max_tokens"] = "x"
        with pytest.raises(ValueError, match="run: max_tokens has the wrong type"):
            transcript_from_dict(doc)


_TEXT = st.text(max_size=12)
_SHA256 = st.text("0123456789abcdef", min_size=64, max_size=64)


@st.composite
def _verdicts(draw):
    """A verdict that obeys the scoring rule: correct exactly when the
    extracted letter is the correct one."""
    correct = draw(_TEXT)
    extracted = draw(st.none() | st.just(correct) | _TEXT)
    response = draw(_TEXT)
    return Verdict(
        question_id=draw(_TEXT), quiz_id=draw(st.sampled_from(["qz1", "qz2", "qz3"])),
        domain_tag=draw(st.text(min_size=1, max_size=6)), raw_response=response,
        extracted_letter=extracted, correct_letter=correct, is_correct=extracted == correct,
        analysis_text=draw(st.just(response) | _TEXT), error=draw(st.none() | _TEXT),
    )


def _transcripts(min_verdicts: int = 0):
    """Transcripts whose run settings are ones ``run`` can write."""
    run = st.builds(
        RunMetadata, model_id=_TEXT, max_tokens=st.integers(min_value=1),
        endpoint_url=st.from_regex(r"https?://[a-z0-9.]+(/[a-z0-9/]*)?", fullmatch=True),
        temperature=st.none() | st.floats(min_value=0, allow_infinity=False),
        rules_text=st.builds("{}Correct Choice:{}".format, _TEXT, _TEXT),
        timestamp=_TEXT, backend=_TEXT, manifest_sha256=_SHA256,
    )
    return st.builds(RunTranscript, run=run,
                     verdicts=st.lists(_verdicts(), min_size=min_verdicts, max_size=6).map(tuple))


def _flip_is_correct(doc, data):
    verdict = data.draw(st.sampled_from(doc["verdicts"]))
    verdict["is_correct"] = not verdict["is_correct"]
    # Stored scores agree with the flipped verdict, so only the rule can catch it.
    rescored = RunTranscript(run=RunMetadata(**doc["run"]), verdicts=tuple(Verdict(**v) for v in doc["verdicts"]))
    doc["scores"] = transcript_to_dict(rescored)["scores"]
    return "is_correct contradicts its letters"


def _empty_domain_tag(doc, data):
    data.draw(st.sampled_from(doc["verdicts"]))["domain_tag"] = ""
    return "domain_tag is empty"


def _wrong_json_type(doc, data):
    # No field of a run or a verdict accepts a JSON array or object.
    where = data.draw(st.sampled_from(["run", *range(len(doc["verdicts"]))]))
    fields = doc["run"] if where == "run" else doc["verdicts"][where]
    name = data.draw(st.sampled_from(sorted(fields)))
    fields[name] = data.draw(st.sampled_from([[], {}]))
    return f"{name} has the wrong type"


def _tampered_scores(doc, data):
    doc["scores"][data.draw(st.sampled_from(["correct", "total", "ratio"]))] += 1
    return "stored scores differ"


def _not_a_digest(doc, data):
    cut, upper, newline = _SHA256.map(lambda d: d[1:]), _SHA256.map(lambda d: "F" + d[1:]), _SHA256.map(lambda d: d + "\n")
    doc["run"]["manifest_sha256"] = data.draw(st.none() | _TEXT | cut | upper | newline)
    return "manifest_sha256 is not a sha256 hex digest"


def _breaks_a_run_rule(doc, data):
    # The settings the generator no longer draws: each is one ``run`` refuses.
    name, value = data.draw(st.one_of(
        st.tuples(st.just("max_tokens"), st.integers(max_value=0)),
        st.tuples(st.just("temperature"), st.floats(max_value=-1e-300) | st.sampled_from([math.nan, math.inf])),
        st.tuples(st.just("endpoint_url"), _TEXT.filter(lambda url: not url.lower().startswith("http"))),
        st.tuples(st.just("rules_text"), _TEXT.filter(lambda text: "Correct Choice:" not in text)),
    ))
    doc["run"][name] = value
    return "run: "


def _load_from_file(doc) -> RunTranscript:
    """``load_transcript`` on ``doc`` written to a temp file (``tmp_path``
    would be shared by every example of a property)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "transcript.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_transcript(path)


class TestTranscriptRoundTrip:
    @settings(deadline=None)
    @given(transcript=_transcripts())
    def test_json_round_trip_is_identity(self, transcript):
        doc = transcript_to_dict(transcript)
        assert transcript_from_dict(json.loads(json.dumps(doc))) == transcript
        assert _load_from_file(doc) == transcript

    @pytest.mark.parametrize("breakage", [_flip_is_correct, _empty_domain_tag, _wrong_json_type, _tampered_scores,
                                          _not_a_digest, _breaks_a_run_rule])
    @settings(deadline=None)
    @given(transcript=_transcripts(min_verdicts=1), data=st.data())
    def test_one_broken_invariant_is_refused(self, breakage, transcript, data):
        doc = json.loads(json.dumps(transcript_to_dict(transcript)))
        message = breakage(doc, data)
        with pytest.raises(ValueError, match=message) as from_dict:
            transcript_from_dict(doc)
        with pytest.raises(ValueError) as from_file:
            _load_from_file(doc)
        assert str(from_file.value) == str(from_dict.value)
