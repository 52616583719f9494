from __future__ import annotations

from pathlib import Path

import pytest

from quizeval.corpus import Choice, ImageRef, Question, load_corpus
from quizeval.prompting import (
    ANSWER_MARKER,
    DEFAULT_RULES_TEXT,
    EngineConfig,
    ImageReadError,
    MarkerMissingError,
    RulesOfConduct,
    build_prompt,
)

from .conftest import TINY_PNG, make_manifest, make_question


@pytest.fixture
def question(manifest_factory):
    path = manifest_factory(make_manifest({"qz1": [make_question("q1", correct="B")]}))
    return next(load_corpus(path).iter_questions())


def hand_question(image_path: Path, n_choices: int = 1) -> Question:
    letters = "ABCDE"[:n_choices]
    return Question(
        id="hq1",
        quiz_id="qz1",
        stem="Stem text.",
        choices=tuple(Choice(letter, f"Option {letter}") for letter in letters),
        correct_letter="A",
        explanation="Reason.",
        image=ImageRef(path=str(image_path), domain_tag="CV", media_type="image/png"),
    )


class TestBuildPrompt:
    def test_part_order_and_contents(self, question):
        envelope = build_prompt(question, RulesOfConduct())
        assert envelope.text.startswith(DEFAULT_RULES_TEXT)
        assert envelope.rules_text.endswith("Correct Choice:(ONLY the correct letter).")
        assert question.stem in envelope.text
        for choice in question.choices:
            assert envelope.text.count(f"{choice.letter}. {choice.text}") == 1
        assert envelope.question_id == question.id

    def test_choices_rendered_in_letter_order(self, question):
        envelope = build_prompt(question, RulesOfConduct())
        lines = envelope.choices_text.splitlines()
        assert [line[0] for line in lines] == list("ABCDE")

    def test_image_bytes_match_disk(self, question):
        envelope = build_prompt(question, RulesOfConduct())
        assert envelope.image_bytes == Path(question.image.path).read_bytes()
        assert envelope.image_media_type == "image/png"

    def test_single_choice_question(self, tmp_path):
        image = tmp_path / "img.png"
        image.write_bytes(TINY_PNG)
        envelope = build_prompt(hand_question(image, n_choices=1), RulesOfConduct())
        assert envelope.choices_text == "A. Option A"

    def test_unreadable_image(self, tmp_path):
        with pytest.raises(ImageReadError):
            build_prompt(hand_question(tmp_path / "absent.png"), RulesOfConduct())

    def test_jpeg_media_type(self, manifest_factory):
        path = manifest_factory(make_manifest({"qz1": [make_question("q1", image="images/q1.jpg")]}))
        envelope = build_prompt(next(load_corpus(path).iter_questions()), RulesOfConduct())
        assert envelope.image_media_type == "image/jpeg"

    def test_deterministic(self, question):
        first = build_prompt(question, RulesOfConduct())
        second = build_prompt(question, RulesOfConduct())
        assert first == second
        assert first.text == second.text

    def test_text_length_is_sum_of_parts(self, question):
        envelope = build_prompt(question, RulesOfConduct())
        separators = 2 * len("\n\n")
        assert len(envelope.text) == (
            len(envelope.rules_text) + len(envelope.stem) + len(envelope.choices_text) + separators
        )

    def test_image_never_inlined_into_text(self, question):
        import base64

        envelope = build_prompt(question, RulesOfConduct())
        assert base64.b64encode(envelope.image_bytes).decode("ascii") not in envelope.text


class TestRulesOfConduct:
    def test_default_contains_marker(self):
        assert ANSWER_MARKER in DEFAULT_RULES_TEXT
        assert RulesOfConduct().instruction_text == DEFAULT_RULES_TEXT

    def test_custom_rules_with_marker(self):
        text = f"Reply tersely. {ANSWER_MARKER}(letter)"
        assert RulesOfConduct(text).instruction_text == text

    def test_marker_missing(self):
        with pytest.raises(MarkerMissingError):
            RulesOfConduct("no marker")


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.model_id == "gpt-4-vision-preview"
        assert config.max_tokens == 4000
        assert config.temperature is None

    @pytest.mark.parametrize("kwargs", [
        {"max_tokens": 0},
        {"endpoint_url": "not a url"},
        {"endpoint_url": "ftp://host/x"},
        {"temperature": -0.1},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    # http.client refuses these in a request target; urlparse drops some of them silently.
    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:9/v1/chat completions", "\thttp://host/v1", "http://host/v1\r\n",
        "http://host/v1\x00", "http://host/\x1fv1", "http://host/v1\x7f",
    ])
    def test_rejects_whitespace_and_control_characters_in_endpoint(self, url):
        with pytest.raises(ValueError, match="endpoint_url contains whitespace or a control character"):
            EngineConfig(endpoint_url=url)

    def test_temperature_zero_allowed(self):
        assert EngineConfig(temperature=0.0).temperature == 0.0
