from __future__ import annotations

import base64
import json
import random
import tracemalloc

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from quizeval.client import (
    ClientError,
    MalformedFixtureError,
    RetriesExhaustedError,
    complete_text,
    make_live_completion,
    open_replay,
    request_body,
)
from quizeval.corpus import IMAGE_MEDIA_TYPES
from quizeval.prompting import EngineConfig, PromptEnvelope

from .bruteforce import bf_request_body

CONFIG = EngineConfig(endpoint_url="https://example.test/v1/chat/completions")


def envelope(question_id: str = "q1") -> PromptEnvelope:
    return PromptEnvelope(
        question_id=question_id,
        rules_text="Rules. Correct Choice:(letter)",
        stem="Stem.",
        choices_text="A. one\nB. two",
        image_bytes=b"\x89PNGbytes",
        image_media_type="image/png",
    )


def ok_response(text: str, model: str = "test-model") -> tuple[int, str]:
    return 200, json.dumps({"model": model, "choices": [{"message": {"content": text}}]})


class FakeTransport:
    """Scripted transport: each entry is (status, text) or an exception."""

    def __init__(self, script):
        self.script = list(script)
        self.calls: list[tuple[str, bytes, dict]] = []

    def __call__(self, url, body, headers):
        self.calls.append((url, body, dict(headers)))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


class TestReplayBackend:
    def test_returns_fixture_text_verbatim(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"q1": "Looks right. Correct Choice:D"}))
        completion = open_replay(fixture)
        response = completion(envelope("q1"))
        assert response.response_text == "Looks right. Correct Choice:D"
        assert response.question_id == "q1"
        assert response.latency_ms == 0.0
        assert response.engine_echo == "replay"

    def test_unknown_id_is_malformed(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"q1": "text"}))
        completion = open_replay(fixture)
        with pytest.raises(ClientError) as excinfo:
            completion(envelope("q-unknown"))
        assert excinfo.value.kind == "Malformed"
        assert not excinfo.value.retryable

    def test_duplicate_keys_rejected(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text('{"q1": "a", "q1": "b"}')
        with pytest.raises(MalformedFixtureError):
            open_replay(fixture)

    def test_non_string_values_rejected(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text('{"q1": 7}')
        with pytest.raises(MalformedFixtureError):
            open_replay(fixture)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MalformedFixtureError):
            open_replay(tmp_path / "absent.json")

    def test_bit_deterministic_in_any_order(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({f"q{i}": f"text {i}" for i in range(10)}))
        completion = open_replay(fixture)
        forward = [completion(envelope(f"q{i}")) for i in range(10)]
        backward = [completion(envelope(f"q{i}")) for i in reversed(range(10))]
        assert forward == list(reversed(backward))


class TestRequestBody:
    def test_shape_and_image_encoding(self):
        env = envelope()
        body = json.loads(request_body(env, CONFIG))
        assert body["model"] == CONFIG.model_id
        assert body["max_tokens"] == CONFIG.max_tokens
        assert "temperature" not in body
        (message,) = body["messages"]
        assert message["role"] == "user"
        text_part, image_part = message["content"]
        assert text_part == {"type": "text", "text": env.text}
        expected_b64 = base64.b64encode(env.image_bytes).decode("ascii")
        assert image_part["image_url"]["url"] == f"data:image/png;base64,{expected_b64}"

    def test_temperature_included_when_set(self):
        config = EngineConfig(endpoint_url=CONFIG.endpoint_url, temperature=0.2)
        body = json.loads(request_body(envelope(), config))
        assert body["temperature"] == 0.2

    def test_byte_identical_for_identical_inputs(self):
        assert request_body(envelope(), CONFIG) == request_body(envelope(), CONFIG)

    def test_wire_bytes_pinned(self):
        config = EngineConfig(endpoint_url=CONFIG.endpoint_url, temperature=0.2)
        head = b'{"max_tokens": 4000, "messages": [{"content": [{"text": '
        tail = b'], "role": "user"}], "model": "gpt-4-vision-preview", "temperature": 0.2}'
        assert request_body(envelope(), config) == head + (
            b'"Rules. Correct Choice:(letter)\\n\\nStem.\\n\\nA. one\\nB. two", "type": "text"}, '
            b'{"image_url": {"url": "data:image/png;base64,iVBOR2J5dGVz"}, "type": "image_url"}'
        ) + tail
        assert request_body("find entities", config) == head + b'"find entities", "type": "text"}' + tail


# Texts built from arbitrary strings and the characters JSON must escape,
# including the empty-URL object the encoder splices at.
_texts = st.lists(
    st.one_of(st.text(), st.sampled_from(['{"url": ""}', '"', "\\", "\x00", "\u00e9", "\U0001f600"]))
).map("".join)
_envelopes = st.builds(
    PromptEnvelope, question_id=st.just("q1"), rules_text=_texts, stem=_texts, choices_text=_texts,
    image_bytes=st.binary(max_size=64), image_media_type=st.sampled_from(sorted(set(IMAGE_MEDIA_TYPES.values()))),
)


class TestRequestBodyEncoding:
    @given(
        prompt=st.one_of(_envelopes, _texts),
        model_id=_texts,
        max_tokens=st.integers(min_value=1, max_value=10**6),
        temperature=st.none() | st.floats(min_value=0.0),
    )
    def test_equals_whole_payload_serialisation(self, prompt, model_id, max_tokens, temperature):
        config = EngineConfig(model_id=model_id, max_tokens=max_tokens, temperature=temperature)
        if isinstance(prompt, str):
            expected = bf_request_body(prompt, None, model_id, max_tokens, temperature)
        else:
            image = (prompt.image_media_type, prompt.image_bytes)
            expected = bf_request_body(prompt.text, image, model_id, max_tokens, temperature)
        assert request_body(prompt, config) == expected

    def test_peak_memory_below_three_bodies(self):
        env = PromptEnvelope("q1", "Rules. Correct Choice:", "Stem.", "A. one", random.Random(0).randbytes(200_000),
                             "image/png")
        tracemalloc.start()
        try:
            body = request_body(env, CONFIG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(body)


class TestLiveCompletion:
    def test_success(self):
        transport = FakeTransport([ok_response("All good. Choice:B")])
        response = make_live_completion(CONFIG, "sk-key", transport=transport, sleep=lambda s: None)(envelope())
        assert response.response_text == "All good. Choice:B"
        assert response.engine_echo == "test-model"
        assert response.question_id == "q1"
        (call,) = transport.calls
        assert call[0] == CONFIG.endpoint_url
        assert call[2]["Authorization"] == "Bearer sk-key"

    def test_bodies_identical_across_credentials(self):
        first = FakeTransport([ok_response("x")])
        second = FakeTransport([ok_response("x")])
        env = envelope()
        make_live_completion(CONFIG, "key-one", transport=first, sleep=lambda s: None)(env)
        make_live_completion(CONFIG, "key-two", transport=second, sleep=lambda s: None)(env)
        assert first.calls[0][1] == second.calls[0][1]
        assert first.calls[0][2]["Authorization"] != second.calls[0][2]["Authorization"]

    def test_auth_error_not_retried(self):
        transport = FakeTransport([(401, "denied")])
        sleeps: list[float] = []
        with pytest.raises(ClientError) as excinfo:
            make_live_completion(CONFIG, "bad-key", transport=transport, sleep=sleeps.append)(envelope())
        assert excinfo.value.kind == "Auth"
        assert not excinfo.value.retryable
        assert sleeps == []
        assert len(transport.calls) == 1

    def test_rate_limit_retried_with_backoff(self):
        transport = FakeTransport([(429, "slow down"), (429, "slow down"), ok_response("fine")])
        sleeps: list[float] = []
        response = make_live_completion(CONFIG, "key", transport=transport, sleep=sleeps.append)(envelope())
        assert response.response_text == "fine"
        assert sleeps == [1.0, 2.0]
        assert len(transport.calls) == 3

    def test_retries_exhausted_wraps_last_error(self):
        transport = FakeTransport([(500, "boom")] * 4)
        sleeps: list[float] = []
        with pytest.raises(RetriesExhaustedError) as excinfo:
            make_live_completion(CONFIG, "key", transport=transport, sleep=sleeps.append)(envelope())
        assert excinfo.value.kind == "Server"
        assert excinfo.value.last_error.kind == "Server"
        assert not excinfo.value.retryable
        assert sleeps == [1.0, 2.0, 4.0]
        assert len(transport.calls) == 4

    def test_timeout_maps_to_timeout_kind(self):
        transport = FakeTransport([requests.Timeout("too slow"), ok_response("ok")])
        response = make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
        assert response.response_text == "ok"

    def test_connection_error_maps_to_transport_kind(self):
        transport = FakeTransport([requests.ConnectionError("refused")] * 4)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
        assert excinfo.value.kind == "Transport"

    def test_malformed_payload_not_retried(self):
        transport = FakeTransport([(200, "not json")])
        with pytest.raises(ClientError) as excinfo:
            make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
        assert excinfo.value.kind == "Malformed"
        assert len(transport.calls) == 1

    def test_empty_content_is_malformed(self):
        transport = FakeTransport([ok_response("")])
        with pytest.raises(ClientError) as excinfo:
            make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
        assert excinfo.value.kind == "Malformed"

    def test_retryable_invariants(self):
        assert ClientError("RateLimit", "x").retryable
        assert ClientError("Timeout", "x").retryable
        assert not ClientError("Auth", "x").retryable
        assert not ClientError("Malformed", "x").retryable

    def test_min_interval_spaces_requests(self):
        transport = FakeTransport([ok_response("a"), ok_response("b")])
        sleeps: list[float] = []
        completion = make_live_completion(
            CONFIG, "key", min_interval=30.0, transport=transport, sleep=sleeps.append
        )
        completion(envelope("q1"))
        completion(envelope("q2"))
        assert len(sleeps) == 1 and 0 < sleeps[0] <= 30.0

    def test_complete_text_sends_single_text_part(self):
        transport = FakeTransport([ok_response("DISEASE | gout")])
        reply = complete_text("find entities", CONFIG, "key", transport=transport, sleep=lambda s: None)
        assert reply == "DISEASE | gout"
        body = json.loads(transport.calls[0][1])
        (message,) = body["messages"]
        assert message["content"] == [{"type": "text", "text": "find entities"}]
