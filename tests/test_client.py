from __future__ import annotations

import base64
import http.client
import http.server
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.error

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quizeval import client
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
from .conftest import child_env

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
        temperature=st.none() | st.floats(min_value=0.0, allow_infinity=False),
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
        for error in (TimeoutError("timed out"), urllib.error.URLError(TimeoutError("timed out"))):
            transport = FakeTransport([error, ok_response("ok")])
            response = make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
            assert response.response_text == "ok"
            transport = FakeTransport([error] * 4)
            with pytest.raises(RetriesExhaustedError) as excinfo:
                make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
            assert excinfo.value.kind == "Timeout", error

    def test_connection_error_maps_to_transport_kind(self):
        for error in (
            ConnectionRefusedError("refused"),
            urllib.error.URLError(ConnectionRefusedError("refused")),
            http.client.RemoteDisconnected("closed"),
            http.client.IncompleteRead(b"{", 99),
        ):
            transport = FakeTransport([error] * 4)
            with pytest.raises(RetriesExhaustedError) as excinfo:
                make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
            assert excinfo.value.kind == "Transport", error

    def test_malformed_payload_not_retried(self):
        transport = FakeTransport([(200, "not json")])
        with pytest.raises(ClientError) as excinfo:
            make_live_completion(CONFIG, "key", transport=transport, sleep=lambda s: None)(envelope())
        assert excinfo.value.kind == "Malformed"
        assert len(transport.calls) == 1

    def test_too_deeply_nested_reply_is_malformed(self):
        transport = FakeTransport([(200, "[" * 100_000)])
        with pytest.raises(ClientError) as excinfo:
            complete_text("find entities", CONFIG, "key", transport=transport, sleep=lambda s: None)
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

    def test_unknown_error_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown error kind 'Bogus'"):
            ClientError("Bogus", "x")

    def test_min_interval_spaces_requests(self):
        transport = FakeTransport([ok_response("a"), ok_response("b")])
        sleeps: list[float] = []
        completion = make_live_completion(
            CONFIG, "key", min_interval=30.0, transport=transport, sleep=sleeps.append
        )
        completion(envelope("q1"))
        completion(envelope("q2"))
        assert len(sleeps) == 1 and 0 < sleeps[0] <= 30.0

    def test_spacer_spaces_starts_across_threads(self):
        interval, sleeps = 0.02, []
        wait_turn = client.request_spacer(interval, sleep=lambda s: sleeps.append(s) or time.sleep(s))
        started = time.monotonic()
        threads = [threading.Thread(target=lambda: [wait_turn() for _ in range(2)]) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Eight starts, each at least one interval after the one before.
        assert time.monotonic() - started >= 7 * interval
        assert sleeps and all(0 < s <= interval for s in sleeps)

    def test_zero_interval_never_sleeps(self):
        wait_turn = client.request_spacer(0.0, sleep=lambda s: pytest.fail("slept"))
        for _ in range(3):
            wait_turn()

    def test_complete_text_sends_single_text_part(self):
        transport = FakeTransport([ok_response("DISEASE | gout")])
        reply = complete_text("find entities", CONFIG, "key", transport=transport, sleep=lambda s: None)
        assert reply == "DISEASE | gout"
        body = json.loads(transport.calls[0][1])
        (message,) = body["messages"]
        assert message["content"] == [{"type": "text", "text": "find entities"}]


def reply(status: int, body: bytes):
    def act(handler):
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    return act


def ok_reply(text: str):
    return reply(200, ok_response(text)[1].encode("utf-8"))


def redirect(status: int, location: str):
    def act(handler):
        handler.send_response(status)
        handler.send_header("Location", location)
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    return act


def drop(handler):
    """Close the connection without a reply."""


def truncated(handler):
    handler.send_response(200)
    handler.send_header("Content-Length", "1000")
    handler.end_headers()
    handler.wfile.write(b'{"choices": ')


def stall_before_reply(handler):
    handler.server.release.wait(30)


def stall_in_body(handler):
    truncated(handler)
    handler.server.release.wait(30)


class Loopback:
    """HTTP server on 127.0.0.1, served from a thread: it answers each
    request with the next scripted action and records what it received."""

    def __init__(self, script):
        self.script = list(script)
        self.received: list[tuple[str, str, dict, bytes]] = []
        loopback = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                loopback.received.append((self.command, self.path, dict(self.headers), body))
                loopback.script.pop(0)(self)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.server.release = threading.Event()
        self.base = f"http://127.0.0.1:{self.server.server_port}"
        self.url = self.base + "/v1/chat/completions"
        self.thread = threading.Thread(target=self.server.serve_forever, kwargs={"poll_interval": 0.05})
        self.thread.start()

    def close(self):
        self.server.release.set()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(10)
        assert not self.thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # an inherited proxy must not capture loopback traffic
    servers = []

    def start(*script):
        servers.append(Loopback(script))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def config_for(url: str) -> EngineConfig:
    return EngineConfig(endpoint_url=url)


class TestDefaultTransport:
    """The real transport against a loopback server; every failure must end
    in a typed ClientError, and no response may be left unclosed."""

    @pytest.fixture(autouse=True)
    def all_closed(self, monkeypatch):
        # The ResourceWarning of an unclosed response comes, if at all, from
        # the garbage collector at some later point, so check each one here.
        opened, open_ = [], client._OPENER.open

        def recording(*args, **kwargs):
            try:
                opened.append(open_(*args, **kwargs))
            except urllib.error.HTTPError as err:
                opened.append(err)
                raise
            return opened[-1]

        monkeypatch.setattr(client._OPENER, "open", recording)
        yield
        assert all(response.closed for response in opened)

    def test_ok_reply_and_exact_wire_body(self, loopback):
        server = loopback(ok_reply("Looks right. Correct Choice:B"))
        config = config_for(server.url)
        response = make_live_completion(config, "sk-key", sleep=lambda s: None)(envelope())
        assert response.response_text == "Looks right. Correct Choice:B"
        assert response.engine_echo == "test-model"
        ((method, path, headers, body),) = server.received
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert body == request_body(envelope(), config)
        assert headers["Authorization"] == "Bearer sk-key"
        assert headers["Content-Type"] == "application/json"

    def test_rate_limit_then_ok(self, loopback):
        server = loopback(reply(429, b'{"error": "slow down"}'), ok_reply("DISEASE | gout"))
        sleeps: list[float] = []
        assert complete_text("find entities", config_for(server.url), "key", sleep=sleeps.append) == "DISEASE | gout"
        assert sleeps == [1.0]
        assert [body for *_, body in server.received] == [request_body("find entities", config_for(server.url))] * 2

    @pytest.mark.parametrize("action", [drop, truncated], ids=["dropped", "truncated"])
    def test_broken_reply_is_transport(self, action, loopback, monkeypatch):
        monkeypatch.setattr(client, "MAX_RETRIES", 0)
        server = loopback(action)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            complete_text("x", config_for(server.url), "key", sleep=lambda s: None)
        assert excinfo.value.kind == "Transport"
        assert excinfo.value.attempts == 1

    def test_refused_port_is_transport(self, monkeypatch):
        monkeypatch.setattr(client, "MAX_RETRIES", 0)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(RetriesExhaustedError) as excinfo:
            complete_text("x", config_for(f"http://127.0.0.1:{port}/v1"), "key", sleep=lambda s: None)
        assert excinfo.value.kind == "Transport"

    @pytest.mark.parametrize("action", [stall_before_reply, stall_in_body], ids=["before-reply", "in-body"])
    def test_slow_server_is_timeout(self, action, loopback, monkeypatch):
        monkeypatch.setattr(client, "MAX_RETRIES", 0)
        monkeypatch.setattr(client, "REQUEST_TIMEOUT_SECONDS", 0.2)
        server = loopback(action)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            complete_text("x", config_for(server.url), "key", sleep=lambda s: None)
        assert excinfo.value.kind == "Timeout"

    def test_redirect_is_not_followed(self, loopback):
        # A followed redirect would carry the bearer header to the new location.
        statuses = (301, 302, 303, 307, 308)
        elsewhere = loopback(*[ok_reply("redirected")] * len(statuses))
        server = loopback(*[redirect(status, elsewhere.url) for status in statuses])
        for status in statuses:
            with pytest.raises(ClientError) as excinfo:
                complete_text("x", config_for(server.url), "sk-key", sleep=lambda s: None)
            assert excinfo.value.kind == "Malformed"
            assert excinfo.value.detail.startswith(f"unexpected HTTP {status}")
        assert len(server.received) == len(statuses)
        assert elsewhere.received == []

    def test_non_utf8_error_body_is_malformed(self, loopback):
        server = loopback(reply(400, b"bad \xff\xfe request"))
        with pytest.raises(ClientError) as excinfo:
            complete_text("x", config_for(server.url), "key", sleep=lambda s: None)
        assert excinfo.value.kind == "Malformed"
        assert excinfo.value.detail == "unexpected HTTP 400: bad \ufffd\ufffd request"


_THROUGH_PROXY = """
import sys
from quizeval.client import complete_text
from quizeval.prompting import EngineConfig
print(complete_text("find entities", EngineConfig(endpoint_url=sys.argv[1]), "sk-key", sleep=lambda s: None))
"""


def run_through_proxy(endpoint: str, **proxy_env: str) -> subprocess.CompletedProcess:
    """``complete_text`` in a fresh process, whose proxy settings are only
    ``proxy_env``, with every warning an error."""
    env = {key: value for key, value in os.environ.items() if not key.lower().endswith("_proxy")}
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", _THROUGH_PROXY, endpoint],
                          env=child_env({**env, **proxy_env}), capture_output=True, timeout=60)


class TestProxy:
    def test_request_goes_through_http_proxy_and_is_retried(self, loopback):
        proxy = loopback(reply(429, b"{}"), ok_reply("via proxy"))
        endpoint = "http://example.invalid/v1/chat/completions"
        done = run_through_proxy(endpoint, http_proxy=proxy.base)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"via proxy\n", b"")
        assert [(method, path) for method, path, _, _ in proxy.received] == [("POST", endpoint)] * 2
        assert all(headers["Authorization"] == "Bearer sk-key" for _, _, headers, _ in proxy.received)
        assert all(headers["Host"] == "example.invalid" for _, _, headers, _ in proxy.received)

    def test_no_proxy_bypasses_the_proxy(self, loopback):
        proxy = loopback()
        endpoint = loopback(ok_reply("direct"))
        # The endpoint is a loopback address so the bypassed request resolves no name.
        done = run_through_proxy(endpoint.url, http_proxy=proxy.base, no_proxy="127.0.0.1")
        assert (done.returncode, done.stdout, done.stderr) == (0, b"direct\n", b"")
        assert proxy.received == []
        assert [(method, path) for method, path, _, _ in endpoint.received] == [("POST", "/v1/chat/completions")]
