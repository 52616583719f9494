"""Chat-completions client: live HTTP delivery plus a replay backend.

The live path POSTs a JSON chat-completions document (one user message with
a text part and a base64 data-URL image part) with bearer-token auth and
retries retryable failures with exponential backoff. The replay path reads
a fixture file keyed by question id and answers deterministically with zero
network use; both sides satisfy the same completion-function contract.

Credentials are accepted as plain strings and are never logged or echoed
into errors.
"""

from __future__ import annotations

import base64
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import requests

from .prompting import EngineConfig, PromptEnvelope

REQUEST_TIMEOUT_SECONDS = 120.0
DEFAULT_MAX_RETRIES = 3
_BACKOFF_BASE_SECONDS = 1.0

ERROR_KINDS = ("Auth", "RateLimit", "Timeout", "Server", "Malformed", "Transport")
_RETRYABLE_KINDS = frozenset({"RateLimit", "Timeout", "Server", "Transport"})

# transport(url, body, headers) -> (status_code, response_text)
Transport = Callable[[str, bytes, dict], tuple[int, str]]
CompletionFn = Callable[[PromptEnvelope], "ChatResponse"]


class ClientError(Exception):
    """A completion attempt failed; ``kind`` says how, ``retryable`` whether
    another attempt could help."""

    def __init__(self, kind: str, detail: str):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {kind!r}")
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}")

    @property
    def retryable(self) -> bool:
        return self.kind in _RETRYABLE_KINDS


class RetriesExhaustedError(ClientError):
    """All retries spent; wraps the last underlying error."""

    def __init__(self, last_error: ClientError, attempts: int):
        self.last_error = last_error
        self.attempts = attempts
        super().__init__(last_error.kind, f"gave up after {attempts} attempts: {last_error.detail}")

    @property
    def retryable(self) -> bool:
        return False


class MalformedFixtureError(Exception):
    """The replay fixture file is unusable (bad JSON, duplicate or non-string keys)."""


@dataclass(frozen=True, slots=True)
class ChatResponse:
    """Raw engine output for one envelope."""

    question_id: str
    response_text: str
    latency_ms: float
    engine_echo: str | None


def request_body(prompt: PromptEnvelope | str, config: EngineConfig) -> bytes:
    """Serialize the chat-completions request: one user message with the
    prompt text, plus the image part when ``prompt`` is an envelope rather
    than plain text. Byte-identical for identical (prompt, config) pairs."""
    if isinstance(prompt, str):
        content = [{"type": "text", "text": prompt}]
    else:
        image_b64 = base64.b64encode(prompt.image_bytes).decode("ascii")
        content = [
            {"type": "text", "text": prompt.text},
            {"type": "image_url", "image_url": {"url": f"data:{prompt.image_media_type};base64,{image_b64}"}},
        ]
    payload: dict = {
        "model": config.model_id,
        "max_tokens": config.max_tokens,
        "messages": [{"role": "user", "content": content}],
    }
    if config.temperature is not None:
        payload["temperature"] = config.temperature
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _default_transport(url: str, body: bytes, headers: dict) -> tuple[int, str]:
    resp = requests.post(url, data=body, headers=headers, timeout=REQUEST_TIMEOUT_SECONDS)
    return resp.status_code, resp.text


def _classify_status(status: int, text: str) -> ClientError:
    if status in (401, 403):
        return ClientError("Auth", f"endpoint rejected credentials (HTTP {status})")
    if status == 429:
        return ClientError("RateLimit", "endpoint rate limit hit (HTTP 429)")
    if status >= 500:
        return ClientError("Server", f"endpoint failure (HTTP {status})")
    return ClientError("Malformed", f"unexpected HTTP {status}: {text[:200]}")


def _parse_completion(text: str) -> tuple[str, str | None]:
    try:
        doc = json.loads(text)
        content = doc["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise ClientError("Malformed", f"response is not chat-completions shaped: {exc}") from exc
    if not isinstance(content, str) or not content:
        raise ClientError("Malformed", "response content is empty or not text")
    model = doc.get("model")
    return content, model if isinstance(model, str) else None


def _execute(
    prompt: PromptEnvelope | str,
    config: EngineConfig,
    api_key: str,
    *,
    max_retries: int,
    transport: Transport | None,
    sleep: Callable[[float], None],
) -> tuple[str, str | None, float]:
    """POST one prompt, retrying retryable failures; returns the response
    content, the model name the endpoint reports and the latency in ms."""
    body = request_body(prompt, config)
    transport = transport or _default_transport
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    last_error: ClientError | None = None
    for attempt in range(max_retries + 1):
        started = time.perf_counter()
        try:
            try:
                status, text = transport(config.endpoint_url, body, headers)
            except requests.Timeout as exc:
                raise ClientError("Timeout", f"request timed out: {exc}") from exc
            except requests.ConnectionError as exc:
                raise ClientError("Transport", f"connection failed: {exc}") from exc
            except requests.RequestException as exc:
                raise ClientError("Transport", f"request failed: {exc}") from exc
            if status != 200:
                raise _classify_status(status, text)
            content, engine_echo = _parse_completion(text)
            latency_ms = (time.perf_counter() - started) * 1000.0
            return content, engine_echo, latency_ms
        except ClientError as err:
            last_error = err
            if not err.retryable:
                raise
            if attempt < max_retries:
                sleep(_BACKOFF_BASE_SECONDS * (2**attempt))
    raise RetriesExhaustedError(last_error, max_retries + 1)


def complete(
    envelope: PromptEnvelope,
    config: EngineConfig,
    api_key: str,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ChatResponse:
    """Deliver one envelope to the live endpoint and return its response.

    Retryable failures (rate limit, timeout, server, transport) are retried
    up to ``max_retries`` times with 1s/2s/4s backoff; the final failure is
    raised as RetriesExhaustedError. Non-retryable failures raise
    immediately. The envelope is never mutated.
    """
    content, engine_echo, latency_ms = _execute(
        envelope, config, api_key, max_retries=max_retries, transport=transport, sleep=sleep
    )
    return ChatResponse(envelope.question_id, content, latency_ms, engine_echo)


def complete_text(
    prompt_text: str,
    config: EngineConfig,
    api_key: str,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Text-only completion against the same endpoint, with the same retry
    policy; used by the model-assisted entity extractor."""
    return _execute(prompt_text, config, api_key, max_retries=max_retries, transport=transport, sleep=sleep)[0]


def make_live_completion(
    config: EngineConfig,
    api_key: str,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
    min_interval: float = 0.0,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionFn:
    """Bind config and credentials into a completion function.

    ``min_interval`` enforces a client-side minimum spacing between request
    starts (seconds); 0 disables it. Safe for concurrent invocation.
    """
    lock = threading.Lock()
    last_start = [float("-inf")]

    def completion(envelope: PromptEnvelope) -> ChatResponse:
        if min_interval > 0:
            with lock:
                wait = last_start[0] + min_interval - time.monotonic()
                if wait > 0:
                    sleep(wait)
                last_start[0] = time.monotonic()
        return complete(
            envelope, config, api_key, max_retries=max_retries, transport=transport, sleep=sleep
        )

    return completion


def open_replay(fixture_path: str | Path) -> CompletionFn:
    """Load a replay fixture and return a completion function over it.

    The fixture is one JSON object mapping question id to response text.
    Duplicate or non-string keys/values are rejected. Lookups for ids absent
    from the fixture raise ClientError(kind="Malformed"). The returned
    function is read-only after load and bit-deterministic.
    """
    fixture_path = Path(fixture_path)

    def reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
        out: dict = {}
        for key, value in pairs:
            if key in out:
                raise MalformedFixtureError(f"duplicate fixture key {key!r}")
            out[key] = value
        return out

    try:
        raw = fixture_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedFixtureError(f"cannot read fixture {fixture_path}: {exc}") from exc
    try:
        mapping = json.loads(raw, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise MalformedFixtureError(f"fixture is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise MalformedFixtureError("fixture must be a JSON object mapping question id to response text")

    def completion(envelope: PromptEnvelope) -> ChatResponse:
        text = mapping.get(envelope.question_id)
        if text is None:
            raise ClientError("Malformed", f"no fixture entry for question {envelope.question_id!r}")
        return ChatResponse(envelope.question_id, text, 0.0, "replay")

    return completion
