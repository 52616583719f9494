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
import functools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .atomic import read_json
from .prompting import EngineConfig, ImageReadError, PromptEnvelope, _ascii_netloc

REQUEST_TIMEOUT_SECONDS = 120.0
MAX_RETRIES = 3
_BACKOFF_BASE_SECONDS = 1.0

ERROR_KINDS = ("Auth", "RateLimit", "Timeout", "Server", "Malformed", "Transport")
_RETRYABLE_KINDS = frozenset({"RateLimit", "Timeout", "Server", "Transport"})

# transport(url, body, headers) -> (status_code, response_text)
Transport = Callable[[str, "RequestBody", dict], tuple[int, str]]
# completion(envelope) -> response text; run_evaluation takes any such function
CompletionFn = Callable[[PromptEnvelope], str]


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


_EMPTY_IMAGE_URL = b'{"url": ""}'
# Image bytes per read: a multiple of 3 whose base64 (64 KiB) stays below glibc's mmap threshold.
_IMAGE_BLOCK = 49_152


@dataclass(frozen=True, slots=True)
class RequestBody:
    """A request's wire bytes: ``head``, the base64 of the ``image_size``-byte
    file at ``image_path`` (if any), then ``tail``; ``len()`` counts them and
    ``bytes()`` joins them. Each iteration reads the file afresh, a block at a
    time, and raises ImageReadError if it cannot or the file's size changed."""

    head: bytes
    image_path: str | None = None
    image_size: int = 0
    tail: bytes = b""

    def __len__(self) -> int:
        return len(self.head) + 4 * ((self.image_size + 2) // 3) + len(self.tail)

    def __bytes__(self) -> bytes:
        return b"".join(self)

    def __iter__(self) -> Iterator[bytes]:
        yield self.head
        if self.image_path is not None:
            block, left = memoryview(bytearray(_IMAGE_BLOCK)), self.image_size
            try:
                with open(self.image_path, "rb") as image:
                    while True:
                        # After the last block one more byte is asked for: the file must end there.
                        want = min(left, _IMAGE_BLOCK)
                        if (got := image.readinto(block[: want or 1])) != want:
                            raise ImageReadError(f"image {self.image_path} is no longer {self.image_size} bytes long")
                        if not got:
                            break
                        left -= got
                        yield base64.b64encode(block[:got])
            except OSError as exc:
                raise ImageReadError(f"cannot read image {self.image_path}: {exc}") from exc
        yield self.tail


def request_body(prompt: PromptEnvelope | str, config: EngineConfig) -> RequestBody:
    """The chat-completions request: one user message with the prompt text,
    plus the image part when ``prompt`` is an envelope rather than plain
    text. Byte-identical for identical (prompt, config) pairs and image.

    The image part is serialised with an empty URL, and the body streams
    the data URL's base64 from the image file in its place, so neither
    ``json.dumps`` nor the body holds the image. The bytes equal those of
    serialising the full URL: base64 needs no JSON escaping.
    """
    if isinstance(prompt, str):
        content = [{"type": "text", "text": prompt}]
    else:
        content = [
            {"type": "text", "text": prompt.text},
            {"type": "image_url", "image_url": {"url": ""}},
        ]
    payload: dict = {
        "model": config.model_id,
        "max_tokens": config.max_tokens,
        "messages": [{"role": "user", "content": content}],
    }
    if config.temperature is not None:
        payload["temperature"] = config.temperature
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if isinstance(prompt, str):
        return RequestBody(body)
    # Every '"' inside a JSON string is escaped, so no text or model id can
    # produce the empty-URL object: the one occurrence is the image part's.
    assert body.count(_EMPTY_IMAGE_URL) == 1
    head, _, tail = body.partition(_EMPTY_IMAGE_URL)
    url_prefix = json.dumps(f"data:{prompt.image_media_type};base64,")[1:-1].encode("ascii")
    return RequestBody(head + b'{"url": "' + url_prefix, prompt.image_path, prompt.image_size, b'"}' + tail)


# http.client's limits on the length of a reply's lines and on the lines of its head.
_MAX_LINE, _MAX_HEADERS = 65_536, 100
# Reply body bytes per read. A read allocates what it asks for before any byte arrives.
_REPLY_BLOCK = 1 << 20


@functools.cache
def _route(url: str) -> tuple[tuple[str, int], object, str | None, bytes | None, bytes]:
    """How every attempt reaches ``url``, worked out once per endpoint from
    the URL and the proxy environment, ``NO_PROXY`` included: the address
    to connect to, the TLS context (None for http) and server name, the
    ``CONNECT`` request of a tunnel (or None), and the request head up to
    the caller's headers. A proxy that ``NO_PROXY`` does not exempt gets an
    http request in absolute form and an https one through the tunnel; the
    credentials in its URL go to it alone, those in ``url`` to no one. A
    proxy URL with no host raises ValueError."""
    import ssl
    import urllib.request
    from urllib.parse import unquote, urlsplit

    parts = urlsplit(url)
    tls, netloc = parts.scheme == "https", _ascii_netloc(parts.netloc)
    port, target = parts.port or (443 if tls else 80), (parts.path or "/") + (parts.query and f"?{parts.query}")
    address, tunnel, proxy_auth = (parts.hostname, port), None, ""
    if (proxy := urllib.request.getproxies().get(parts.scheme)) and not urllib.request.proxy_bypass(netloc):
        proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if not proxy.hostname:
            raise ValueError(f"the {parts.scheme} proxy URL names no host")
        address = (proxy.hostname, proxy.port or 80)
        if proxy.username and proxy.password:
            credentials = base64.b64encode(f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode())
            proxy_auth = f"Proxy-Authorization: Basic {credentials.decode('ascii')}\r\n"
        if tls:
            authority = netloc if parts.port else f"{netloc}:{port}"
            tunnel = f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n{proxy_auth}\r\n".encode("ascii")
            proxy_auth = ""
        else:
            target = f"http://{netloc}{target}"
    head = (f"POST {target} HTTP/1.1\r\nHost: {netloc}\r\nUser-Agent: quizeval\r\nAccept-Encoding: identity\r\n"
            f"Connection: close\r\n{proxy_auth}")
    # SSL_CERT_FILE and SSL_CERT_DIR are read here, once per endpoint.
    context = ssl.create_default_context() if tls else None
    return address, context, parts.hostname, tunnel, head.encode("ascii")


def prepare_transport(endpoint_url: str) -> None:
    """Work out the route to ``endpoint_url`` (see ``_route``) now, in the caller's thread."""
    _route(endpoint_url)


def _read_reply(reply, with_body: bool = True) -> tuple[int, bytes]:
    """The status and body of the first reply that is not a 1xx one. A reply
    beyond http.client's limits, malformed or cut off raises its exception."""
    import http.client

    def line() -> bytes:
        if len(text := reply.readline(_MAX_LINE + 1)) > _MAX_LINE:
            raise http.client.LineTooLong("reply line")
        return text

    def exactly(size: int) -> bytes:
        blocks, left = [], size
        while left and (block := reply.read(min(left, _REPLY_BLOCK))):
            blocks.append(block)
            left -= len(block)
        if left:
            raise http.client.IncompleteRead(b"".join(blocks), left)
        return b"".join(blocks)

    status = 100
    while status < 200:
        if not (first := line()):
            raise http.client.RemoteDisconnected("remote end closed connection without response")
        version, code, *_ = first.split(None, 2) + [b"", b""]
        if not (version.startswith(b"HTTP/1.") and len(code) == 3 and code.isdigit() and code >= b"100"):
            raise http.client.BadStatusLine(repr(first))
        status, fields = int(code), {}
        for _ in range(_MAX_HEADERS):  # the blank line that ends them counts, as in http.client
            if (field := line()) in (b"\r\n", b"\n", b""):
                break
            name, _, value = field.partition(b":")
            fields[name.strip().lower()] = value.strip()
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
    if not with_body or fields.get(b"transfer-encoding", b"").lower() != b"chunked":
        length = fields.get(b"content-length", b"") if with_body else b"0"
        return status, exactly(int(length)) if length.isdigit() else reply.read()
    chunks = []
    while True:
        size = line().split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise http.client.IncompleteRead(b"".join(chunks))
        if not (size := int(size, 16)):
            break
        chunks.append(exactly(size + 2)[:size])  # the chunk and its CRLF
    return status, b"".join(chunks)  # any trailer fields go unread: the connection is closed


def _default_transport(url: str, body: RequestBody, headers: dict) -> tuple[int, str]:
    """POST ``body`` in one HTTP/1.1 exchange over a fresh connection on
    ``url``'s route (see ``_route``), its head sent with the body's first
    piece, and return the status and the reply decoded as UTF-8
    (undecodable bytes replaced). No redirect is followed."""
    import socket

    address, tls_context, server_name, tunnel, head = _route(url)
    sock = socket.create_connection(address, REQUEST_TIMEOUT_SECONDS)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tunnel:
            sock.sendall(tunnel)
            with sock.makefile("rb") as reply:
                if (status := _read_reply(reply, with_body=False)[0]) != 200:
                    raise OSError(f"tunnel connection failed: HTTP {status}")
        if tls_context:
            sock = tls_context.wrap_socket(sock, server_hostname=server_name)
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        pieces = iter(body)
        sock.sendall(head + f"{fields}Content-Length: {len(body)}\r\n\r\n".encode("ascii") + next(pieces))
        for piece in pieces:
            sock.sendall(piece)
        with sock.makefile("rb") as reply:
            status, text = _read_reply(reply)
        return status, text.decode("utf-8", "replace")
    finally:
        sock.close()


def _classify_status(status: int, text: str) -> ClientError:
    if status in (401, 403):
        return ClientError("Auth", f"endpoint rejected credentials (HTTP {status})")
    if status == 429:
        return ClientError("RateLimit", "endpoint rate limit hit (HTTP 429)")
    if status >= 500:
        return ClientError("Server", f"endpoint failure (HTTP {status})")
    return ClientError("Malformed", f"unexpected HTTP {status}: {text[:200]}")


def _parse_completion(text: str) -> str:
    try:
        doc = json.loads(text)
        content = doc["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, RecursionError, KeyError, IndexError, TypeError) as exc:
        raise ClientError("Malformed", f"response is not chat-completions shaped: {exc}") from exc
    if not isinstance(content, str) or not content:
        raise ClientError("Malformed", "response content is empty or not text")
    return content


def _execute(
    prompt: PromptEnvelope | str,
    config: EngineConfig,
    api_key: str,
    *,
    transport: Transport | None,
    sleep: Callable[[float], None],
) -> str:
    """POST one prompt and return the response content.

    Retryable failures (rate limit, timeout, server, transport) are retried
    up to ``MAX_RETRIES`` times with 1s/2s/4s backoff; the final failure is
    raised as RetriesExhaustedError. Non-retryable failures raise
    immediately. A key that an HTTP header cannot carry raises ValueError
    before any attempt, without naming the key.
    """
    import http.client

    # Otherwise the request head's ASCII encoding fails in an error that quotes the key, or a CR or LF breaks it.
    if not all("!" <= c <= "~" for c in api_key):
        raise ValueError("the API key holds a character outside visible ASCII, such as a trailing newline")
    body = request_body(prompt, config)
    transport = transport or _default_transport
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    last_error: ClientError | None = None
    for attempt in range(MAX_RETRIES + 1):
        try:
            try:
                status, text = transport(config.endpoint_url, body, headers)
            except TimeoutError as exc:
                raise ClientError("Timeout", f"request timed out: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                raise ClientError("Transport", f"request failed: {exc!r}") from exc
            if status != 200:
                raise _classify_status(status, text)
            return _parse_completion(text)
        except ClientError as err:
            last_error = err
            if not err.retryable:
                raise
            if attempt < MAX_RETRIES:
                sleep(_BACKOFF_BASE_SECONDS * (2**attempt))
    raise RetriesExhaustedError(last_error, MAX_RETRIES + 1)


def complete_text(
    prompt_text: str,
    config: EngineConfig,
    api_key: str,
    *,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Text-only completion against the same endpoint, with the same retry
    policy; used by the model-assisted entity extractor."""
    return _execute(prompt_text, config, api_key, transport=transport, sleep=sleep)


def request_spacer(min_interval: float, *, sleep: Callable[[float], None] = time.sleep) -> Callable[[], None]:
    """A function to call before each request start: it sleeps as long as
    needed to keep starts at least ``min_interval`` seconds apart, across
    all threads that share it. With ``min_interval`` 0 it returns at once."""
    lock = threading.Lock()
    last_start = float("-inf")

    def wait_turn() -> None:
        nonlocal last_start
        if min_interval <= 0:
            return
        with lock:
            delay = last_start + min_interval - time.monotonic()
            if delay > 0:
                sleep(delay)
            last_start = time.monotonic()

    return wait_turn


def make_live_completion(
    config: EngineConfig,
    api_key: str,
    *,
    min_interval: float = 0.0,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionFn:
    """Bind config and credentials into a completion function that
    delivers one envelope to the live endpoint (see ``_execute`` for the
    retry policy); the envelope is never mutated.

    ``min_interval`` spaces request starts (see ``request_spacer``). Safe
    for concurrent invocation. The transport is prepared here (see
    ``prepare_transport``).
    """
    prepare_transport(config.endpoint_url)
    wait_turn = request_spacer(min_interval, sleep=sleep)

    def completion(envelope: PromptEnvelope) -> str:
        wait_turn()
        return _execute(envelope, config, api_key, transport=transport, sleep=sleep)

    return completion


def open_replay(fixture_path: str | Path) -> CompletionFn:
    """Load a replay fixture and return a completion function over it.

    The fixture is one JSON object mapping question id to response text.
    Duplicate or non-string keys/values are rejected. Lookups for ids absent
    from the fixture raise ClientError(kind="Malformed"). The returned
    function is read-only after load and bit-deterministic.
    """
    def reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
        out: dict = {}
        for key, value in pairs:
            if key in out:
                raise MalformedFixtureError(f"duplicate fixture key {key!r}")
            out[key] = value
        return out

    mapping = read_json(fixture_path, MalformedFixtureError, "fixture", object_pairs_hook=reject_duplicates)
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise MalformedFixtureError(
            f"fixture {fixture_path} must be a JSON object mapping question id to response text"
        )

    def completion(envelope: PromptEnvelope) -> str:
        text = mapping.get(envelope.question_id)
        if text is None:
            raise ClientError("Malformed", f"no fixture entry for question {envelope.question_id!r}")
        return text

    return completion
