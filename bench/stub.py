"""Loopback chat-completions stub for the quizeval benchmark.

Serves ``POST`` chat-completions on 127.0.0.1 with a fixed service delay
(``STUB_DELAY_S``) and no more handler threads than the parallelism
(``PARALLELISM``), both from workload.py. Each request is routed on the
case token in its body (see workload.py): a stem token gets the generated
model response, an analysis-text token gets the planted ``TYPE | name``
lines. A failure schedule keyed by (token, attempt) answers 429 with a fixed
``Retry-After``, 503, or drops the connection without a reply.

For a fixed sample of questions the body is verified in full: the JSON
decodes, model and max_tokens match, the text part carries the stem and
choices (or the analysis text), and the data URL decodes to the exact image
bytes. ``GET /_stats`` returns the counters and ``GET /_reset`` clears
them and the attempt counts; these control requests are not counted.

Usage: python3 bench/stub.py --data STUB_JSON --root DIR --port-file FILE
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import queue
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

from workload import PARALLELISM, STUB_DELAY_S, TOKEN_RE

_TOKEN_RE_BYTES = re.compile(TOKEN_RE.pattern.encode("ascii"))
RETRY_AFTER_SECONDS = "1"


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.status: dict[str, int] = {}
        self.connections = 0
        self.body_bytes = 0
        self.first_run_arrival: float | None = None
        self.run_ok = 0
        self.verified = 0
        self.verify_failures: list[str] = []

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "status": dict(self.status),
                "connections": self.connections,
                "body_bytes": self.body_bytes,
                "first_run_arrival": self.first_run_arrival,
                "run_ok": self.run_ok,
                "verified": self.verified,
                "verify_failures": list(self.verify_failures),
            }


class PooledHTTPServer(HTTPServer):
    """HTTPServer whose connections are handled by a fixed pool of threads."""

    def __init__(self, address, handler, data: dict, root: Path):
        super().__init__(address, handler)
        self.data = data
        self.root = root
        self.stats = Stats()
        self.attempts: dict[str, int] = {}
        self._queue: queue.Queue = queue.Queue()
        for _ in range(PARALLELISM):
            threading.Thread(target=self._work, daemon=True).start()

    def reset(self) -> None:
        """Forget counters and attempts before the next repetition."""
        with self.stats.lock:
            self.stats = Stats()
            self.attempts = {}

    def process_request(self, request, client_address):
        self._queue.put((request, client_address))

    def _work(self) -> None:
        while True:
            request, client_address = self._queue.get()
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def next_attempt(self, token: str) -> int:
        with self.stats.lock:
            attempt = self.attempts.get(token, 0)
            self.attempts[token] = attempt + 1
            return attempt


def _verify_run_body(body: bytes, data: dict, expected: dict, root: Path) -> None:
    doc = json.loads(body)
    if doc["model"] != data["model"] or doc["max_tokens"] != data["max_tokens"]:
        raise ValueError("model or max_tokens differ from the run configuration")
    parts = doc["messages"][0]["content"]
    text = next(p["text"] for p in parts if p["type"] == "text")
    if expected["stem"] not in text or expected["choices"] not in text:
        raise ValueError("text part lacks the stem or the choices")
    url = next(p["image_url"]["url"] for p in parts if p["type"] == "image_url")
    prefix = "data:image/png;base64,"
    if not url.startswith(prefix):
        raise ValueError(f"data URL has the wrong prefix {url[:40]!r}")
    if base64.b64decode(url[len(prefix):], validate=True) != (root / expected["image"]).read_bytes():
        raise ValueError("data URL does not decode to the image bytes")


def _verify_text_body(body: bytes, data: dict, analysis_text: str) -> None:
    doc = json.loads(body)
    if doc["model"] != data["model"] or doc["max_tokens"] != data["max_tokens"]:
        raise ValueError("model or max_tokens differ from the run configuration")
    text = "".join(p["text"] for p in doc["messages"][0]["content"] if p["type"] == "text")
    if analysis_text not in text:
        raise ValueError("extraction prompt lacks the analysis text")


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10
    server: PooledHTTPServer

    def setup(self):
        super().setup()
        # A connection counts once, at its first engine request, so control
        # requests are not counted.
        self.counted = False

    def log_message(self, format, *args):
        pass

    def _reply(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/_stats":
            self._reply(200, self.server.stats.snapshot())
        elif self.path == "/_reset":
            self.server.reset()
            self._reply(200, {})
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        arrival = time.monotonic()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server, stats, data = self.server, self.server.stats, self.server.data
        match = _TOKEN_RE_BYTES.search(body)
        kind = match.group(1).decode() if match else None
        token = f"{kind}{match.group(2).decode()}" if match else None
        with stats.lock:
            if not self.counted:
                self.counted = True
                stats.connections += 1
            stats.requests += 1
            stats.body_bytes += len(body)
            if kind == "S" and stats.first_run_arrival is None:
                stats.first_run_arrival = arrival
        time.sleep(STUB_DELAY_S)
        if token is None or (kind == "S" and token not in data["responses"]) or (
            kind != "S" and token not in data["entities"]
        ):
            self._count(stats, "400")
            self._reply(400, {"error": "no routable case token"})
            return
        attempt = server.next_attempt(token)
        actions = data["schedule"].get(token, [])
        action = actions[attempt] if attempt < len(actions) else "ok"
        if action == "drop":
            self._count(stats, "dropped")
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_RDWR)
            return
        if action in ("429", "503"):
            self._count(stats, action)
            headers = {"Retry-After": RETRY_AFTER_SECONDS} if action == "429" else None
            self._reply(int(action), {"error": "scheduled failure"}, headers)
            return
        expected = data["verify"].get(f"S{token[1:]}")
        if expected is not None:
            problem = None
            try:
                if kind == "S":
                    _verify_run_body(body, data, expected, server.root)
                else:
                    _verify_text_body(body, data, data["texts"][token])
            except (ValueError, KeyError, IndexError, TypeError, StopIteration, OSError) as exc:
                problem = f"{token}: {type(exc).__name__}: {exc}"
            with stats.lock:
                stats.verified += 1
                if problem:
                    stats.verify_failures.append(problem)
        if kind == "S":
            with stats.lock:
                stats.run_ok += 1
        self._count(stats, "200")
        content = data["responses"][token] if kind == "S" else data["entities"][token]
        self._reply(200, {
            "id": f"cmpl-{token}",
            "object": "chat.completion",
            "model": data["model"],
            "choices": [{"index": 0, "message": {"role": "assistant", "content": content}, "finish_reason": "stop"}],
        })

    @staticmethod
    def _count(stats: Stats, status: str) -> None:
        with stats.lock:
            stats.status[status] = stats.status.get(status, 0) + 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--port-file", required=True, type=Path)
    args = parser.parse_args()
    data = json.loads(args.data.read_text(encoding="utf-8"))
    server = PooledHTTPServer(("127.0.0.1", 0), Handler, data, args.root)
    tmp = args.port_file.with_name(args.port_file.name + ".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, args.port_file)
    server.serve_forever()


if __name__ == "__main__":
    main()
