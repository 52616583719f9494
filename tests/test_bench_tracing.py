"""The benchmark's tracer (bench/tracing.py) wraps quizeval functions by
name, so a renamed function breaks only a traced benchmark run. Each stage
runs in its own process: installing the tracer patches modules globally."""

from __future__ import annotations

import http.server
import importlib.util
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

from quizeval.evaluator import save_transcript

from .conftest import fake_entity_reply

REPO = Path(__file__).resolve().parents[1]


def traced_stage(probe: Path, *cli_args: str, env: dict[str, str] | None = None) -> tuple[dict, Counter]:
    """Run one CLI stage through bench/stage.py with tracing on; return the
    probe and the number of spans by name."""
    done = subprocess.run(
        [sys.executable, str(REPO / "bench" / "stage.py"), "--src", str(REPO / "src"), "--probe", str(probe),
         "--trace", "--", *cli_args],
        capture_output=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(probe.with_suffix(".spans.json").read_text(encoding="utf-8"))["spans"]
    return json.loads(probe.read_text(encoding="utf-8")), Counter(span[2] for span in spans)


def test_tracer_installs_on_run_and_analyze(sample_paths, tmp_path):
    run_out, analysis_out = tmp_path / "run", tmp_path / "analysis"
    probe, spans = traced_stage(tmp_path / "run.json", "run", "--manifest", str(sample_paths.manifest),
                                "--backend", "replay", "--fixture", str(sample_paths.fixture), "--out", str(run_out))
    assert probe["calls"] == 79
    assert (spans["completion"], spans["build_prompt"], spans["run_evaluation"]) == (79, 79, 1)
    assert (spans["extract_choice"], spans["save_transcript"]) == (79, 1)
    assert (spans["main"], spans["load_corpus"], spans["score"]) == (1, 1, 2)

    _, spans = traced_stage(tmp_path / "analyze.json", "analyze", "--transcript", str(run_out / "transcript.json"),
                            "--manifest", str(sample_paths.manifest), "--out", str(analysis_out))
    assert (spans["load_transcript"], spans["build_report"]) == (1, 1)
    assert spans["export"] == 4
    assert (spans["extract_from_transcript"], spans["build_graph"], spans["compute_metrics"]) == (1, 2, 2)
    assert (spans["analyze_images"], spans["write_records_csv"]) == (1, 1)
    # A version-2 transcript is checked against the manifest's digest, not a loaded corpus.
    assert (spans["main"], spans["load_corpus"], spans["score"]) == (1, 0, 2)


class EntityEndpoint(http.server.BaseHTTPRequestHandler):
    """Answers each chat-completions request with the gazetteer's entities in its text."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = fake_entity_reply(request["messages"][0]["content"][0]["text"])
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_tracer_installs_on_llm_extraction(sample_paths, sample_transcript, tmp_path):
    save_transcript(sample_transcript, tmp_path / "transcript.json")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), EntityEndpoint)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    env = {key: value for key, value in os.environ.items() if not key.lower().endswith("_proxy")}
    try:
        _, spans = traced_stage(
            tmp_path / "analyze.json", "analyze", "--transcript", str(tmp_path / "transcript.json"), "--manifest",
            str(sample_paths.manifest), "--extractor", "llm", "--parallelism", "2", "--out", str(tmp_path / "out"),
            "--endpoint", f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
            env={**env, "QUIZEVAL_API_KEY": "sk-test"},
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert (spans["complete_text"], spans["request_body"]) == (79, 79)
    assert spans["transport"] >= 79


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {(module, attr) for module, attr, _ in tracing.TRACED
               if not hasattr(importlib.import_module(f"quizeval.{module}"), attr)}
    # A stale name that bench/tracing.py has yet to drop; the tracer skips it.
    assert missing <= {("client", "_text_request_body")}
