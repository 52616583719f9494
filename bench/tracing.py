"""In-memory spans around quizeval's layer boundaries, recorded from outside
the package.

``install`` replaces each traced function by a wrapper wherever a quizeval
module holds a reference to it (so the calls the pipeline makes internally,
such as ``build_prompt`` inside ``run_evaluation``, are caught too), and it
injects traced ``transport=`` and ``sleep=`` callables into the live client.
Spans stay in memory until ``dump`` writes them out when the stage ends.
``summarize`` turns the span files of one run/analyze pair into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
import weakref
from pathlib import Path

# (module, attribute, layer) of every traced public function.
TRACED = (
    ("cli", "main", "cli"),
    ("corpus", "load_corpus", "corpus"),
    ("prompting", "build_prompt", "prompting"),
    ("client", "request_body", "client"),
    ("client", "_text_request_body", "client"),
    ("evaluator", "run_evaluation", "evaluator"),
    ("evaluator", "extract_choice", "evaluator"),
    ("evaluator", "save_transcript", "evaluator"),
    ("evaluator", "load_transcript", "evaluator"),
    ("evaluator", "score", "evaluator"),
    ("ima", "analyze_images", "ima"),
    ("ner", "extract_from_transcript", "ner"),
    ("ner", "write_records_csv", "ner"),
    ("kg", "build_graph", "kg"),
    ("kg", "compute_metrics", "kg"),
    ("reporting", "build_report", "reporting"),
    ("reporting", "export", "reporting"),
)

LAYERS = ("cli", "corpus", "prompting", "client", "endpoint", "backoff", "evaluator", "ima", "ner", "kg", "reporting")
RETRY_KINDS = ("RateLimit", "Server", "Transport", "Timeout")
EXPORT_FORMATS = ("json", "csv-bundle", "dot", "graphml")


class Tracer:
    """Collects spans as (id, parent, name, layer, start, end, attrs)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self.envelopes_alive = 0
        self.envelopes_alive_peak = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        # A span opened on a worker thread was caused by whatever the main
        # thread has open (the evaluator's pool waits inside run_evaluation).
        for candidate in (stack, self._main_stack):
            try:
                return candidate[-1]
            except IndexError:
                continue
        return None

    def wrap(self, fn, name: str, layer: str, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(args, kwargs, result, exc)`` adds detail."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append(span_id)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result, exc) if attrs else None
                self.spans.append((span_id, parent, name, layer, start, end, extra))

        return traced

    def track_envelope(self, envelope) -> None:
        with self._lock:
            self.envelopes_alive += 1
            self.envelopes_alive_peak = max(self.envelopes_alive_peak, self.envelopes_alive)
        weakref.finalize(envelope, self._envelope_freed)

    def _envelope_freed(self) -> None:
        with self._lock:
            self.envelopes_alive -= 1

    def dump(self, path: Path) -> None:
        doc = {"spans": self.spans, "envelopes_alive_peak": self.envelopes_alive_peak}
        path.write_text(json.dumps(doc), encoding="utf-8")


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "quizeval" or name.startswith("quizeval."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _transport_attrs(args, kwargs, result, exc):
    body = args[1] if len(args) > 1 else kwargs.get("body", b"")
    if exc is not None:
        kind = "Timeout" if "Timeout" in type(exc).__name__ else "Transport"
    else:
        status = result[0]
        kind = None if status == 200 else ("RateLimit" if status == 429 else "Server" if status >= 500 else str(status))
    return {"bytes": len(body), "retry": kind}


def install(tracer: Tracer, package) -> None:
    """Wrap the traced functions of an imported quizeval ``package``."""
    modules = {name: getattr(package, name) for name in {m for m, _, _ in TRACED}}
    client = modules["client"]

    for module_name, attr, layer in TRACED:
        original = getattr(modules[module_name], attr, None)
        if original is None:
            continue
        attrs = None
        if attr == "build_prompt":
            def attrs(args, kwargs, result, exc):
                if result is not None:
                    tracer.track_envelope(result)
                    return {"bytes": len(result.image_bytes)}
                return None
        elif attr == "export":
            def attrs(args, kwargs, result, exc):
                return {"format": args[1] if len(args) > 1 else kwargs.get("format")}
        elif attr == "extract_from_transcript":
            def attrs(args, kwargs, result, exc):
                transcript = args[0] if args else kwargs["transcript"]
                return {
                    "records": len(result or ()),
                    "chars": sum(len(v.analysis_text) for v in transcript.verdicts),
                }
        _replace_everywhere(original, tracer.wrap(original, attr, layer, attrs))

    default_transport = getattr(client, "_default_transport", None)

    def inject(kwargs) -> None:
        transport = kwargs.get("transport") or default_transport
        if transport is not None:
            kwargs["transport"] = tracer.wrap(transport, "transport", "endpoint", _transport_attrs)
        kwargs["sleep"] = tracer.wrap(
            kwargs.get("sleep", time.sleep), "sleep", "backoff", lambda a, k, r, e: {"seconds": a[0]}
        )

    make_live = client.make_live_completion

    @functools.wraps(make_live)
    def make_live_completion(*args, **kwargs):
        inject(kwargs)
        return tracer.wrap(make_live(*args, **kwargs), "completion", "client")

    _replace_everywhere(make_live, make_live_completion)

    open_replay = client.open_replay

    @functools.wraps(open_replay)
    def traced_open_replay(*args, **kwargs):
        return tracer.wrap(open_replay(*args, **kwargs), "completion", "client")

    _replace_everywhere(open_replay, traced_open_replay)

    complete_text = client.complete_text

    @functools.wraps(complete_text)
    def traced_complete_text(*args, **kwargs):
        inject(kwargs)
        return complete_text(*args, **kwargs)

    _replace_everywhere(complete_text, tracer.wrap(traced_complete_text, "complete_text", "ner"))


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list) -> dict[str, float]:
    """Per-layer self time in ms of one stage's spans: each span's duration
    minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {layer: 0.0 for layer in LAYERS}
    for span_id, _, _, layer, start, end, _ in spans:
        out[layer] += (end - start - _covered(children.get(span_id, []))) * 1000.0
    return out


def summarize(run_doc: dict, analyze_doc: dict, parallelism: int) -> dict[str, float]:
    """Per-layer metrics of one traced run/analyze pair."""
    spans = run_doc["spans"] + analyze_doc["spans"]

    def by_name(name: str, doc: dict | None = None) -> list:
        return [s for s in (doc or {"spans": spans})["spans"] if s[2] == name]

    def total_ms(name: str, doc: dict | None = None) -> float:
        return sum(s[5] - s[4] for s in by_name(name, doc)) * 1000.0

    completions = by_name("completion")
    transports = by_name("transport")
    sleeps = by_name("sleep")
    exports = by_name("export")
    extract = by_name("extract_from_transcript")
    choice_calls = by_name("extract_choice")
    run_eval = by_name("run_evaluation")
    completion_ms = [(s[5] - s[4]) * 1000.0 for s in completions]
    busy_wall = (max(s[5] for s in run_eval) - min(s[4] for s in completions)) if completions and run_eval else 0.0

    metrics = {
        "corpus.load_ms": total_ms("load_corpus"),
        "prompting.build_prompt_ms": total_ms("build_prompt"),
        "prompting.image_bytes_read": float(sum(s[6]["bytes"] for s in by_name("build_prompt") if s[6])),
        "prompting.envelopes_alive_peak": float(run_doc["envelopes_alive_peak"]),
        "client.request_body_ms": total_ms("request_body") + total_ms("_text_request_body"),
        "client.body_bytes": float(sum(s[6]["bytes"] for s in transports)),
        "client.completion_ms_p50": _percentile(completion_ms, 0.50),
        "client.completion_ms_p99": _percentile(completion_ms, 0.99),
        "client.self_ms": sum(completion_ms) - total_ms("request_body", run_doc) - total_ms("sleep", run_doc),
        "client.attempts": float(len(transports)),
        "client.backoff_s": float(sum(s[6]["seconds"] for s in sleeps)),
        "evaluator.pool_busy_ratio": sum(completion_ms) / 1000.0 / (parallelism * busy_wall) if busy_wall else 0.0,
        "evaluator.extract_choice_us": (
            total_ms("extract_choice") * 1000.0 / len(choice_calls) if choice_calls else 0.0
        ),
        "evaluator.save_transcript_ms": total_ms("save_transcript"),
        "evaluator.load_transcript_ms": total_ms("load_transcript"),
        "ima.analyze_images_calls": float(len(by_name("analyze_images"))),
        "ima.analyze_images_ms": total_ms("analyze_images"),
        "ner.extract_ms": total_ms("extract_from_transcript"),
        "ner.records": float(sum(s[6]["records"] for s in extract if s[6])),
        "ner.text_chars": float(sum(s[6]["chars"] for s in extract if s[6])),
        "ner.llm_calls": float(len(by_name("complete_text"))),
        "ner.llm_ms": total_ms("complete_text"),
        "kg.build_graph_calls": float(len(by_name("build_graph"))),
        "kg.build_graph_ms": total_ms("build_graph"),
        "kg.compute_metrics_calls": float(len(by_name("compute_metrics"))),
        "kg.compute_metrics_ms": total_ms("compute_metrics"),
        "reporting.build_report_ms": total_ms("build_report"),
    }
    for kind in RETRY_KINDS:
        metrics[f"client.retries.{kind}"] = float(sum(1 for s in transports if s[6]["retry"] == kind))
    for fmt in EXPORT_FORMATS:
        metrics[f"reporting.export_ms.{fmt}"] = sum(
            (s[5] - s[4]) * 1000.0 for s in exports if s[6] and s[6]["format"] == fmt
        )
    run_self, analyze_self = self_times(run_doc["spans"]), self_times(analyze_doc["spans"])
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = run_self[layer] + analyze_self[layer]
    return metrics


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
