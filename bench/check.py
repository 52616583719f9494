"""Check one benchmark repetition's outputs and derive its per-layer metrics.

Runs in its own process so that the orchestrating process (run.py) stays small:
a child started from a large process inherits that process's peak RSS in
``ru_maxrss``, which would corrupt the stages' memory figures.

Compares the transcript and the entity records with the generator's
expectation, hashes ``report.json`` without its timestamp and endpoint
URL, and, for a traced repetition, summarises the span files (see
tracing.py) together with the endpoint counters and the output sizes.

Usage: python3 bench/check.py --inputs DIR --rep DIR [--traced]
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
from pathlib import Path

import tracing
import workload


def report_digest(path: Path) -> str:
    """sha256 of ``report.json`` without the fields that change from one
    invocation to the next: the timestamp and the endpoint URL, which holds
    the stub's port."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["run"].pop("timestamp", None)
    doc["run"].pop("endpoint_url", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def check_outputs(expect: dict, run_out: Path, analyze_out: Path) -> tuple[int, int, list[str]]:
    """Returns (client-error verdicts, verdicts that differ from the
    expectation, problems found)."""
    problems: list[str] = []
    n = expect["questions"]
    transcript = json.loads((run_out / "transcript.json").read_text(encoding="utf-8"))
    verdicts = transcript["verdicts"]
    if len(verdicts) != n:
        return 0, n, [f"transcript has {len(verdicts)} verdicts, expected {n}"]
    correct = set(expect["correct"])
    forced = set(expect["forced_errors"])
    wrong: set[int] = set()
    client_errors = 0
    for i, verdict in enumerate(verdicts):
        is_client_error = (verdict["error"] or "").startswith("ClientError")
        client_errors += is_client_error
        if verdict["is_correct"] != (i in correct) or is_client_error != (i in forced):
            wrong.add(i)
    if transcript["scores"]["correct"] != len(correct):
        problems.append(f"transcript score {transcript['scores']['correct']} != expected {len(correct)}")
    if client_errors != len(forced):
        problems.append(f"{client_errors} client-error verdicts, the schedule forces {len(forced)}")

    records: list[list[list[str]]] = [[] for _ in range(n)]
    with open(analyze_out / "entities.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            group = int(row["group"])
            if not 0 <= group < n or (row["from_correct"] == "True") != (group in correct):
                problems.append(f"entity record {row} does not belong to its verdict")
                continue
            records[group].append([row["entity_type"], row["entity_name"]])
    mismatched = [i for i in range(n) if records[i] != expect["planted"][i]]
    if mismatched:
        problems.append(
            f"{len(mismatched)} verdicts' entity records differ from the planted entities (first: {mismatched[0]})"
        )
    wrong.update(mismatched)
    if wrong:
        problems.append(f"{len(wrong)} verdicts differ from the expectation")
    return client_errors, len(wrong), problems


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(rep: Path, n: int, stats: dict | None) -> dict[str, float]:
    run_out, analyze_out = rep / "run", rep / "analyze"
    spans = [json.loads((rep / f"{stage}.probe.spans.json").read_text(encoding="utf-8")) for stage in ("run", "analyze")]
    layer = tracing.summarize(spans[0], spans[1], workload.PARALLELISM)
    status = stats["status"] if stats else {}
    layer.update({
        "corpus.questions": float(n),
        "evaluator.transcript_bytes": float((run_out / "transcript.json").stat().st_size),
        "endpoint.connections_opened": float(stats["connections"] if stats else 0),
        "endpoint.status.200": float(status.get("200", 0)),
        "endpoint.status.429": float(status.get("429", 0)),
        "endpoint.status.503": float(status.get("503", 0)),
        "endpoint.status.dropped": float(status.get("dropped", 0)),
        "reporting.bytes_written": float(directory_bytes(analyze_out)),
    })
    report = json.loads((analyze_out / "report.json").read_text(encoding="utf-8"))
    for branch in ("correct", "incorrect"):
        layer[f"kg.nodes.{branch}"] = float(report["metrics"][branch]["nodes"])
        layer[f"kg.edges.{branch}"] = float(report["metrics"][branch]["edges"])
    return layer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--rep", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    expect = json.loads((args.inputs / "expect.json").read_text(encoding="utf-8"))
    stats_path = args.rep / "stub_stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists() else None
    client_errors, wrong, problems = check_outputs(expect, args.rep / "run", args.rep / "analyze")
    result = {
        "client_errors": client_errors,
        "wrong": wrong,
        "problems": problems,
        "digest": report_digest(args.rep / "analyze" / "report.json"),
        "layer": layer_metrics(args.rep, expect["questions"], stats) if args.traced and not problems else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
