"""The benchmark's tracer (bench/tracing.py) wraps quizeval functions by
name, so a renamed function breaks only a traced benchmark run. Each stage
runs in its own process: installing the tracer patches modules globally."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def traced_stage(probe: Path, *cli_args: str) -> tuple[dict, Counter]:
    """Run one CLI stage through bench/stage.py with tracing on; return the
    probe and the number of spans by name."""
    done = subprocess.run(
        [sys.executable, str(REPO / "bench" / "stage.py"), "--src", str(REPO / "src"), "--probe", str(probe),
         "--trace", "--", *cli_args],
        capture_output=True, timeout=120,
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

    _, spans = traced_stage(tmp_path / "analyze.json", "analyze", "--transcript", str(run_out / "transcript.json"),
                            "--manifest", str(sample_paths.manifest), "--out", str(analysis_out))
    assert (spans["load_transcript"], spans["build_report"]) == (1, 1)
    assert spans["export"] == 4
    assert (spans["extract_from_transcript"], spans["build_graph"], spans["compute_metrics"]) == (1, 2, 2)
    assert (spans["analyze_images"], spans["write_records_csv"]) == (1, 1)
