from __future__ import annotations

import hashlib
import json
import re

import pytest

from quizeval.cli import main

from .conftest import make_manifest, make_question


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestValidate:
    def test_sample_manifest(self, sample_paths, capsys):
        code = run_cli("validate", "--manifest", str(sample_paths.manifest))
        assert code == 0
        assert "8 quizzes, 79 questions, 0 errors" in capsys.readouterr().out

    def test_empty_manifest(self, manifest_factory, capsys):
        path = manifest_factory({"tag_vocabulary": [], "quizzes": []})
        code = run_cli("validate", "--manifest", str(path))
        assert code == 0
        assert "0 quizzes, 0 questions, 0 errors" in capsys.readouterr().out

    def test_missing_image_listed(self, manifest_factory, capsys):
        path = manifest_factory(make_manifest({"qz1": [make_question("q1")]}), create_images=False)
        code = run_cli("validate", "--manifest", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert "MissingImage" in err and "1 errors" in err

    def test_unparseable_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("}{")
        assert run_cli("validate", "--manifest", str(path)) == 1


class TestRun:
    def test_replay_run_prints_scores_and_writes_transcript(self, sample_paths, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--fixture", str(sample_paths.fixture),
            "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "total 66/79 (83.54%)" in captured
        assert "ratio 0.8354" in captured
        assert (out / "transcript.json").is_file()
        doc = json.loads((out / "transcript.json").read_text())
        assert doc["scores"]["correct"] == 66

    def test_live_without_credentials_fails_fast(self, sample_paths, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QUIZEVAL_API_KEY", raising=False)
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "live", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "QUIZEVAL_API_KEY" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replay_without_fixture(self, sample_paths, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "fixture" in capsys.readouterr().err

    def test_parallelism_levels_agree(self, sample_paths, tmp_path, capsys):
        outs = []
        for parallelism in ("1", "8"):
            out = tmp_path / f"out{parallelism}"
            assert run_cli(
                "run", "--manifest", str(sample_paths.manifest),
                "--backend", "replay", "--fixture", str(sample_paths.fixture),
                "--parallelism", parallelism, "--out", str(out),
            ) == 0
            doc = json.loads((out / "transcript.json").read_text())
            doc["run"].pop("timestamp")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_invalid_manifest_exits_one(self, manifest_factory, tmp_path, capsys):
        path = manifest_factory(make_manifest({"qz1": [make_question("q1", correct="F")]}))
        fixture = tmp_path / "f.json"
        fixture.write_text("{}")
        code = run_cli("run", "--manifest", str(path), "--backend", "replay",
                       "--fixture", str(fixture), "--out", str(tmp_path / "out"))
        assert code == 1

    def test_config_file_with_flag_override(self, sample_paths, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "manifest": str(sample_paths.manifest),
            "backend": "replay",
            "fixture": str(sample_paths.fixture),
            "out": str(tmp_path / "from-config"),
            "parallelism": 2,
        }))
        override_out = tmp_path / "from-flag"
        code = run_cli("run", "--config", str(config_path), "--out", str(override_out))
        assert code == 0
        assert (override_out / "transcript.json").is_file()
        assert not (tmp_path / "from-config").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        assert run_cli("run", "--config", str(config_path)) == 1

    def test_missing_rules_file_exits_one(self, sample_paths, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--fixture", str(sample_paths.fixture),
            "--rules-file", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "error: ConfigError: cannot read rules file" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("run", "--backend", "teapot")
        assert excinfo.value.code == 1

    def test_rules_file_without_marker_exits_one(self, sample_paths, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("Answer the question with one letter.")
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--fixture", str(sample_paths.fixture),
            "--rules-file", str(rules), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "error: MarkerMissingError: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "transcript.json").exists()


@pytest.fixture
def analyzed(sample_paths, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert run_cli(
        "run", "--manifest", str(sample_paths.manifest),
        "--backend", "replay", "--fixture", str(sample_paths.fixture),
        "--out", str(run_out),
    ) == 0
    analysis_out = tmp_path / "analysis"
    assert run_cli(
        "analyze", "--transcript", str(run_out / "transcript.json"),
        "--manifest", str(sample_paths.manifest), "--out", str(analysis_out),
    ) == 0
    capsys.readouterr()
    return run_out, analysis_out


class TestAnalyze:
    def test_produces_full_bundle(self, analyzed):
        _, out = analyzed
        names = {p.name for p in out.iterdir()}
        assert {
            "report.json", "scores.csv", "ima.csv", "entity_frequencies.csv",
            "graph_metrics.csv", "requirements.csv", "entities.csv",
            "correct_graph.dot", "incorrect_graph.dot",
            "correct_graph.graphml", "incorrect_graph.graphml",
        } <= names

    def test_report_ima_matches_expected(self, analyzed):
        _, out = analyzed
        doc = json.loads((out / "report.json").read_text())
        assert doc["ima"]["incorrect"] == {
            "CV": 3, "SKIN": 2, "ENDO": 2, "EYE": 1, "LIVER": 1,
            "HN": 1, "FEM": 1, "INFL": 1, "LUNG": 1,
        }
        assert set(doc["ima"]["incorrect_only_tags"]) >= {"EYE", "HN"}

    def test_requires_no_network_with_gazetteer(self, analyzed):
        # Everything above ran offline; double-check by re-running analysis.
        run_out, _ = analyzed
        assert run_cli(
            "analyze", "--transcript", str(run_out / "transcript.json"),
            "--manifest", str(run_out.parent / ".." / "nonexistent"),
        ) == 1  # bad manifest still fails cleanly without touching the network

    def test_llm_extractor_without_key(self, analyzed, sample_paths, monkeypatch, capsys):
        run_out, _ = analyzed
        monkeypatch.delenv("QUIZEVAL_API_KEY", raising=False)
        code = run_cli(
            "analyze", "--transcript", str(run_out / "transcript.json"),
            "--manifest", str(sample_paths.manifest), "--extractor", "llm",
        )
        assert code == 1
        assert "ExtractorUnavailable" in capsys.readouterr().err

    def test_mismatched_corpus(self, analyzed, manifest_factory, capsys):
        run_out, _ = analyzed
        other = manifest_factory(make_manifest({"qz1": [make_question("q1")]}))
        code = run_cli(
            "analyze", "--transcript", str(run_out / "transcript.json"),
            "--manifest", str(other),
        )
        assert code == 1
        assert "RunMismatch" in capsys.readouterr().err

    def test_malformed_transcript_exits_one(self, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        doc = json.loads((run_out / "transcript.json").read_text())
        doc["run"]["seed"] = 7
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = run_cli("analyze", "--transcript", str(broken), "--manifest", str(sample_paths.manifest),
                       "--out", str(tmp_path / "broken-out"))
        assert code == 1
        assert "error: ValueError: malformed transcript" in capsys.readouterr().err

    def test_missing_transcript_exits_one(self, sample_paths, tmp_path, capsys):
        code = run_cli("analyze", "--transcript", str(tmp_path / "absent.json"),
                       "--manifest", str(sample_paths.manifest), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error: ConfigError: cannot read transcript" in capsys.readouterr().err

    def test_all_correct_transcript_degenerate_branch(self, manifest_factory, tmp_path, capsys):
        questions = [make_question(f"q{i}", correct="A") for i in range(3)]
        path = manifest_factory(make_manifest({"qz1": questions}))
        fixture = tmp_path / "perfect.json"
        fixture.write_text(json.dumps({f"q{i}": "Correct Choice:A" for i in range(3)}))
        run_out, analysis_out = tmp_path / "run", tmp_path / "analysis"
        assert run_cli("run", "--manifest", str(path), "--backend", "replay",
                       "--fixture", str(fixture), "--out", str(run_out)) == 0
        assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                       "--manifest", str(path), "--out", str(analysis_out)) == 0
        doc = json.loads((analysis_out / "report.json").read_text())
        assert doc["graphs"]["incorrect"] == {"nodes": [], "edges": []}
        assert doc["metrics"]["incorrect"]["density"] is None
        kinds = {w["kind"] for w in doc["requirements"]}
        assert "DenseFailureCluster" not in kinds and "IncorrectOnlyTag" not in kinds

    def test_custom_lexicon(self, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"ORGAN": ["heart", "lung", "liver", "skin"]}))
        out = tmp_path / "custom"
        code = run_cli(
            "analyze", "--transcript", str(run_out / "transcript.json"),
            "--manifest", str(sample_paths.manifest),
            "--lexicon", str(lexicon), "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["entity_frequencies"]["correct"]) == {"ORGAN"}


@pytest.mark.parametrize("command,doc", [
    ("run", {"out": 5}),
    ("run", {"temperature": "hot"}),
    ("run", {"parallelism": None}),
    ("run", {"backend": "teapot"}),
    ("analyze", {"top_k": None}),
    ("analyze", {"extractor": "spacy"}),
])
def test_config_file_values_are_checked(command, doc, sample_paths, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    argv = ["--config", str(config_path)]
    if command == "analyze":
        argv += ["--transcript", str(tmp_path / "t.json"), "--manifest", str(sample_paths.manifest)]
    assert run_cli(command, *argv) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError: config key" in err and repr(next(iter(doc))) in err


class TestSample:
    def test_materializes_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert run_cli("sample", "--out", str(out)) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "replay_fixture.json").is_file()
        assert len(list((out / "images").glob("*.png"))) == 79

    def test_deterministic(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        run_cli("sample", "--out", str(first))
        run_cli("sample", "--out", str(second))
        assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()
        assert (first / "replay_fixture.json").read_bytes() == (second / "replay_fixture.json").read_bytes()


def _digest(path, *, drop_timestamp: bool = False) -> str:
    data = path.read_bytes()
    if drop_timestamp:
        data, count = re.subn(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
        assert count == 1
    return hashlib.sha256(data).hexdigest()


# sha256 of every file of the sample's `run` + `analyze` outputs, timestamps
# blanked. A refactor of the pipeline must leave all of them unchanged.
GOLDEN_DIGESTS = {
    "transcript.json": "988e6830e00720fd1c6b139763e88f9b78f526f310278f7cb0e8c03527dc5a86",
    "correct_graph.dot": "42480f8aa0031ebdf6d6e08fcd652c139ccd00e015500bdbdc4c21c766aaf127",
    "correct_graph.graphml": "dfaad9e8c6bc2b69f979a05ccc004b2d641f40bc582b5e5392cf97f95a89b0aa",
    "entities.csv": "afa2779882dc8fb59fa760e6363c59a74907064790224de5fb46d949ad61d42f",
    "entity_frequencies.csv": "4d9268045fe97573a044b0ded815213e23cc1a2744b153eb2801f70e20eb3b44",
    "graph_metrics.csv": "3e9fe6c27fd153991c5fa51742afe7ea20c5d357dc339069c75e59b1779aaae1",
    "ima.csv": "f8e5074bd3146b923b59bca9ab2cdca8e33ec1e65cb917cf6581340c552b3506",
    "incorrect_graph.dot": "6a23705c015ee8ec60833058006486ac57d255ac5ba826fa4795034200e96251",
    "incorrect_graph.graphml": "f11b4a38f153dbda9151f9e5f5c69807564248ddf06ce76b5fc3c962e7c436af",
    "report.json": "05f4e3158a226d3564bf8fbeb44655621b5c7b487d10769f2bc63eeb5cb02428",
    "requirements.csv": "f66ff49624c0ed17ddd919331546bae6943ccc07dcfc90b201d0c787350003ca",
    "scores.csv": "5fd0e5584772d4d6b2697d83582a95cc0a825f1f813866e62e890cd9f6622418",
}


def test_sample_outputs_are_byte_stable(tmp_path, capsys):
    sample, run_out, analysis_out = tmp_path / "sample", tmp_path / "run", tmp_path / "analysis"
    assert run_cli("sample", "--out", str(sample)) == 0
    assert run_cli("run", "--manifest", str(sample / "manifest.json"), "--backend", "replay",
                   "--fixture", str(sample / "replay_fixture.json"), "--out", str(run_out)) == 0
    assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                   "--manifest", str(sample / "manifest.json"), "--out", str(analysis_out)) == 0
    digests = {"transcript.json": _digest(run_out / "transcript.json", drop_timestamp=True)}
    for path in sorted(analysis_out.iterdir()):
        digests[path.name] = _digest(path, drop_timestamp=path.name == "report.json")
    assert digests == GOLDEN_DIGESTS
