from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quizeval
from quizeval import cli, client, corpus, pool, sampledata
from quizeval.cli import main
from quizeval.evaluator import load_transcript, save_transcript, transcript_to_dict

from .conftest import TINY_PNG, child_env, fake_entity_reply, make_manifest, make_question


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

    def test_overlong_image_name_is_listed_with_the_other_issues(self, manifest_factory, capsys):
        # A file name over 255 bytes makes the file system refuse the path
        # (ENAMETOOLONG); it is one more missing image, not a runtime error.
        manifest = make_manifest({"qz1": [
            make_question("q1", image="images/" + "x" * 300 + ".png"),
            make_question("q2", tag="XYZZY"),
            make_question("q3", correct="F"),
        ]})
        path = manifest_factory(manifest, create_images=False)
        (path.parent / "images").mkdir()
        for qid in ("q2", "q3"):
            (path.parent / "images" / f"{qid}.png").write_bytes(TINY_PNG)
        assert run_cli("validate", "--manifest", str(path)) == 1
        lines = capsys.readouterr().err.splitlines()
        kinds = [line.split(":")[0].strip() for line in lines]
        assert kinds == ["MissingImage", "UnknownTag", "InvalidCorrectLetter", "3 errors"]
        assert lines[0].startswith("  MissingImage: question q1: image file ")

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

    def test_replay_starts_no_thread_pool(self, sample_paths, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("replay started a thread pool")

        monkeypatch.setattr(pool, "Thread", no_pool)
        assert run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--fixture", str(sample_paths.fixture),
            "--parallelism", "8", "--out", str(tmp_path / "out"),
        ) == 0
        assert load_transcript(tmp_path / "out" / "transcript.json").verdicts

    def test_replay_rejects_parallelism_below_one(self, sample_paths, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--fixture", str(sample_paths.fixture),
            "--parallelism", "0", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "error: ConfigError: --parallelism must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_manifest_exits_one(self, manifest_factory, tmp_path, capsys):
        path = manifest_factory(make_manifest({"qz1": [make_question("q1", correct="F"),
                                                       make_question("q2", tag="XYZZY")]}))
        # The fixture does not exist: it is read only after the corpus is valid.
        fixture = tmp_path / "absent-fixture.json"
        code = run_cli("run", "--manifest", str(path), "--backend", "replay",
                       "--fixture", str(fixture), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "  InvalidCorrectLetter: question q1: correct_letter 'F' is not among the choice letters",
            "  UnknownTag: question q2: tag 'XYZZY' is not in the tag vocabulary",
            "2 errors",
        ]
        assert fixture.name not in err

    def test_the_fixture_is_read_after_the_corpus(self, sample_paths, tmp_path, capsys, monkeypatch):
        calls = []

        def recording(name, function):
            def call(*args):
                calls.append(f"{name} called")
                result = function(*args)
                calls.append(f"{name} returned")
                return result
            return call

        monkeypatch.setattr(cli, "load_corpus", recording("load_corpus", cli.load_corpus))
        monkeypatch.setattr(client, "open_replay", recording("open_replay", client.open_replay))
        assert run_cli("run", "--manifest", str(sample_paths.manifest), "--backend", "replay",
                       "--fixture", str(sample_paths.fixture), "--out", str(tmp_path / "out")) == 0
        assert calls == ["load_corpus called", "load_corpus returned", "open_replay called", "open_replay returned"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature_exits_one(self, value, sample_paths, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", str(sample_paths.manifest),
            "--backend", "replay", "--fixture", str(sample_paths.fixture),
            "--temperature", value, "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "error: ConfigError: temperature must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_replay_without_manifest(self, sample_paths, tmp_path, capsys):
        code = run_cli("run", "--backend", "replay", "--fixture", str(sample_paths.fixture),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error: ConfigError: a corpus manifest is required" in capsys.readouterr().err
        assert not (tmp_path / "out" / "transcript.json").exists()

    @pytest.mark.parametrize("where, said", [
        ("tag", "error: tag_vocabulary must be an array of non-empty UTF-8 strings"),
        ("quiz-id", "MalformedManifest: quiz id '\\ud800' is not writable as UTF-8"),
    ], ids=["tag", "quiz-id"])
    def test_text_not_writable_as_utf8_is_refused_before_any_call(self, where, said, sample_paths, tmp_path,
                                                                   capsys, monkeypatch):
        doc = json.loads(sample_paths.manifest.read_text(encoding="utf-8"))
        for quiz in doc["quizzes"]:
            for question in quiz["questions"]:
                question["image"]["path"] = str(sample_paths.manifest.parent / question["image"]["path"])
        if where == "tag":
            doc["tag_vocabulary"].append("\ud800")
            doc["quizzes"][0]["questions"][0]["image"]["domain_tag"] = "\ud800"
        else:
            doc["quizzes"][0]["id"] = "\ud800"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("validate", "--manifest", str(manifest)) == 1
        assert said in capsys.readouterr().err

        calls = []
        replay = client.open_replay(sample_paths.fixture)
        monkeypatch.setattr(client, "open_replay", lambda path: lambda env: calls.append(env) or replay(env))
        code = run_cli("run", "--manifest", str(manifest), "--backend", "replay",
                       "--fixture", str(sample_paths.fixture), "--out", str(tmp_path / "out"))
        assert code == 1
        assert said in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()


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
        assert "ConfigError" in capsys.readouterr().err

    def test_mismatched_corpus(self, analyzed, manifest_factory, capsys):
        run_out, _ = analyzed
        other = manifest_factory(make_manifest({"qz1": [make_question("q1")]}))
        code = run_cli(
            "analyze", "--transcript", str(run_out / "transcript.json"),
            "--manifest", str(other),
        )
        assert code == 1
        assert "RunMismatch" in capsys.readouterr().err

    def test_verdict_in_another_quiz(self, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        transcript = load_transcript(run_out / "transcript.json")
        first = dataclasses.replace(transcript.verdicts[0], quiz_id="quiz8")
        moved = tmp_path / "moved.json"
        save_transcript(dataclasses.replace(transcript, verdicts=(first,) + transcript.verdicts[1:]), moved)
        code = run_cli("analyze", "--transcript", str(moved), "--manifest", str(sample_paths.manifest),
                       "--out", str(tmp_path / "moved-out"))
        assert code == 1
        assert f"error: RunMismatchError: verdict for {first.question_id!r} disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["dropped", "duplicated"])
    def test_verdicts_for_another_question_set(self, change, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        transcript = load_transcript(run_out / "transcript.json")
        verdicts = transcript.verdicts[1:] if change == "dropped" else transcript.verdicts + transcript.verdicts[:1]
        # save_transcript stores the scores of these verdicts, so the transcript's own checks pass.
        changed = save_transcript(dataclasses.replace(transcript, verdicts=verdicts), tmp_path / "changed.json")
        code = run_cli("analyze", "--transcript", str(changed), "--manifest", str(sample_paths.manifest),
                       "--out", str(tmp_path / "changed-out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: RunMismatchError: transcript and corpus cover different question sets\n"
        )
        assert not (tmp_path / "changed-out").exists()

    @staticmethod
    def _setting_below_one_costs_no_calls(flag, value, source, run_out, sample_paths, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
        monkeypatch.setattr(client, "complete_text", lambda *a, **kw: calls.append(a) or "")
        argv = ["analyze", "--transcript", str(run_out / "transcript.json"),
                "--manifest", str(sample_paths.manifest), "--extractor", "llm", "--out", str(tmp_path / "k")]
        if source == "flag":
            argv += [flag, str(value)]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
            argv += ["--config", str(config_path)]
        assert run_cli(*argv) == 1
        assert f"error: ConfigError: {flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "k").exists()

    @pytest.mark.parametrize("top_k", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_top_k_below_one_costs_no_calls(self, analyzed, sample_paths, tmp_path, capsys, monkeypatch,
                                            top_k, source):
        self._setting_below_one_costs_no_calls("--top-k", top_k, source, analyzed[0], sample_paths, tmp_path,
                                               capsys, monkeypatch)

    @pytest.mark.parametrize("threshold", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tag_threshold_below_one_costs_no_calls(self, analyzed, sample_paths, tmp_path, capsys, monkeypatch,
                                                    threshold, source):
        self._setting_below_one_costs_no_calls("--tag-threshold", threshold, source, analyzed[0], sample_paths,
                                               tmp_path, capsys, monkeypatch)

    def test_llm_outputs_are_the_same_at_any_parallelism(self, analyzed, sample_paths, tmp_path, capsys,
                                                         monkeypatch):
        run_out, _ = analyzed
        monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
        monkeypatch.setattr(client, "complete_text", lambda text, config, api_key, **kw: fake_entity_reply(text))
        outputs = []
        for parallelism in ("1", "4"):
            out = tmp_path / f"p{parallelism}"
            assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                           "--manifest", str(sample_paths.manifest), "--extractor", "llm",
                           "--parallelism", parallelism, "--out", str(out)) == 0
            outputs.append([(out / name).read_bytes() for name in ("entities.csv", "report.json")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") > 79

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_exhausted_extraction_skips_verdicts_not_started(self, analyzed, sample_paths, tmp_path, capsys,
                                                             monkeypatch, parallelism):
        run_out, _ = analyzed
        failing = 10
        text = load_transcript(run_out / "transcript.json").verdicts[failing].analysis_text
        calls = []

        def complete_text(prompt, config, api_key, **kw):
            calls.append(prompt)
            if text in prompt:
                raise client.RetriesExhaustedError(client.ClientError("Server", "HTTP 503"), 4)
            return fake_entity_reply(prompt)

        monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
        monkeypatch.setattr(client, "complete_text", complete_text)
        out = tmp_path / "exhausted"
        assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                       "--manifest", str(sample_paths.manifest), "--extractor", "llm",
                       "--parallelism", str(parallelism), "--out", str(out)) == 2
        assert "runtime error: RetriesExhaustedError: Server: gave up after 4 attempts" in capsys.readouterr().err
        assert len(calls) <= failing + parallelism
        assert not out.exists()

    def test_gazetteer_starts_no_thread_pool(self, analyzed, sample_paths, tmp_path, monkeypatch):
        run_out, expected = analyzed

        def no_pool(*args, **kwargs):
            raise AssertionError("the gazetteer started a thread pool")

        monkeypatch.setattr(pool, "Thread", no_pool)
        out = tmp_path / "serial"
        assert run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                       "--manifest", str(sample_paths.manifest), "--parallelism", "8", "--out", str(out)) == 0
        assert (out / "entities.csv").read_bytes() == (expected / "entities.csv").read_bytes()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_parallelism_below_one_costs_no_calls(self, sample_paths, tmp_path, capsys, monkeypatch, source):
        calls = []
        monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
        monkeypatch.setattr(client, "complete_text", lambda *a, **kw: calls.append(a) or "")
        # The transcript does not exist: the setting must be refused before it is read.
        argv = ["analyze", "--transcript", str(tmp_path / "absent.json"),
                "--manifest", str(sample_paths.manifest), "--extractor", "llm", "--out", str(tmp_path / "p")]
        if source == "flag":
            argv += ["--parallelism", "0"]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"parallelism": 0}))
            argv += ["--config", str(config_path)]
        assert run_cli(*argv) == 1
        assert "error: ConfigError: --parallelism must be at least 1, got 0" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_min_interval_spaces_extraction_calls(self, analyzed, sample_paths, tmp_path, capsys, monkeypatch,
                                                  source):
        run_out, _ = analyzed
        spacers, turns, calls = [], [], []

        def request_spacer(min_interval, **kw):
            spacers.append(min_interval)
            return lambda: turns.append(len(calls))

        monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
        monkeypatch.setattr(client, "request_spacer", request_spacer)
        monkeypatch.setattr(client, "complete_text", lambda text, *a, **kw: calls.append(text) or "")
        argv = ["analyze", "--transcript", str(run_out / "transcript.json"), "--manifest", str(sample_paths.manifest),
                "--extractor", "llm", "--parallelism", "1", "--out", str(tmp_path / "spaced")]
        if source == "flag":
            argv += ["--min-interval", "0.25"]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"min_interval": 0.25}))
            argv += ["--config", str(config_path)]
        assert run_cli(*argv) == 0
        assert spacers == [0.25]
        # Each call waits its turn first.
        assert turns == list(range(79)) and len(calls) == 79

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

    def test_verdict_field_of_wrong_type_exits_one(self, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        doc = json.loads((run_out / "transcript.json").read_text())
        doc["verdicts"][0]["analysis_text"] = 5
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = run_cli("analyze", "--transcript", str(broken), "--manifest", str(sample_paths.manifest),
                       "--out", str(tmp_path / "broken-out"))
        assert code == 1
        assert "error: ValueError: verdict for 'q101': analysis_text has the wrong type" in capsys.readouterr().err

    def test_run_field_of_wrong_type_exits_one(self, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        doc = json.loads((run_out / "transcript.json").read_text())
        doc["run"]["max_tokens"] = "x"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = run_cli("analyze", "--transcript", str(broken), "--manifest", str(sample_paths.manifest),
                       "--out", str(tmp_path / "broken-out"))
        assert code == 1
        assert "error: ValueError: run: max_tokens has the wrong type" in capsys.readouterr().err
        assert not (tmp_path / "broken-out" / "report.json").exists()

    @pytest.mark.parametrize("field", ["quiz_id", "domain_tag"])
    def test_verdict_text_not_writable_as_utf8_writes_nothing(self, field, analyzed, sample_paths, tmp_path,
                                                               capsys):
        run_out, _ = analyzed
        doc = json.loads((run_out / "transcript.json").read_text())
        doc["verdicts"][0][field] = "\ud800"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = run_cli("analyze", "--transcript", str(broken), "--manifest", str(sample_paths.manifest),
                       "--out", str(tmp_path / "broken-out"))
        assert code == 1
        assert (f"error: ValueError: verdict for 'q101': {field} is not writable as UTF-8"
                in capsys.readouterr().err)
        assert not (tmp_path / "broken-out").exists()

    def test_lexicon_type_not_writable_as_utf8_exits_one(self, analyzed, sample_paths, tmp_path, capsys):
        run_out, _ = analyzed
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"\ud800": ["heart"]}))
        code = run_cli("analyze", "--transcript", str(run_out / "transcript.json"),
                       "--manifest", str(sample_paths.manifest), "--lexicon", str(lexicon),
                       "--out", str(tmp_path / "lexicon-out"))
        assert code == 1
        assert "error: LexiconError: entity type '\\ud800' is not writable as UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "lexicon-out").exists()

    def test_missing_transcript_exits_one(self, sample_paths, tmp_path, capsys):
        code = run_cli("analyze", "--transcript", str(tmp_path / "absent.json"),
                       "--manifest", str(sample_paths.manifest), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "error: ValueError: cannot read transcript" in capsys.readouterr().err

    def test_empty_transcript_exits_one(self, sample_paths, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_bytes(b"")
        code = run_cli("analyze", "--transcript", str(empty),
                       "--manifest", str(sample_paths.manifest), "--out", str(tmp_path / "out"))
        assert code == 1
        assert f"error: ValueError: transcript {empty} is not valid JSON" in capsys.readouterr().err

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


@pytest.fixture
def private_run(tmp_path, capsys):
    """A sample bundle of the test's own, which it may edit, and the
    directory its replay run wrote the transcript to."""
    paths = sampledata.materialize_sample(tmp_path / "sample")
    run_out = tmp_path / "run"
    assert run_cli("run", "--manifest", str(paths.manifest), "--backend", "replay",
                   "--fixture", str(paths.fixture), "--out", str(run_out)) == 0
    capsys.readouterr()
    return paths, run_out


def _analyze(transcript, manifest, out) -> int:
    return run_cli("analyze", "--transcript", str(transcript), "--manifest", str(manifest), "--out", str(out))


def _outputs(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _write_version_1(transcript, path):
    """Write ``transcript`` as a version-1 run wrote it: with a payload order
    and without a manifest digest."""
    doc = transcript_to_dict(transcript)
    del doc["run"]["manifest_sha256"]
    doc["run"]["payload_order"] = "text,image"
    path.write_text(json.dumps({**doc, "schema_version": 1}), encoding="utf-8")
    return path


class TestManifestDigest:
    """A version-2 transcript records the sha256 of the manifest bytes the run
    read; ``analyze`` checks the manifest by that digest, not by validating the
    corpus again, and a version-1 transcript, which has no digest, is checked
    by validating the corpus, images included."""

    def test_analyzes_without_the_images(self, private_run, tmp_path, capsys):
        paths, run_out = private_run
        assert _analyze(run_out / "transcript.json", paths.manifest, tmp_path / "with-images") == 0
        shutil.rmtree(paths.images_dir)
        assert _analyze(run_out / "transcript.json", paths.manifest, tmp_path / "without-images") == 0
        assert capsys.readouterr().err == ""
        assert _outputs(tmp_path / "without-images") == _outputs(tmp_path / "with-images")

    def test_never_loads_the_corpus(self, analyzed, sample_paths, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze of a version-2 transcript loaded the corpus")

        monkeypatch.setattr(cli, "load_corpus", refuse)
        monkeypatch.setattr(corpus, "load_corpus", refuse)
        run_out, expected = analyzed
        assert _analyze(run_out / "transcript.json", sample_paths.manifest, tmp_path / "out") == 0
        assert capsys.readouterr().err == ""
        assert _outputs(tmp_path / "out") == _outputs(expected)

    def test_manifest_edited_after_the_run_is_refused(self, private_run, tmp_path, capsys):
        paths, run_out = private_run
        data = paths.manifest.read_bytes()
        at = data.index(b'"explanation": "H') + len(b'"explanation": "')
        paths.manifest.write_bytes(data[:at] + b"h" + data[at + 1:])
        assert run_cli("validate", "--manifest", str(paths.manifest)) == 0  # still a valid corpus
        capsys.readouterr()
        assert _analyze(run_out / "transcript.json", paths.manifest, tmp_path / "out") == 1
        recorded = json.loads((run_out / "transcript.json").read_text(encoding="utf-8"))["run"]["manifest_sha256"]
        assert capsys.readouterr().err == (
            f"error: RunMismatchError: manifest {paths.manifest} is not the one the run read: its sha256 is "
            f"{hashlib.sha256(paths.manifest.read_bytes()).hexdigest()}, the transcript records {recorded}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_version_1_transcript_is_checked_against_the_corpus(self, private_run, tmp_path, capsys):
        paths, run_out = private_run
        transcript = load_transcript(run_out / "transcript.json")
        v1 = _write_version_1(transcript, tmp_path / "v1.json")
        assert _analyze(run_out / "transcript.json", paths.manifest, tmp_path / "v2-out") == 0
        assert _analyze(v1, paths.manifest, tmp_path / "v1-out") == 0
        assert capsys.readouterr().err == ""
        v1_out, v2_out = _outputs(tmp_path / "v1-out"), _outputs(tmp_path / "v2-out")
        v1_report, v2_report = (json.loads(out.pop("report.json")) for out in (v1_out, v2_out))
        assert v1_out == v2_out
        assert v1_report == {**v2_report, "run": {**v2_report["run"], "manifest_sha256": None}}

        first = dataclasses.replace(transcript.verdicts[0], quiz_id="quiz8")
        moved = _write_version_1(dataclasses.replace(transcript, verdicts=(first,) + transcript.verdicts[1:]),
                                 tmp_path / "v1-moved.json")
        assert _analyze(moved, paths.manifest, tmp_path / "moved-out") == 1
        assert capsys.readouterr().err == "error: RunMismatchError: verdict for 'q101' disagrees with the corpus\n"

        shutil.rmtree(paths.images_dir)
        assert _analyze(v1, paths.manifest, tmp_path / "no-images") == 1
        err = capsys.readouterr().err
        assert "  MissingImage: question q101: image file" in err and err.endswith("\n79 errors\n")
        assert not (tmp_path / "no-images").exists() and not (tmp_path / "moved-out").exists()


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


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_min_interval_exits_one(command, value, sample_paths, tmp_path, capsys):
    inputs = {"run": ["--backend", "replay", "--fixture", str(sample_paths.fixture)],
              "analyze": ["--transcript", str(tmp_path / "absent.json")]}[command]
    code = run_cli(command, "--manifest", str(sample_paths.manifest), *inputs,
                   "--min-interval", value, "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: ConfigError: --min-interval must be a finite number >= 0, got {float(value)}" in err
    assert not (tmp_path / "out").exists()


def test_float_setting_is_the_same_from_flag_and_config(sample_paths, tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"temperature": 1}))
    bodies = {"flag": [], "config": []}
    monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
    for source, argv in (("flag", ["--temperature", "1"]), ("config", ["--config", str(config_path)])):
        def transport(url, body, headers, sent=bodies[source]):
            sent.append(bytes(body))
            return 200, json.dumps({"choices": [{"message": {"content": "Correct Choice:A"}}], "model": "m"})

        monkeypatch.setattr(client, "_default_transport", transport)
        # One request at a time, so the bodies compare in send order.
        assert run_cli("run", "--manifest", str(sample_paths.manifest), "--backend", "live", "--parallelism", "1",
                       *argv, "--out", str(tmp_path / source)) == 0
    assert len(bodies["flag"]) == 79 and b'"temperature": 1.0' in bodies["flag"][0]
    assert bodies["flag"] == bodies["config"]
    flag, config = (_digest(tmp_path / source / "transcript.json", drop_timestamp=True) for source in bodies)
    assert flag == config


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("case, said", [
    ("key", "error: ValueError: the API key holds a character outside visible ASCII"),
    ("endpoint-flag", "error: ConfigError: endpoint_url contains whitespace or a control character"),
    ("endpoint-config", "error: ConfigError: endpoint_url contains whitespace or a control character"),
    ("non-ascii-path", "error: ConfigError: endpoint_url has a non-ASCII character outside its host"),
    ("proxy-without-host", "error: ValueError: the http proxy URL names no host"),
], ids=["key", "endpoint-flag", "endpoint-config", "non-ascii-path", "proxy-without-host"])
def test_unsendable_request_exits_one_before_any_request(command, case, said, analyzed, sample_paths, tmp_path,
                                                         capsys, monkeypatch):
    opened = []

    def refuse(*args, **kwargs):
        opened.append(args)
        raise OSError("no request may be sent")

    monkeypatch.setattr(socket, "create_connection", refuse)
    # A trailing carriage return, as a key file saved on Windows leaves.
    monkeypatch.setenv("QUIZEVAL_API_KEY", "sk-secret-123\r" if case == "key" else "sk-secret-123")
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", "http://user:sk-secret-proxy@" if case == "proxy-without-host" else "")
    endpoint = {"key": "http://127.0.0.1:9/v1/chat/completions", "non-ascii-path": "http://127.0.0.1:9/v1/chät",
                "proxy-without-host": "http://hostless-proxy.invalid/v1/chat/completions",
                }.get(case, "http://127.0.0.1:9/v1/chat completions")
    run_out, _ = analyzed
    out = tmp_path / "out"
    argv = [command, "--manifest", str(sample_paths.manifest), "--out", str(out)]
    if command == "run":
        argv += ["--backend", "live"]
    else:
        argv += ["--transcript", str(run_out / "transcript.json"), "--extractor", "llm"]
    if case == "endpoint-config":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"endpoint": endpoint}))
        argv += ["--config", str(config_path)]
    else:
        argv += ["--endpoint", endpoint]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert said in captured.err
    assert "sk-secret" not in captured.out + captured.err
    assert opened == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_both_stages_build_the_tls_context_before_any_request(command, analyzed, sample_paths, tmp_path,
                                                               monkeypatch):
    # Built in the first requests instead, it could be built once per worker.
    events = []

    def transport(url, body, headers):
        events.append("request")
        (text_part, *_), = (message["content"] for message in json.loads(bytes(body))["messages"])
        content = fake_entity_reply(text_part["text"]) if command == "analyze" else "Correct Choice:A"
        return 200, json.dumps({"choices": [{"message": {"content": content}}], "model": "m"})

    monkeypatch.setenv("QUIZEVAL_API_KEY", "test-key")
    monkeypatch.setattr(client, "_default_transport", transport)
    monkeypatch.setattr(ssl, "create_default_context", lambda: events.append(threading.current_thread()))
    client._route.cache_clear()
    argv = [command, "--manifest", str(sample_paths.manifest), "--endpoint", "https://127.0.0.1:9/v1/chat/completions",
            "--parallelism", "4", "--out", str(tmp_path / "out")]
    if command == "run":
        argv += ["--backend", "live"]
    else:
        argv += ["--transcript", str(analyzed[0] / "transcript.json"), "--extractor", "llm"]
    try:
        assert run_cli(*argv) == 0
    finally:
        client._route.cache_clear()
    assert events[0] is threading.main_thread()
    assert events[1:] == ["request"] * (len(events) - 1) and len(events) > 79


def _config_settable_flags():
    # Read from the parser itself, so a flag added later is covered too.
    _, commands = cli._build_parser()
    return [
        pytest.param(name, action, id=f"{name}-{action.dest}")
        for name in ("run", "analyze")
        for action in commands[name]._actions
        if action.option_strings and not action.required and action.dest not in ("help", "config")
    ]


def _config_argv(command, doc, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    required = ["--transcript", "t.json", "--manifest", "m.json"] if command == "analyze" else []
    return [command, "--config", str(config_path)] + required


def test_config_keys_are_the_optional_flags():
    _, commands = cli._build_parser()
    assert set(cli._config_flags(commands)) == {
        "manifest", "backend", "fixture", "parallelism", "out", "lexicon", "extractor", "top_k",
        "tag_threshold", "model", "max_tokens", "endpoint", "temperature", "rules_file", "min_interval",
    }


@pytest.mark.parametrize("command,action", _config_settable_flags())
def test_every_optional_flag_is_a_config_key(command, action, tmp_path):
    if action.choices is not None:
        value, wrong = [action.choices[-1]], [5, None, True, "not-a-choice"]
    elif action.type is int:
        value, wrong = [3], ["3", 1.5, None, True]
    elif action.type is float:
        value, wrong = [2, 0.5], ["0.5", None, False]
    else:
        value, wrong = ["x"], [5, 0.5, None, True, ["x"]]
    for v in value:
        args = cli._parse_args(_config_argv(command, {action.dest: v}, tmp_path))
        converted, expected = getattr(args, action.dest), action.type(v) if action.type else v
        assert converted == expected and type(converted) is type(expected)
    for v in wrong:
        with pytest.raises(cli.ConfigError, match=f"config key {action.dest!r} must be"):
            cli._parse_args(_config_argv(command, {action.dest: v}, tmp_path))


def _input_argv(name, path, sample_paths, transcript, out):
    """Arguments that make ``cli.main`` read ``path`` as the input ``name``
    after every input it reads earlier is valid."""
    inputs = {"manifest": sample_paths.manifest, "fixture": sample_paths.fixture, "transcript": transcript,
              "analyze manifest": sample_paths.manifest, name: path}
    run = ["run", "--manifest", str(inputs["manifest"]), "--backend", "replay",
           "--fixture", str(inputs["fixture"]), "--out", str(out)]
    analyze = ["analyze", "--transcript", str(inputs["transcript"]), "--manifest", str(inputs["analyze manifest"]),
               "--out", str(out)]
    return {
        "manifest": run,
        "fixture": run,
        "transcript": analyze,
        "analyze manifest": analyze,
        "config": ["run", "--config", str(path), "--out", str(out)],
        "lexicon": analyze + ["--lexicon", str(path)],
        "rules file": run + ["--rules-file", str(path)],
    }[name]


_BAD_FILES = {
    "missing": None,
    "directory": None,
    "non-utf8": b"\xff\xfe{}",
    "nested": b"[" * 100_000,
    "not-an-object": b"[]",
}


@pytest.mark.parametrize("name,case", [
    (name, case)
    for name in ("manifest", "transcript", "analyze manifest", "fixture", "config", "lexicon", "rules file")
    for case in _BAD_FILES
    # The rules file is text, not JSON.
    if not (name == "rules file" and case in ("nested", "not-an-object"))
])
def test_bad_input_file_exits_one_naming_it(name, case, sample_paths, sample_transcript, tmp_path, capsys):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif _BAD_FILES[case] is not None:
        path.write_bytes(_BAD_FILES[case])
    transcript = save_transcript(sample_transcript, tmp_path / "transcript.json")
    code = run_cli(*_input_argv(name, path, sample_paths, transcript, tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(path) in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def mutation_bed(tmp_path_factory):
    """A private sample bundle with its transcript, a run config file and a
    small lexicon: the valid inputs that the property below mutates."""
    root = tmp_path_factory.mktemp("mutation")
    paths = sampledata.materialize_sample(root)
    assert main(["run", "--manifest", str(paths.manifest), "--backend", "replay",
                 "--fixture", str(paths.fixture), "--out", str(root)]) == 0
    (root / "config.json").write_text(json.dumps({
        "manifest": str(paths.manifest), "backend": "replay", "fixture": str(paths.fixture),
        "model": "m", "temperature": 0.5,
    }))
    (root / "lexicon.json").write_text(json.dumps({"ORGAN": ["heart", "lung"], "DISEASE": ["gout"]}))
    return root, paths


_MUTATED = {"manifest": "manifest.json", "transcript": "transcript.json", "analyze manifest": "manifest.json",
            "fixture": "replay_fixture.json", "config": "config.json", "lexicon": "lexicon.json"}
# Bytes that keep a mutated document JSON more often than a random byte does.
_JSON_BYTES = list(b' "\\{}[],:0123456789.-eEtrufalsn')
# One value of each JSON type, to swap in for a subtree of another type.
_JSON_VALUES = ([], {}, "x", 0, None, True)


def _json_type(value) -> type:
    # True is an int in Python, and 0 and 0.5 are both JSON numbers.
    return bool if isinstance(value, bool) else float if isinstance(value, int) else type(value)


def _subtree_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _subtree_paths(child, (*path, key))


def _swap_subtree(original: bytes, data) -> bytes:
    """``original``'s JSON with one subtree swapped for a value of another
    JSON type: a document that parses but has the wrong shape somewhere."""
    box = [json.loads(original)]  # gives the root, too, a parent to swap it in
    *steps, last = data.draw(st.sampled_from([path for path in _subtree_paths(box) if path]), label="subtree")
    parent = box
    for step in steps:
        parent = parent[step]
    others = [value for value in _JSON_VALUES if _json_type(value) != _json_type(parent[last])]
    parent[last] = data.draw(st.sampled_from(others), label="value")
    return json.dumps(box[0]).encode()


@pytest.mark.parametrize("name", list(_MUTATED))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_input_file_never_ends_in_a_traceback(name, data, mutation_bed):
    root, paths = mutation_bed
    original = (root / _MUTATED[name]).read_bytes()
    if data.draw(st.booleans(), label="swap a subtree"):
        mutated = _swap_subtree(original, data)
    else:
        cut = data.draw(st.none() | st.integers(0, len(original) - 1), label="truncate at")
        new_byte = st.integers(0, 255) | st.sampled_from(_JSON_BYTES)
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(original) - 1), new_byte),
                                   min_size=0 if cut is not None else 1, max_size=3), label="byte edits")
        edited = bytearray(original)
        for position, byte in edits:
            edited[position] = byte
        mutated = bytes(edited[:cut])
    path = root / "mutated.json"
    path.write_bytes(mutated)
    argv = _input_argv(name, path, paths, root / "transcript.json", root / "out")
    with mock.patch.dict(os.environ):
        os.environ.pop(cli.API_KEY_ENV_VAR, None)
        assert main(argv) in (0, 1, 2)


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

    def test_manifest_is_written_last(self, tmp_path, capsys, monkeypatch):
        out, written, real = tmp_path / "s", [], sampledata.write_atomic

        def recording(path, text):
            written.append((path.name, len(list((out / "images").glob("*.png")))))
            return real(path, text)

        monkeypatch.setattr(sampledata, "write_atomic", recording)
        assert run_cli("sample", "--out", str(out)) == 0
        assert written == [("replay_fixture.json", 79), ("manifest.json", 79)]


@pytest.mark.parametrize("argv, code, said", [
    (["--help"], 0, b"usage: quizeval"),
    (["validate", "--manifest", None], 0, b"8 quizzes, 79 questions, 0 errors"),
    (["validate", "--manifest", "absent.json"], 1, b"error: cannot read manifest absent.json"),
])
def test_python_dash_m(argv, code, said, sample_paths, tmp_path):
    argv = [str(sample_paths.manifest) if arg is None else arg for arg in argv]
    done = subprocess.run([sys.executable, "-m", "quizeval", *argv], cwd=tmp_path, env=child_env(dict(os.environ)),
                          capture_output=True, timeout=60)
    assert done.returncode == code
    assert said in done.stdout + done.stderr


def test_every_data_file_is_package_data():
    """Tests import from ``src/``, so a data file that no package-data glob
    names would be missing only from an installed copy."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    package = root / "src" / "quizeval"
    packaged = {path for pattern in pyproject["tool"]["setuptools"]["package-data"]["quizeval"]
                for path in package.glob(pattern)}
    data_files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert {path.name for path in data_files} >= {"lexicon.json", "sample_manifest.json", "sample_fixture.json"}
    assert data_files <= packaged


_WITHOUT_REQUESTS = """
import sys
before = set(sys.modules)
from quizeval import cli
assert "requests" not in sys.modules
sys.modules["requests"] = None  # from here on, `import requests` raises ImportError
manifest, fixture, out = sys.argv[1:]
code = (cli.main(["validate", "--manifest", manifest])
        or cli.main(["run", "--manifest", manifest, "--backend", "replay", "--fixture", fixture, "--out", out])
        or cli.main(["analyze", "--transcript", f"{out}/transcript.json", "--manifest", manifest,
                     "--extractor", "gazetteer", "--out", out]))
# The HTTP/TLS stack costs about 2.6 MB of RSS, and only a live completion or
# an LLM extraction uses it.
print(sorted({"ssl", "http.client", "urllib.request"} & (sys.modules.keys() - before)))
sys.exit(code)
"""


def test_cli_runs_without_requests(sample_paths, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_REQUESTS, str(sample_paths.manifest), str(sample_paths.fixture),
         str(tmp_path / "out")], env=child_env(dict(os.environ)), capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert b"total 66/79" in done.stdout
    assert (tmp_path / "out" / "transcript.json").is_file()
    assert b"analyzed 79 verdicts: 66 correct" in done.stdout
    assert (tmp_path / "out" / "correct_graph.graphml").is_file()
    assert done.stdout.splitlines()[-1] == b"[]"


def test_package_imports_only_the_standard_library():
    """quizeval has no runtime dependency: every absolute import in the
    package names a standard-library module or quizeval itself."""
    imported = set()
    for path in Path(quizeval.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert "json" in imported
    assert imported - sys.stdlib_module_names - {"quizeval"} == set()


def _digest(path, *, drop_timestamp: bool = False) -> str:
    data = path.read_bytes()
    if drop_timestamp:
        data, count = re.subn(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
        assert count == 1
    return hashlib.sha256(data).hexdigest()


# sha256 of every file of the bundled sample, then of its `run` + `analyze`
# outputs, timestamps blanked. A refactor of the pipeline must leave all of
# them unchanged. The 79 images are one placeholder PNG.
GOLDEN_DIGESTS = {
    "manifest.json": "649e9d1a940c2005d687d32950e789e2b368c8b4a87468b0677408cfc69ab2cd",
    "replay_fixture.json": "7ed1a60e7085ae7b209299c20d02673cdc40829dc50b5786274b4b59ffe90f15",
    "images/*.png": "a1abfd410973b0111c215baa879b9edcd739e601659ba44168269767cc2e9108",
    "transcript.json": "1f9c97bb9af84567cdff721e78f055c9964e81687c07dc009929b77e14afe726",
    "correct_graph.dot": "42480f8aa0031ebdf6d6e08fcd652c139ccd00e015500bdbdc4c21c766aaf127",
    "correct_graph.graphml": "dfaad9e8c6bc2b69f979a05ccc004b2d641f40bc582b5e5392cf97f95a89b0aa",
    "entities.csv": "afa2779882dc8fb59fa760e6363c59a74907064790224de5fb46d949ad61d42f",
    "entity_frequencies.csv": "4d9268045fe97573a044b0ded815213e23cc1a2744b153eb2801f70e20eb3b44",
    "graph_metrics.csv": "3e9fe6c27fd153991c5fa51742afe7ea20c5d357dc339069c75e59b1779aaae1",
    "ima.csv": "f8e5074bd3146b923b59bca9ab2cdca8e33ec1e65cb917cf6581340c552b3506",
    "incorrect_graph.dot": "6a23705c015ee8ec60833058006486ac57d255ac5ba826fa4795034200e96251",
    "incorrect_graph.graphml": "f11b4a38f153dbda9151f9e5f5c69807564248ddf06ce76b5fc3c962e7c436af",
    "report.json": "4a6b44be80ceaaefb8947a718b931b470c45bae11ec4fd96a84e54ef04159994",
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
    images = sorted((sample / "images").iterdir())
    assert len(images) == 79
    image_digests = {_digest(path) for path in images}
    assert len(image_digests) == 1
    digests = {"manifest.json": _digest(sample / "manifest.json"),
               "replay_fixture.json": _digest(sample / "replay_fixture.json"),
               "images/*.png": image_digests.pop(),
               "transcript.json": _digest(run_out / "transcript.json", drop_timestamp=True)}
    for path in sorted(analysis_out.iterdir()):
        digests[path.name] = _digest(path, drop_timestamp=path.name == "report.json")
    assert digests == GOLDEN_DIGESTS
