from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

import quizeval

from quizeval.client import open_replay
from quizeval.corpus import load_corpus
from quizeval.evaluator import run_evaluation
from quizeval.ner import GazetteerExtractor, load_default_lexicon
from quizeval.prompting import EngineConfig, RulesOfConduct
from quizeval.sampledata import PLACEHOLDER_PNG as TINY_PNG, SamplePaths, materialize_sample


def child_env(env: dict[str, str]) -> dict[str, str]:
    """``env`` with this checkout's sources first on PYTHONPATH, for a child interpreter."""
    src = str(Path(quizeval.__file__).resolve().parent.parent)
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


_GAZETTEER = GazetteerExtractor(load_default_lexicon())


def fake_entity_reply(prompt: str) -> str:
    """An engine's entity reply to ``LlmExtractor``'s prompt, made offline:
    the default gazetteer's matches in the prompt's text as "TYPE | name"
    lines. It waits a random 0-5 ms first, as an endpoint takes time, so
    concurrent calls finish out of order."""
    time.sleep(random.uniform(0, 0.005))
    text = prompt.split("Text:\n", 1)[1]
    return "\n".join(f"{kind} | {name}" for kind, name in _GAZETTEER.extract(text))


def make_question(qid: str, *, tag: str = "CV", correct: str = "A", image: str | None = None,
                  stem: str = "What does the image show?", explanation: str = "Because of the finding.",
                  n_choices: int = 5) -> dict:
    letters = "ABCDE"[:n_choices]
    return {
        "id": qid,
        "stem": stem,
        "choices": [{"letter": letter, "text": f"Option {letter}"} for letter in letters],
        "correct_letter": correct,
        "explanation": explanation,
        "image": {"path": image or f"images/{qid}.png", "domain_tag": tag},
    }


def make_manifest(questions_by_quiz: dict[str, list[dict]], vocabulary: list[str] | None = None) -> dict:
    return {
        "tag_vocabulary": vocabulary or ["CV", "SKIN", "ENDO", "EYE", "HN", "LUNG", "LIVER", "INFL", "FEM"],
        "quizzes": [
            {"id": quiz_id, "title": quiz_id.title(), "questions": questions}
            for quiz_id, questions in questions_by_quiz.items()
        ],
    }


@pytest.fixture
def manifest_factory(tmp_path):
    """Write a manifest dict (and placeholder images for its questions) to disk."""

    def write(manifest: dict, *, create_images: bool = True, dirname: str = "corpus") -> Path:
        root = tmp_path / dirname
        root.mkdir(parents=True, exist_ok=True)
        if create_images:
            for quiz in manifest.get("quizzes", []):
                for question in quiz.get("questions", []):
                    image_path = root / question["image"]["path"]
                    image_path.parent.mkdir(parents=True, exist_ok=True)
                    image_path.write_bytes(TINY_PNG)
        path = root / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    return write


@pytest.fixture(scope="session")
def sample_paths(tmp_path_factory) -> SamplePaths:
    return materialize_sample(tmp_path_factory.mktemp("sample"))


@pytest.fixture(scope="session")
def sample_corpus(sample_paths):
    return load_corpus(sample_paths.manifest)


@pytest.fixture(scope="session")
def sample_transcript(sample_paths, sample_corpus):
    completion = open_replay(sample_paths.fixture)
    return run_evaluation(
        sample_corpus, RulesOfConduct(), EngineConfig(), completion, 1, backend="replay"
    )
