"""Traced memory of the corpus readers on a scaled sample manifest, as
multiples of the file's size, and of streaming one request body, for the
interpreter that runs this script.

It needs only the standard library and the package, so it runs under
interpreters that have no pytest:

    PYTHONPATH=src python3.12 tests/memory_ratios.py

It writes two manifests of 1,975 sample-shaped questions into a temporary
directory: one with the sample's choice texts, which repeat across
questions, and one with each choice text suffixed by its question id, so
that no (letter, text) pair repeats. For each it prints the traced peak of
``load_corpus``, what the loaded corpus keeps, and the traced peak of
``read_answer_key``. Then it writes a 200 KB and a 4 MiB image and prints
the traced peak of building and iterating each one's request body, as the
transport sends it. The memory tests in ``test_corpus.py`` and
``test_client.py`` build their inputs and take their measurements with the
functions below, so the figures printed here are the ones their bounds are
set from.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from typing import Callable, TypeVar

from quizeval.client import request_body
from quizeval.corpus import load_corpus, read_answer_key
from quizeval.prompting import EngineConfig, PromptEnvelope
from quizeval.sampledata import SamplePaths, materialize_sample

T = TypeVar("T")


def write_scaled_sample(sample: SamplePaths, out_dir: Path, *, unique_texts: bool = False) -> Path:
    """1,975 sample-shaped questions, the sample's 79 in each of 25 quizzes,
    written as the benchmark writes its manifests (indent 1) beside a copy of
    the sample's images. With ``unique_texts`` each choice text ends in its
    question's id."""
    document = json.loads(sample.manifest.read_text(encoding="utf-8"))
    questions = [question for quiz in document["quizzes"] for question in quiz["questions"]]
    quizzes = []
    for n in range(25):
        scaled = [{**q, "id": f"{q['id']}-{n}"} for q in questions]
        if unique_texts:
            for q in scaled:
                q["choices"] = [{**c, "text": f"{c['text']} ({q['id']})"} for c in q["choices"]]
        quizzes.append({"id": f"quiz{n}", "title": f"Quiz {n}", "questions": scaled})
    document["quizzes"] = quizzes
    shutil.copytree(sample.images_dir, out_dir / sample.images_dir.name)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return path


def traced_peak(read: Callable[[Path], T], path: Path) -> tuple[T, int]:
    """What ``read(path)`` returns, and the traced peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def traced_kept(read: Callable[[Path], T], path: Path) -> tuple[T, int]:
    """What ``read(path)`` returns, and the traced bytes still allocated
    once it has returned, which is what the result keeps."""
    tracemalloc.start()
    try:
        result = read(path)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return result, sum(trace.size for trace in snapshot.traces)


def write_image(path: Path, size: int) -> Path:
    """``size`` incompressible bytes, the same for every run, at ``path``."""
    path.write_bytes(random.Random(size).randbytes(size))
    return path


def stream_body(image: Path) -> int:
    """Build the request body of a one-image envelope over ``image`` and
    iterate it as a transport does, holding one piece at a time; returns the
    number of bytes it yielded."""
    envelope = PromptEnvelope("q1", "Rules. Correct Choice:", "Stem.", "A. one", str(image),
                              image.stat().st_size, "image/png")
    sent = 0
    for piece in request_body(envelope, EngineConfig()):
        sent += len(piece)
    return sent


def main() -> None:
    print(f"python {platform.python_version()}: traced bytes as multiples of the manifest's size")
    print(f"{'choice texts':<14}{'load_corpus peak':>18}{'corpus kept':>13}{'read_answer_key peak':>22}")
    with tempfile.TemporaryDirectory() as tmp:
        sample = materialize_sample(Path(tmp, "sample"))
        for label, unique_texts in (("repeated", False), ("unique", True)):
            out_dir = Path(tmp, label)
            out_dir.mkdir()
            path = write_scaled_sample(sample, out_dir, unique_texts=unique_texts)
            size = path.stat().st_size
            _, load_peak = traced_peak(load_corpus, path)
            # Loaded by a relative path, so the length of the temporary
            # directory does not enter the image paths the corpus keeps.
            cwd = os.getcwd()
            os.chdir(out_dir)
            try:
                _, kept = traced_kept(load_corpus, Path(path.name))
            finally:
                os.chdir(cwd)
            _, key_peak = traced_peak(read_answer_key, path)
            print(f"{label:<14}{load_peak / size:>18.2f}{kept / size:>13.2f}{key_peak / size:>22.2f}")
        print(f"{'image':<14}{'body bytes':>18}{'streamed body peak':>22}")
        for label, size in (("200 KB", 200 * 1024), ("4 MiB", 4 * 1024 * 1024)):
            sent, peak = traced_peak(stream_body, write_image(Path(tmp, "image.png"), size))
            print(f"{label:<14}{sent:>18,}{peak / 1024:>18.1f} KiB")


if __name__ == "__main__":
    main()
