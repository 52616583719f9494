"""Bundled sample corpus and replay fixture.

``materialize_sample`` writes a self-contained evaluation bundle into a
directory: the 8-quiz, 79-question manifest and the replay fixture shipped
as ``data/sample_manifest.json`` and ``data/sample_fixture.json``, plus one
placeholder image per question. README's "The bundled sample" describes the
correctness pattern the fixture realizes; the acceptance tests check it.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .atomic import write_atomic


@dataclass(frozen=True)
class SamplePaths:
    manifest: Path
    fixture: Path
    images_dir: Path


def _tiny_png() -> bytes:
    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)  # 1x1, 8-bit grayscale
    pixel_data = zlib.compress(b"\x00\x80")
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header) + chunk(b"IDAT", pixel_data) + chunk(b"IEND", b"")


def materialize_sample(dest: str | Path) -> SamplePaths:
    """Write images, replay fixture and manifest into ``dest``.

    Deterministic: repeated materializations produce identical bytes. The
    manifest is written last and atomically, so an interrupted run leaves
    no manifest, or an old one, rather than a truncated one.
    """
    dest = Path(dest)
    data = resources.files("quizeval").joinpath("data")
    manifest_text = data.joinpath("sample_manifest.json").read_text(encoding="utf-8")
    images_dir = dest / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    png = _tiny_png()
    for quiz in json.loads(manifest_text)["quizzes"]:
        for question in quiz["questions"]:
            (dest / question["image"]["path"]).write_bytes(png)
    fixture_path = write_atomic(
        dest / "replay_fixture.json", data.joinpath("sample_fixture.json").read_text(encoding="utf-8")
    )
    manifest_path = write_atomic(dest / "manifest.json", manifest_text)
    return SamplePaths(manifest=manifest_path, fixture=fixture_path, images_dir=images_dir)
