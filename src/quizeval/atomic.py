"""Atomic file writes: every text file quizeval produces goes through
``write_atomic``. The sample's PNG images are bytes and are written before
the manifest that names them."""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Iterable


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` as UTF-8 to a sibling temp file, then rename it over
    ``path``, so readers see the old file or the new one, never a partial
    one. Newlines are written as given (CSV keeps its \\r\\n)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return path


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> Path:
    """Write one table as CSV (``csv.writer`` dialect) through ``write_atomic``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return write_atomic(path, buffer.getvalue())
