"""Input and output files. Every input file quizeval reads goes through
``read_text`` or ``read_json``, which turn a file the user got wrong into the
caller's own error naming the file. Every text file quizeval produces goes
through ``write_atomic``. The sample's PNG images are bytes and are written
before the manifest that names them."""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Iterable


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """Read ``path`` as UTF-8 text. A file that is missing, unreadable or not
    UTF-8, or a path with a NUL in it, raises ``error`` naming ``what`` and
    the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, error: type[Exception], what: str, **loads_kwargs):
    """``read_text``, then ``json.loads(text, **loads_kwargs)``. Text that is
    not JSON, or is nested deeper than the recursion limit, raises ``error``
    naming ``what`` and the path."""
    text = read_text(path, error, what)
    try:
        return json.loads(text, **loads_kwargs)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def has_json_type(value, types: tuple[type, ...]) -> bool:
    """Whether ``value``, as ``json.loads`` returns it, has one of ``types``.
    A JSON boolean is never a number, and an integer counts as a float."""
    if float in types:
        types += (int,)
    # bool is a subclass of int.
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def is_utf8(text: str) -> bool:
    """Whether ``text`` can be written as UTF-8. ``json.loads`` accepts a lone
    surrogate such as ``"\\ud800"``, which cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` as UTF-8 to a sibling temp file, then rename it over
    ``path``, so readers see the old file or the new one, never a partial
    one. Newlines are written as given (CSV keeps its \\r\\n). If the write
    fails, for example on text that cannot be encoded as UTF-8, the temp file
    is removed and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> Path:
    """Write one table as CSV (``csv.writer`` dialect) through ``write_atomic``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return write_atomic(path, buffer.getvalue())
