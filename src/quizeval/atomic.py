"""Input and output files. Every input file quizeval reads goes through
``read_text``, ``read_json`` or ``read_json_and_digest``, which turn a file
the user got wrong into the caller's own error naming the file. Each reads
the bytes into an anonymous memory mapping, hashes and decodes them there
(holding the mapping and the text) and unmaps it before the parse (holding
only the text). Every text file quizeval produces goes through
``write_atomic``: transcript.json and report.json through ``write_json``,
CSV tables through ``write_csv``. The sample's PNG images are bytes."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import mmap
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator


@contextmanager
def _reading(path: str | Path, error: type[Exception], what: str):
    """Turn a file that is missing, unreadable or not UTF-8, or a path with a
    NUL in it, into ``error`` naming ``what`` and the path."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _loads(text: str, path: str | Path, error: type[Exception], what: str, **loads_kwargs):
    """``json.loads``; text that is not JSON, or is nested deeper than the
    recursion limit, raises ``error`` naming ``what`` and the path."""
    try:
        return json.loads(text, **loads_kwargs)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def _read(path: str | Path, error: type[Exception], what: str, digest: bool) -> tuple[str, str | None]:
    """The file's UTF-8 text, newlines translated by text mode's one-scan
    decoder (``str.replace`` is slow), or else as decoded and with the sha256
    hex digest of its bytes. The mapping is anonymous: a file-backed one would
    raise SIGBUS if the file were truncated under it. A read that fills its
    spare byte (a pipe, a file that grew) appends the rest as ``bytes``."""
    with _reading(path, error, what), Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        with mmap.mmap(-1, size + 1) as mapping:
            count = handle.readinto(mapping)
            with memoryview(mapping)[:count] as view:
                data = view if count <= size else view.tobytes() + handle.read()
                sha256 = hashlib.sha256(data).hexdigest() if digest else None
                text = str(data, "utf-8")
    return (text if digest else io.IncrementalNewlineDecoder(None, True).decode(text, True)), sha256


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """Read ``path`` as UTF-8 text, with universal newlines."""
    return _read(path, error, what, digest=False)[0]


def read_json(path: str | Path, error: type[Exception], what: str, **loads_kwargs):
    """``read_text``, then ``json.loads(text, **loads_kwargs)``."""
    return _loads(read_text(path, error, what), path, error, what, **loads_kwargs)


def read_json_and_digest(path: str | Path, error: type[Exception], what: str, **loads_kwargs) -> tuple[object, str]:
    """``json.loads`` of the file's UTF-8 text, without newline translation,
    and the sha256 hex digest of its bytes. The file is read once, so the
    digest is of exactly the document returned. The raw bytes are hashed
    and decoded in their mapping, and only the text is held when it is
    parsed."""
    text, digest = _read(path, error, what, digest=True)
    return _loads(text, path, error, what, **loads_kwargs), digest


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


def write_atomic(path: str | Path, text: str | Iterable[str]) -> Path:
    """Write ``text``, or its pieces in order, as UTF-8 to a sibling temp
    file, then rename it over ``path``, so readers see the old file or the new
    one, never a partial one. Each piece is one write, so a caller with many
    tiny pieces joins them first (``_batches``). Newlines are written as given
    (CSV keeps its \\r\\n). If the write fails, for example on text that
    cannot be encoded as UTF-8 or a piece that cannot be produced, the temp
    file is removed and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _batches(items: Iterable) -> Iterator[list]:
    """Lists of up to 4,096 consecutive items, in order."""
    items = iter(items)
    while batch := list(itertools.islice(items, 4096)):
        yield batch


def write_json(path: str | Path, document) -> Path:
    """Write ``json.dumps(document, indent=2, sort_keys=True)`` and a newline
    through ``write_atomic``, streamed from the encoder with its pieces joined
    4,096 at a time: the bytes are the same, but the whole text never exists
    in memory."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(document)
    return write_atomic(path, map("".join, _batches(itertools.chain(pieces, ["\n"]))))


def _csv_text(rows: list) -> str:
    # A fresh buffer per batch: truncating a StringIO to reuse it switches it
    # to four bytes per character.
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> Path:
    """Write one table as CSV (``csv.writer`` dialect) through
    ``write_atomic``, 4,096 rows at a time: the bytes are the same as one
    ``writerows`` of the whole table, but its whole text never exists in
    memory. A row that ``csv.writer`` refuses leaves ``path`` as it was."""
    return write_atomic(path, map(_csv_text, _batches(itertools.chain([header], rows))))
