from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import threading
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizeval.atomic import read_json, read_json_and_digest, read_text, write_atomic, write_csv, write_json

from .bruteforce import bf_read_json, bf_read_json_and_digest, bf_read_text, bf_write_csv

READERS = [(read_text, bf_read_text), (read_json, bf_read_json), (read_json_and_digest, bf_read_json_and_digest)]


def outcome(read, path):
    """What ``read`` returns, or the type and message of what it raises."""
    try:
        return "returned", read(path, ValueError, "input")
    except ValueError as exc:
        return "raised", type(exc), str(exc)


# JSON pieces beside both line breaks, a UTF-8 BOM, invalid UTF-8 (a stray
# byte, a cut sequence, an encoded surrogate) and a JSON surrogate escape.
FRAGMENTS = [b"{", b"}", b"[", b"]", b":", b",", b" ", b"1", b"-2.5e3", b"null", b'"a"', '"é€😀"'.encode(),
             b'{"a": [1, true]}', b"\n", b"\r\n", b"\r", b"\xef\xbb\xbf", b"\xff", b"\xe2\x82", b"\xed\xa0\x80",
             b'"\\ud800"']


@settings(max_examples=100, deadline=None)
@given(data=st.lists(st.sampled_from(FRAGMENTS), max_size=12).map(b"".join))
def test_readers_agree_with_whole_file_reads(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("read") / "input.json"
    path.write_bytes(data)
    for read, oracle in READERS:
        assert outcome(read, path) == outcome(oracle, path)


def test_a_missing_path_or_a_directory_raises_the_oracles_error(tmp_path):
    for read, oracle in READERS:
        assert outcome(read, tmp_path / "absent.json") == outcome(oracle, tmp_path / "absent.json")
        assert outcome(read, str(tmp_path)) == outcome(oracle, str(tmp_path))


def read_from_fifo(tmp_path, read, data: bytes):
    fifo = tmp_path / "input.json"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return read(fifo, ValueError, "input")
    finally:
        writer.join(timeout=10)


# More than a pipe holds at once (64 KB on Linux), with both line breaks.
PIPED = {"verdicts": [{"id": f"q{i}", "text": "é" * 40} for i in range(2_000)]}
PIPED_BYTES = json.dumps(PIPED, indent=1).replace("\n", "\r\n").encode()


def test_read_json_reads_a_fifo_whole(tmp_path):
    assert read_from_fifo(tmp_path, read_json, PIPED_BYTES) == PIPED


def test_read_json_and_digest_reads_a_fifo_whole(tmp_path):
    expected = (PIPED, hashlib.sha256(PIPED_BYTES).hexdigest())
    assert read_from_fifo(tmp_path, read_json_and_digest, PIPED_BYTES) == expected


@pytest.mark.parametrize("skew", [-(10**9), -4097, -1, 1, 4097])
def test_a_file_whose_fstat_size_is_wrong_is_read_whole(tmp_path, monkeypatch, skew):
    path = tmp_path / "input.json"
    path.write_bytes(PIPED_BYTES)
    expected = [outcome(oracle, path) for _, oracle in READERS]
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=max(0, real_fstat(fd).st_size + skew)))
    assert [outcome(read, path) for read, _ in READERS] == expected


@pytest.mark.parametrize("read", [read_text, read_json, read_json_and_digest])
def test_readers_hold_the_text_but_not_the_bytes(tmp_path, read):
    path = tmp_path / "input.json"
    path.write_bytes(b"1" + b" " * 4_000_000)
    tracemalloc.start()
    try:
        read(path, ValueError, "input")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * path.stat().st_size  # 2.0x when the raw bytes are read onto the heap


def test_failed_write_leaves_no_temp_file_and_the_old_file_intact(tmp_path):
    path = tmp_path / "ima.csv"
    write_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "tag,\ud800\n")  # a lone surrogate has no UTF-8 encoding
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ima.csv"]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_pieces_are_written_in_order(tmp_path):
    path = write_atomic(tmp_path / "out.txt", iter(["a,", "b\r\n", "", "ç\n"]))
    assert path.read_bytes() == "a,b\r\nç\n".encode()


@pytest.mark.parametrize("count", [0, 4095, 4096, 4097])
@pytest.mark.parametrize("filler", ["x", ""])
def test_pieces_written_in_batches_keep_their_bytes(tmp_path, count, filler):
    # Empty pieces, even 4,096 of them in a row, must not end the write.
    pieces = [filler] * (count - 1) + ["ç\n"] if count else []
    path = write_atomic(tmp_path / "out.txt", pieces)
    assert path.read_bytes() == "".join(pieces).encode()


JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0) | st.text(),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(document=JSON_DOCUMENTS)
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, document):
    path = write_json(tmp_path_factory.mktemp("json") / "doc.json", document)
    assert path.read_bytes() == (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


def test_write_json_that_cannot_encode_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"old": True})
    before = path.read_bytes()
    # The encoder fails only after earlier pieces reached the temp file.
    with pytest.raises(TypeError):
        write_json(path, {"a": "x" * 100_000, "b": [1, [2, {"c": [object()]}]]})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert path.read_bytes() == before


def test_write_json_never_holds_the_whole_text(tmp_path):
    # Shaped like a transcript: one long list of small objects.
    document = {"verdicts": [{"question_id": f"q{i:05d}", "analysis_text": "word " * 40, "ok": i % 2 == 0}
                             for i in range(16_000)]}
    tracemalloc.start()
    try:
        path = write_json(tmp_path / "big.json", document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= 4_000_000
    assert peak < 1_000_000


# Quotes, commas, both line-break characters and non-ASCII text, which
# csv.writer quotes or passes through, beside ints and bools.
CSV_FIELDS = st.text(st.sampled_from(['a', ' ', ',', '"', '\r', '\n', 'é', '€', '😀'])) | st.integers() | st.booleans()


@settings(deadline=None)
@given(header=st.lists(st.text(max_size=5), min_size=1, max_size=4),
       rows=st.lists(st.lists(CSV_FIELDS, max_size=4), min_size=1, max_size=6),
       count=st.sampled_from([0, 4095, 4096, 4097]) | st.integers(0, 10))
def test_write_csv_writes_the_bytes_of_the_whole_table(tmp_path_factory, header, rows, count):
    # The header and 4,095 rows fill one batch of 4,096 exactly.
    table = list(itertools.islice(itertools.cycle(rows), count))
    out = tmp_path_factory.mktemp("csv")
    expected = bf_write_csv(out / "whole.csv", header, table).read_bytes()
    assert write_csv(out / "batched.csv", header, table).read_bytes() == expected


def test_write_csv_with_a_bad_row_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = write_csv(tmp_path / "entities.csv", ["name"], [["old"]])
    before = path.read_bytes()
    # The non-iterable row comes after two full batches reached the temp file.
    with pytest.raises(csv.Error):
        write_csv(path, ["name"], [["new"]] * 9_000 + [5])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entities.csv"]
    assert path.read_bytes() == before


def test_write_csv_never_holds_the_whole_table(tmp_path):
    # Shaped like entities.csv; the rows exist before the write, as records do.
    rows = [("Disease", f"entity {i}", i, i % 2 == 0) for i in range(40_000)]
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "entities.csv", ["entity_type", "entity_name", "group", "from_correct"], rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= 1_000_000
    assert peak < 1_000_000  # under the text of the file; 5.1 MB when the table is built whole
