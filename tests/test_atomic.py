from __future__ import annotations

import csv
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizeval.atomic import write_atomic, write_csv, write_json

from .bruteforce import bf_write_csv


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
