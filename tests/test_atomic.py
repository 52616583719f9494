from __future__ import annotations

import pytest

from quizeval.atomic import write_atomic


def test_failed_write_leaves_no_temp_file_and_the_old_file_intact(tmp_path):
    path = tmp_path / "ima.csv"
    write_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "tag,\ud800\n")  # a lone surrogate has no UTF-8 encoding
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ima.csv"]
    assert path.read_text(encoding="utf-8") == "old\n"
