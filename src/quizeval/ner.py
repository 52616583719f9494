"""Typed entity extraction from verdict analysis texts.

Two strategies sit behind one interface: a deterministic gazetteer matcher
driven by a shipped medical lexicon (the default, and the one the test
suite relies on) and a model-assisted extractor that asks the configured
engine for (type, name) pairs in a constrained line format.

Records are grouped by the ordinal of their source verdict within the run;
entities co-occurring in one group later become graph edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol

from .atomic import is_utf8, read_json, write_csv
from .pool import ordered_map

_WORD_RE = re.compile(r"[a-z0-9]+")


class LexiconError(Exception):
    """The lexicon file is unusable (bad shape, empty or duplicated patterns)."""


class ExtractorUnavailableError(Exception):
    """The requested extraction strategy has no working backend."""


@dataclass(frozen=True)
class EntityRecord:
    """One extracted entity occurrence.

    ``group`` is the ordinal id of the source verdict within the run;
    ``from_correct`` mirrors that verdict's correctness.
    """

    entity_type: str
    entity_name: str
    group: int
    from_correct: bool


def _tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.casefold())


def normalize_name(raw: str) -> str:
    """Collapse whitespace/punctuation and title-case for display."""
    return " ".join(tok.capitalize() for tok in _tokens(raw))


class EntityLexicon:
    """Mapping from entity type to surface patterns. ``_index`` (words ->
    type and display name) and ``_lengths_by_first`` (first word -> word
    counts, longest first) serve ``GazetteerExtractor``'s longest match.
    Patterns match case-insensitively on word sequences; no pattern may map
    to two types."""

    def __init__(self, entries: Mapping[str, Iterable[str]]):
        if not entries:
            raise LexiconError("lexicon has no entity types")
        self.entries: dict[str, tuple[str, ...]] = {}
        self._index: dict[tuple[str, ...], tuple[str, str]] = {}
        for entity_type, patterns in entries.items():
            patterns = tuple(patterns)
            if not patterns:
                raise LexiconError(f"entity type {entity_type!r} has no patterns")
            if not is_utf8(entity_type):
                raise LexiconError(f"entity type {entity_type!r} is not writable as UTF-8")
            self.entries[entity_type] = patterns
            for pattern in patterns:
                toks = tuple(_tokens(pattern))
                if not toks:
                    raise LexiconError(f"pattern {pattern!r} has no word content")
                if toks in self._index and self._index[toks][0] != entity_type:
                    raise LexiconError(
                        f"pattern {pattern!r} maps to both {self._index[toks][0]!r} and {entity_type!r}"
                    )
                self._index[toks] = (entity_type, normalize_name(pattern))
        lengths: dict[str, set[int]] = {}
        for toks in self._index:
            lengths.setdefault(toks[0], set()).add(len(toks))
        self._lengths_by_first = {first: tuple(sorted(ls, reverse=True)) for first, ls in lengths.items()}

    @property
    def entity_types(self) -> tuple[str, ...]:
        return tuple(self.entries)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "EntityLexicon":
        doc = read_json(path, LexiconError, "lexicon")
        if not isinstance(doc, dict) or not all(
            isinstance(k, str) and isinstance(v, list) and all(isinstance(p, str) for p in v)
            for k, v in doc.items()
        ):
            raise LexiconError(f"lexicon {path} must map entity type to an array of patterns")
        return cls(doc)


def load_default_lexicon() -> EntityLexicon:
    """The medical lexicon shipped with the package."""
    with resources.as_file(resources.files("quizeval").joinpath("data/lexicon.json")) as path:
        return EntityLexicon.from_json_file(path)


class Extractor(Protocol):
    def extract(self, text: str) -> list[tuple[str, str]]:
        """(entity_type, normalized_name) pairs found in ``text``."""


class GazetteerExtractor:
    """Deterministic dictionary matcher: scans left to right and takes the
    longest lexicon pattern starting at each position (matched words are
    consumed, so overlapping shorter patterns lose)."""

    def __init__(self, lexicon: EntityLexicon):
        self.lexicon = lexicon

    def extract(self, text: str) -> list[tuple[str, str]]:
        index, lengths_by_first = self.lexicon._index, self.lexicon._lengths_by_first
        toks = _tokens(text)
        found: list[tuple[str, str]] = []
        i = 0
        n = len(toks)
        while i < n:
            for length in lengths_by_first.get(toks[i], ()):
                if i + length > n:
                    continue
                hit = index.get(tuple(toks[i : i + length]))
                if hit is not None:
                    found.append(hit)
                    i += length
                    break
            else:
                i += 1
        return found


_LLM_PROMPT_TEMPLATE = (
    "Identify every medical entity in the text below. Respond with one entity "
    "per line in the exact form TYPE | name, using only these types: {types}. "
    "Output nothing else.\n\nText:\n{text}"
)
_LLM_LINE_RE = re.compile(r"^\s*([A-Za-z][A-Za-z ]*?)\s*\|\s*(.+?)\s*$")


class LlmExtractor:
    """Model-assisted extraction via a text completion callable.

    The reply is parsed from the constrained "TYPE | name" line format;
    lines with undeclared types are dropped.
    """

    def __init__(self, complete_text: Callable[[str], str], entity_types: Iterable[str]):
        self.complete_text = complete_text
        self.entity_types = tuple(t.upper() for t in entity_types)

    def extract(self, text: str) -> list[tuple[str, str]]:
        reply = self.complete_text(
            _LLM_PROMPT_TEMPLATE.format(types=", ".join(self.entity_types), text=text)
        )
        found: list[tuple[str, str]] = []
        for line in reply.splitlines():
            match = _LLM_LINE_RE.match(line)
            if match is None:
                continue
            entity_type = match.group(1).strip().upper()
            name = normalize_name(match.group(2))
            if entity_type in self.entity_types and name:
                found.append((entity_type, name))
        return found


def extract_from_transcript(transcript, extractor: Extractor, parallelism: int = 1) -> list[EntityRecord]:
    """Run extraction over every verdict's analysis text, on up to
    ``parallelism`` worker threads (see ``pool.ordered_map``).

    Group ids are verdict ordinals, and each record's from_correct equals
    its verdict's correctness, so correct-branch records derive only from
    model responses and incorrect-branch records only from official
    explanations. Records are deduplicated per (type, name, group) in
    first-occurrence order, and come in verdict order at any
    ``parallelism``. A blank analysis text is not passed to the extractor.
    """
    verdicts = transcript.verdicts

    def extract_one(ordinal: int) -> list[EntityRecord]:
        verdict = verdicts[ordinal]
        if not verdict.analysis_text.strip():
            return []
        found = dict.fromkeys(extractor.extract(verdict.analysis_text))
        return [EntityRecord(entity_type, name, ordinal, verdict.is_correct) for entity_type, name in found]

    groups = ordered_map(extract_one, range(len(verdicts)), parallelism)
    return [record for group in groups for record in group]


def entity_frequencies(
    records: Iterable[EntityRecord], type_filter: str, from_correct: bool
) -> dict[str, int]:
    """Name -> number of groups in which it occurs (presence per group, not
    token count), for one entity type and branch. Ordered by descending
    count, then name."""
    groups_by_name: dict[str, set[int]] = {}
    for record in records:
        if record.entity_type != type_filter or record.from_correct != from_correct:
            continue
        groups_by_name.setdefault(record.entity_name, set()).add(record.group)
    return {
        name: len(groups)
        for name, groups in sorted(groups_by_name.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    }


def write_records_csv(records: Iterable[EntityRecord], path: str | Path) -> Path:
    """Dump records as CSV: entity_type, entity_name, group, from_correct (atomic write)."""
    rows = ((r.entity_type, r.entity_name, r.group, r.from_correct) for r in records)
    return write_csv(path, ["entity_type", "entity_name", "group", "from_correct"], rows)
