"""Independent brute-force oracles the implementation is checked against.

Nothing here shares code with the package: density counts pairs directly,
components come from a full pairwise reachability closure, degrees from a
plain edge scan, words from the regular expression that defines them,
gazetteer matches from exhaustive span enumeration, entity frequencies from
one scan of the records per (type, branch) table,
request bodies from one ``json.dumps`` of the whole payload, the answer
letter from a left-to-right scan over every marker occurrence, the answer
key from a full ``json.loads`` of the manifest and a walk that checks each
member before reading it, an input file from one ``Path.read_text`` or
``Path.read_bytes``, a CSV table from one ``writerows`` of the whole table
written at once, GraphML escaped by ``xml.sax.saxutils``, and a corpus
from a full ``json.loads`` of the manifest and a walk over the parsed
document. Only the package's exception and record classes are shared.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import os
import re
from itertools import combinations
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from quizeval.corpus import (
    Choice, CorpusValidationError, ImageRef, MalformedManifestError, Question, Quiz, QuizCorpus, ValidationIssue,
)


def bf_density(n: int, edge_count: int, directed: bool = False) -> float:
    possible = n * (n - 1) if directed else n * (n - 1) / 2
    return edge_count / possible


def bf_component_count(nodes: list[str], edges: set[tuple[str, str]]) -> int:
    """Component count via transitive closure over all node pairs."""
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a, b in edges:
        reach[index[a]][index[b]] = True
        reach[index[b]][index[a]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    seen_rows = set()
    for i in range(n):
        seen_rows.add(tuple(reach[i]))
    return len(seen_rows)


def bf_degrees(nodes: list[str], edges: set[tuple[str, str]]) -> dict[str, int]:
    out = {node: 0 for node in nodes}
    for a, b in edges:
        out[a] += 1
        out[b] += 1
    return out


def bf_clique_edges(groups: dict[int, set[str]]) -> set[tuple[str, str]]:
    """Expected co-occurrence edges: every within-group pair, canonical order."""
    edges: set[tuple[str, str]] = set()
    for names in groups.values():
        for pair in combinations(sorted(names), 2):
            edges.add(pair)
    return edges


def bf_tokens(text: str) -> list[str]:
    """The words of ``text``: maximal runs of ``[a-z0-9]`` after Unicode case
    folding."""
    return re.findall(r"[a-z0-9]+", text.casefold())


def bf_entity_frequencies(records, type_filter: str, from_correct: bool) -> dict[str, int]:
    """One (type, branch) table: name -> number of distinct groups naming it,
    from a scan of every record, ordered by descending count, then name."""
    groups_by_name: dict[str, set[int]] = {}
    for record in records:
        if record.entity_type != type_filter or record.from_correct != from_correct:
            continue
        groups_by_name.setdefault(record.entity_name, set()).add(record.group)
    return {
        name: len(groups)
        for name, groups in sorted(groups_by_name.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    }


def bf_longest_matches(
    tokens: list[str], patterns: dict[tuple[str, ...], tuple[str, str]]
) -> list[tuple[str, str]]:
    """All pattern spans by exhaustive enumeration, then the contract's
    selection rule applied naively: walk positions left to right, keep the
    longest span starting at each uncovered position."""
    spans: dict[int, list[tuple[int, tuple[str, str]]]] = {}
    for start in range(len(tokens)):
        for end in range(start + 1, len(tokens) + 1):
            key = tuple(tokens[start:end])
            if key in patterns:
                spans.setdefault(start, []).append((end - start, patterns[key]))
    chosen: list[tuple[str, str]] = []
    position = 0
    while position < len(tokens):
        if position in spans:
            length, hit = max(spans[position], key=lambda item: item[0])
            chosen.append(hit)
            position += length
        else:
            position += 1
    return chosen


def bf_request_body(
    text: str, image: tuple[str, bytes] | None, model_id: str, max_tokens: int, temperature: float | None
) -> bytes:
    """The chat-completions body serialised whole by ``json.dumps``: one user
    message with the text part and, when ``image`` (media type, bytes) is
    given, a base64 data-URL image part."""
    content: list[dict] = [{"type": "text", "text": text}]
    if image is not None:
        media_type, data = image
        url = f"data:{media_type};base64,{base64.b64encode(data).decode('ascii')}"
        content.append({"type": "image_url", "image_url": {"url": url}})
    payload: dict = {"model": model_id, "max_tokens": max_tokens, "messages": [{"role": "user", "content": content}]}
    if temperature is not None:
        payload["temperature"] = temperature
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def bf_extract_choice(response_text: str) -> str | None:
    """The answer letter after the last "Choice:" marker (any case, optional
    "Correct " prefix), found by visiting every marker occurrence in turn."""
    last = None
    for match in re.finditer(r"(?:correct\s+)?choice\s*:", response_text, re.IGNORECASE):
        last = match
    if last is None:
        return None
    letter_match = re.compile(r"\s*\(?\s*([A-Za-z])(?:\s*\))?").match(response_text, last.end())
    if letter_match is None:
        return None
    following = response_text[letter_match.end() : letter_match.end() + 1]
    if following.isalnum():
        return None
    return letter_match.group(1).upper()


def bf_read_answer_key(path: str | Path) -> tuple[dict[str, tuple[str, str, str]], str]:
    """Each question id's (quiz id, correct letter, domain tag), later ids
    overwriting earlier ones, and the sha256 hex digest of the file's bytes.
    The whole document is parsed; a member that is missing or of the wrong
    type raises MalformedManifestError."""
    data = Path(path).read_bytes()
    document = json.loads(data.decode("utf-8"))

    def member(obj: object, name: str, kind: type):
        if not isinstance(obj, dict) or name not in obj or not isinstance(obj[name], kind):
            raise MalformedManifestError(f"no {kind.__name__} member {name!r}")
        return obj[name]

    key = {}
    for quiz in member(document, "quizzes", list):
        for question in member(quiz, "questions", list):
            image = member(question, "image", dict)
            key[member(question, "id", str)] = (
                member(quiz, "id", str), member(question, "correct_letter", str), member(image, "domain_tag", str)
            )
    return key, hashlib.sha256(data).hexdigest()


def _bf_loads(text: str, path, error: type[Exception], what: str, **loads_kwargs):
    try:
        return json.loads(text, **loads_kwargs)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def bf_read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """``Path.read_text`` as UTF-8, with universal newlines; a file that is
    missing, unreadable or not UTF-8 raises ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def bf_read_json(path: str | Path, error: type[Exception], what: str, **loads_kwargs):
    """``bf_read_text``, then ``json.loads``."""
    return _bf_loads(bf_read_text(path, error, what), path, error, what, **loads_kwargs)


def bf_read_json_and_digest(path: str | Path, error: type[Exception], what: str, **loads_kwargs) -> tuple[object, str]:
    """``json.loads`` of the whole file's bytes decoded as UTF-8, without
    newline translation, and the sha256 hex digest of those bytes."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return _bf_loads(text, path, error, what, **loads_kwargs), hashlib.sha256(data).hexdigest()


def bf_write_csv(path: str | Path, header: list[str], rows) -> Path:
    """The table's whole text, built by one ``csv.writer`` in a ``StringIO``,
    written to ``path`` in one write."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buffer.getvalue(), encoding="utf-8", newline="")
    return Path(path)


def bf_graph_to_graphml(nodes: dict[str, str], edges: dict[tuple[str, str], int]) -> str:
    """The GraphML text of an undirected graph (node name -> entity type,
    canonical edge -> count), with ``xml.sax.saxutils`` escaping every name
    and type."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="entity_type" attr.type="string"/>',
        '  <key id="d1" for="edge" attr.name="count" attr.type="int"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    for name in sorted(nodes):
        if nodes[name]:
            lines.append(f'    <node id={quoteattr(name)}><data key="d0">{escape(nodes[name])}</data></node>')
        else:
            lines.append(f"    <node id={quoteattr(name)}/>")
    for (a, b), count in sorted(edges.items()):
        lines.append(f'    <edge source={quoteattr(a)} target={quoteattr(b)}><data key="d1">{count}</data></edge>')
    return "\n".join([*lines, "  </graph>", "</graphml>"]) + "\n"


_BF_LETTERS = "ABCDE"
_BF_MIN_CHOICES, _BF_MAX_CHOICES = 2, 5
_BF_MEDIA_TYPES = {".png": "image/png", ".jpg": "image/jpeg", ".jpeg": "image/jpeg"}


def bf_load_corpus(manifest_path: str | Path) -> QuizCorpus:
    """``load_corpus`` as a plain ``json.loads`` of the whole manifest and a
    walk over the parsed document that builds every record from it."""
    doc, digest = bf_read_json_and_digest(manifest_path, MalformedManifestError, "manifest")
    if not isinstance(doc, dict):
        raise MalformedManifestError(f"manifest {manifest_path} must hold a JSON object at the top level")
    issues: list[ValidationIssue] = []

    vocab_raw = doc.get("tag_vocabulary")
    # Tags reach the CSV, DOT and GraphML outputs, which are UTF-8.
    if not isinstance(vocab_raw, list) or not all(isinstance(t, str) and t and _bf_is_utf8(t) for t in vocab_raw):
        raise MalformedManifestError("tag_vocabulary must be an array of non-empty UTF-8 strings")
    vocabulary = frozenset(vocab_raw)

    quizzes_raw = doc.get("quizzes")
    if not isinstance(quizzes_raw, list):
        raise MalformedManifestError("quizzes must be an array")

    base_dir = os.path.dirname(manifest_path)
    seen_question_ids: set[str] = set()
    seen_quiz_ids: set[str] = set()
    quizzes: list[Quiz] = []
    for qz in quizzes_raw:
        quiz = _bf_parse_quiz(qz, base_dir, vocabulary, seen_question_ids, seen_quiz_ids, issues)
        if quiz is not None:
            quizzes.append(quiz)

    if issues:
        raise CorpusValidationError(issues)
    return QuizCorpus(quizzes=tuple(quizzes), tag_vocabulary=vocabulary, manifest_sha256=digest)


def _bf_is_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _bf_parse_quiz(
    qz: object,
    base_dir: str,
    vocabulary: frozenset[str],
    seen_question_ids: set[str],
    seen_quiz_ids: set[str],
    issues: list[ValidationIssue],
) -> Quiz | None:
    if not isinstance(qz, dict):
        issues.append(ValidationIssue("MalformedManifest", "quiz entry must be an object"))
        return None
    quiz_id = qz.get("id")
    title = qz.get("title", "")
    questions_raw = qz.get("questions")
    if not isinstance(quiz_id, str) or not quiz_id:
        issues.append(ValidationIssue("MalformedManifest", "quiz id must be a non-empty string"))
        return None
    if not _bf_is_utf8(quiz_id):
        issues.append(ValidationIssue("MalformedManifest", f"quiz id {quiz_id!r} is not writable as UTF-8"))
        return None
    if quiz_id in seen_quiz_ids:
        issues.append(ValidationIssue("DuplicateId", f"quiz id {quiz_id!r} appears more than once"))
        return None
    seen_quiz_ids.add(quiz_id)
    if not isinstance(title, str):
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: title must be a string"))
        title = ""
    if not isinstance(questions_raw, list):
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: questions must be an array"))
        return None

    questions: list[Question] = []
    for entry in questions_raw:
        q = _bf_parse_question(entry, quiz_id, base_dir, vocabulary, seen_question_ids, issues)
        if q is not None:
            questions.append(q)
    return Quiz(id=quiz_id, title=title, questions=tuple(questions))


def _bf_parse_question(
    entry: object,
    quiz_id: str,
    base_dir: str,
    vocabulary: frozenset[str],
    seen_question_ids: set[str],
    issues: list[ValidationIssue],
) -> Question | None:
    if not isinstance(entry, dict):
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: question entry must be an object"))
        return None
    qid = entry.get("id")
    if not isinstance(qid, str) or not qid:
        issues.append(ValidationIssue("MalformedManifest", f"quiz {quiz_id}: question id must be a non-empty string"))
        return None
    if qid in seen_question_ids:
        issues.append(ValidationIssue("DuplicateId", f"question id {qid!r} appears more than once"))
        return None
    seen_question_ids.add(qid)

    ok = True
    stem = entry.get("stem")
    if not isinstance(stem, str):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: stem must be a string"))
        ok = False

    choices = _bf_parse_choices(entry.get("choices"), qid, issues)
    if choices is None:
        ok = False

    correct = entry.get("correct_letter")
    if not isinstance(correct, str):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: correct_letter must be a string"))
        ok = False
    elif choices is not None and correct not in tuple(c.letter for c in choices):
        issues.append(
            ValidationIssue(
                "InvalidCorrectLetter",
                f"question {qid}: correct_letter {correct!r} is not among the choice letters",
            )
        )
        ok = False

    explanation = entry.get("explanation")
    if not isinstance(explanation, str) or not explanation.strip():
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: explanation must be non-empty"))
        ok = False

    image = _bf_parse_image(entry.get("image"), qid, base_dir, vocabulary, issues)
    if image is None:
        ok = False

    if not ok:
        return None
    return Question(
        id=qid,
        quiz_id=quiz_id,
        stem=stem,
        choices=choices,
        correct_letter=correct,
        explanation=explanation,
        image=image,
    )


def _bf_parse_choices(raw: object, qid: str, issues: list[ValidationIssue]) -> tuple[Choice, ...] | None:
    if not isinstance(raw, list) or not (_BF_MIN_CHOICES <= len(raw) <= _BF_MAX_CHOICES):
        issues.append(
            ValidationIssue(
                "MalformedManifest",
                f"question {qid}: choices must be an array of {_BF_MIN_CHOICES}-{_BF_MAX_CHOICES} entries",
            )
        )
        return None
    choices: list[Choice] = []
    for item in raw:
        if not isinstance(item, dict) or not isinstance(item.get("letter"), str) or not isinstance(item.get("text"), str):
            issues.append(ValidationIssue("MalformedManifest", f"question {qid}: each choice needs letter and text"))
            return None
        choices.append(Choice(letter=item["letter"], text=item["text"]))
    letters = tuple(c.letter for c in choices)
    if letters != tuple(_BF_LETTERS[: len(letters)]):
        issues.append(
            ValidationIssue(
                "MalformedManifest",
                f"question {qid}: choice letters must be A..{_BF_LETTERS[len(letters) - 1]} in order, got {letters}",
            )
        )
        return None
    return tuple(choices)


def _bf_parse_image(
    raw: object, qid: str, base_dir: str, vocabulary: frozenset[str], issues: list[ValidationIssue]
) -> ImageRef | None:
    if not isinstance(raw, dict) or not isinstance(raw.get("path"), str) or not isinstance(raw.get("domain_tag"), str):
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: image needs path and domain_tag"))
        return None
    tag = raw["domain_tag"]
    ok = True
    if tag not in vocabulary:
        issues.append(ValidationIssue("UnknownTag", f"question {qid}: tag {tag!r} is not in the tag vocabulary"))
        ok = False
    path = os.path.join(base_dir, raw["path"])
    media_type = _BF_MEDIA_TYPES.get(os.path.splitext(path)[1].lower())
    if media_type is None:
        name = os.path.basename(path)
        issues.append(ValidationIssue("MalformedManifest", f"question {qid}: image {name!r} is not a JPEG or PNG file"))
        ok = False
    # False, not an error, for a name the file system refuses, such as one too long.
    if not os.path.isfile(path) or not os.access(path, os.R_OK):
        issues.append(ValidationIssue("MissingImage", f"question {qid}: image file {path!r} is not readable"))
        ok = False
    if not ok:
        return None
    return ImageRef(path=path, domain_tag=tag, media_type=media_type)

