"""Independent brute-force oracles the implementation is checked against.

Nothing here shares code with the package: density counts pairs directly,
components come from a full pairwise reachability closure, degrees from a
plain edge scan, gazetteer matches from exhaustive span enumeration,
request bodies from one ``json.dumps`` of the whole payload, the answer
letter from a left-to-right scan over every marker occurrence, the answer
key from a full ``json.loads`` of the manifest and a walk that checks each
member before reading it, a CSV table from one ``writerows`` of the whole
table written at once, and GraphML escaped by ``xml.sax.saxutils``. Only the
package's exception classes are shared.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import re
from itertools import combinations
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from quizeval.corpus import MalformedManifestError


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
