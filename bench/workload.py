"""Seeded workload generator for the quizeval benchmark.

The bundled sample (written by ``quizeval sample``) is scaled into a corpus
of fresh quizzes: each replica copies the sample's quiz structure, tags and
choices, and gets fresh ids, a unique case token in every stem and analysis
text, and its own incompressible image payload. Analysis texts (the
official explanations and the replayed or stubbed model responses) are
40-60 words of filler that no lexicon pattern can match, with 2-4 lexicon
entities planted in them. Entities are drawn from a per-tag cluster of the
lexicon: uniform draws would saturate both branch graphs into one complete
graph, while clusters keep them sparse with one component per tag.

Beside the inputs the generator writes what the outputs must be: which
verdicts are correct, which must carry a client error, and the planted
entities of every verdict in order. quizeval itself receives only the
manifest, the images and (for replay) the fixture.
"""

from __future__ import annotations

import argparse
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
CORRECT_SHARE = 0.8
MODEL_ID = "bench-vision-1"
MAX_TOKENS = 300
# The CLI's worker pool and the stub's handler threads; matches a 2-core host.
PARALLELISM = 2
# The stub's service time per request.
STUB_DELAY_S = 0.002

# Case tokens: "CASE-" never occurs in base64 (no '-'), so the stub can find
# the token in a request body without decoding it. S marks a stem, R a model
# response, X an official explanation.
TOKEN_RE = re.compile(r"CASE-([SRX])(\d{6})")

_WORD_RE = re.compile(r"[a-z0-9]+")

_ENTITY_SENTENCES = (
    "The sections show {e} as the dominant finding in this specimen.",
    "Careful review also identifies {e} at the margin of the field.",
    "These features point toward {e} rather than the other options listed.",
    "In this setting {e} is the usual explanation for what is seen.",
    "A second look confirms {e} without any doubt.",
    "Most observers would describe {e} here.",
)
_FILLER_SENTENCES = (
    "The pattern is typical for the stated history.",
    "No other change of note is present on this review.",
    "Clinical correlation is advised before any final report is signed.",
    "The overall picture fits the timeline given by the patient.",
    "Nothing in the field argues against this reading.",
    "This is a common teaching example.",
    "The remaining options do not match what is shown.",
)
_MARKERS = ("Correct Choice: {0}", "Correct Choice:{0}", "Correct choice: {0}.", "Choice: {0}")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's corpus and how it is run."""

    replicas: int
    image_bytes: int
    backend: str
    extractor: str


WORKLOADS = {
    "replay-wide": Spec(replicas=128, image_bytes=1024, backend="replay", extractor="gazetteer"),
    "live-images-flaky-llm": Spec(replicas=16, image_bytes=200 * 1024, backend="live", extractor="llm"),
}


def tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.casefold())


def normalize(pattern: str) -> str:
    return " ".join(tok.capitalize() for tok in tokens(pattern))


def _check_filler(lexicon: dict[str, list[str]]) -> None:
    lexicon_tokens = {tok for patterns in lexicon.values() for p in patterns for tok in tokens(p)}
    for sentence in _ENTITY_SENTENCES + _FILLER_SENTENCES + _MARKERS + ("Review of case follows.",):
        clash = lexicon_tokens.intersection(tokens(sentence.format("", e="")))
        if clash:
            raise ValueError(f"filler sentence {sentence!r} contains lexicon words {sorted(clash)}")


def _clusters(lexicon: dict[str, list[str]], tags: list[str], rng: random.Random) -> dict[str, list[tuple[str, str]]]:
    entries = [(entity_type, pattern) for entity_type, patterns in lexicon.items() for pattern in patterns]
    rng.shuffle(entries)
    return {tag: entries[i :: len(tags)] for i, tag in enumerate(tags)}


def _analysis_text(token: str, planted: list[tuple[str, str]], rng: random.Random, tail: str = "") -> str:
    sentences = [f"Review of {token} follows."]
    for _, pattern in planted:
        sentences.append(rng.choice(_ENTITY_SENTENCES).format(e=pattern))
    fillers = list(_FILLER_SENTENCES)
    rng.shuffle(fillers)
    words = sum(len(s.split()) for s in sentences) + len(tail.split())
    target = rng.randint(40, 60)
    for filler in fillers:
        if words + len(filler.split()) > target:
            continue
        sentences.insert(rng.randint(1, len(sentences)), filler)
        words += len(filler.split())
    return " ".join(sentences) + (f" {tail}" if tail else "")


def _planted_records(planted: list[tuple[str, str]]) -> list[list[str]]:
    seen: set[tuple[str, str]] = set()
    out = []
    for entity_type, pattern in planted:
        key = (entity_type, normalize(pattern))
        if key not in seen:
            seen.add(key)
            out.append(list(key))
    return out


def _entity_lines(planted: list[tuple[str, str]]) -> str:
    return "\n".join(f"{entity_type} | {pattern}" for entity_type, pattern in planted)


def _image(rng: random.Random, size: int) -> bytes:
    return PNG_SIGNATURE + rng.randbytes(size - len(PNG_SIGNATURE))


def generate(
    spec: Spec, seed: int, sample_manifest: Path, lexicon_path: Path, dest: Path
) -> dict:
    """Write manifest, images, fixture or stub table, and the expectation.

    Returns the expectation document (also written to ``expect.json``).
    """
    rng = random.Random(seed)
    sample = json.loads(sample_manifest.read_text(encoding="utf-8"))
    lexicon = json.loads(lexicon_path.read_text(encoding="utf-8"))
    _check_filler(lexicon)
    tags = sorted({q["image"]["domain_tag"] for quiz in sample["quizzes"] for q in quiz["questions"]})
    clusters = _clusters(lexicon, tags, rng)

    images_dir = dest / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    quizzes = []
    fixture: dict[str, str] = {}
    responses: dict[str, str] = {}
    texts: dict[str, str] = {}
    entity_lines: dict[str, str] = {}
    verify: dict[str, dict] = {}
    expected_correct: list[bool] = []
    planted_per_verdict: list[list[list[str]]] = []
    explanation_records: list[list[list[str]]] = []
    serial = 0
    for replica in range(spec.replicas):
        for quiz in sample["quizzes"]:
            quiz_id = f"r{replica:04d}-{quiz['id']}"
            questions = []
            for q in quiz["questions"]:
                qid = f"{quiz_id}-{q['id']}"
                tag = q["image"]["domain_tag"]
                letters = [c["letter"] for c in q["choices"]]
                correct_letter = rng.choice(letters)
                is_correct = rng.random() < CORRECT_SHARE
                image_rel = f"images/{qid}.png"
                image = _image(rng, spec.image_bytes)
                (dest / image_rel).write_bytes(image)
                stem = f"{q['stem']} Case CASE-S{serial:06d}."

                explanation_planted = rng.sample(clusters[tag], rng.randint(2, min(4, len(clusters[tag]))))
                explanation = _analysis_text(f"CASE-X{serial:06d}", explanation_planted, rng)
                texts[f"X{serial:06d}"] = explanation
                entity_lines[f"X{serial:06d}"] = _entity_lines(explanation_planted)
                explanation_records.append(_planted_records(explanation_planted))
                if is_correct:
                    response_planted = rng.sample(clusters[tag], rng.randint(2, min(4, len(clusters[tag]))))
                    marker = rng.choice(_MARKERS).format(correct_letter)
                    response = _analysis_text(f"CASE-R{serial:06d}", response_planted, rng, tail=marker)
                    texts[f"R{serial:06d}"] = response
                    entity_lines[f"R{serial:06d}"] = _entity_lines(response_planted)
                    planted_per_verdict.append(_planted_records(response_planted))
                else:
                    wrong = letters[(letters.index(correct_letter) + 1) % len(letters)]
                    response = f"The image for CASE-R{serial:06d} favors another process. Correct Choice: {wrong}"
                    planted_per_verdict.append(explanation_records[-1])

                questions.append({
                    "id": qid,
                    "stem": stem,
                    "choices": q["choices"],
                    "correct_letter": correct_letter,
                    "explanation": explanation,
                    "image": {"path": image_rel, "domain_tag": tag},
                })
                fixture[qid] = response
                responses[f"S{serial:06d}"] = response
                if serial % 64 == 7:
                    verify[f"S{serial:06d}"] = {
                        "stem": stem,
                        "choices": "\n".join(f"{c['letter']}. {c['text']}" for c in q["choices"]),
                        "image": image_rel,
                    }
                expected_correct.append(is_correct)
                serial += 1
            quizzes.append({"id": quiz_id, "title": quiz["title"], "questions": questions})

    manifest = {"tag_vocabulary": sample["tag_vocabulary"], "quizzes": quizzes}
    (dest / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")

    schedule: dict[str, list[str]] = {}
    forced_errors: list[int] = []
    if spec.backend == "live":
        # Failures sit at fixed places in the corpus so that every seed loses
        # the same wall time to them. Each backoff (1 s per recoverable
        # failure; 1 s + 2 s + 4 s for the question whose four attempts
        # exhaust the three retries) idles one worker while the other keeps
        # going. The question that never succeeds is the first one, so the
        # other worker overlaps its 7 s with the start of the corpus. The
        # live corpus is large enough that the schedule stays a minority of
        # each stage's wall time.
        for fraction, action in ((0.25, "429"), (0.5, "503"), (0.75, "drop")):
            schedule[f"S{int(serial * fraction):06d}"] = [action]
        never = 0
        schedule[f"S{never:06d}"] = ["503"] * 4
        forced_errors.append(never)
        # A client error scores as wrong, so analysis reads the explanation.
        expected_correct[never] = False
        planted_per_verdict[never] = explanation_records[never]
        # Extraction aborts on an exhausted request, so it sees only
        # recoverable failures.
        for fraction, action in ((1 / 3, "429"), (2 / 3, "503")):
            serial_no = int(serial * fraction)
            token = f"R{serial_no:06d}" if expected_correct[serial_no] else f"X{serial_no:06d}"
            schedule[token] = [action]

    if spec.backend == "replay":
        (dest / "fixture.json").write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    else:
        stub = {
            "model": MODEL_ID,
            "max_tokens": MAX_TOKENS,
            "responses": responses,
            "texts": texts,
            "entities": entity_lines,
            "verify": verify,
            "schedule": schedule,
        }
        (dest / "stub.json").write_text(json.dumps(stub) + "\n", encoding="utf-8")

    expect = {
        "questions": serial,
        "correct": [i for i, ok in enumerate(expected_correct) if ok],
        "forced_errors": forced_errors,
        "planted": planted_per_verdict,
    }
    (dest / "expect.json").write_text(json.dumps(expect) + "\n", encoding="utf-8")
    return expect


def main() -> None:
    parser = argparse.ArgumentParser(description="generate one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--sample-manifest", required=True, type=Path)
    parser.add_argument("--lexicon", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    expect = generate(WORKLOADS[args.workload], args.seed, args.sample_manifest, args.lexicon, args.out)
    print(json.dumps({"questions": expect["questions"], "forced_errors": len(expect["forced_errors"])}))


if __name__ == "__main__":
    main()
