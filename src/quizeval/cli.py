"""Command-line pipeline: validate a corpus, run an evaluation, analyze a
transcript, or materialize the bundled sample.

Stages are separated so the expensive engine calls happen once (``run``)
and the analysis (``analyze``) can be iterated offline from the persisted
transcript. Exit codes: 0 success, 1 validation/configuration error, 2
runtime error. The bearer token is only ever read from QUIZEVAL_API_KEY.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import client, ner, reporting
from .corpus import CorpusValidationError, MalformedManifestError, QuizCorpus, load_corpus
from .evaluator import RunTranscript, load_transcript, run_evaluation, score
from .prompting import (
    DEFAULT_ENDPOINT_URL, DEFAULT_MAX_TOKENS, DEFAULT_MODEL_ID, EngineConfig, PromptError, RulesOfConduct,
)
from .reporting import RunMismatchError
from .sampledata import materialize_sample

API_KEY_ENV_VAR = "QUIZEVAL_API_KEY"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_BACKENDS = ("live", "replay")
_EXTRACTORS = ("gazetteer", "llm")

# Config-file key -> the JSON type its flag parses to (a float key also
# takes an integer).
_CONFIG_KEYS = {
    "manifest": str, "backend": str, "fixture": str, "parallelism": int, "out": str,
    "lexicon": str, "extractor": str, "top_k": int, "tag_threshold": int, "model": str,
    "max_tokens": int, "endpoint": str, "temperature": float, "rules_file": str,
    "min_interval": float,
}
_CONFIG_CHOICES = {"backend": _BACKENDS, "extractor": _EXTRACTORS}


class _Parser(argparse.ArgumentParser):
    # Usage errors are configuration errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="quizeval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a corpus manifest and print a summary")
    p_validate.add_argument("--manifest", required=True, type=Path)

    p_run = sub.add_parser("run", help="evaluate a corpus and write the transcript")
    p_run.add_argument("--manifest", type=Path)
    p_run.add_argument("--config", type=Path, help="JSON config file; flags override its keys")
    p_run.add_argument("--backend", choices=_BACKENDS)
    p_run.add_argument("--fixture", type=Path, help="replay fixture (required for --backend replay)")
    p_run.add_argument("--parallelism", type=int)
    p_run.add_argument("--out", type=Path)
    p_run.add_argument("--rules-file", type=Path, help="file with replacement rules-of-conduct text")
    p_run.add_argument("--model")
    p_run.add_argument("--max-tokens", type=int, dest="max_tokens")
    p_run.add_argument("--endpoint")
    p_run.add_argument("--temperature", type=float)
    p_run.add_argument("--min-interval", type=float, dest="min_interval")

    p_analyze = sub.add_parser("analyze", help="analyze a persisted transcript into a report bundle")
    p_analyze.add_argument("--transcript", required=True, type=Path)
    p_analyze.add_argument("--manifest", required=True, type=Path)
    p_analyze.add_argument("--config", type=Path)
    p_analyze.add_argument("--out", type=Path)
    p_analyze.add_argument("--lexicon", type=Path)
    p_analyze.add_argument("--extractor", choices=_EXTRACTORS)
    p_analyze.add_argument("--top-k", type=int, dest="top_k")
    p_analyze.add_argument("--tag-threshold", type=int, dest="tag_threshold")
    p_analyze.add_argument("--model")
    p_analyze.add_argument("--max-tokens", type=int, dest="max_tokens")
    p_analyze.add_argument("--endpoint")
    p_analyze.add_argument("--temperature", type=float)

    p_sample = sub.add_parser("sample", help="write the bundled sample corpus and fixture")
    p_sample.add_argument("--out", required=True, type=Path)
    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        expected = _CONFIG_KEYS[key]
        accepted = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"config key {key!r} must be of type {expected.__name__}, got {json.dumps(value)}")
        choices = _CONFIG_CHOICES.get(key)
        if choices is not None and value not in choices:
            raise ConfigError(f"config key {key!r} must be one of {', '.join(choices)}, got {value!r}")
    return doc


class ConfigError(Exception):
    pass


def _setting(args: argparse.Namespace, file_config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in file_config:
        return file_config[key]
    return default


def _engine_config(args: argparse.Namespace, file_config: dict) -> EngineConfig:
    try:
        return EngineConfig(
            model_id=_setting(args, file_config, "model", DEFAULT_MODEL_ID),
            max_tokens=_setting(args, file_config, "max_tokens", DEFAULT_MAX_TOKENS),
            endpoint_url=_setting(args, file_config, "endpoint", DEFAULT_ENDPOINT_URL),
            temperature=_setting(args, file_config, "temperature", None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_corpus_or_fail(manifest: Path) -> QuizCorpus:
    if manifest is None:
        raise ConfigError("a corpus manifest is required (--manifest or config file)")
    return load_corpus(manifest)


def _print_corpus_errors(exc: Exception) -> None:
    if isinstance(exc, CorpusValidationError):
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        print(f"{len(exc.issues)} errors", file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        corpus = load_corpus(args.manifest)
    except (MalformedManifestError, CorpusValidationError) as exc:
        _print_corpus_errors(exc)
        return EXIT_CONFIG
    print(f"{len(corpus.quizzes)} quizzes, {corpus.question_count} questions, 0 errors")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    backend = _setting(args, file_config, "backend", "live")
    parallelism = _setting(args, file_config, "parallelism", 1)
    out_dir = Path(_setting(args, file_config, "out", "out"))
    manifest = _setting(args, file_config, "manifest", None)
    config = _engine_config(args, file_config)

    rules_file = _setting(args, file_config, "rules_file", None)
    if rules_file is not None:
        try:
            rules_text = Path(rules_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read rules file {rules_file}: {exc}") from exc
        rules = RulesOfConduct(rules_text.strip())
    else:
        rules = RulesOfConduct()

    # Fail fast on backend requirements before touching the corpus or network.
    if backend == "replay":
        fixture = _setting(args, file_config, "fixture", None)
        if fixture is None:
            raise ConfigError("--backend replay requires --fixture")
        completion = client.open_replay(Path(fixture))
    else:
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ConfigError(f"--backend live requires the {API_KEY_ENV_VAR} environment variable")
        completion = client.make_live_completion(
            config, api_key, min_interval=_setting(args, file_config, "min_interval", 0.0)
        )

    try:
        corpus = _load_corpus_or_fail(Path(manifest) if manifest else None)
    except (MalformedManifestError, CorpusValidationError) as exc:
        _print_corpus_errors(exc)
        return EXIT_CONFIG

    transcript_path = out_dir / "transcript.json"
    transcript = run_evaluation(
        corpus, rules, config, completion, parallelism,
        backend=backend, transcript_path=transcript_path,
    )
    summary = score(transcript)
    print(f"{'quiz':<12}{'correct':>8}{'total':>7}")
    for quiz_score in summary.per_quiz:
        print(f"{quiz_score.quiz_id:<12}{quiz_score.correct:>8}{quiz_score.total:>7}")
    print(f"total {summary.correct}/{summary.total} ({summary.ratio * 100:.2f}%)")
    print(f"ratio {summary.ratio:.4f}")
    print(f"transcript written to {transcript_path}")
    return EXIT_OK


def _check_transcript_matches_corpus(transcript: RunTranscript, corpus: QuizCorpus) -> None:
    verdicts = {v.question_id: v for v in transcript.verdicts}
    corpus_ids = {q.id for q in corpus.iter_questions()}
    if set(verdicts) != corpus_ids or len(transcript.verdicts) != corpus.question_count:
        raise RunMismatchError("transcript and corpus cover different question sets")
    for question in corpus.iter_questions():
        verdict = verdicts[question.id]
        if verdict.correct_letter != question.correct_letter or verdict.domain_tag != question.image.domain_tag:
            raise RunMismatchError(f"verdict for {question.id!r} disagrees with the corpus")


def _cmd_analyze(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    out_dir = Path(_setting(args, file_config, "out", "out"))
    top_k = _setting(args, file_config, "top_k", reporting.DEFAULT_TOP_K)
    tag_threshold = _setting(args, file_config, "tag_threshold", reporting.DEFAULT_TAG_THRESHOLD)
    extractor_name = _setting(args, file_config, "extractor", "gazetteer")
    lexicon_path = _setting(args, file_config, "lexicon", None)

    try:
        transcript = load_transcript(args.transcript)
    except OSError as exc:
        raise ConfigError(f"cannot read transcript {args.transcript}: {exc}") from exc
    try:
        corpus = load_corpus(args.manifest)
    except (MalformedManifestError, CorpusValidationError) as exc:
        _print_corpus_errors(exc)
        return EXIT_CONFIG
    _check_transcript_matches_corpus(transcript, corpus)

    lexicon = ner.EntityLexicon.from_json_file(Path(lexicon_path)) if lexicon_path else ner.load_default_lexicon()
    if extractor_name == "gazetteer":
        extractor = ner.GazetteerExtractor(lexicon)
    else:
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ner.ExtractorUnavailableError(
                f"--extractor llm requires the {API_KEY_ENV_VAR} environment variable"
            )
        config = _engine_config(args, file_config)
        extractor = ner.LlmExtractor(
            lambda text: client.complete_text(text, config, api_key), lexicon.entity_types
        )

    records = ner.extract_from_transcript(transcript, extractor)
    report = reporting.build_report(transcript, records, tag_threshold=tag_threshold, top_k=top_k)

    written = []
    for fmt in ("json", "csv-bundle", "dot", "graphml"):
        written.extend(reporting.export(report, fmt, out_dir))
    written.append(ner.write_records_csv(records, out_dir / "entities.csv"))

    print(f"analyzed {len(transcript.verdicts)} verdicts: {report.scores.correct} correct, "
          f"{len(records)} entity records, {len(report.requirements)} requirements")
    for path in written:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    paths = materialize_sample(args.out)
    print(f"manifest: {paths.manifest}")
    print(f"fixture:  {paths.fixture}")
    print(f"images:   {paths.images_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "sample": _cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, RunMismatchError, PromptError,
            client.MalformedFixtureError, ner.ExtractorUnavailableError,
            ner.LexiconError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (client.ClientError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
