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
import math
import os
import sys
from pathlib import Path

from . import client, ner, reporting
from .atomic import has_json_type, read_json, read_text
from .corpus import AnswerKey, CorpusError, CorpusValidationError, load_corpus, read_answer_key
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


class _Parser(argparse.ArgumentParser):
    # Usage errors are configuration errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name. Each flag's
    type, choices and default are its only definition; config-file values
    are checked and converted against the same flags."""
    parser = _Parser(prog="quizeval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=Path, help="JSON config file; flags override its keys")
    shared.add_argument("--out", type=Path, default="out")
    shared.add_argument("--model", default=DEFAULT_MODEL_ID)
    shared.add_argument("--max-tokens", type=int, dest="max_tokens", default=DEFAULT_MAX_TOKENS)
    shared.add_argument("--endpoint", default=DEFAULT_ENDPOINT_URL)
    shared.add_argument("--temperature", type=float)
    shared.add_argument("--parallelism", type=int, default=4, help="requests in flight (live run, LLM extraction)")
    shared.add_argument("--min-interval", type=float, dest="min_interval", default=0.0,
                        help="minimum seconds between request starts")

    p_validate = sub.add_parser("validate", help="check a corpus manifest and print a summary")
    p_validate.add_argument("--manifest", required=True, type=Path)

    p_run = sub.add_parser("run", parents=[shared], help="evaluate a corpus and write the transcript")
    p_run.add_argument("--manifest", type=Path)
    p_run.add_argument("--backend", choices=("live", "replay"), default="live")
    p_run.add_argument("--fixture", type=Path, help="replay fixture (required for --backend replay)")
    p_run.add_argument("--rules-file", type=Path, help="file with replacement rules-of-conduct text")

    p_analyze = sub.add_parser("analyze", parents=[shared], help="analyze a persisted transcript into a report bundle")
    p_analyze.add_argument("--transcript", required=True, type=Path)
    p_analyze.add_argument("--manifest", required=True, type=Path)
    p_analyze.add_argument("--lexicon", type=Path)
    p_analyze.add_argument("--extractor", choices=("gazetteer", "llm"), default="gazetteer")
    p_analyze.add_argument("--top-k", type=int, dest="top_k", default=reporting.DEFAULT_TOP_K)
    p_analyze.add_argument("--tag-threshold", type=int, dest="tag_threshold", default=reporting.DEFAULT_TAG_THRESHOLD)

    p_sample = sub.add_parser("sample", help="write the bundled sample corpus and fixture")
    p_sample.add_argument("--out", required=True, type=Path)
    return parser, sub.choices


def _config_flags(commands: dict[str, _Parser]) -> dict[str, argparse.Action]:
    """The flags a config file may set, by key: the optional flags of
    ``run`` and ``analyze`` except ``--help`` and ``--config``."""
    return {
        action.dest: action
        for name in ("run", "analyze")
        for action in commands[name]._actions
        if action.option_strings and not action.required and action.dest not in ("help", "config")
    }


def _load_config_file(path: Path, flags: dict[str, argparse.Action]) -> dict:
    """Read a config file and convert each value with its flag's type."""
    doc = read_json(path, ConfigError, "config file")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(flags)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for key, value in doc.items():
        action = flags[key]
        expected = action.type if action.type in (int, float) else str
        if not has_json_type(value, (expected,)):
            raise ConfigError(f"config key {key!r} must be of type {expected.__name__}, got {json.dumps(value)}")
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}")
        values[key] = action.type(value) if action.type else value
    return values


class ConfigError(Exception):
    pass


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    try:
        return EngineConfig(
            model_id=args.model, max_tokens=args.max_tokens,
            endpoint_url=args.endpoint, temperature=args.temperature,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.manifest)
    print(f"{len(corpus.quizzes)} quizzes, {corpus.question_count} questions, 0 errors")
    return EXIT_OK


def _require_at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def _check_request_settings(args: argparse.Namespace) -> None:
    """Check the request settings both stages share, before anything is read."""
    _require_at_least_one("--parallelism", args.parallelism)
    # NaN would disable the spacing and inf would end in time.sleep's OverflowError.
    if not (math.isfinite(args.min_interval) and args.min_interval >= 0):
        raise ConfigError(f"--min-interval must be a finite number >= 0, got {args.min_interval}")


def _cmd_run(args: argparse.Namespace) -> int:
    _check_request_settings(args)
    config = _engine_config(args)
    if args.rules_file is not None:
        rules = RulesOfConduct(read_text(args.rules_file, ConfigError, "rules file").strip())
    else:
        rules = RulesOfConduct()

    # Fail fast on backend requirements before touching the corpus or network,
    # but read the replay fixture only after the corpus is validated, so its
    # mapping is not held while the manifest is parsed.
    if args.backend == "replay":
        if args.fixture is None:
            raise ConfigError("--backend replay requires --fixture")
        completion = None
    else:
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ConfigError(f"--backend live requires the {API_KEY_ENV_VAR} environment variable")
        completion = client.make_live_completion(config, api_key, min_interval=args.min_interval)

    if args.manifest is None:
        raise ConfigError("a corpus manifest is required (--manifest or config file)")
    corpus = load_corpus(args.manifest)
    if completion is None:
        completion = client.open_replay(args.fixture)

    transcript_path = args.out / "transcript.json"
    # Replay has no I/O to overlap, so a thread pool would only slow it down.
    parallelism = args.parallelism if args.backend == "live" else 1
    transcript = run_evaluation(
        corpus, rules, config, completion, parallelism,
        backend=args.backend, transcript_path=transcript_path,
    )
    scores = score(transcript)
    print(f"{'quiz':<12}{'correct':>8}{'total':>7}")
    for quiz in scores["per_quiz"]:
        print(f"{quiz['quiz_id']:<12}{quiz['correct']:>8}{quiz['total']:>7}")
    print(f"total {scores['correct']}/{scores['total']} ({scores['ratio'] * 100:.2f}%)")
    print(f"ratio {scores['ratio']:.4f}")
    print(f"transcript written to {transcript_path}")
    return EXIT_OK


def _check_verdicts(transcript: RunTranscript, answer_key: AnswerKey) -> None:
    """Each question has exactly one verdict, and it agrees with the manifest
    on its quiz, correct letter and tag."""
    verdicts = {v.question_id: v for v in transcript.verdicts}
    if verdicts.keys() != answer_key.keys() or len(transcript.verdicts) != len(answer_key):
        raise RunMismatchError("transcript and corpus cover different question sets")
    for qid, expected in answer_key.items():
        verdict = verdicts[qid]
        if (verdict.quiz_id, verdict.correct_letter, verdict.domain_tag) != expected:
            raise RunMismatchError(f"verdict for {qid!r} disagrees with the corpus")


def _checked_transcript(transcript_path: Path, manifest_path: Path) -> RunTranscript:
    """The transcript, checked against the manifest its run read. The answer
    key is read before the transcript is loaded and is freed on return, before
    extraction and the report allocate."""
    answer_key, manifest_sha256 = read_answer_key(manifest_path)
    transcript = load_transcript(transcript_path)
    if transcript.run.manifest_sha256 is None:
        # A version-1 transcript recorded no digest: validate the manifest,
        # images included, as the run did.
        load_corpus(manifest_path)
    elif transcript.run.manifest_sha256 != manifest_sha256:
        raise RunMismatchError(
            f"manifest {manifest_path} is not the one the run read: its sha256 is {manifest_sha256}, "
            f"the transcript records {transcript.run.manifest_sha256}"
        )
    _check_verdicts(transcript, answer_key)
    return transcript


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Checked before any input is read, so a bad value costs no extraction
    # calls; --top-k is caught even when both graphs are empty, and a
    # --tag-threshold below 1 would otherwise act as 1.
    _require_at_least_one("--top-k", args.top_k)
    _require_at_least_one("--tag-threshold", args.tag_threshold)
    _check_request_settings(args)
    transcript = _checked_transcript(args.transcript, args.manifest)

    lexicon = ner.EntityLexicon.from_json_file(args.lexicon) if args.lexicon is not None else ner.load_default_lexicon()
    if args.extractor == "gazetteer":
        # Like replay, the gazetteer has no I/O to overlap: it runs serially.
        extractor, parallelism = ner.GazetteerExtractor(lexicon), 1
    else:
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise ner.ExtractorUnavailableError(
                f"--extractor llm requires the {API_KEY_ENV_VAR} environment variable"
            )
        config = _engine_config(args)
        wait_turn = client.request_spacer(args.min_interval)

        def complete(text: str) -> str:
            wait_turn()
            return client.complete_text(text, config, api_key)

        extractor, parallelism = ner.LlmExtractor(complete, lexicon.entity_types), args.parallelism

    records = ner.extract_from_transcript(transcript, extractor, parallelism)
    report = reporting.build_report(transcript, records, tag_threshold=args.tag_threshold, top_k=args.top_k)

    written = []
    for fmt in ("json", "csv-bundle", "dot", "graphml"):
        written.extend(reporting.export(report, fmt, args.out))
    written.append(ner.write_records_csv(records, args.out / "entities.csv"))

    print(f"analyzed {len(transcript.verdicts)} verdicts: {report.document['scores']['correct']} correct, "
          f"{len(records)} entity records, {len(report.document['requirements'])} requirements")
    for path in written:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    paths = materialize_sample(args.out)
    print(f"manifest: {paths.manifest}")
    print(f"fixture:  {paths.fixture}")
    print(f"images:   {paths.images_dir}")
    return EXIT_OK


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``; with ``--config``, the file's values become the
    subcommand's defaults and ``argv`` is parsed again, so a flag overrides
    the file and the file overrides the built-in default."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        commands[args.command].set_defaults(**_load_config_file(args.config, _config_flags(commands)))
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "sample": _cmd_sample,
    }
    try:
        args = _parse_args(argv)
        return handlers[args.command](args)
    except (ConfigError, ValueError, RunMismatchError, PromptError,
            client.MalformedFixtureError, ner.ExtractorUnavailableError,
            ner.LexiconError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusValidationError as exc:
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        print(f"{len(exc.issues)} errors", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (client.ClientError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
