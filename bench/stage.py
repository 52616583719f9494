"""Run one quizeval CLI stage in a fresh process for the benchmark.

Imports quizeval from the checkout's ``src/`` (and refuses to run any other
copy), records when the replay backend's completion function is first
called and how many calls it answered, optionally traces the layer
boundaries (see tracing.py), then hands the remaining arguments to
``quizeval.cli.main``. The probe file is written when the stage ends.

Usage: python3 bench/stage.py --src SRC --probe FILE [--trace] -- ARGS...
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--probe", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import quizeval
    import quizeval.cli

    if src not in Path(quizeval.__file__).resolve().parents:
        print(f"stage: quizeval imported from {quizeval.__file__}, not {src}", file=sys.stderr)
        return 3

    probe = {"first_call": None, "calls": 0}
    answered = itertools.count()
    open_replay = quizeval.client.open_replay

    @functools.wraps(open_replay)
    def probed_open_replay(*a, **kw):
        completion = open_replay(*a, **kw)

        def probed(envelope):
            if probe["first_call"] is None:
                probe["first_call"] = time.monotonic()
            response = completion(envelope)
            next(answered)
            return response

        return probed

    quizeval.client.open_replay = probed_open_replay

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, quizeval)
    try:
        return quizeval.cli.main(cli_args)
    finally:
        probe["calls"] = next(answered)
        args.probe.write_text(json.dumps(probe), encoding="utf-8")
        if tracer is not None:
            tracer.dump(args.probe.with_suffix(".spans.json"))


if __name__ == "__main__":
    sys.exit(main())
