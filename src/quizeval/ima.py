"""Image metadata analysis: domain-tag distributions over verdicts.

Splits the run's verdicts into correct/incorrect tag histograms, flags tags
that only ever appear on failures, and adds a per-tag error rate on top of
the raw counts (raw counts mislead when tag frequencies differ: 2 wrong of
15 is not the same signal as 1 wrong of 1).
"""

from __future__ import annotations

from .evaluator import RunTranscript


def analyze_images(transcript: RunTranscript) -> dict:
    """The ``ima`` section of report.json: the ``correct`` and ``incorrect``
    tag histograms, the sorted ``incorrect_only_tags``, and the per-tag
    ``error_rate``, exact here; ``reporting.build_report`` rounds it.

    Invariant under verdict reordering; error rates are incorrect over
    (correct + incorrect) per tag, in [0, 1], and exactly 1.0 for
    incorrect-only tags.
    """
    correct: dict[str, int] = {}
    incorrect: dict[str, int] = {}
    for verdict in transcript.verdicts:
        hist = correct if verdict.is_correct else incorrect
        hist[verdict.domain_tag] = hist.get(verdict.domain_tag, 0) + 1
    return {
        "correct": dict(sorted(correct.items())),
        "incorrect": dict(sorted(incorrect.items())),
        "incorrect_only_tags": sorted(incorrect.keys() - correct.keys()),
        "error_rate": {
            tag: incorrect.get(tag, 0) / (correct.get(tag, 0) + incorrect.get(tag, 0))
            for tag in sorted(correct.keys() | incorrect.keys())
        },
    }
