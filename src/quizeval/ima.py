"""Image metadata analysis: domain-tag distributions over verdicts.

Splits the run's verdicts into correct/incorrect tag histograms, flags tags
that only ever appear on failures, and adds a per-tag error rate on top of
the raw counts (raw counts mislead when tag frequencies differ: 2 wrong of
15 is not the same signal as 1 wrong of 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluator import RunTranscript


@dataclass(frozen=True)
class IMAReport:
    correct_hist: dict[str, int]
    incorrect_hist: dict[str, int]
    incorrect_only_tags: frozenset[str]
    per_tag_error_rate: dict[str, float]


def analyze_images(transcript: RunTranscript) -> IMAReport:
    """Partition verdicts by correctness into tag histograms.

    Invariant under verdict reordering; error rates are incorrect over
    (correct + incorrect) per tag, in [0, 1], and exactly 1.0 for
    incorrect-only tags.
    """
    correct: dict[str, int] = {}
    incorrect: dict[str, int] = {}
    for verdict in transcript.verdicts:
        hist = correct if verdict.is_correct else incorrect
        hist[verdict.domain_tag] = hist.get(verdict.domain_tag, 0) + 1
    rates = {
        tag: incorrect.get(tag, 0) / (correct.get(tag, 0) + incorrect.get(tag, 0))
        for tag in sorted(set(correct) | set(incorrect))
    }
    return IMAReport(
        correct_hist=dict(sorted(correct.items())),
        incorrect_hist=dict(sorted(incorrect.items())),
        incorrect_only_tags=frozenset(incorrect) - frozenset(correct),
        per_tag_error_rate=rates,
    )
