"""Assembly of the structured interaction payload sent to the engine.

Every prompt is an ordered payload: instruction text first, then the
question stem, then the enumerated choices, and finally the image
attachment. The instruction text must contain the answer-marker phrase so
that letter extraction downstream is well-posed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from urllib.parse import urlparse

from .corpus import Question

ANSWER_MARKER = "Correct Choice:"

# Default instruction text, reproduced character-for-character from the run
# this tool replays; override per run to experiment with other protocols.
DEFAULT_RULES_TEXT = (
    "Describe the image and then use the that description and the following "
    "symptoms to choose the correct answer without explanation. At the end of "
    "the response write Correct Choice:(ONLY the correct letter)."
)

DEFAULT_MODEL_ID = "gpt-4-vision-preview"
DEFAULT_MAX_TOKENS = 4000
DEFAULT_ENDPOINT_URL = "https://api.openai.com/v1/chat/completions"


class PromptError(Exception):
    pass


class MarkerMissingError(PromptError):
    """The instruction text lacks the answer-marker phrase."""


class ImageReadError(PromptError):
    """The question's image could not be read."""


@dataclass(frozen=True)
class RulesOfConduct:
    """Instruction text prepended to every prompt; it must contain the
    answer marker, or construction raises MarkerMissingError."""

    instruction_text: str = DEFAULT_RULES_TEXT

    def __post_init__(self) -> None:
        if ANSWER_MARKER not in self.instruction_text:
            raise MarkerMissingError(f"rules of conduct must contain the marker {ANSWER_MARKER!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Settings for the completion endpoint under evaluation."""

    model_id: str = DEFAULT_MODEL_ID
    max_tokens: int = DEFAULT_MAX_TOKENS
    endpoint_url: str = DEFAULT_ENDPOINT_URL
    temperature: float | None = None

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        # The client writes the URL's parts into the request head as they stand: whitespace would split
        # its request line and a CR or LF would start a header of its own.
        if any(c <= " " or c == "\x7f" for c in self.endpoint_url):
            raise ValueError(f"endpoint_url contains whitespace or a control character: {self.endpoint_url!r}")
        parsed = urlparse(self.endpoint_url)
        parsed.port  # raises ValueError for a port that is not a number in 0-65535
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise ValueError(f"endpoint_url is not a valid http(s) URL: {self.endpoint_url!r}")
        # The request head is ASCII: the host goes out IDNA-encoded, every other part as it stands.
        without_host = self.endpoint_url.replace(parsed.netloc, parsed.netloc.rpartition("@")[0], 1)
        if not without_host.isascii():
            raise ValueError(f"endpoint_url has a non-ASCII character outside its host: {self.endpoint_url!r}")
        if self.temperature is not None and not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature}")


@dataclass(frozen=True)
class PromptEnvelope:
    """Ordered interaction payload: rules, stem, choices, one image.

    The image travels as its file's path and size plus a media type and is
    never inlined into the text parts; the client streams the file.
    """

    question_id: str
    rules_text: str
    stem: str
    choices_text: str
    image_path: str
    image_size: int
    image_media_type: str

    @property
    def text(self) -> str:
        return "\n\n".join((self.rules_text, self.stem, self.choices_text))

    @property
    def image_bytes(self) -> bytes:
        """The image file's bytes, read from disk on each access."""
        with open(self.image_path, "rb") as image:
            return image.read()


def build_prompt(question: Question, rules: RulesOfConduct) -> PromptEnvelope:
    """Assemble the payload for one question; its image is stat'ed, not read.
    The choices are one '<letter>. <text>' line each, in letter order.

    Deterministic: identical inputs yield an identical envelope.
    """
    try:
        image_size = os.stat(question.image.path).st_size
    except OSError as exc:
        raise ImageReadError(f"cannot read image {question.image.path}: {exc}") from exc
    return PromptEnvelope(
        question_id=question.id,
        rules_text=rules.instruction_text,
        stem=question.stem,
        choices_text="\n".join(f"{c.letter}. {c.text}" for c in question.choices),
        image_path=question.image.path,
        image_size=image_size,
        image_media_type=question.image.media_type,
    )
