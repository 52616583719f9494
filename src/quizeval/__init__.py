"""quizeval: evaluate multimodal chat models on image-paired multiple-choice
quizzes and mine the transcripts for weak knowledge paths."""

from .client import ClientError, make_live_completion, open_replay
from .corpus import load_corpus
from .evaluator import load_transcript, run_evaluation
from .ner import GazetteerExtractor, extract_from_transcript, load_default_lexicon
from .prompting import EngineConfig, PromptEnvelope, RulesOfConduct
from .reporting import RunMismatchError, build_report, export

__version__ = "0.1.0"

__all__ = [
    "ClientError",
    "EngineConfig",
    "GazetteerExtractor",
    "PromptEnvelope",
    "RulesOfConduct",
    "RunMismatchError",
    "build_report",
    "export",
    "extract_from_transcript",
    "load_corpus",
    "load_default_lexicon",
    "load_transcript",
    "make_live_completion",
    "open_replay",
    "run_evaluation",
]
