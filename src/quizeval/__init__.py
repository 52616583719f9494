"""quizeval: evaluate multimodal chat models on image-paired multiple-choice
quizzes and mine the transcripts for weak knowledge paths."""

from .client import ClientError, MalformedFixtureError, RetriesExhaustedError, make_live_completion, open_replay
from .corpus import CorpusError, CorpusValidationError, MalformedManifestError, QuizCorpus, Question, load_corpus
from .evaluator import RunTranscript, Verdict, extract_choice, load_transcript, run_evaluation, save_transcript, score
from .ima import IMAReport, analyze_images
from .kg import EntityGraph, GraphMetrics, UndefinedDensityError, build_graph, compute_metrics, connected_components, density, top_degree
from .ner import EntityLexicon, EntityRecord, GazetteerExtractor, LlmExtractor, entity_frequencies, extract_entities, extract_from_transcript, load_default_lexicon
from .prompting import DEFAULT_RULES_TEXT, EngineConfig, PromptEnvelope, RulesOfConduct, build_prompt
from .reporting import AnalysisReport, RunMismatchError, build_report, export
from .sampledata import materialize_sample

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ClientError",
    "CorpusError",
    "CorpusValidationError",
    "DEFAULT_RULES_TEXT",
    "EngineConfig",
    "EntityGraph",
    "EntityLexicon",
    "EntityRecord",
    "GazetteerExtractor",
    "GraphMetrics",
    "IMAReport",
    "LlmExtractor",
    "MalformedFixtureError",
    "MalformedManifestError",
    "PromptEnvelope",
    "Question",
    "QuizCorpus",
    "RetriesExhaustedError",
    "RulesOfConduct",
    "RunMismatchError",
    "RunTranscript",
    "UndefinedDensityError",
    "Verdict",
    "analyze_images",
    "build_graph",
    "build_prompt",
    "build_report",
    "compute_metrics",
    "connected_components",
    "density",
    "entity_frequencies",
    "export",
    "extract_choice",
    "extract_entities",
    "extract_from_transcript",
    "load_corpus",
    "load_default_lexicon",
    "load_transcript",
    "make_live_completion",
    "materialize_sample",
    "open_replay",
    "run_evaluation",
    "save_transcript",
    "score",
    "top_degree",
]
