"""Deterministic, explainable fact verification over AMR graphs."""

from .entailment import EntailmentScore, combined_score, th1
from .errors import AmrexError, PenmanParseError
from .evaluation import EvaluationReport, lambda_sweep, score_predictions
from .explain import ExplanationBundle, build_bundle, build_prompt, render_mapping
from .graph import AmrGraph, Triple, extract_triples, parse_penman, serialize_penman
from .ingest import ClaimRecord, EvidenceItem, join_amrs, load_amr_bundle, load_claims
from .similarity import (DeterministicTestBackend, EmbeddingServiceBackend,
                         EmbeddingVector, PrecomputedFileBackend,
                         backend_from_spec, cosine)
from .smatch import (AlignConfig, SmatchResult, VariableMapping,
                     align_exhaustive, align_hill_climb, matched_triples,
                     smatch_precision)
from .verdict import (ClaimVerdict, VerdictLabel, aggregate, th2_averitec,
                      th2_fever, verify_claim)

__version__ = "0.1.0"

__all__ = [
    "AlignConfig", "AmrGraph", "AmrexError", "ClaimRecord", "ClaimVerdict",
    "DeterministicTestBackend", "EmbeddingServiceBackend", "EmbeddingVector",
    "EntailmentScore", "EvaluationReport", "EvidenceItem", "ExplanationBundle",
    "PenmanParseError", "PrecomputedFileBackend", "SmatchResult", "Triple",
    "VariableMapping", "VerdictLabel", "aggregate", "align_exhaustive",
    "align_hill_climb", "backend_from_spec", "build_bundle", "build_prompt",
    "combined_score", "cosine", "extract_triples", "join_amrs",
    "lambda_sweep", "load_amr_bundle", "load_claims", "matched_triples",
    "parse_penman", "render_mapping", "score_predictions",
    "serialize_penman", "smatch_precision", "th1", "th2_averitec",
    "th2_fever", "verify_claim",
]
