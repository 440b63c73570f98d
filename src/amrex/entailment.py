"""Per-pair entailment decision.

The combined score is a convex blend of the structural containment score
(Smatch precision of the claim against the evidence) and the textual cosine
similarity:

    f = lambda * smatch_p + (1 - lambda) * cosine_sim

and the pair is judged entailing (+1) when f >= 0.6, else non-entailing
(-1).  The boundary is inclusive.  Throughout the pipeline the evidence is
the premise and the claim is the hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .graph import AmrGraph
from .similarity import SimilarityBackend, cosine
from .smatch import AlignConfig, SmatchResult, VariableMapping, smatch_precision

ENTAILMENT_THRESHOLD = 0.6


@dataclass(frozen=True)
class EntailmentScore:
    lam: float
    smatch_p: float
    cosine_sim: float
    f_value: float
    decision: int
    mapping: VariableMapping


def combined_score(lam: float, smatch_p: float, cosine_sim: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    return lam * smatch_p + (1.0 - lam) * cosine_sim


def th1(f_value: float) -> int:
    """+1 when f_value >= 0.6, else -1."""
    return 1 if f_value >= ENTAILMENT_THRESHOLD else -1


def blend(lam: float, alignment: SmatchResult, cosine_sim: float) -> EntailmentScore:
    """Blend one pair's alignment and cosine at *lam* and threshold it."""
    f_value = combined_score(lam, alignment.precision, cosine_sim)
    return EntailmentScore(lam=lam, smatch_p=alignment.precision,
                           cosine_sim=cosine_sim, f_value=f_value,
                           decision=th1(f_value), mapping=alignment.mapping)


def pair_json(score: EntailmentScore) -> dict:
    """The stored form of a scored pair: a verdict row's pair and
    ``score-pair --json`` (which adds the ``lambda`` a row keeps once)."""
    return {"f": score.f_value, "smatch_p": score.smatch_p,
            "cosine": score.cosine_sim, "decision": score.decision,
            "mapping": [list(p) for p in score.mapping.pairs]}


def pair_from_json(lam: float, pair: dict) -> EntailmentScore:
    """Read back what :func:`pair_json` wrote; a missing key is a KeyError."""
    return EntailmentScore(lam=lam, smatch_p=pair["smatch_p"],
                           cosine_sim=pair["cosine"], f_value=pair["f"],
                           decision=pair["decision"],
                           mapping=VariableMapping(pair["mapping"]))


def nli_pair(premise_text: str, premise_amr: AmrGraph,
             hypothesis_text: str, hypothesis_amr: AmrGraph,
             lam: float, backend: SimilarityBackend,
             cfg: AlignConfig = AlignConfig()) -> EntailmentScore:
    """Score one (evidence, claim) pair.

    Runs the alignment with the claim as hypothesis, embeds both texts,
    blends the scores and thresholds.  Embedding misses propagate as typed
    errors; they never degrade to a default score.
    """
    alignment = smatch_precision(premise_amr, hypothesis_amr, cfg)
    sim = cosine(backend.embed(premise_text), backend.embed(hypothesis_text))
    return blend(lam, alignment, sim)
