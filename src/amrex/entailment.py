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
from .smatch import SmatchResult, VariableMapping

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

