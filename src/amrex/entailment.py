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


def pair_json(score: EntailmentScore) -> dict:
    """The stored form of a scored pair: a verdict row's pair and
    ``score-pair --json`` (which adds the ``lambda`` a row keeps once)."""
    return {"f": score.f_value, "smatch_p": score.smatch_p,
            "cosine": score.cosine_sim, "decision": score.decision,
            "mapping": [list(p) for p in score.mapping.pairs]}


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    return value


def pair_from_json(lam: float, pair: dict) -> EntailmentScore:
    """Read back what :func:`pair_json` wrote; a missing key is a KeyError
    and a value of the wrong type or out of range a TypeError."""
    decision, mapping = pair["decision"], pair["mapping"]
    if type(decision) is not int or decision not in (1, -1):
        raise TypeError(f"decision must be 1 or -1, got {decision!r}")
    if not (isinstance(mapping, list)
            and all(isinstance(p, list) and len(p) == 2
                    and all(isinstance(v, str) for v in p) for p in mapping)):
        raise TypeError("mapping must be a list of [claim variable, "
                        "evidence variable] string pairs")
    return EntailmentScore(lam=_number(lam, "lambda"),
                           smatch_p=_number(pair["smatch_p"], "smatch_p"),
                           cosine_sim=_number(pair["cosine"], "cosine"),
                           f_value=_number(pair["f"], "f"), decision=decision,
                           mapping=VariableMapping(mapping))
