"""Human-readable justification of a verdict.

The core artifact is the node-mapping listing, one line per aligned pair:

    a0(ride-01) --> b0(disease)

followed by any unmapped claim variables.  The same bundle can be rendered
into a prompt that asks an external text generator to walk through the
mappings and conclude with a classification; the generator call goes over
a minimal wire contract (``POST /generate`` with ``{"prompt": ...}``) and
never feeds back into scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entailment import EntailmentScore
from .errors import TemplateError, TransportError
from .graph import AmrGraph, serialize_penman
from .similarity import post_json


@dataclass(frozen=True)
class ExplanationBundle:
    claim_text: str
    evidence_text: str
    claim_penman: str
    evidence_penman: str
    # (claim var, claim concept, evidence var, evidence concept), ordered by
    # claim-variable declaration order.
    mapping_lines: tuple[tuple[str, str, str, str], ...]
    unmapped: tuple[tuple[str, str], ...]
    score: EntailmentScore
    label: str | None = None


def build_bundle(claim_graph: AmrGraph, evidence_graph: AmrGraph,
                 claim_text: str, evidence_text: str,
                 score: EntailmentScore, label: str | None = None) -> ExplanationBundle:
    mapped = score.mapping.as_dict()
    nodes = claim_graph.nodes.items()
    return ExplanationBundle(
        claim_text=claim_text, evidence_text=evidence_text,
        claim_penman=serialize_penman(claim_graph),
        evidence_penman=serialize_penman(evidence_graph),
        mapping_lines=tuple((hv, concept, mapped[hv], evidence_graph.nodes[mapped[hv]])
                            for hv, concept in nodes if hv in mapped),
        unmapped=tuple((hv, concept) for hv, concept in nodes if hv not in mapped),
        score=score, label=label)


def render_mapping(bundle: ExplanationBundle) -> str:
    """One ``hv(concept) --> pv(concept)`` line per mapped pair, then an
    ``unmapped:`` section for claim variables without an image."""
    lines = [f"{hv}({hc}) --> {pv}({pc})"
             for hv, hc, pv, pc in bundle.mapping_lines]
    if bundle.unmapped:
        lines.append("unmapped:")
        lines.extend(f"{hv}({hc})" for hv, hc in bundle.unmapped)
    return "\n".join(lines)


def _score_fields(score: EntailmentScore) -> dict[str, str]:
    """The scores as text, keyed by their prompt placeholders."""
    return {"smatch_precision": f"{score.smatch_p:.4f}",
            "cosine": f"{score.cosine_sim:.4f}", "lambda": f"{score.lam:g}",
            "combined": f"{score.f_value:.4f}",
            "decision": "+1" if score.decision > 0 else "-1"}


_SCORE_LINES = ("structural containment: {smatch_precision}",
                "textual similarity: {cosine}",
                "combined (lambda={lambda}): {combined}",
                "decision: {decision}")


def _score_lines(bundle: ExplanationBundle) -> list[str]:
    """The score lines of the text and markdown renderings."""
    fields = _score_fields(bundle.score)
    lines = [line.format_map(fields) for line in _SCORE_LINES]
    return lines + [f"verdict: {bundle.label}"] if bundle.label else lines


def render_text(bundle: ExplanationBundle) -> str:
    return "\n".join([f"claim: {bundle.claim_text}",
                      f"evidence: {bundle.evidence_text}", "",
                      render_mapping(bundle), "", *_score_lines(bundle)])


def render_markdown(bundle: ExplanationBundle) -> str:
    return "\n".join([f"**Claim:** {bundle.claim_text}",
                      f"**Evidence:** {bundle.evidence_text}", "",
                      "```", render_mapping(bundle), "```", "",
                      *(f"- {line}" for line in _score_lines(bundle))])


DEFAULT_PROMPT_TEMPLATE = """\
You are analyzing a fact-verification decision made by aligning the
semantic graph of a claim to the semantic graph of a piece of evidence.

Claim: {claim}
Evidence: {evidence}

Node mapping between the claim graph and the evidence graph:
{mapping}

Structural containment score: {smatch_precision}
Textual similarity score: {cosine}
Combined score (weight {lambda}): {combined}
Entailment decision: {decision}

Write an "AMR Graph Mapping Analysis" with these sections:
Key Mappings: discuss each mapping line above, saying whether the aligned
concepts agree or reveal a mismatch between claim and evidence.
Explanation: summarize what the mappings imply about whether the evidence
supports or contradicts the claim.
Classification: conclude with a single veracity classification for the
pair and justify it from the mappings alone.
"""


class _StrictDict(dict):
    def __missing__(self, key):
        raise TemplateError(key)


def build_prompt(bundle: ExplanationBundle, template: str | None = None) -> str:
    """Deterministically substitute bundle fields into *template*.

    Unknown placeholders raise :class:`TemplateError`; a template without
    placeholders comes back unchanged.
    """
    if template is None:
        template = DEFAULT_PROMPT_TEMPLATE
    values = _StrictDict(
        claim=bundle.claim_text,
        evidence=bundle.evidence_text,
        claim_penman=bundle.claim_penman,
        evidence_penman=bundle.evidence_penman,
        mapping=render_mapping(bundle),
        label=bundle.label or "",
        **_score_fields(bundle.score),
    )
    return template.format_map(values)


def generate_explanation(prompt: str, service_url: str,
                         timeout: float = 60.0) -> str:
    """Relay *prompt* to a generation service and return its raw text.

    The verdict is never altered by the response.
    """
    text = post_json(f"{service_url.rstrip('/')}/generate", {"prompt": prompt},
                     "text", timeout, "generation service")
    if not text:
        raise TransportError("generation service returned an empty completion")
    return text
