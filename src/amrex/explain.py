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
    smatch_p: float
    cosine_sim: float
    lam: float
    f_value: float
    decision: int
    label: str | None = None


def build_bundle(claim_graph: AmrGraph, evidence_graph: AmrGraph,
                 claim_text: str, evidence_text: str,
                 score: EntailmentScore, label: str | None = None) -> ExplanationBundle:
    mapped = score.mapping.as_dict()
    lines = []
    unmapped = []
    for hv, concept in claim_graph.nodes.items():
        pv = mapped.get(hv)
        if pv is None:
            unmapped.append((hv, concept))
        else:
            lines.append((hv, concept, pv, evidence_graph.nodes[pv]))
    return ExplanationBundle(
        claim_text=claim_text, evidence_text=evidence_text,
        claim_penman=serialize_penman(claim_graph),
        evidence_penman=serialize_penman(evidence_graph),
        mapping_lines=tuple(lines), unmapped=tuple(unmapped),
        smatch_p=score.smatch_p, cosine_sim=score.cosine_sim,
        lam=score.lam, f_value=score.f_value, decision=score.decision,
        label=label)


def render_mapping(bundle: ExplanationBundle) -> str:
    """One ``hv(concept) --> pv(concept)`` line per mapped pair, then an
    ``unmapped:`` section for claim variables without an image."""
    lines = [f"{hv}({hc}) --> {pv}({pc})"
             for hv, hc, pv, pc in bundle.mapping_lines]
    if bundle.unmapped:
        lines.append("unmapped:")
        lines.extend(f"{hv}({hc})" for hv, hc in bundle.unmapped)
    return "\n".join(lines)


def render_text(bundle: ExplanationBundle) -> str:
    parts = [
        f"claim: {bundle.claim_text}",
        f"evidence: {bundle.evidence_text}",
        "",
        render_mapping(bundle),
        "",
        f"structural containment: {bundle.smatch_p:.4f}",
        f"textual similarity: {bundle.cosine_sim:.4f}",
        f"combined (lambda={bundle.lam:g}): {bundle.f_value:.4f}",
        f"decision: {'+1' if bundle.decision > 0 else '-1'}",
    ]
    if bundle.label:
        parts.append(f"verdict: {bundle.label}")
    return "\n".join(parts)


def render_markdown(bundle: ExplanationBundle) -> str:
    parts = [
        f"**Claim:** {bundle.claim_text}",
        f"**Evidence:** {bundle.evidence_text}",
        "",
        "```",
        render_mapping(bundle),
        "```",
        "",
        f"- structural containment: {bundle.smatch_p:.4f}",
        f"- textual similarity: {bundle.cosine_sim:.4f}",
        f"- combined (lambda={bundle.lam:g}): {bundle.f_value:.4f}",
        f"- decision: {'+1' if bundle.decision > 0 else '-1'}",
    ]
    if bundle.label:
        parts.append(f"- verdict: {bundle.label}")
    return "\n".join(parts)


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
        smatch_precision=f"{bundle.smatch_p:.4f}",
        cosine=f"{bundle.cosine_sim:.4f}",
        combined=f"{bundle.f_value:.4f}",
        decision="+1" if bundle.decision > 0 else "-1",
        label=bundle.label or "",
    )
    values["lambda"] = f"{bundle.lam:g}"
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
