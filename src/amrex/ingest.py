"""Dataset loading into the uniform claim/evidence model.

Both datasets are consumed in a normalized line-delimited form:

    { "claim_id": str, "claim": str, "label": str,
      "evidence": [ { "id": str, "text": str, "kind": str,
                      "question": str? } ] }

The 4-way loader additionally accepts the official QA-structured release
(records carrying a ``questions`` list of question/answers pairs with
answer types) and converts it on the fly.  Boolean answers are dropped
before anything reaches the scoring pipeline.  AMR graphs arrive separately
in a bundle file of ``{"id": ..., "penman": ...}`` lines keyed by claim and
evidence ids.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace

from .config import QUESTION_MODES
from .errors import DatasetError, PenmanParseError
from .graph import AmrGraph, parse_penman
from .verdict import AVERITEC, FEVER, VerdictLabel, label_set

FEVER_LABEL_MAP = {
    "SUPPORTS": "S", "REFUTES": "R", "NOT ENOUGH INFO": "N",
    "S": "S", "R": "R", "N": "N",
}
AVERITEC_LABEL_MAP = {
    "Supported": "S", "Refuted": "R", "Not Enough Evidence": "N",
    "Conflicting Evidence/Cherrypicking": "C",
    "S": "S", "R": "R", "N": "N", "C": "C",
}
EVIDENCE_KINDS = ("sentence", "extractive", "abstractive", "boolean")

# Reference label distributions, used by --stats to flag divergence of a
# local copy; never asserted as a hard check.
REFERENCE_LABEL_COUNTS = {
    FEVER: {"S": 3281, "R": 3270, "N": 3284},
    AVERITEC: {"S": 649, "R": 1166, "N": 115, "C": 226},
}


@dataclass(frozen=True)
class EvidenceItem:
    evidence_id: str
    text: str
    kind: str = "sentence"
    question: str | None = None
    graph: AmrGraph | None = None


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    claim_text: str
    dataset: str
    gold_label: VerdictLabel
    evidence: tuple[EvidenceItem, ...] = ()
    claim_graph: AmrGraph | None = None

    def __post_init__(self):
        object.__setattr__(self, "evidence", tuple(self.evidence))
        if self.gold_label.dataset != self.dataset:
            raise DatasetError(
                f"claim {self.claim_id!r}: label dataset {self.gold_label.dataset!r} "
                f"does not match record dataset {self.dataset!r}")
        ids = [ev.evidence_id for ev in self.evidence]
        if len(ids) != len(set(ids)):
            raise DatasetError(f"claim {self.claim_id!r}: duplicate evidence ids")


def read_jsonl(path: str):
    """Yield ``(line number, object)`` for each non-blank line of *path*.
    An unreadable file, text that is not UTF-8, bad JSON and a value that
    is not an object are DatasetErrors naming ``path:line``."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror or exc}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: bad JSON: {exc}")
            if not isinstance(value, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object, "
                                   f"got {type(value).__name__}")
            yield lineno, value


def _load_records(path: str, parse_record) -> list[ClaimRecord]:
    """``parse_record(raw, lineno)`` for each line of *path*; a missing
    required key is a DatasetError naming ``path:line``."""
    records = []
    for lineno, raw in read_jsonl(path):
        try:
            records.append(parse_record(raw, lineno))
        except KeyError as exc:
            raise DatasetError(f"{path}:{lineno}: missing key {exc}")
    return records


def _map_label(raw: str, mapping: dict[str, str], dataset: str,
               claim_id: str) -> VerdictLabel:
    try:
        return VerdictLabel(mapping[raw], dataset)
    except KeyError:
        raise DatasetError(
            f"claim {claim_id!r}: unknown label {raw!r} for dataset {dataset!r}")


def _normalized_evidence(raw_items, claim_id: str, dataset: str) -> list[EvidenceItem]:
    items = []
    for i, raw in enumerate(raw_items):
        kind = raw.get("kind", "sentence")
        if kind not in EVIDENCE_KINDS:
            raise DatasetError(
                f"claim {claim_id!r}: unknown evidence kind {kind!r}")
        if dataset == FEVER and kind != "sentence":
            raise DatasetError(
                f"claim {claim_id!r}: 3-way evidence must have kind 'sentence'")
        items.append(EvidenceItem(
            evidence_id=str(raw.get("id", f"{claim_id}-e{i}")),
            text=raw["text"], kind=kind, question=raw.get("question")))
    return items


def load_fever(path: str) -> list[ClaimRecord]:
    """Load 3-way claims.  Every claim, N-labelled ones included, must
    carry at least one evidence sentence (the N-augmented release)."""
    def parse_record(raw, lineno):
        claim_id = str(raw.get("claim_id", lineno))
        label = _map_label(raw["label"], FEVER_LABEL_MAP, FEVER, claim_id)
        evidence = _normalized_evidence(raw.get("evidence", []), claim_id, FEVER)
        if not evidence:
            raise DatasetError(
                f"claim {claim_id!r} has no evidence; expected the release "
                "that provides evidence for N-labelled claims")
        return ClaimRecord(claim_id=claim_id, claim_text=raw["claim"],
                           dataset=FEVER, gold_label=label, evidence=evidence)

    return _load_records(path, parse_record)


def _averitec_items_from_questions(questions, claim_id: str) -> list[EvidenceItem]:
    items = []
    n = 0
    for q in questions:
        question = q.get("question", "")
        for a in q.get("answers", []):
            kind = str(a.get("answer_type", "")).lower()
            if kind not in ("boolean", "extractive", "abstractive"):
                raise DatasetError(
                    f"claim {claim_id!r}: unknown answer type {a.get('answer_type')!r}")
            items.append(EvidenceItem(evidence_id=f"{claim_id}-e{n}",
                                      text=a.get("answer", ""), kind=kind,
                                      question=question or None))
            n += 1
    return items


def load_averitec(path: str, question_mode: str = "answer-only") -> list[ClaimRecord]:
    """Load 4-way claims, dropping boolean answers.

    *question_mode* selects whether evidence text is the answer alone or
    the question prepended to it; either schema is read first, so the
    question is prepended once, and a prefixed item keeps no question of
    its own.
    """
    if question_mode not in QUESTION_MODES:
        raise DatasetError(f"unknown question mode {question_mode!r}")
    def parse_record(raw, lineno):
        claim_id = str(raw.get("claim_id", lineno))
        label = _map_label(raw["label"], AVERITEC_LABEL_MAP, AVERITEC, claim_id)
        if "questions" in raw:
            items = _averitec_items_from_questions(raw["questions"], claim_id)
        else:
            items = _normalized_evidence(raw.get("evidence", []), claim_id, AVERITEC)
        if question_mode == "question-plus-answer":
            items = [replace(ev, text=f"{ev.question} {ev.text}", question=None)
                     if ev.question else ev for ev in items]
        items = [ev for ev in items if ev.kind != "boolean"]
        return ClaimRecord(claim_id=claim_id, claim_text=raw["claim"],
                           dataset=AVERITEC, gold_label=label, evidence=items)

    return _load_records(path, parse_record)


def load_claims(path: str, dataset: str,
                question_mode: str = "answer-only") -> list[ClaimRecord]:
    if dataset == FEVER:
        return load_fever(path)
    if dataset == AVERITEC:
        return load_averitec(path, question_mode=question_mode)
    raise DatasetError(f"unknown dataset {dataset!r}")


def load_amr_bundle(path: str) -> dict[str, AmrGraph]:
    """Parse an ``{"id", "penman"}`` JSONL bundle into graphs, annotating
    parse failures with the offending id."""
    bundle: dict[str, AmrGraph] = {}
    for lineno, raw in read_jsonl(path):
        try:
            rid = str(raw["id"])
            text = raw["penman"]
        except KeyError as exc:
            raise DatasetError(f"{path}:{lineno}: missing key {exc}")
        if rid in bundle:
            raise DatasetError(f"{path}:{lineno}: duplicate bundle id {rid!r}")
        try:
            bundle[rid] = parse_penman(text)
        except PenmanParseError as exc:
            raise DatasetError(f"bundle id {rid!r}: {exc}")
    return bundle


def join_amrs(records: list[ClaimRecord], bundle: dict[str, AmrGraph],
              strict: bool = True) -> list[ClaimRecord]:
    """Attach parsed graphs to claims and evidence by id.

    In strict mode, every id must be covered; all missing ids are listed in
    one error.  In non-strict mode uncovered items keep a None graph.
    """
    missing: list[str] = []
    joined = []
    for record in records:
        claim_graph = bundle.get(record.claim_id)
        if claim_graph is None:
            missing.append(record.claim_id)
        evidence = []
        for ev in record.evidence:
            graph = bundle.get(ev.evidence_id)
            if graph is None:
                missing.append(ev.evidence_id)
            evidence.append(replace(ev, graph=graph))
        joined.append(replace(record, claim_graph=claim_graph,
                              evidence=tuple(evidence)))
    if strict and missing:
        raise DatasetError(f"AMR bundle is missing ids: {sorted(set(missing))}")
    return joined


def label_counts(records: list[ClaimRecord]) -> dict[str, int]:
    counts = Counter(r.gold_label.value for r in records)
    dataset = records[0].dataset if records else FEVER
    return {label: counts.get(label, 0) for label in label_set(dataset)}


def write_normalized(records: list[ClaimRecord], path: str) -> None:
    """Write *records* in the normalized schema, each evidence text as
    loaded and any question it still keeps apart."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps({
                    "claim_id": r.claim_id,
                    "claim": r.claim_text,
                    "label": r.gold_label.value,
                    "evidence": [
                        {"id": ev.evidence_id, "text": ev.text, "kind": ev.kind,
                         **({"question": ev.question} if ev.question else {})}
                        for ev in r.evidence
                    ],
                }) + "\n")
    except OSError as exc:
        raise DatasetError(f"cannot write {path}: {exc.strerror or exc}")
