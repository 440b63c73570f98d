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
from collections.abc import Iterable, Iterator
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


class _WrongType(DatasetError):
    """A JSON field of the wrong type; ``_records`` places it at path:line."""


_JSON_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, field: str, optional: bool = False):
    """*value* if it is a *kind* (or None when *optional*), else _WrongType."""
    if isinstance(value, kind) or (optional and value is None):
        return value
    raise _WrongType(f"{field} must be {_JSON_TYPE_NAMES[kind]}, "
                     f"got {type(value).__name__}")


def _records(path: str, parse_record) -> Iterator[ClaimRecord]:
    """``parse_record(raw, lineno)`` for each line of *path*, read as they
    are consumed; a missing required key or a wrong-typed field is a
    DatasetError naming ``path:line``."""
    for lineno, raw in read_jsonl(path):
        try:
            yield parse_record(raw, lineno)
        except KeyError as exc:
            raise DatasetError(f"{path}:{lineno}: missing key {exc}")
        except _WrongType as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")


def _map_label(raw: str, mapping: dict[str, str], dataset: str,
               claim_id: str) -> VerdictLabel:
    try:
        return VerdictLabel(mapping[_typed(raw, str, "label")], dataset)
    except KeyError:
        raise DatasetError(
            f"claim {claim_id!r}: unknown label {raw!r} for dataset {dataset!r}")


def _normalized_evidence(raw_items, claim_id: str, dataset: str) -> list[EvidenceItem]:
    items = []
    for i, raw in enumerate(_typed(raw_items, list, "evidence")):
        _typed(raw, dict, "evidence item")
        kind = raw.get("kind", "sentence")
        if kind not in EVIDENCE_KINDS:
            raise DatasetError(
                f"claim {claim_id!r}: unknown evidence kind {kind!r}")
        if dataset == FEVER and kind != "sentence":
            raise DatasetError(
                f"claim {claim_id!r}: 3-way evidence must have kind 'sentence'")
        items.append(EvidenceItem(
            evidence_id=str(raw.get("id", f"{claim_id}-e{i}")),
            text=_typed(raw["text"], str, "evidence text"), kind=kind,
            question=_typed(raw.get("question"), str, "evidence question",
                            optional=True)))
    return items


def _fever_record(raw, lineno) -> ClaimRecord:
    """A 3-way claim.  Every claim, N-labelled ones included, must carry at
    least one evidence sentence (the N-augmented release)."""
    claim_id = str(raw.get("claim_id", lineno))
    label = _map_label(raw["label"], FEVER_LABEL_MAP, FEVER, claim_id)
    evidence = _normalized_evidence(raw.get("evidence", []), claim_id, FEVER)
    if not evidence:
        raise DatasetError(
            f"claim {claim_id!r} has no evidence; expected the release "
            "that provides evidence for N-labelled claims")
    return ClaimRecord(claim_id=claim_id, claim_text=_typed(raw["claim"], str, "claim"),
                       dataset=FEVER, gold_label=label, evidence=evidence)


def load_fever(path: str) -> list[ClaimRecord]:
    """Load 3-way claims."""
    return load_claims(path, FEVER)


def _averitec_items_from_questions(questions, claim_id: str) -> list[EvidenceItem]:
    items = []
    n = 0
    for q in _typed(questions, list, "questions"):
        question = _typed(_typed(q, dict, "question item").get("question", ""),
                          str, "question")
        for a in _typed(q.get("answers", []), list, "answers"):
            kind = str(_typed(a, dict, "answer item").get("answer_type", "")).lower()
            if kind not in ("boolean", "extractive", "abstractive"):
                raise DatasetError(
                    f"claim {claim_id!r}: unknown answer type {a.get('answer_type')!r}")
            items.append(EvidenceItem(evidence_id=f"{claim_id}-e{n}",
                                      text=_typed(a.get("answer", ""), str, "answer"),
                                      kind=kind, question=question or None))
            n += 1
    return items


def _averitec_record(question_mode: str):
    """The parser of 4-way claims in *question_mode*: either schema is read
    first, so the question is prepended once, and a prefixed item keeps no
    question of its own.  Boolean answers are dropped."""
    if question_mode not in QUESTION_MODES:
        raise DatasetError(f"unknown question mode {question_mode!r}")

    def parse_record(raw, lineno) -> ClaimRecord:
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
        return ClaimRecord(claim_id=claim_id,
                           claim_text=_typed(raw["claim"], str, "claim"),
                           dataset=AVERITEC, gold_label=label, evidence=items)

    return parse_record


def load_averitec(path: str, question_mode: str = "answer-only") -> list[ClaimRecord]:
    """Load 4-way claims; *question_mode* selects whether evidence text is
    the answer alone or the question prepended to it."""
    return load_claims(path, AVERITEC, question_mode)


def iter_claims(path: str, dataset: str,
                question_mode: str = "answer-only") -> Iterator[ClaimRecord]:
    """The claims of *path*, parsed one line at a time as they are consumed."""
    if dataset == FEVER:
        return _records(path, _fever_record)
    if dataset == AVERITEC:
        return _records(path, _averitec_record(question_mode))
    raise DatasetError(f"unknown dataset {dataset!r}")


def load_claims(path: str, dataset: str,
                question_mode: str = "answer-only") -> list[ClaimRecord]:
    return list(iter_claims(path, dataset, question_mode))


def load_amr_bundle(path: str, ids: Iterable[str] | None = None) -> dict[str, AmrGraph]:
    """Parse an ``{"id", "penman"}`` JSONL bundle into graphs, annotating
    parse failures with the offending id.  With *ids*, only those rows'
    graphs are parsed; every row's id and type are still checked."""
    wanted = None if ids is None else set(ids)
    seen: set[str] = set()
    bundle: dict[str, AmrGraph] = {}
    for lineno, raw in read_jsonl(path):
        try:
            rid = str(raw["id"])
            text = _typed(raw["penman"], str, "penman")
        except KeyError as exc:
            raise DatasetError(f"{path}:{lineno}: missing key {exc}")
        except _WrongType as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")
        if rid in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate bundle id {rid!r}")
        seen.add(rid)
        if wanted is not None and rid not in wanted:
            continue
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
