"""Dataset loading into the uniform claim/evidence model and its labels.

Both datasets are consumed in a normalized line-delimited form:

    { "claim_id": str, "claim": str, "label": str,
      "evidence": [ { "id": str, "text": str, "kind": str,
                      "question": str? } ] }

The 4-way loader additionally accepts the official QA-structured release
(records carrying a ``questions`` list of question/answers pairs with
answer types) and converts it on the fly.  A claim record keeps no boolean
evidence, so none reaches the scoring pipeline.  AMR graphs arrive separately
in a bundle file of ``{"id": ..., "penman": ...}`` lines keyed by claim and
evidence ids.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

from .config import QUESTION_MODES
from .errors import ConfigError, DatasetError, GraphError, PenmanParseError
from .graph import AmrGraph, parse_penman

FEVER = "fever"
AVERITEC = "averitec"

FEVER_LABELS = ("S", "R", "N")
AVERITEC_LABELS = ("S", "R", "N", "C")


@dataclass(frozen=True)
class VerdictLabel:
    value: str
    dataset: str

    def __post_init__(self):
        allowed = label_set(self.dataset)
        if self.value not in allowed:
            raise ConfigError(
                f"label {self.value!r} not valid for dataset {self.dataset!r} "
                f"(allowed: {allowed})")


def label_set(dataset: str) -> tuple[str, ...]:
    if dataset == FEVER:
        return FEVER_LABELS
    if dataset == AVERITEC:
        return AVERITEC_LABELS
    raise ConfigError(f"unknown dataset {dataset!r}")


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
    """A claim and its evidence; boolean evidence is dropped on construction."""

    claim_id: str
    claim_text: str
    dataset: str
    gold_label: VerdictLabel
    evidence: tuple[EvidenceItem, ...] = ()
    claim_graph: AmrGraph | None = None

    def __post_init__(self):
        object.__setattr__(self, "evidence",
                           tuple(ev for ev in self.evidence if ev.kind != "boolean"))
        if self.gold_label.dataset != self.dataset:
            raise DatasetError(
                f"claim {self.claim_id!r}: label dataset {self.gold_label.dataset!r} "
                f"does not match record dataset {self.dataset!r}")
        ids = [ev.evidence_id for ev in self.evidence]
        if len(ids) != len(set(ids)):
            raise DatasetError(f"claim {self.claim_id!r}: duplicate evidence ids")


def read_jsonl(path: str):
    """Yield ``(line number, object)`` for each non-blank line of *path*.
    An unreadable file, text that is not UTF-8, bad JSON (nested too deep
    for the decoder included) and a value that is not an object are
    DatasetErrors naming ``path:line``."""
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
            except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
                raise DatasetError(f"{path}:{lineno}: bad JSON: {exc}")
            if not isinstance(value, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object, "
                                   f"got {type(value).__name__}")
            yield lineno, value


_JSON_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _text(value: str, field: str) -> str:
    """*value*, unless it holds a lone surrogate: JSON allows an escape
    such as ``"\\ud800"``, but no stage after loading can encode one."""
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetError(f"{field} holds a lone surrogate") from None
    return value


def _typed(value, kind: type, field: str, optional: bool = False):
    """*value* if it is a *kind* (or None when *optional*), else DatasetError."""
    if isinstance(value, kind) or (optional and value is None):
        return _text(value, field) if isinstance(value, str) else value
    raise DatasetError(f"{field} must be {_JSON_TYPE_NAMES[kind]}, "
                       f"got {type(value).__name__}")


def _id(value, field: str) -> str:
    """An id given as a JSON string or integer, as a string; any other JSON
    value (a bool, float, list, object or null) is a DatasetError."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return _text(str(value), field)
    raise DatasetError(f"{field} must be a string or an integer, "
                       f"got {type(value).__name__}")


def read_records(path: str, parse_record, id_key: str,
                 id_field: str) -> Iterator[tuple[int, str, object]]:
    """``(lineno, id, value)`` for each line of *path*, read as they are
    consumed, where ``parse_record(raw, lineno)`` gives the record's id and
    value: its *id_key* (its *id_field* in messages) or, where the parser
    allows the key to be missing, its line number.  A missing required key,
    any DatasetError of the parser (a malformed field or a record it
    rejects) and an id that an earlier line holds name ``path:line``; a
    repeated id also names its first line, and a line that took its number
    as id."""
    first: dict[str, tuple[int, bool]] = {}  # id -> its line, and if numbered
    for lineno, raw in read_jsonl(path):
        try:
            rid, value = parse_record(raw, lineno)
        except KeyError as exc:
            raise DatasetError(f"{path}:{lineno}: missing key {exc}")
        except DatasetError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")
        numbered = id_key not in raw
        line, line_numbered = first.setdefault(rid, (lineno, numbered))
        if line != lineno:
            took = line if line_numbered else lineno if numbered else None
            raise DatasetError(
                f"{path}:{lineno}: duplicate {id_field} {rid!r} (first at line {line})"
                + (f"; line {took} has no {id_key} and took its line number as id"
                   if took else ""))
        yield lineno, rid, value


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
            evidence_id=_id(raw.get("id", f"{claim_id}-e{i}"), "evidence id"),
            text=_typed(raw["text"], str, "evidence text"), kind=kind,
            question=_typed(raw.get("question"), str, "evidence question",
                            optional=True)))
    return items


def _fever_record(raw, lineno) -> tuple[str, ClaimRecord]:
    """A 3-way claim.  Every claim, N-labelled ones included, must carry at
    least one evidence sentence (the N-augmented release)."""
    claim_id = _id(raw.get("claim_id", lineno), "claim_id")
    label = _map_label(raw["label"], FEVER_LABEL_MAP, FEVER, claim_id)
    evidence = _normalized_evidence(raw.get("evidence", []), claim_id, FEVER)
    if not evidence:
        raise DatasetError(
            f"claim {claim_id!r} has no evidence; expected the release "
            "that provides evidence for N-labelled claims")
    return claim_id, ClaimRecord(claim_id=claim_id,
                                 claim_text=_typed(raw["claim"], str, "claim"),
                                 dataset=FEVER, gold_label=label, evidence=evidence)


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
    question of its own."""
    if question_mode not in QUESTION_MODES:
        raise DatasetError(f"unknown question mode {question_mode!r}")

    def parse_record(raw, lineno) -> tuple[str, ClaimRecord]:
        claim_id = _id(raw.get("claim_id", lineno), "claim_id")
        label = _map_label(raw["label"], AVERITEC_LABEL_MAP, AVERITEC, claim_id)
        if "questions" in raw:
            items = _averitec_items_from_questions(raw["questions"], claim_id)
        else:
            items = _normalized_evidence(raw.get("evidence", []), claim_id, AVERITEC)
        if question_mode == "question-plus-answer":
            items = [replace(ev, text=f"{ev.question} {ev.text}", question=None)
                     if ev.question else ev for ev in items]
        return claim_id, ClaimRecord(claim_id=claim_id,
                                     claim_text=_typed(raw["claim"], str, "claim"),
                                     dataset=AVERITEC, gold_label=label, evidence=items)

    return parse_record


def iter_claims(path: str, dataset: str,
                question_mode: str = "answer-only") -> Iterator[ClaimRecord]:
    """The claims of *path*, parsed one line at a time as they are consumed."""
    if dataset not in (FEVER, AVERITEC):
        raise DatasetError(f"unknown dataset {dataset!r}")
    parse = _fever_record if dataset == FEVER else _averitec_record(question_mode)
    return (record for _, _, record in read_records(path, parse, "claim_id", "claim id"))


def load_claims(path: str, dataset: str,
                question_mode: str = "answer-only") -> list[ClaimRecord]:
    return list(iter_claims(path, dataset, question_mode))


def load_amr_bundle(path: str, ids: Iterable[str] | None = None) -> dict[str, AmrGraph]:
    """Parse an ``{"id", "penman"}`` JSONL bundle into graphs, annotating
    parse failures and invalid graphs with the offending id and line.
    Each distinct Penman text is parsed once, and every row holding it gets
    the same (immutable) graph object.  With *ids*, only those rows' graphs
    are parsed; every row's id and type are still checked."""
    wanted = None if ids is None else set(ids)
    bundle: dict[str, AmrGraph] = {}
    parsed: dict[str, AmrGraph] = {}  # Penman text -> its graph
    rows = read_records(path, lambda raw, lineno: (
        _id(raw["id"], "bundle id"), _typed(raw["penman"], str, "penman")), "id", "bundle id")
    for lineno, rid, text in rows:
        if wanted is not None and rid not in wanted:
            continue
        graph = parsed.get(text)
        if graph is None:
            try:
                graph = parsed[text] = parse_penman(text)
            except (PenmanParseError, GraphError) as exc:
                raise DatasetError(f"bundle id {rid!r}: {exc} ({path}:{lineno})")
        bundle[rid] = graph
    return bundle


def join_amrs(records: list[ClaimRecord], bundle: dict[str, AmrGraph],
              strict: bool = True) -> list[ClaimRecord]:
    """Attach parsed graphs to claims and evidence by id.

    In strict mode, every id must be covered; all missing ids are listed in
    one error (:func:`require_graphs`).  In non-strict mode
    uncovered items keep a None graph.
    """
    joined = [replace(record, claim_graph=bundle.get(record.claim_id),
                      evidence=[replace(ev, graph=bundle.get(ev.evidence_id))
                                for ev in record.evidence])
              for record in records]
    if strict:
        require_graphs(joined)
    return joined


def require_graphs(records) -> None:
    """One DatasetError naming every claim and evidence id of *records*
    that has no AMR graph, if any."""
    missing = {r.claim_id for r in records if r.claim_graph is None}
    missing.update(ev.evidence_id for r in records for ev in r.evidence
                   if ev.graph is None)
    if missing:
        raise DatasetError(f"AMR bundle is missing ids: {sorted(missing)}")


def label_counts(records: list[ClaimRecord], dataset: str) -> dict[str, int]:
    counts = Counter(r.gold_label.value for r in records)
    return {label: counts.get(label, 0) for label in label_set(dataset)}


def normalized_jsonl(records: list[ClaimRecord]) -> str:
    """*records* in the normalized schema, one JSON line each, each evidence
    text as loaded and any question it still keeps apart."""
    return "".join(json.dumps({
        "claim_id": r.claim_id,
        "claim": r.claim_text,
        "label": r.gold_label.value,
        "evidence": [
            {"id": ev.evidence_id, "text": ev.text, "kind": ev.kind,
             **({"question": ev.question} if ev.question else {})}
            for ev in r.evidence
        ],
    }) + "\n" for r in records)
