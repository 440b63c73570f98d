import copy
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import DatasetError
from amrex.graph import parse_penman
from amrex.ingest import (REFERENCE_LABEL_COUNTS, iter_claims, join_amrs,
                          label_counts, load_amr_bundle, load_claims,
                          normalized_jsonl)
from amrex.verdict import AVERITEC, FEVER

from _fixtures import (ALL_PENMAN, JSON_VALUES, MARNIE_CLAIM, MARNIE_EVIDENCE,
                       field_paths)


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _fever_rows():
    return [
        {"claim_id": "c1", "claim": "first claim", "label": "SUPPORTS",
         "evidence": [{"id": "e1", "text": "first evidence"},
                      {"id": "e2", "text": "second evidence"}]},
        {"claim_id": "c2", "claim": "second claim", "label": "NOT ENOUGH INFO",
         "evidence": [{"id": "e3", "text": "third evidence"}]},
        {"claim_id": "c3", "claim": "third claim", "label": "R",
         "evidence": [{"id": "e4", "text": "fourth evidence"}]},
    ]


def test_load_fever_schema_passthrough(tmp_path):
    records = load_claims(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()), FEVER)
    assert [r.claim_id for r in records] == ["c1", "c2", "c3"]
    assert len(records[0].evidence) == 2
    assert [r.gold_label.value for r in records] == ["S", "N", "R"]
    assert all(ev.kind == "sentence" for r in records for ev in r.evidence)
    # Blank lines are skipped.
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n" + "  \n".join(json.dumps(r) + "\n" for r in _fever_rows()))
    assert load_claims(str(padded), FEVER) == records


def test_load_fever_rejects_unknown_label(tmp_path):
    rows = [{"claim_id": "c1", "claim": "x", "label": "MAYBE",
             "evidence": [{"id": "e1", "text": "t"}]}]
    with pytest.raises(DatasetError) as exc:
        load_claims(_write_jsonl(tmp_path / "claims.jsonl", rows), FEVER)
    assert "MAYBE" in str(exc.value)


def test_an_unknown_dataset_is_a_dataset_error(tmp_path):
    path = _write_jsonl(tmp_path / "claims.jsonl", _fever_rows())
    with pytest.raises(DatasetError, match="unknown dataset 'x'"):
        iter_claims(path, "x")


def test_load_fever_rejects_evidence_free_claim(tmp_path):
    rows = [{"claim_id": "c9", "claim": "x", "label": "NOT ENOUGH INFO",
             "evidence": []}]
    with pytest.raises(DatasetError) as exc:
        load_claims(_write_jsonl(tmp_path / "claims.jsonl", rows), FEVER)
    assert "c9" in str(exc.value)


@pytest.mark.parametrize("evidence, message", [
    ([{"id": "e1", "text": "t"}, {"id": "e1", "text": "u"}],
     "claim 'c1': duplicate evidence ids"),
    ([{"id": "e1", "text": "t", "kind": "extractive"}],
     "claim 'c1': 3-way evidence must have kind 'sentence'"),
], ids=["duplicate-evidence-ids", "kind-not-sentence"])
def test_load_fever_rejects_malformed_evidence(tmp_path, evidence, message):
    rows = [{"claim_id": "c1", "claim": "x", "label": "S", "evidence": evidence}]
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_claims(_write_jsonl(tmp_path / "claims.jsonl", rows), FEVER)


def test_load_averitec_drops_boolean_answers(tmp_path):
    rows = [{
        "claim_id": "a1", "claim": "some claim", "label": "Supported",
        "questions": [
            {"question": "When?", "answers": [
                {"answer": "in 2017", "answer_type": "Extractive"},
                {"answer": "Yes", "answer_type": "Boolean"},
            ]},
            {"question": "Who?", "answers": [
                {"answer": "a studio did it", "answer_type": "Abstractive"},
            ]},
        ],
    }]
    records = load_claims(_write_jsonl(tmp_path / "av.jsonl", rows), AVERITEC)
    assert len(records) == 1
    assert [ev.kind for ev in records[0].evidence] == ["extractive", "abstractive"]
    assert records[0].evidence[0].text == "in 2017"
    assert records[0].gold_label.value == "S"


def test_load_averitec_question_plus_answer_mode(tmp_path):
    rows = [{
        "claim_id": "a1", "claim": "some claim", "label": "Refuted",
        "questions": [{"question": "When?", "answers": [
            {"answer": "in 2017", "answer_type": "Extractive"}]}],
    }]
    path = _write_jsonl(tmp_path / "av.jsonl", rows)
    records = load_claims(path, AVERITEC, "question-plus-answer")
    assert records[0].evidence[0].text == "When? in 2017"
    with pytest.raises(DatasetError):
        load_claims(path, AVERITEC, "bogus")


def test_question_plus_answer_records_round_trip_without_a_second_prefix(tmp_path):
    rows = [{
        "claim_id": "c-marnie", "claim": "Marnie is a film.", "label": "Supported",
        "questions": [{"question": "What is Marnie?", "answers": [
            {"answer": "a 1964 film", "answer_type": "Abstractive"}]}],
    }]
    path = _write_jsonl(tmp_path / "av.jsonl", rows)
    records = load_claims(path, AVERITEC, "question-plus-answer")
    out = tmp_path / "normalized.jsonl"
    out.write_text(normalized_jsonl(records))
    reloaded = load_claims(str(out), AVERITEC, "question-plus-answer")
    assert reloaded[0].evidence[0].text == "What is Marnie? a 1964 film"
    assert reloaded == records


def test_load_averitec_normalized_schema(tmp_path):
    rows = [{
        "claim_id": "a2", "claim": "c", "label": "Conflicting Evidence/Cherrypicking",
        "evidence": [
            {"id": "e1", "text": "t1", "kind": "extractive", "question": "Q?"},
            {"id": "e2", "text": "yes", "kind": "boolean"},
        ],
    }]
    records = load_claims(_write_jsonl(tmp_path / "av.jsonl", rows), AVERITEC)
    assert records[0].gold_label.value == "C"
    assert [ev.evidence_id for ev in records[0].evidence] == ["e1"]


def test_load_is_pure_per_file_content(tmp_path):
    path = _write_jsonl(tmp_path / "claims.jsonl", _fever_rows())
    a = load_claims(path, FEVER)
    b = load_claims(path, FEVER)
    assert a == b


def test_label_counts_and_reference_table(tmp_path):
    records = load_claims(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()), FEVER)
    assert label_counts(records, FEVER) == {"S": 1, "R": 1, "N": 1}
    assert REFERENCE_LABEL_COUNTS[FEVER] == {"S": 3281, "R": 3270, "N": 3284}
    assert sum(REFERENCE_LABEL_COUNTS[FEVER].values()) == 9835
    assert REFERENCE_LABEL_COUNTS[AVERITEC] == {"S": 649, "R": 1166, "N": 115, "C": 226}
    assert sum(REFERENCE_LABEL_COUNTS[AVERITEC].values()) == 2156


def test_amr_bundle_round_trip(tmp_path):
    rows = [{"id": name, "penman": text} for name, text in ALL_PENMAN.items()]
    bundle = load_amr_bundle(_write_jsonl(tmp_path / "amrs.jsonl", rows))
    assert len(bundle) == 6
    assert bundle["marnie-claim"].root == "a0"


def test_amr_bundle_parse_error_names_id(tmp_path):
    rows = [{"id": "bad-one", "penman": "(x/a :mod"}]
    with pytest.raises(DatasetError) as exc:
        load_amr_bundle(_write_jsonl(tmp_path / "amrs.jsonl", rows))
    assert "bad-one" in str(exc.value)


def test_amr_bundle_graph_error_names_id_and_line(tmp_path):
    # Parses, but the re-entrancy closes a cycle: a GraphError, not a
    # PenmanParseError.
    rows = [{"id": "ok", "penman": "(x/a)"},
            {"id": "c1", "penman": "(a / x :mod (b / y :mod a))"}]
    path = _write_jsonl(tmp_path / "amrs.jsonl", rows)
    with pytest.raises(DatasetError) as exc:
        load_amr_bundle(path)
    assert str(exc.value) == f"bundle id 'c1': edge cycle through 'a' ({path}:2)"


def _counting_parser(monkeypatch):
    """Texts passed to the bundle loader's parser, in call order."""
    texts = []

    def parse(text):
        texts.append(text)
        return parse_penman(text)

    monkeypatch.setattr("amrex.ingest.parse_penman", parse)
    return texts


def test_amr_bundle_parses_each_distinct_text_once(tmp_path, monkeypatch):
    parsed = _counting_parser(monkeypatch)
    rows = [{"id": "c1", "penman": MARNIE_CLAIM}, {"id": "e1", "penman": MARNIE_EVIDENCE},
            {"id": "c2", "penman": MARNIE_CLAIM}, {"id": 7, "penman": MARNIE_CLAIM}]
    bundle = load_amr_bundle(_write_jsonl(tmp_path / "amrs.jsonl", rows))
    assert parsed == [MARNIE_CLAIM, MARNIE_EVIDENCE]
    assert bundle["c1"] is bundle["c2"] is bundle["7"]
    assert bundle["e1"] is not bundle["c1"]
    assert list(bundle) == ["c1", "e1", "c2", "7"]


def test_amr_bundle_repeated_bad_text_names_the_first_row(tmp_path):
    rows = [{"id": "ok", "penman": "(x/a)"}, {"id": "bad-1", "penman": "(x/a :mod"},
            {"id": "bad-2", "penman": "(x/a :mod"}]
    path = _write_jsonl(tmp_path / "amrs.jsonl", rows)
    with pytest.raises(DatasetError, match=r"^bundle id 'bad-1': .*\(" + re.escape(path)
                       + r":2\)$"):
        load_amr_bundle(path)


def test_amr_bundle_ids_parse_only_the_wanted_rows(tmp_path, monkeypatch):
    parsed = _counting_parser(monkeypatch)
    rows = [{"id": "c1", "penman": MARNIE_CLAIM}, {"id": "bad", "penman": "(x/a :mod"},
            {"id": "e1", "penman": MARNIE_EVIDENCE}, {"id": "c2", "penman": MARNIE_CLAIM}]
    path = _write_jsonl(tmp_path / "amrs.jsonl", rows)
    bundle = load_amr_bundle(path, ids=["c2", "e1"])
    assert parsed == [MARNIE_EVIDENCE, MARNIE_CLAIM]
    assert list(bundle) == ["e1", "c2"]


def test_join_amrs_strict_lists_missing_ids(tmp_path):
    records = load_claims(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()), FEVER)
    bundle_rows = [{"id": rid, "penman": MARNIE_CLAIM if rid.startswith("c") else MARNIE_EVIDENCE}
                   for rid in ["c1", "c2", "c3", "e1", "e2", "e3"]]
    bundle = load_amr_bundle(_write_jsonl(tmp_path / "amrs.jsonl", bundle_rows))
    with pytest.raises(DatasetError) as exc:
        join_amrs(records, bundle, strict=True)
    assert "e4" in str(exc.value)
    joined = join_amrs(records, bundle, strict=False)
    assert joined[0].claim_graph is not None
    assert joined[2].evidence[0].graph is None


def test_join_amrs_complete_coverage(tmp_path):
    records = load_claims(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()), FEVER)
    ids = ["c1", "c2", "c3", "e1", "e2", "e3", "e4"]
    bundle_rows = [{"id": rid, "penman": MARNIE_CLAIM} for rid in ids]
    bundle = load_amr_bundle(_write_jsonl(tmp_path / "amrs.jsonl", bundle_rows))
    joined = join_amrs(records, bundle, strict=True)
    assert all(r.claim_graph is not None for r in joined)
    assert all(ev.graph is not None for r in joined for ev in r.evidence)
    # Filtering and joining never touch gold labels or order.
    assert [r.gold_label for r in joined] == [r.gold_label for r in records]
    assert [r.claim_id for r in joined] == [r.claim_id for r in records]


def test_write_normalized_round_trips(tmp_path):
    records = load_claims(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()), FEVER)
    out = tmp_path / "normalized.jsonl"
    out.write_text(normalized_jsonl(records))
    again = load_claims(str(out), FEVER)
    assert again == records


_VALID_ROWS = {
    "fever": {"claim_id": "c1", "claim": "x", "label": "S",
              "evidence": [{"id": "e1", "text": "t", "kind": "sentence",
                            "question": "Q?"}]},
    "averitec-normalized": {"claim_id": "a1", "claim": "x", "label": "S",
                            "evidence": [{"id": "e1", "text": "t",
                                          "kind": "extractive", "question": "Q?"}]},
    "averitec-questions": {"claim_id": "a2", "claim": "x", "label": "S",
                           "questions": [{"question": "Q?", "answers": [
                               {"answer": "a", "answer_type": "Extractive"}]}]},
    "bundle": {"id": "c1", "penman": "(x/hello)"},
}
_LOADERS = {
    "fever": lambda path: load_claims(path, FEVER),
    "averitec-normalized": lambda path: (
        load_claims(path, AVERITEC),
        load_claims(path, AVERITEC, question_mode="question-plus-answer")),
    "bundle": load_amr_bundle,
}
_LOADERS["averitec-questions"] = _LOADERS["averitec-normalized"]


def test_valid_rows_load():
    with tempfile.TemporaryDirectory() as tmp:
        for kind, row in _VALID_ROWS.items():
            _LOADERS[kind](_write_jsonl(Path(tmp) / f"{kind}.jsonl", [row]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_VALID_ROWS)), st.data())
def test_any_json_value_in_a_field_loads_or_is_a_dataset_error(kind, data):
    row = copy.deepcopy(_VALID_ROWS[kind])
    *parents, last = data.draw(st.sampled_from(list(field_paths(row))))
    container = row
    for key in parents:
        container = container[key]
    container[last] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_jsonl(Path(tmp) / "rows.jsonl", [row])
        try:
            _LOADERS[kind](path)
        except DatasetError:
            pass


_ID_FIELDS = {"fever": [("claim_id",), ("evidence", 0, "id")],
              "averitec-normalized": [("claim_id",), ("evidence", 0, "id")],
              "averitec-questions": [("claim_id",)],
              "bundle": [("id",)]}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_ID_FIELDS)), st.data())
def test_an_id_is_a_string_or_an_integer(kind, data):
    """An id loads as its string only when it is a JSON string or integer;
    any other JSON value is a DatasetError naming path:line."""
    row = copy.deepcopy(_VALID_ROWS[kind])
    *parents, last = data.draw(st.sampled_from(_ID_FIELDS[kind]))
    container = row
    for key in parents:
        container = container[key]
    value = container[last] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_jsonl(Path(tmp) / "rows.jsonl", [row])
        if isinstance(value, str) or type(value) is int:
            loaded = _LOADERS[kind](path)
            if kind == "bundle":
                assert list(loaded) == [str(value)]
            else:
                record = loaded[0][0] if isinstance(loaded, tuple) else loaded[0]
                ids = ([record.claim_id] if last == "claim_id"
                       else [ev.evidence_id for ev in record.evidence])
                assert ids == [str(value)]
        else:
            with pytest.raises(DatasetError, match=re.escape(f"{path}:1: ")
                               + ".*id must be a string or an integer"):
                _LOADERS[kind](path)
