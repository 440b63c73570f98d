import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import DatasetError
from amrex.ingest import (REFERENCE_LABEL_COUNTS, join_amrs, label_counts,
                          load_amr_bundle, load_averitec, load_claims,
                          load_fever, write_normalized)
from amrex.verdict import AVERITEC, FEVER

from _fixtures import ALL_PENMAN, MARNIE_CLAIM, MARNIE_EVIDENCE


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
    records = load_fever(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()))
    assert [r.claim_id for r in records] == ["c1", "c2", "c3"]
    assert len(records[0].evidence) == 2
    assert [r.gold_label.value for r in records] == ["S", "N", "R"]
    assert all(ev.kind == "sentence" for r in records for ev in r.evidence)


def test_load_fever_rejects_unknown_label(tmp_path):
    rows = [{"claim_id": "c1", "claim": "x", "label": "MAYBE",
             "evidence": [{"id": "e1", "text": "t"}]}]
    with pytest.raises(DatasetError) as exc:
        load_fever(_write_jsonl(tmp_path / "claims.jsonl", rows))
    assert "MAYBE" in str(exc.value)


def test_load_fever_rejects_evidence_free_claim(tmp_path):
    rows = [{"claim_id": "c9", "claim": "x", "label": "NOT ENOUGH INFO",
             "evidence": []}]
    with pytest.raises(DatasetError) as exc:
        load_fever(_write_jsonl(tmp_path / "claims.jsonl", rows))
    assert "c9" in str(exc.value)


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
    records = load_averitec(_write_jsonl(tmp_path / "av.jsonl", rows))
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
    records = load_averitec(path, question_mode="question-plus-answer")
    assert records[0].evidence[0].text == "When? in 2017"
    with pytest.raises(DatasetError):
        load_averitec(path, question_mode="bogus")


def test_question_plus_answer_records_round_trip_without_a_second_prefix(tmp_path):
    rows = [{
        "claim_id": "c-marnie", "claim": "Marnie is a film.", "label": "Supported",
        "questions": [{"question": "What is Marnie?", "answers": [
            {"answer": "a 1964 film", "answer_type": "Abstractive"}]}],
    }]
    path = _write_jsonl(tmp_path / "av.jsonl", rows)
    records = load_averitec(path, question_mode="question-plus-answer")
    out = str(tmp_path / "normalized.jsonl")
    write_normalized(records, out)
    reloaded = load_averitec(out, question_mode="question-plus-answer")
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
    records = load_averitec(_write_jsonl(tmp_path / "av.jsonl", rows))
    assert records[0].gold_label.value == "C"
    assert [ev.evidence_id for ev in records[0].evidence] == ["e1"]


def test_load_is_pure_per_file_content(tmp_path):
    path = _write_jsonl(tmp_path / "claims.jsonl", _fever_rows())
    a = load_claims(path, FEVER)
    b = load_claims(path, FEVER)
    assert a == b


def test_label_counts_and_reference_table(tmp_path):
    records = load_fever(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()))
    assert label_counts(records) == {"S": 1, "R": 1, "N": 1}
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


def test_join_amrs_strict_lists_missing_ids(tmp_path):
    records = load_fever(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()))
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
    records = load_fever(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()))
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
    records = load_fever(_write_jsonl(tmp_path / "claims.jsonl", _fever_rows()))
    out = tmp_path / "normalized.jsonl"
    write_normalized(records, str(out))
    again = load_fever(str(out))
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

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def _field_paths(value, prefix=()):
    """The path of every field and list item nested in *value*."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def test_valid_rows_load():
    with tempfile.TemporaryDirectory() as tmp:
        for kind, row in _VALID_ROWS.items():
            _LOADERS[kind](_write_jsonl(Path(tmp) / f"{kind}.jsonl", [row]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_VALID_ROWS)), st.data())
def test_any_json_value_in_a_field_loads_or_is_a_dataset_error(kind, data):
    row = copy.deepcopy(_VALID_ROWS[kind])
    *parents, last = data.draw(st.sampled_from(list(_field_paths(row))))
    container = row
    for key in parents:
        container = container[key]
    container[last] = data.draw(_JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_jsonl(Path(tmp) / "rows.jsonl", [row])
        try:
            _LOADERS[kind](path)
        except DatasetError:
            pass
