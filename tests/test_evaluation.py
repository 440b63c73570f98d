import itertools
import math
import random
from dataclasses import replace

import pytest

from amrex.errors import ConfigError, DatasetError
from amrex.evaluation import (lambda_sweep, precompute_pair_components,
                              predictions_at_lambda, report_markdown,
                              score_predictions, sweep_range)
from amrex.graph import parse_penman
from amrex.ingest import ClaimRecord, EvidenceItem
from amrex.similarity import DeterministicTestBackend
from amrex.entailment import ENTAILMENT_THRESHOLD, combined_score
from amrex.smatch import AlignConfig, SmatchResult, VariableMapping
from amrex.verdict import (FEVER, AVERITEC, PairComponents, VerdictLabel, verdict_at,
                           verify_claim)

from _fixtures import (MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM,
                       RABIES_EVIDENCE, WISH_CLAIM, WISH_EVIDENCE)


def _labels(dataset, values):
    return [VerdictLabel(v, dataset) for v in values]


def test_metrics_reference_case():
    gold = _labels(FEVER, ["S", "S", "R", "N"])
    pred = _labels(FEVER, ["S", "R", "R", "N"])
    report = score_predictions(gold, pred)
    assert math.isclose(report.accuracy, 0.75, abs_tol=1e-12)
    # S: precision 1, recall 1/2 -> 2/3; R: precision 1/2, recall 1 -> 2/3;
    # N: perfect -> 1.  Macro = (2/3 + 2/3 + 1) / 3 = 7/9.
    assert math.isclose(report.per_label_f1["S"], 2 / 3, abs_tol=1e-12)
    assert math.isclose(report.per_label_f1["R"], 2 / 3, abs_tol=1e-12)
    assert math.isclose(report.per_label_f1["N"], 1.0, abs_tol=1e-12)
    assert math.isclose(report.macro_f1, 7 / 9, abs_tol=1e-12)
    assert report.confusion["S"]["R"] == 1
    assert report.n_claims == 4


def test_metrics_perfect_predictions():
    gold = _labels(FEVER, ["S", "R", "N", "S"])
    report = score_predictions(gold, list(gold))
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0


def test_metrics_absent_label_counts_zero():
    # Macro averages over the full label set for the dataset, so a label
    # never present in gold or pred drags the mean down with F1 = 0.
    gold = _labels(AVERITEC, ["S", "R"])
    report = score_predictions(gold, list(gold))
    assert report.per_label_f1["N"] == 0.0
    assert report.per_label_f1["C"] == 0.0
    assert math.isclose(report.macro_f1, 0.5, abs_tol=1e-12)


def test_metrics_input_validation():
    gold = _labels(FEVER, ["S"])
    with pytest.raises(DatasetError):
        score_predictions(gold, [])
    with pytest.raises(DatasetError):
        score_predictions([], [])
    with pytest.raises(DatasetError):
        score_predictions(gold, _labels(AVERITEC, ["S"]))


def _records(dataset=FEVER):
    pairs = [("c-marnie", MARNIE_CLAIM, MARNIE_EVIDENCE, "S"),
             ("c-wish", WISH_CLAIM, WISH_EVIDENCE, "S"),
             ("c-rabies", RABIES_CLAIM, RABIES_EVIDENCE, "R")]
    records = []
    for cid, claim, evidence, label in pairs:
        records.append(ClaimRecord(
            claim_id=cid, claim_text=f"claim text for {cid}", dataset=dataset,
            gold_label=VerdictLabel(label, dataset),
            evidence=(EvidenceItem(evidence_id=cid + "-e0",
                                   text=f"evidence text for {cid}",
                                   graph=parse_penman(evidence)),),
            claim_graph=parse_penman(claim)))
    return records


def test_sweep_agrees_with_independent_single_lambda_runs():
    records = _records()
    backend = DeterministicTestBackend(dim=64)
    lambdas = [i / 10 for i in range(11)]
    swept = lambda_sweep(records, lambdas, backend, AlignConfig(), seed=7)
    for lam, report in zip(lambdas, swept):
        single = lambda_sweep(records, [lam], DeterministicTestBackend(dim=64),
                              AlignConfig(), seed=7)[0]
        assert report == single


def test_sweep_matches_verify_claim():
    records = _records()
    backend = DeterministicTestBackend(dim=64)
    components = precompute_pair_components(records, backend, AlignConfig(), seed=3)
    pred = predictions_at_lambda(records, components, 0.5)
    direct = [verify_claim(r, 0.5, backend, AlignConfig(), seed=3).label
              for r in records]
    assert pred == direct


def _components(smatch_p: float, cosine_sim: float, evidence_id: str) -> PairComponents:
    """A pair's components with only the two scores the blend reads."""
    alignment = SmatchResult(mapping=VariableMapping(()), matched=0, hyp_total=1,
                             prem_total=1, precision=smatch_p, recall=0.0, f1=0.0)
    return PairComponents(evidence_id, alignment, cosine_sim)


def test_sweep_labels_are_verdict_at_labels_on_built_components():
    """The sweep labels from decision sums without verdict_at: on pairs
    built directly, some with f exactly at the threshold, its labels at
    every lambda of 0:1:0.05 are verdict_at's, and a claim with no pair is
    N under label-N and the same error under error."""
    rng = random.Random(21)
    scores = [0.0, 0.25, 0.5, 0.6, 0.7, 0.8, 1.0]
    grid = list(itertools.product(scores, repeat=2))
    records, components = [], {}
    for i in range(60):
        dataset = (FEVER, AVERITEC)[i % 2]
        cid = f"c{i}"
        records.append(ClaimRecord(claim_id=cid, claim_text="claim", dataset=dataset,
                                   gold_label=VerdictLabel("N", dataset)))
        components[cid] = [_components(*rng.choice(grid), f"{cid}-e{j}")
                           for j in range(rng.randint(1, 5))]
    lambdas = sweep_range("0:1:0.05")
    at_threshold = sum(combined_score(lam, row.alignment.precision, row.cosine_sim)
                       == ENTAILMENT_THRESHOLD
                       for lam in lambdas for rows in components.values() for row in rows)
    assert at_threshold > 0
    empty = ClaimRecord(claim_id="c-empty", claim_text="claim", dataset=AVERITEC,
                        gold_label=VerdictLabel("N", AVERITEC))
    seen = set()
    for lam in lambdas:
        pred = predictions_at_lambda(records, components, lam)
        assert pred == [verdict_at(r, components[r.claim_id], lam).label
                        for r in records]
        seen.update(label.value for label in pred)
        assert predictions_at_lambda(
            [*records, empty], {**components, "c-empty": []}, lam,
            "label-N") == [*pred, VerdictLabel("N", AVERITEC)]
        with pytest.raises(DatasetError) as swept:
            predictions_at_lambda([empty], {"c-empty": []}, lam)
        with pytest.raises(DatasetError) as direct:
            verdict_at(empty, [], lam)
        assert str(swept.value) == str(direct.value)
    assert seen == {"S", "R", "N", "C"}


def test_sweep_lambda_validation():
    records = _records()
    backend = DeterministicTestBackend(dim=64)
    with pytest.raises(ConfigError):
        lambda_sweep(records, [], backend)
    with pytest.raises(ConfigError):
        lambda_sweep(records, [1.5], backend)


def test_precompute_requires_joined_graphs():
    first, middle, last = _records()
    stripped = [replace(first, claim_graph=None), middle,
                replace(last, evidence=[replace(last.evidence[0], graph=None)])]
    with pytest.raises(DatasetError) as exc:
        precompute_pair_components(stripped, DeterministicTestBackend(dim=64))
    # One error names every id without a graph, not only the first.
    assert "c-marnie" in str(exc.value) and "c-rabies-e0" in str(exc.value)
    with pytest.raises(DatasetError, match="claim 'c-marnie' appears twice"):
        precompute_pair_components([first, first], DeterministicTestBackend(dim=64))


def test_empty_evidence_policy_in_predictions():
    record = ClaimRecord(claim_id="c-empty", claim_text="claim", dataset=FEVER,
                         gold_label=VerdictLabel("N", FEVER),
                         evidence=(EvidenceItem(evidence_id="e0", text="yes",
                                                kind="boolean"),),
                         claim_graph=parse_penman(MARNIE_CLAIM))
    backend = DeterministicTestBackend(dim=64)
    components = precompute_pair_components([record], backend)
    assert components["c-empty"] == []
    with pytest.raises(DatasetError):
        predictions_at_lambda([record], components, 0.5)
    pred = predictions_at_lambda([record], components, 0.5,
                                 empty_evidence="label-N")
    assert pred == [VerdictLabel("N", FEVER)]


def test_sweep_range_parsing():
    values = sweep_range("0:1:0.1")
    assert len(values) == 11
    assert values[0] == 0.0 and values[-1] == 1.0
    assert all(math.isclose(v, i / 10, abs_tol=1e-9)
               for i, v in enumerate(values))
    assert sweep_range("0.5:0.5:0.1") == [0.5]
    with pytest.raises(ConfigError):
        sweep_range("0:1")
    with pytest.raises(ConfigError):
        sweep_range("0:1:0")
    with pytest.raises(ConfigError, match="leaves"):
        sweep_range("0:2:0.5")
    with pytest.raises(ConfigError, match="leaves"):
        sweep_range("-0.5:1:0.5")
    # a non-finite field or a reversed range, named before any value is built
    for spec, cause in (("0:nan:0.1", "stop must be finite"),
                        ("0:1:inf", "step must be finite"),
                        ("inf:1:0.1", "start must be finite"),
                        ("1:0:0.1", "runs backwards")):
        with pytest.raises(ConfigError, match=f"sweep '{spec}'.* {cause}"):
            sweep_range(spec)
    # finer than the 12-decimal rounding: repeated lambdas, or no end at all
    for spec in ("0:1e-11:1e-13", "0:1:1e-300"):
        with pytest.raises(ConfigError, match="at least 1e-12"):
            sweep_range(spec)
    # the finest step ends at stop, not one step past it
    values = sweep_range("0:1e-10:1e-12")
    assert len(values) == 101 and values[-1] == 1e-10
    # a bounded count, checked before any value is built
    assert len(sweep_range("0:1:1e-4")) == 10_001
    for spec in ("0:1:1e-5", "0:1:1e-12"):
        with pytest.raises(ConfigError, match="more than 10001 lambda values"):
            sweep_range(spec)


def test_report_markdown_table_shape():
    records = _records()
    reports = lambda_sweep(records, [0.0, 1.0],
                           DeterministicTestBackend(dim=64))
    text = report_markdown(reports)
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("| lambda |")
    assert "Macro F1" in lines[0]
    assert lines[2].startswith("| 0 |")
    assert report_markdown([]) == ""
