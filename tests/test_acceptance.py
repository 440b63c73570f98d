"""End-to-end acceptance suite.

Each test here checks one acceptance criterion at its stated tolerance and
reports one PASS/FAIL line in the terminal summary (see conftest).
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

from amrex.cli import dispatch
from amrex.entailment import combined_score, th1
from amrex.evaluation import lambda_sweep, score_predictions
from amrex.graph import extract_triples, parse_penman, serialize_penman
from amrex.ingest import (REFERENCE_LABEL_COUNTS, ClaimRecord, EvidenceItem,
                          label_set, load_claims)
from amrex.similarity import DeterministicTestBackend
from amrex.smatch import AlignConfig, align_exhaustive, align_hill_climb
from amrex.verdict import (AVERITEC, FEVER, VerdictLabel, aggregate, th2,
                           th2_averitec, th2_fever)

from _fixtures import (ALL_PENMAN, MARNIE_CLAIM, MARNIE_EVIDENCE,
                       PAIR_SCORES, RABIES_CLAIM, RABIES_EVIDENCE,
                       RABIES_MAPPING, WISH_CLAIM, WISH_EVIDENCE,
                       random_graph)


def test_criterion_01_hill_climb_matches_exhaustive_oracle():
    """50 seeded random pairs: restarts-8 hill climbing finds the optimum."""
    rng = random.Random(20240817)
    start = time.monotonic()
    agreements = 0
    for _ in range(50):
        premise = random_graph(rng, max_nodes=8, prefix="p")
        hypothesis = random_graph(rng, max_nodes=8, prefix="h")
        climbed = align_hill_climb(premise, hypothesis, restarts=8,
                                   seed=rng.randrange(2 ** 31))
        oracle = align_exhaustive(premise, hypothesis)
        if climbed.matched == oracle.matched:
            agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == 50
    assert elapsed < 10.0


def test_criterion_02_reference_pair_precisions():
    """Reference pair precisions within +/-0.05 under a documented
    top-inclusion convention; the film pair is exact at 6/8."""
    pairs = {
        "wish": (WISH_EVIDENCE, WISH_CLAIM, True),
        "marnie": (MARNIE_EVIDENCE, MARNIE_CLAIM, True),
        "rabies": (RABIES_EVIDENCE, RABIES_CLAIM, False),
    }
    for name, (evidence, claim, include_top) in pairs.items():
        expected = PAIR_SCORES[name][0]
        result = align_hill_climb(parse_penman(evidence), parse_penman(claim),
                                  include_top=include_top)
        assert abs(result.precision - expected) <= 0.05, name
    marnie = align_hill_climb(parse_penman(MARNIE_EVIDENCE),
                              parse_penman(MARNIE_CLAIM),
                              include_top=True)
    assert abs(marnie.precision - 0.75) <= 0.005
    assert marnie.matched == 6


def test_criterion_03_reference_mapping_reproduction():
    """The seven reference alignment lines for the disease pair come back
    exactly (as a set; ordering is tie-equivalent)."""
    result = align_hill_climb(parse_penman(RABIES_EVIDENCE),
                              parse_penman(RABIES_CLAIM),
                              restarts=4, seed=0, include_top=False)
    assert set(result.mapping.pairs) == set(RABIES_MAPPING)
    assert len(result.mapping.pairs) == 7


def test_criterion_04_equation_arithmetic():
    """Blend/threshold arithmetic reproduces both worked outcomes exactly."""
    f = combined_score(0.5, 0.46, 0.59)
    assert abs(f - 0.525) <= 1e-12
    decision = th1(f)
    assert decision == -1
    assert th2(aggregate([decision]), FEVER) == VerdictLabel("R", FEVER)
    for lam in [i / 10 for i in range(11)]:
        f = combined_score(lam, 0.75, 0.70)
        assert f >= 0.6 - 1e-12
        assert th1(f) == 1
        assert th2(aggregate([th1(f)]), FEVER) == VerdictLabel("S", FEVER)


def test_criterion_05_threshold_partition_sweep():
    """Both verdict rules are total single-valued functions on a 1e-3 grid,
    with the literal boundary behavior at +/-0.1 and +/-0.5."""
    step = Fraction(1, 1000)
    e = Fraction(-1)
    while e <= 1:
        for rule, dataset in ((th2_fever, FEVER), (th2_averitec, AVERITEC)):
            label = rule(e)
            assert label.value in label_set(dataset)
            assert rule(e) == label
        e += step
    tenth, half = Fraction(1, 10), Fraction(1, 2)
    assert th2_fever(tenth).value == "S"
    assert th2_fever(-tenth).value == "R"
    assert th2_averitec(tenth).value == "N"
    assert th2_averitec(-tenth).value == "N"
    assert th2_averitec(half).value == "S"
    assert th2_averitec(-half).value == "R"


def test_criterion_06_penman_round_trip():
    """parse -> serialize -> parse preserves the triple multiset on the six
    reference graphs and 200 seeded random graphs."""
    for text in ALL_PENMAN.values():
        graph = parse_penman(text)
        assert Counter(extract_triples(parse_penman(serialize_penman(graph)))) == \
            Counter(extract_triples(graph))
    rng = random.Random(1234)
    for _ in range(200):
        graph = random_graph(rng, max_nodes=12)
        assert Counter(extract_triples(parse_penman(serialize_penman(graph)))) == \
            Counter(extract_triples(graph))


def test_criterion_07_metrics_oracle():
    """Hand-derived confusion-matrix case and the perfect-prediction case."""
    gold = [VerdictLabel(v, FEVER) for v in ("S", "S", "R", "N")]
    pred = [VerdictLabel(v, FEVER) for v in ("S", "R", "R", "N")]
    report = score_predictions(gold, pred)
    assert abs(report.accuracy - 0.75) <= 1e-12
    assert abs(report.macro_f1 - 7 / 9) <= 1e-12
    perfect = score_predictions(gold, list(gold))
    assert perfect.accuracy == 1.0
    assert perfect.macro_f1 == 1.0


def test_criterion_08_boolean_evidence_filtering(tmp_path, capsys):
    """Exactly the boolean QA item is dropped; the stats report compares
    against the reference label counts without failing."""
    rows = [{
        "claim_id": f"q{i}", "claim": f"claim {i}", "label": "Supported",
        "questions": [
            {"question": "Is it?", "answers": [
                {"answer": "No", "answer_type": "Boolean"}]},
            {"question": "When?", "answers": [
                {"answer": f"in {1990 + i}", "answer_type": "Extractive"}]},
            {"question": "Why?", "answers": [
                {"answer": "because of the weather", "answer_type": "Abstractive"}]},
        ],
    } for i in range(3)]
    path = tmp_path / "claims.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    records = load_claims(str(path), AVERITEC)
    for record in records:
        assert [ev.kind for ev in record.evidence] == ["extractive", "abstractive"]
    assert dispatch(["ingest", "--dataset", "averitec", "--in", str(path),
                     "--stats"]) == 0
    out = capsys.readouterr().out
    assert "claims: 3" in out
    assert f"(reference: {REFERENCE_LABEL_COUNTS[AVERITEC]['S']})" in out


def _synthetic_fever_set(tmp_path, n_claims=100):
    rng = random.Random(99)
    claims, amrs = [], []
    for i in range(n_claims):
        cid = f"c{i:03d}"
        claim_graph = random_graph(rng, max_nodes=6, prefix="h")
        amrs.append({"id": cid, "penman": serialize_penman(claim_graph)})
        evidence = []
        for j in range(rng.randint(1, 3)):
            eid = f"{cid}-e{j}"
            ev_graph = random_graph(rng, max_nodes=8, prefix="p")
            amrs.append({"id": eid, "penman": serialize_penman(ev_graph)})
            evidence.append({"id": eid, "text": f"evidence sentence {i} {j}"})
        claims.append({"claim_id": cid, "claim": f"claim sentence {i}",
                       "label": rng.choice(["SUPPORTS", "REFUTES",
                                            "NOT ENOUGH INFO"]),
                       "evidence": evidence})
    claims_path = tmp_path / "claims.jsonl"
    claims_path.write_text("".join(json.dumps(r) + "\n" for r in claims))
    amrs_path = tmp_path / "amrs.jsonl"
    amrs_path.write_text("".join(json.dumps(r) + "\n" for r in amrs))
    return str(claims_path), str(amrs_path)


def test_criterion_09_parallel_serial_determinism(tmp_path):
    """verify with a worker pool of 8 is byte-identical to a serial run on a
    100-claim synthetic set."""
    claims, amrs = _synthetic_fever_set(tmp_path)
    base = ["verify", "--dataset", "fever", "--claims", claims, "--amrs", amrs,
            "--backend", "test:dim=64", "--seed", "42", "--lambda", "0.5"]
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert dispatch(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert dispatch(base + ["--jobs", "8", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert len(serial.read_text().splitlines()) == 100


def test_criterion_10_lambda_sweep_consistency():
    """Every sweep report equals an independent single-lambda run."""
    fixture_pairs = [("c-wish", WISH_CLAIM, WISH_EVIDENCE, "S"),
                     ("c-marnie", MARNIE_CLAIM, MARNIE_EVIDENCE, "S"),
                     ("c-rabies", RABIES_CLAIM, RABIES_EVIDENCE, "R")]
    records = []
    for cid, claim, evidence, label in fixture_pairs:
        records.append(ClaimRecord(
            claim_id=cid, claim_text=f"claim for {cid}", dataset=FEVER,
            gold_label=VerdictLabel(label, FEVER),
            evidence=(EvidenceItem(evidence_id=cid + "-e0",
                                   text=f"evidence for {cid}",
                                   graph=parse_penman(evidence)),),
            claim_graph=parse_penman(claim)))
    lambdas = [i / 10 for i in range(11)]
    swept = lambda_sweep(records, lambdas,
                         DeterministicTestBackend(dim=64), AlignConfig(),
                         seed=17)
    assert len(swept) == 11
    for lam, report in zip(lambdas, swept):
        single = lambda_sweep(records, [lam], DeterministicTestBackend(dim=64),
                              AlignConfig(), seed=17)[0]
        assert report == single
