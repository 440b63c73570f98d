import json
import random
from fractions import Fraction

import pytest

from amrex.errors import ConfigError, DatasetError, EmbeddingMissError
from amrex.graph import parse_penman
from amrex.ingest import ClaimRecord, EvidenceItem, label_set
from amrex.similarity import DeterministicTestBackend, PrecomputedFileBackend
from amrex.smatch import AlignConfig
from amrex.verdict import (AVERITEC, FEVER, VerdictLabel, aggregate, pair_seed,
                           precompute_pair_components, th2, th2_averitec,
                           th2_fever, verify_claim)

from _fixtures import RABIES_CLAIM, RABIES_EVIDENCE, random_graph


def test_label_validation():
    with pytest.raises(ConfigError):
        VerdictLabel("C", FEVER)
    with pytest.raises(ConfigError):
        VerdictLabel("X", AVERITEC)
    assert VerdictLabel("C", AVERITEC).value == "C"
    with pytest.raises(ConfigError, match="unknown dataset 'x'"):
        label_set("x")
    with pytest.raises(ConfigError, match="unknown dataset 'x'"):
        th2(0, "x")
    with pytest.raises(DatasetError, match="label dataset 'averitec' does not match "
                                           "record dataset 'fever'"):
        ClaimRecord(claim_id="c1", claim_text="t", dataset=FEVER,
                    gold_label=VerdictLabel("C", AVERITEC))


def test_aggregate():
    assert aggregate([1, 1, -1]) == Fraction(1, 3)
    assert aggregate([1, -1]) == 0
    assert aggregate([-1, -1, -1]) == -1
    with pytest.raises(DatasetError):
        aggregate([])
    with pytest.raises(ConfigError):
        aggregate([1, 0])


def test_th2_fever_cases():
    assert th2_fever(Fraction(1, 3)).value == "S"
    assert th2_fever(0).value == "N"
    assert th2_fever(Fraction(-1, 10)).value == "R"
    assert th2_fever(Fraction(1, 10)).value == "S"
    assert th2_fever(1).value == "S"
    assert th2_fever(-1).value == "R"
    # A float counts at its exact binary value, a little beyond +-1/10.
    assert th2_fever(0.1).value == "S"
    assert th2_fever(-0.1).value == "R"


def test_th2_averitec_cases():
    assert th2_averitec(Fraction(1, 2)).value == "S"
    assert th2_averitec(Fraction(1, 10)).value == "N"
    assert th2_averitec(Fraction(3, 10)).value == "C"
    assert th2_averitec(Fraction(-1, 2)).value == "R"
    assert th2_averitec(Fraction(-1, 10)).value == "N"
    assert th2_averitec(Fraction(-3, 10)).value == "C"
    assert th2_averitec(1).value == "S"


def test_threshold_partition_total_coverage():
    for i in range(-1000, 1001):
        e = Fraction(i, 1000)
        assert th2_fever(e).value in ("S", "R", "N")
        assert th2_averitec(e).value in ("S", "R", "N", "C")


def test_fever_sign_symmetry():
    swap = {"S": "R", "R": "S", "N": "N"}
    for i in range(100, 1001):
        e = Fraction(i, 1000)
        assert th2_fever(-e).value == swap[th2_fever(e).value]


def test_align_config_seed_is_the_global_seed():
    """Each pair's seed derives from the global *seed*.  The record's
    mappings depend on the seed, so a seed that is ignored fails."""
    rng = random.Random(1)
    claim_graph = random_graph(rng, prefix="a")
    evidence = tuple(EvidenceItem(evidence_id=f"e{i}", text=f"evidence text number {i}",
                                  graph=random_graph(rng, prefix="b"))
                     for i in range(4))
    record = ClaimRecord(claim_id="c1", claim_text="the claim text", dataset=FEVER,
                         gold_label=VerdictLabel("N", FEVER), evidence=evidence,
                         claim_graph=claim_graph)

    def mappings(seed):
        verdict = verify_claim(record, 0.5, DeterministicTestBackend(), AlignConfig(), seed)
        return [pair.score.mapping for pair in verdict.per_evidence]

    assert mappings(5) != mappings(0)


def _record(n_evidence, dataset=FEVER, kinds=None):
    claim_graph = parse_penman(RABIES_CLAIM)
    ev_graph = parse_penman(RABIES_EVIDENCE)
    kinds = kinds or ["sentence" if dataset == FEVER else "extractive"] * n_evidence
    evidence = tuple(
        EvidenceItem(evidence_id=f"e{i}", text=f"evidence text number {i}",
                     kind=kinds[i], graph=ev_graph)
        for i in range(n_evidence))
    return ClaimRecord(claim_id="c1", claim_text="the claim text",
                       dataset=dataset,
                       gold_label=VerdictLabel("R", dataset),
                       evidence=evidence, claim_graph=claim_graph)


def test_verify_claim_single_refuting_evidence():
    verdict = verify_claim(_record(1), lam=0.9, backend=DeterministicTestBackend(),
                           cfg=AlignConfig(include_top=False))
    assert verdict.e_value == -1
    assert verdict.label.value == "R"
    assert len(verdict.per_evidence) == 1


def test_verify_claim_permutation_invariance():
    backend = DeterministicTestBackend()
    record = _record(3)
    forward = verify_claim(record, 0.5, backend)
    shuffled = ClaimRecord(claim_id=record.claim_id, claim_text=record.claim_text,
                           dataset=record.dataset, gold_label=record.gold_label,
                           evidence=tuple(reversed(record.evidence)),
                           claim_graph=record.claim_graph)
    backward = verify_claim(shuffled, 0.5, backend)
    assert forward.e_value == backward.e_value
    assert forward.label == backward.label


def test_verify_claim_label_recomputable():
    verdict = verify_claim(_record(3), 0.5, DeterministicTestBackend())
    recomputed = th2(aggregate([p.score.decision for p in verdict.per_evidence]),
                     FEVER)
    assert recomputed == verdict.label


def test_verify_claim_boolean_evidence_never_scored():
    record = _record(3, dataset=AVERITEC,
                     kinds=["extractive", "boolean", "abstractive"])
    verdict = verify_claim(record, 0.5, DeterministicTestBackend())
    assert len(verdict.per_evidence) == 2
    assert {p.evidence_id for p in verdict.per_evidence} == {"e0", "e2"}


def test_verify_claim_empty_evidence_policy():
    record = _record(1, dataset=AVERITEC, kinds=["boolean"])
    with pytest.raises(DatasetError) as exc:
        verify_claim(record, 0.5, DeterministicTestBackend())
    assert "c1" in str(exc.value)
    verdict = verify_claim(record, 0.5, DeterministicTestBackend(),
                           empty_evidence="label-N")
    assert verdict.label.value == "N"
    assert verdict.per_evidence == ()


def test_verify_claim_missing_graph_names_item():
    record = _record(2)
    broken = ClaimRecord(
        claim_id=record.claim_id, claim_text=record.claim_text,
        dataset=record.dataset, gold_label=record.gold_label,
        evidence=(record.evidence[0],
                  EvidenceItem(evidence_id="e1", text="t", kind="sentence")),
        claim_graph=record.claim_graph)
    with pytest.raises(DatasetError) as exc:
        verify_claim(broken, 0.5, DeterministicTestBackend())
    assert "e1" in str(exc.value)


def test_pair_seed_stable():
    assert pair_seed(0, "c1", "e1") == pair_seed(0, "c1", "e1")
    assert pair_seed(0, "c1", "e1") != pair_seed(1, "c1", "e1")
    assert pair_seed(0, "c1", "e1") != pair_seed(0, "c1", "e2")


def test_a_text_missing_from_a_file_backend_names_its_pair(tmp_path):
    """The miss keeps its type and text, and gains the pair's name."""
    path = tmp_path / "vecs.jsonl"
    path.write_text("".join(json.dumps({"text": text, "vector": [1.0, 2.0]}) + "\n"
                            for text in ("the claim text", "evidence text number 0")))
    with pytest.raises(EmbeddingMissError,
                       match=r"^claim 'c1' / evidence 'e1': no embedding for text") as exc:
        precompute_pair_components([_record(2)], PrecomputedFileBackend(str(path)))
    assert exc.value.text == "evidence text number 1"
