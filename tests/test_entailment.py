import pytest

from amrex.entailment import combined_score, th1
from amrex.errors import ConfigError, EmbeddingMissError
from amrex.graph import parse_penman
from amrex.similarity import DeterministicTestBackend, PrecomputedFileBackend
from amrex.smatch import AlignConfig

from _fixtures import (MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM,
                       RABIES_EVIDENCE, score_pair)


def test_combined_score_endpoints():
    assert combined_score(0.0, 0.46, 0.59) == pytest.approx(0.59)
    assert combined_score(1.0, 0.75, 0.70) == pytest.approx(0.75)
    assert combined_score(0.5, 0.46, 0.59) == pytest.approx(0.525)


def test_combined_score_lambda_range():
    with pytest.raises(ConfigError):
        combined_score(-0.1, 0.5, 0.5)
    with pytest.raises(ConfigError):
        combined_score(1.1, 0.5, 0.5)


def test_th1_boundary_inclusive():
    assert th1(0.600) == 1
    assert th1(0.525) == -1
    assert th1(0.95) == 1
    assert th1(0.5999999999) == -1


def test_combined_is_affine_in_lambda():
    smatch_p, cos = 0.3, 0.9
    values = [combined_score(lam / 10, smatch_p, cos) for lam in range(11)]
    diffs = [values[i + 1] - values[i] for i in range(10)]
    for d in diffs:
        assert d == pytest.approx(diffs[0])
    assert values[0] == pytest.approx(cos)
    assert values[-1] == pytest.approx(smatch_p)


def test_decision_monotonicity():
    for lam in [i / 10 for i in range(11)]:
        assert th1(combined_score(lam, 0.8, 0.7)) == 1
        assert th1(combined_score(lam, 0.2, 0.4)) == -1


def _fixture_backend(tmp_path, scores):
    # Orthogonal one-hot style vectors whose cosine is the desired score:
    # v1 = (1, 0), v2 = (s, sqrt(1 - s^2)).
    import json
    import math
    path = tmp_path / "vectors.jsonl"
    with open(path, "w") as fh:
        for (a, b), s in scores.items():
            fh.write(json.dumps({"text": a, "vector": [1.0, 0.0]}) + "\n")
            fh.write(json.dumps({"text": b, "vector": [s, math.sqrt(1 - s * s)]}) + "\n")
    return PrecomputedFileBackend(str(path))


def test_nli_pair_rabies_reference_arithmetic(tmp_path):
    backend = _fixture_backend(tmp_path, {("evidence A", "claim A"): 0.59})
    score = score_pair("evidence A", parse_penman(RABIES_EVIDENCE),
                       "claim A", parse_penman(RABIES_CLAIM),
                       lam=0.5, backend=backend,
                       cfg=AlignConfig(include_top=False))
    assert score.cosine_sim == pytest.approx(0.59)
    assert score.smatch_p == pytest.approx(6 / 14)
    assert score.f_value == pytest.approx(0.5 * (6 / 14) + 0.5 * 0.59)
    assert score.decision == -1


def test_nli_pair_marnie_always_entails(tmp_path):
    backend = _fixture_backend(tmp_path, {("evidence B", "claim B"): 0.70})
    for lam in [0.0, 0.3, 0.5, 0.9, 1.0]:
        score = score_pair("evidence B", parse_penman(MARNIE_EVIDENCE),
                           "claim B", parse_penman(MARNIE_CLAIM),
                           lam=lam, backend=backend)
        assert score.smatch_p == pytest.approx(0.75)
        assert score.f_value >= 0.70 - 1e-12
        assert score.decision == 1


def test_nli_pair_self_entailment():
    backend = DeterministicTestBackend()
    g = parse_penman(MARNIE_CLAIM)
    score = score_pair("same text", g, "same text", g, lam=1.0, backend=backend)
    assert score.f_value == pytest.approx(1.0)
    assert score.decision == 1


def test_nli_pair_embedding_miss_aborts(tmp_path):
    backend = _fixture_backend(tmp_path, {("evidence A", "claim A"): 0.5})
    with pytest.raises(EmbeddingMissError):
        score_pair("unknown evidence", parse_penman(RABIES_EVIDENCE),
                   "claim A", parse_penman(RABIES_CLAIM),
                   lam=0.5, backend=backend)
