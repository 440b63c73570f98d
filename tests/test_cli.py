import argparse
import ast
import builtins
import concurrent.futures
import copy
import errno
import functools
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import amrex
from amrex.cli import build_parser, dispatch
from amrex.config import RunConfig, apply_env, load_config_file
from amrex.entailment import combined_score, th1
from amrex.errors import ConfigError, DatasetError
from amrex.evaluation import lambda_sweep
from amrex.graph import parse_penman, serialize_penman
from amrex.ingest import AVERITEC, iter_claims, load_amr_bundle, load_claims
from amrex.smatch import AlignConfig, VariableMapping, align_hill_climb, score_mapping
from amrex.verdict import (_WORK_PER_WORKER, aggregate, classify,
                           precompute_pair_components, score_pairs, th2, usable_cpus,
                           verdict_at, verify_claim, worker_count)

from _fixtures import (JSON_VALUES, MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM,
                       RABIES_EVIDENCE, RABIES_MAPPING, field_paths, random_graph)
from test_explain import _GenerateHandler, generate_server


@pytest.fixture
def fever_files(tmp_path):
    """A three-claim dataset plus a matching AMR bundle."""
    claims = [
        {"claim_id": "c-marnie", "claim": "a film was directed",
         "label": "SUPPORTS",
         "evidence": [{"id": "e-marnie", "text": "the director made the film"}]},
        {"claim_id": "c-rabies", "claim": "a disease can ride",
         "label": "REFUTES",
         "evidence": [{"id": "e-rabies", "text": "vaccination prevents it"}]},
    ]
    claims_path = tmp_path / "claims.jsonl"
    claims_path.write_text("".join(json.dumps(r) + "\n" for r in claims))
    amrs = [
        {"id": "c-marnie", "penman": MARNIE_CLAIM},
        {"id": "e-marnie", "penman": MARNIE_EVIDENCE},
        {"id": "c-rabies", "penman": RABIES_CLAIM},
        {"id": "e-rabies", "penman": RABIES_EVIDENCE},
    ]
    amrs_path = tmp_path / "amrs.jsonl"
    amrs_path.write_text("".join(json.dumps(r) + "\n" for r in amrs))
    return str(claims_path), str(amrs_path)


def test_parse_round_trip(tmp_path, capsys):
    src = tmp_path / "g.amr"
    src.write_text(MARNIE_CLAIM)
    assert dispatch(["parse", "--in", str(src)]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_penman(out) == parse_penman(MARNIE_CLAIM)


def test_parse_json_output(tmp_path, capsys):
    src = tmp_path / "g.amr"
    src.write_text(MARNIE_CLAIM)
    assert dispatch(["parse", "--in", str(src), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == "a0"
    assert payload["nodes"]["a0"] == "film"
    assert ["top", "a0", "", "film"] in payload["triples"]


def test_parse_error_exit_code_1(tmp_path, capsys):
    src = tmp_path / "bad.amr"
    src.write_text("(x/a :mod")
    assert dispatch(["parse", "--in", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["verify", "--dataset", "fever"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-command"])
    assert exc.value.code == 2
    for flag, value in (("--jobs", "-3"), ("--restarts", "0")):
        with pytest.raises(SystemExit) as exc:
            dispatch(["verify", "--dataset", "fever", "--claims", "c", "--amrs", "a",
                      flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


def _header(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("# ")]


def test_smatch_text_output(tmp_path, capsys, monkeypatch):
    # smatch reads no lambda: a value it would reject must not reach it.
    monkeypatch.setenv("AMREX_LAMBDA", "5")
    prem = tmp_path / "prem.amr"
    prem.write_text(RABIES_EVIDENCE)
    hyp = tmp_path / "hyp.amr"
    hyp.write_text(RABIES_CLAIM)
    assert dispatch(["smatch", "--premise", str(prem),
                     "--hypothesis", str(hyp), "--no-top"]) == 0
    captured = capsys.readouterr()
    for hv, pv in RABIES_MAPPING:
        assert f"{hv}(" in captured.out and f"--> {pv}(" in captured.out
    assert "precision: 0.4286" in captured.out
    assert _header(captured.err) == ["# restarts = 4", "# seed = 0",
                                     "# include_top = False"]


def test_smatch_json_output(tmp_path, capsys):
    prem = tmp_path / "prem.amr"
    prem.write_text(MARNIE_EVIDENCE)
    hyp = tmp_path / "hyp.amr"
    hyp.write_text(MARNIE_CLAIM)
    assert dispatch(["smatch", "--premise", str(prem),
                     "--hypothesis", str(hyp), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["precision"] == 0.75
    assert payload["matched"] == 6


def test_score_pair_json(tmp_path, capsys):
    claim = tmp_path / "claim.amr"
    claim.write_text(MARNIE_CLAIM)
    evidence = tmp_path / "evidence.amr"
    evidence.write_text(MARNIE_EVIDENCE)
    assert dispatch(["score-pair", "--claim-amr", str(claim),
                     "--evidence-amr", str(evidence),
                     "--claim-text", "a film was directed",
                     "--evidence-text", "the director made the film",
                     "--lambda", "1.0", "--backend", "test:dim=32",
                     "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["smatch_p"] == 0.75
    assert payload["f"] == 0.75
    assert payload["decision"] == 1


def test_score_pair_text_output(tmp_path, capsys):
    claim = tmp_path / "claim.amr"
    claim.write_text(MARNIE_CLAIM)
    evidence = tmp_path / "evidence.amr"
    evidence.write_text(MARNIE_EVIDENCE)
    argv = ["score-pair", "--claim-amr", str(claim), "--evidence-amr", str(evidence),
            "--evidence-text", "the director made the film", "--lambda", "1.0"]
    assert dispatch([*argv, "--claim-text", "a film was directed"]) == 0
    text = capsys.readouterr().out
    assert "claim: a film was directed" in text
    assert "a0(film) --> b0(film)" in text
    assert "structural containment: 0.7500" in text
    # A claim text byte that is not UTF-8 reaches argv as a lone surrogate.
    assert dispatch([*argv, "--claim-text", "film \udcff"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot embed text holding a lone surrogate" in captured.err


def test_verify_writes_jsonl(fever_files, tmp_path, capsys):
    claims, amrs = fever_files
    out = tmp_path / "verdicts.jsonl"
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--backend", "test:dim=64",
                     "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["claim_id"] for r in rows] == ["c-marnie", "c-rabies"]
    for row in rows:
        assert row["label"] in {"S", "R", "N"}
        assert row["pairs"][0]["decision"] in (-1, 1)
    header = _header(capsys.readouterr().err)
    assert "# dataset = fever" in header
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--backend", "test:dim=64"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert "# lambda = 0.0" in header  # the dataset default the run used
    assert "# jobs = 0" in header  # as given: jobs never changes the bytes


@pytest.mark.parametrize("command", [
    ["verify", "--out", "{out}/verdicts.jsonl"],
    ["evaluate", "--sweep", "0:1:0.5", "--report", "{out}"],
], ids=["verify", "evaluate-sweep-report"])
def test_parallel_matches_serial_byte_for_byte(fever_files, tmp_path, command):
    claims, amrs = fever_files
    outputs = {}
    for jobs in ("0", "1", "8"):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        argv = [arg.format(out=out) for arg in command]
        assert dispatch(argv + ["--dataset", "fever", "--claims", claims,
                                "--amrs", amrs, "--backend", "test:dim=64",
                                "--seed", "11", "--jobs", jobs]) == 0
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["1"] and outputs["0"] == outputs["1"] == outputs["8"]


def _shared_graph_claims(rng: random.Random):
    """12 FEVER claims with 1-3 evidence items each, and their ``(id,
    Penman text)`` bundle rows: every text is one of four graphs', and
    every third claim's first evidence has the claim's text."""
    pool = [serialize_penman(random_graph(rng, max_nodes=7)) for _ in range(4)]
    claims, amrs = [], []
    for i in range(12):
        cid = f"c{i}"
        amrs.append((cid, rng.choice(pool)))
        evidence = []
        for j in range(rng.randint(1, 3)):
            eid = f"{cid}-e{j}"
            amrs.append((eid, amrs[-1][1] if j == 0 and i % 3 == 0
                         else rng.choice(pool)))
            evidence.append({"id": eid, "text": f"evidence {rng.randrange(5)}"})
        claims.append({"claim_id": cid, "claim": f"claim {i % 4}",
                       "label": rng.choice(["SUPPORTS", "REFUTES", "NOT ENOUGH INFO"]),
                       "evidence": evidence})
    return claims, amrs


def test_graphs_shared_by_bundle_rows_give_the_bytes_of_distinct_ones(tmp_path):
    """Rows with one Penman text share one graph, and each graph keeps its
    alignment tables across its pairs, a claim whose evidence
    has its own text included.  verify writes the same bytes at --jobs 1
    and --jobs 2, and as when every row's text is distinct (leading spaces
    that parse to equal graphs)."""
    claims, amrs = _shared_graph_claims(random.Random(21))
    claims_path = tmp_path / "claims.jsonl"
    claims_path.write_text("".join(json.dumps(r) + "\n" for r in claims))
    shared = tmp_path / "shared.jsonl"
    shared.write_text("".join(json.dumps({"id": rid, "penman": text}) + "\n"
                              for rid, text in amrs))
    distinct = tmp_path / "distinct.jsonl"
    distinct.write_text("".join(json.dumps({"id": rid, "penman": " " * k + text}) + "\n"
                                for k, (rid, text) in enumerate(amrs)))
    graphs = load_amr_bundle(str(shared))
    assert (len({id(g) for g in graphs.values()}) == len({text for _rid, text in amrs})
            < len(graphs))
    assert graphs["c0"] is graphs["c0-e0"]
    outputs = []
    for bundle, jobs in ((shared, "1"), (shared, "2"), (distinct, "1")):
        out = tmp_path / f"{bundle.stem}-{jobs}.jsonl"
        assert dispatch(["verify", "--dataset", "fever", "--claims", str(claims_path),
                         "--amrs", str(bundle), "--backend", "test:dim=64",
                         "--seed", "5", "--lambda", "0.5", "--jobs", jobs,
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) == 12
    assert outputs[0] == outputs[1] == outputs[2]


def test_rows_of_a_claim_subset_equal_the_whole_runs(tmp_path):
    """A claim's row does not depend on the other claims of the run: the
    rows of a subset of the claims equal the whole run's, at --jobs 1 and
    at --jobs 2, where the pool's chunks, and so the graph copies whose
    tables each chunk shares, fall differently.  Each subset's graphs are also
    graphs of claims it drops."""
    claims, amrs = _shared_graph_claims(random.Random(22))
    texts = dict(amrs)
    bundle = tmp_path / "amrs.jsonl"
    bundle.write_text("".join(json.dumps({"id": rid, "penman": text}) + "\n"
                              for rid, text in amrs))

    def graphs(subset):
        return {texts[i] for c in subset
                for i in (c["claim_id"], *(ev["id"] for ev in c["evidence"]))}

    def rows(subset, jobs):
        claims_path, out = tmp_path / "claims.jsonl", tmp_path / "verdicts.jsonl"
        claims_path.write_text("".join(json.dumps(r) + "\n" for r in subset))
        assert dispatch(["verify", "--dataset", "fever", "--claims", str(claims_path),
                         "--amrs", str(bundle), "--backend", "test:dim=64",
                         "--seed", "3", "--lambda", "0.5", "--jobs", jobs,
                         "--out", str(out)]) == 0
        return {json.loads(line)["claim_id"]: line
                for line in out.read_text().splitlines()}

    whole = rows(claims, "1")
    assert len(whole) == 12 and rows(claims, "2") == whole
    for keep in ((0, 2, 4, 6, 8, 10), (1, 5, 9, 11), (7,)):
        subset = [claims[i] for i in keep]
        dropped = [c for i, c in enumerate(claims) if i not in keep]
        assert graphs(subset) & graphs(dropped)
        for jobs in ("1", "2"):
            assert rows(subset, jobs) == {c["claim_id"]: whole[c["claim_id"]]
                                          for c in subset}


def test_permuting_a_claims_evidence_permutes_its_pairs(tmp_path):
    """A pair's seed reads its ids, not its position: rotating every
    claim's evidence rotates its row's pairs and leaves its label, its e
    and each pair's object as they were, at --jobs 1 and at --jobs 2."""
    claims, amrs = _shared_graph_claims(random.Random(30))
    bundle = tmp_path / "amrs.jsonl"
    bundle.write_text("".join(json.dumps({"id": rid, "penman": text}) + "\n"
                              for rid, text in amrs))

    def rows(claims, jobs):
        claims_path, out = tmp_path / "claims.jsonl", tmp_path / "verdicts.jsonl"
        claims_path.write_text("".join(json.dumps(r) + "\n" for r in claims))
        assert dispatch(["verify", "--dataset", "fever", "--claims", str(claims_path),
                         "--amrs", str(bundle), "--backend", "test:dim=64",
                         "--seed", "3", "--lambda", "0.5", "--jobs", jobs,
                         "--out", str(out)]) == 0
        return {row["claim_id"]: row
                for row in map(json.loads, out.read_text().splitlines())}

    rotated = [{**c, "evidence": c["evidence"][1:] + c["evidence"][:1]} for c in claims]
    assert sum(len(c["evidence"]) > 1 for c in claims) >= 6
    before = rows(claims, "1")
    for jobs in ("1", "2"):
        after = rows(rotated, jobs)
        assert list(after) == list(before)
        for claim in rotated:
            old, new = before[claim["claim_id"]], after[claim["claim_id"]]
            assert (new["label"], new["e"]) == (old["label"], old["e"])
            by_id = {pair["evidence_id"]: pair for pair in old["pairs"]}
            assert new["pairs"] == [by_id[ev["id"]] for ev in claim["evidence"]]


def test_explicit_jobs_starts_a_pool_and_the_default_does_not(
        fever_files, tmp_path, monkeypatch):
    """The fixture batch is far below one worker's worth of work, so only
    an explicit --jobs starts a pool: criterion 09 compares a real pool
    with a serial run."""
    if usable_cpus() < 2:
        pytest.skip("a pool needs at least 2 usable CPUs")
    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def spy(workers, *args, **kwargs):
        started.append(workers)
        return real(workers, *args, **kwargs)

    # verdict imports the executor from concurrent.futures when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    claims, amrs = fever_files
    for jobs in ([], ["--jobs", "8"]):
        assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                         "--amrs", amrs, "--backend", "test:dim=64",
                         "--out", str(tmp_path / "verdicts.jsonl"), *jobs]) == 0
    assert len(started) == 1 and started[0] >= 2


def test_verify_missing_amr_is_domain_error(fever_files, tmp_path, capsys):
    claims, amrs = fever_files
    pruned = tmp_path / "pruned.jsonl"
    rows = [json.loads(l) for l in Path(amrs).read_text().splitlines()][:-1]
    pruned.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", str(pruned), "--backend", "test"]) == 1
    assert "e-rabies" in capsys.readouterr().err


def test_evaluate_sweep_report_dir(fever_files, tmp_path, capsys):
    claims, amrs = fever_files
    report_dir = tmp_path / "reports"
    assert dispatch(["evaluate", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--backend", "test:dim=64",
                     "--sweep", "0:1:0.5", "--report", str(report_dir)]) == 0
    files = sorted(p.name for p in report_dir.iterdir())
    assert files == ["report_lambda_0.5.json", "report_lambda_0.json",
                     "report_lambda_1.json", "summary.md"]
    payload = json.loads((report_dir / "report_lambda_1.json").read_text())
    assert payload["n_claims"] == 2
    assert set(payload["per_label_f1"]) == {"S", "R", "N"}
    summary = (report_dir / "summary.md").read_text()
    assert summary.count("\n") == 5  # header + separator + three lambda rows
    assert not any(line.startswith("# lambda")
                   for line in _header(capsys.readouterr().err))
    # Six lambdas that agree to 6 significant digits: a file and a row each.
    fine_dir = tmp_path / "fine"
    assert dispatch(["evaluate", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--backend", "test:dim=64",
                     "--sweep", "0.1:0.1000005:0.0000001",
                     "--report", str(fine_dir)]) == 0
    lambdas = {path.name: json.loads(path.read_text())["lambda"]
               for path in fine_dir.glob("report_lambda_*.json")}
    assert len(set(lambdas.values())) == 6
    for name, lam in lambdas.items():
        assert name == f"report_lambda_{lam:.12g}.json"
    rows = (fine_dir / "summary.md").read_text().splitlines()[2:]
    assert len({row.split(" | ")[0] for row in rows}) == 6


def test_evaluate_stdout_table(fever_files, capsys):
    claims, amrs = fever_files
    assert dispatch(["evaluate", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--backend", "test:dim=64",
                     "--lambda", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| lambda |")


def test_ingest_stats_and_normalize(fever_files, tmp_path, capsys):
    claims, _ = fever_files
    out = tmp_path / "normalized.jsonl"
    assert dispatch(["ingest", "--dataset", "fever", "--in", claims,
                     "--out", str(out), "--stats"]) == 0
    stats = capsys.readouterr().out
    assert "claims: 2" in stats
    assert "(reference: 3281)" in stats  # differing counts are flagged, not fatal
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows[0]["claim_id"] == "c-marnie"


def test_ingest_stats_of_an_empty_file_list_the_dataset_labels(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert dispatch(["ingest", "--dataset", "averitec", "--in", str(empty)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "claims: 0", "S: 0  (reference: 649)", "R: 0  (reference: 1166)",
        "N: 0  (reference: 115)", "C: 0  (reference: 226)"]


def test_explain_text_and_prompt(fever_files, tmp_path, capsys):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", claims, "--amrs", amrs]
    assert dispatch(["verify", "--dataset", "fever", *base,
                     "--backend", "test:dim=64", "--out", str(verdicts)]) == 0
    capsys.readouterr()
    pair = f"{verdicts}#c-rabies/e-rabies"
    assert dispatch(["explain", "--pair", pair, *base]) == 0
    text = capsys.readouterr().out
    assert "claim: a disease can ride" in text
    assert "-->" in text
    assert dispatch(["explain", "--pair", pair, *base,
                     "--format", "prompt"]) == 0
    prompt = capsys.readouterr().out
    assert "Key Mappings" in prompt and "Classification" in prompt
    assert dispatch(["explain", "--pair", f"{verdicts}#c-rabies", *base]) == 1
    assert dispatch(["explain", "--pair", f"{verdicts}#nope/e-rabies", *base]) == 1


def test_explain_splits_the_selector_where_both_ids_are_stored(tmp_path, capsys):
    # Ids may hold '/': a row is matched by its own claim id, which the
    # selector's ids start with, followed by a '/' and the evidence id.
    claims = tmp_path / "claims.jsonl"
    claims.write_text(json.dumps({
        "claim_id": "x/1", "claim": "a film was directed", "label": "S",
        "evidence": [{"id": "x/1-e0", "text": "the director made the film"}]}) + "\n")
    amrs = tmp_path / "amrs.jsonl"
    amrs.write_text(json.dumps({"id": "x/1", "penman": MARNIE_CLAIM}) + "\n"
                    + json.dumps({"id": "x/1-e0", "penman": MARNIE_EVIDENCE}) + "\n")
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", str(claims), "--amrs", str(amrs)]
    assert dispatch(["verify", "--dataset", "fever", *base, "--out", str(verdicts)]) == 0
    capsys.readouterr()
    assert dispatch(["explain", "--pair", f"{verdicts}#x/1/x/1-e0", *base]) == 0
    assert "claim: a film was directed" in capsys.readouterr().out
    for selector, message in (("x/1/x/1-e9", "evidence 'x/1-e9' not found for claim 'x/1'"),
                              ("y/1/x/1-e0", "claim 'y' not found")):
        assert dispatch(["explain", "--pair", f"{verdicts}#{selector}", *base]) == 1
        assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("reverse", [False, True], ids=["a-first", "a/b-first"])
def test_explain_reads_the_first_row_whose_claim_id_the_selector_starts_with(
        tmp_path, capsys, reverse):
    # Selector a/b/c names claim 'a' holding pair 'b/c' and claim 'a/b'
    # holding pair 'c': the first of the two rows in the file is read.
    claims = [{"claim_id": "a", "claim": "a film was directed", "label": "S",
               "evidence": [{"id": "b/c", "text": "the director made the film"}]},
              {"claim_id": "a/b", "claim": "a disease can ride", "label": "R",
               "evidence": [{"id": "c", "text": "vaccination prevents it"}]}]
    if reverse:
        claims.reverse()
    claims_path, amrs_path = tmp_path / "claims.jsonl", tmp_path / "amrs.jsonl"
    claims_path.write_text("".join(json.dumps(r) + "\n" for r in claims))
    amrs_path.write_text("".join(json.dumps({"id": rid, "penman": text}) + "\n" for rid, text in [
        ("a", MARNIE_CLAIM), ("b/c", MARNIE_EVIDENCE),
        ("a/b", RABIES_CLAIM), ("c", RABIES_EVIDENCE)]))
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", str(claims_path), "--amrs", str(amrs_path)]
    assert dispatch(["verify", "--dataset", "fever", *base, "--out", str(verdicts)]) == 0
    capsys.readouterr()
    assert dispatch(["explain", "--pair", f"{verdicts}#a/b/c", *base]) == 0
    assert f"claim: {claims[0]['claim']}\n" in capsys.readouterr().out


@pytest.mark.parametrize("rename, message", [
    ("c-rabies", "claim 'c-rabies' not found in {claims}"),
    ("e-rabies", "evidence 'e-rabies' not found for claim 'c-rabies'"),
], ids=["claim", "evidence"])
def test_explain_names_a_pair_missing_from_the_claims(fever_files, tmp_path, capsys,
                                                      rename, message):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--out", str(verdicts)]) == 0
    renamed = tmp_path / "renamed.jsonl"
    renamed.write_text(Path(claims).read_text().replace(f'"{rename}"', '"other"'))
    capsys.readouterr()
    assert dispatch(["explain", "--pair", f"{verdicts}#c-rabies/e-rabies",
                     "--claims", str(renamed), "--amrs", amrs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message.format(claims=renamed)}" in captured.err


def test_explain_generates_through_the_service(fever_files, tmp_path, capsys,
                                               generate_server):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", claims, "--amrs", amrs]
    assert dispatch(["verify", "--dataset", "fever", *base, "--out", str(verdicts)]) == 0
    capsys.readouterr()
    _GenerateHandler.behavior = "ok"
    assert dispatch(["explain", "--pair", f"{verdicts}#c-rabies/e-rabies", *base,
                     "--generate", "--service", generate_server]) == 0
    text = capsys.readouterr().out
    assert "claim: a disease can ride" in text
    assert text.splitlines()[-1].startswith("ANALYSIS of: You are analyzing")


def test_explain_recomputation_matches_verify(fever_files, tmp_path, capsys):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", claims, "--amrs", amrs]
    assert dispatch(["verify", "--dataset", "fever", *base,
                     "--backend", "test:dim=64", "--seed", "5",
                     "--out", str(verdicts)]) == 0
    capsys.readouterr()
    row = next(json.loads(l) for l in verdicts.read_text().splitlines()
               if json.loads(l)["claim_id"] == "c-marnie")
    assert dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                     *base]) == 0
    text = capsys.readouterr().out
    assert f"combined (lambda=0): {row['pairs'][0]['f']:.4f}" in text
    assert f"verdict: {row['label']}" in text


def test_explain_renders_the_stored_pair(fever_files, tmp_path, capsys,
                                         monkeypatch):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", claims, "--amrs", amrs]
    assert dispatch(["verify", "--dataset", "fever", *base,
                     "--backend", "test:dim=64", "--out", str(verdicts)]) == 0
    capsys.readouterr()
    row = next(json.loads(l) for l in verdicts.read_text().splitlines()
               if json.loads(l)["claim_id"] == "c-marnie")
    stored = row["pairs"][0]
    # Scoring settings that differ from the verify run, and an embedding
    # service nobody listens on: explain must use none of them.
    for key, value in {"LAMBDA": "1", "SEED": "9", "RESTARTS": "1",
                       "INCLUDE_TOP": "0",
                       "BACKEND": "service:http://127.0.0.1:9"}.items():
        monkeypatch.setenv(f"AMREX_{key}", value)
    assert dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                     *base]) == 0
    captured = capsys.readouterr()
    text = captured.out
    assert _header(captured.err) == ["# dataset = fever",
                                     "# question_mode = answer-only"]
    claim, evidence = parse_penman(MARNIE_CLAIM), parse_penman(MARNIE_EVIDENCE)
    mapping_lines = [f"{hv}({claim.nodes[hv]}) --> {pv}({evidence.nodes[pv]})"
                     for hv, pv in stored["mapping"]]
    assert stored["mapping"] and [l for l in text.splitlines()
                                  if "-->" in l] == mapping_lines
    assert f"structural containment: {stored['smatch_p']:.4f}" in text
    assert f"textual similarity: {stored['cosine']:.4f}" in text
    assert f"combined (lambda={row['lambda']:g}): {stored['f']:.4f}" in text
    assert f"decision: {stored['decision']:+d}" in text
    assert f"verdict: {row['label']}" in text


_WHERE = "{verdicts}: claim 'c-marnie' / evidence 'e-marnie': "


@pytest.mark.parametrize("corrupt, message", [
    (lambda row: row["pairs"][0].pop("mapping"), "no stored 'mapping'; re-run verify"),
    (lambda row: row["pairs"][0].update(mapping=[["a0", "b99"]]),
     _WHERE + "the stored mapping names variables missing from {amrs}; re-run verify"),
    (lambda row: row.pop("dataset"), _WHERE + "no stored 'dataset'; re-run verify"),
    (lambda row: row.pop("question_mode"),
     _WHERE + "no stored 'question_mode'; re-run verify"),
    (lambda row: row["pairs"][0].update(smatch_p="abc"),
     _WHERE + "malformed verdict row: smatch_p must be a number, got str"),
    (lambda row: row.update({"lambda": True}),
     _WHERE + "malformed verdict row: lambda must be a number, got bool"),
    (lambda row: row["pairs"][0].update(decision=0),
     _WHERE + "malformed verdict row: decision must be 1 or -1, got 0"),
    (lambda row: row["pairs"][0].update(mapping=[["a0", "b0"], ["a1", "b0"]]),
     _WHERE + "malformed verdict row: premise variable 'b0' mapped twice"),
    (lambda row: row.update(question_mode=[1]),
     _WHERE + "malformed verdict row: question_mode must be one of "
              "answer-only, question-plus-answer, got [1]"),
    (lambda row: row.update(label=3),
     _WHERE + "malformed verdict row: label must be one of S, R, N, got 3"),
    (lambda row: row["pairs"][0].update(decision=-row["pairs"][0]["decision"]),
     _WHERE + "malformed verdict row: pair 'e-marnie': decision +1 is not th1(f) = -1"),
    (lambda row: row["pairs"][0].update(f=1.0),
     _WHERE + "malformed verdict row: pair 'e-marnie': f 1.0 is not "
              "lambda * smatch_p + (1 - lambda) * cosine = "),
    (lambda row: row.update(label="N"),
     _WHERE + "malformed verdict row: label N is not th2 of the decisions' mean, R"),
    (lambda row: row.update(e=1.0),
     _WHERE + "malformed verdict row: e 1.0 is not the mean of the decisions, -1.0"),
    (lambda row: row["pairs"][0].update(mapping=[
        [hv, row["pairs"][0]["mapping"][i - 1][1]]
        for i, (hv, _pv) in enumerate(row["pairs"][0]["mapping"])]),
     _WHERE + "malformed verdict row: smatch_p 0.75 is not the stored mapping's "
              "count over the claim's triples, 0.0 with the top triple or 0.0 without"),
    (lambda row: row["pairs"].append(dict(row["pairs"][0], evidence_id="e-other", f="x")),
     "{verdicts}: claim 'c-marnie' / evidence 'e-other': "
     "malformed verdict row: f must be a number, got str"),
], ids=["no-mapping", "unknown-variable", "no-dataset", "no-question-mode",
        "smatch-p-a-string", "lambda-a-bool", "decision-zero", "mapping-not-injective",
        "question-mode-a-list", "label-a-number", "decision-flipped", "f-one",
        "label-not-the-decisions", "e-not-the-mean", "mapping-rotated",
        "other-pair-f-a-string"])
def test_explain_rejects_a_stored_pair_it_cannot_render(fever_files, tmp_path,
                                                        capsys, corrupt, message):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", claims, "--amrs", amrs]
    assert dispatch(["verify", "--dataset", "fever", *base,
                     "--out", str(verdicts)]) == 0
    rows = [json.loads(l) for l in verdicts.read_text().splitlines()]
    corrupt(rows[0])
    verdicts.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                     *base]) == 1
    assert message.format(verdicts=verdicts, amrs=amrs) in capsys.readouterr().err


def test_any_json_value_in_a_stored_row_renders_or_is_a_dataset_error(
        fever_files, tmp_path):
    """A row with any one value replaced renders only if it does not
    contradict itself: each pair's f is the blend of its scores and its
    decision th1(f), the row's e and label follow from the decisions, and
    the mapping counts to smatch_p under one of the include_top settings."""
    claims, amrs = fever_files
    claim_graph, evidence_graph = parse_penman(MARNIE_CLAIM), parse_penman(MARNIE_EVIDENCE)
    verdicts = tmp_path / "verdicts.jsonl"
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--out", str(verdicts)]) == 0
    row = json.loads(verdicts.read_text().splitlines()[0])
    stored = tmp_path / "stored.jsonl"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        corrupted = copy.deepcopy(row)
        *parents, last = data.draw(st.sampled_from(list(field_paths(corrupted))))
        container = corrupted
        for key in parents:
            container = container[key]
        container[last] = data.draw(JSON_VALUES)
        stored.write_text(json.dumps(corrupted) + "\n")
        args = build_parser().parse_args([
            "explain", "--pair", f"{stored}#c-marnie/e-marnie", "--claims", claims,
            "--amrs", amrs, "--format", data.draw(st.sampled_from(("text", "markdown",
                                                                   "prompt")))])
        try:
            assert args.func(args) == 0
        except DatasetError:
            return
        lam, pairs = corrupted["lambda"], corrupted["pairs"]
        for pair in pairs:
            assert pair["f"] == combined_score(lam, pair["smatch_p"], pair["cosine"])
            assert pair["decision"] == th1(pair["f"])
        mean = aggregate(pair["decision"] for pair in pairs)
        assert corrupted["e"] == float(mean)
        assert corrupted["label"] == th2(mean, corrupted["dataset"]).value
        [pair] = [pair for pair in pairs if pair["evidence_id"] == "e-marnie"]
        assert pair["smatch_p"] in [
            score_mapping(evidence_graph, claim_graph, VariableMapping(pair["mapping"]),
                          top).precision for top in (True, False)]

    check()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_explain_renders_every_pair_verify_writes(fever_files, tmp_path, capsys, jobs):
    """Every row verify writes passes explain's checks, with the top triple
    counted and without it."""
    shared_claims, shared_amrs = _shared_graph_claims(random.Random(23))
    claims_path, amrs_path = tmp_path / "shared-claims.jsonl", tmp_path / "shared-amrs.jsonl"
    claims_path.write_text("".join(json.dumps(r) + "\n" for r in shared_claims))
    amrs_path.write_text("".join(json.dumps({"id": rid, "penman": text}) + "\n"
                                 for rid, text in shared_amrs))
    runs = [(*fever_files, []),
            (str(claims_path), str(amrs_path), ["--lambda", "0.5", "--no-top"])]
    explained = 0
    for claims, amrs, flags in runs:
        verdicts = tmp_path / "verdicts.jsonl"
        base = ["--claims", claims, "--amrs", amrs]
        assert dispatch(["verify", "--dataset", "fever", *base, *flags,
                         "--backend", "test:dim=64", "--jobs", jobs,
                         "--out", str(verdicts)]) == 0
        for row in map(json.loads, verdicts.read_text().splitlines()):
            for pair in row["pairs"]:
                capsys.readouterr()
                assert dispatch(["explain", "--pair",
                                 f"{verdicts}#{row['claim_id']}/{pair['evidence_id']}",
                                 *base]) == 0, capsys.readouterr().err
                explained += 1
    assert explained > 20


@pytest.mark.parametrize("dropped", ["c-rabies", "e-rabies", "c-marnie", "e-marnie"])
def test_explain_reads_only_the_graphs_of_its_pair(fever_files, tmp_path, capsys,
                                                   dropped):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--out", str(verdicts)]) == 0
    pruned = tmp_path / "pruned.jsonl"
    rows = [json.loads(l) for l in Path(amrs).read_text().splitlines()]
    pruned.write_text("".join(json.dumps(r) + "\n" for r in rows
                              if r["id"] != dropped))
    capsys.readouterr()
    status = dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                       "--claims", claims, "--amrs", str(pruned)])
    captured = capsys.readouterr()
    if dropped.endswith("-marnie"):
        assert status == 1 and captured.out == ""
        assert f"AMR bundle {pruned} is missing ids: ['{dropped}']" in captured.err
    else:
        assert status == 0 and "claim: a film was directed" in captured.out


@pytest.mark.parametrize("broken", ["c-rabies", "e-rabies", "c-marnie", "e-marnie"])
def test_explain_parses_only_the_graphs_of_its_pair(fever_files, tmp_path, capsys,
                                                    broken):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--out", str(verdicts)]) == 0
    rows = [json.loads(l) for l in Path(amrs).read_text().splitlines()]
    for row in rows:
        if row["id"] == broken:
            row["penman"] = "(x/a :mod"
    Path(amrs).write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    status = dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                       "--claims", claims, "--amrs", amrs])
    captured = capsys.readouterr()
    if broken.endswith("-marnie"):
        assert status == 1 and captured.out == ""
        line = [row["id"] for row in rows].index(broken) + 1
        assert f"error: {amrs}:{line}: bundle id '{broken}': " in captured.err
    else:
        assert status == 0 and "claim: a film was directed" in captured.out


def test_explain_reads_the_claims_only_up_to_its_claim(fever_files, tmp_path, capsys):
    claims, amrs = fever_files
    verdicts = tmp_path / "verdicts.jsonl"
    assert dispatch(["verify", "--dataset", "fever", "--claims", claims,
                     "--amrs", amrs, "--out", str(verdicts)]) == 0
    with open(claims, "a", encoding="utf-8") as fh:
        fh.write('{"claim_id": "c-later", "label": ["S"]}\n')
    capsys.readouterr()
    assert dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                     "--claims", claims, "--amrs", amrs]) == 0
    assert "claim: a film was directed" in capsys.readouterr().out


def test_explain_renders_the_text_verify_scored(tmp_path, capsys, monkeypatch):
    claims = tmp_path / "claims.jsonl"
    claims.write_text(json.dumps({
        "claim_id": "c-marnie", "claim": "Marnie is a romantic film",
        "label": "Supported",
        "evidence": [{"id": "e-marnie", "text": "It is a 1964 thriller film",
                      "kind": "abstractive", "question": "What is Marnie?"}],
    }) + "\n")
    amrs = tmp_path / "amrs.jsonl"
    amrs.write_text(json.dumps({"id": "c-marnie", "penman": MARNIE_CLAIM}) + "\n"
                    + json.dumps({"id": "e-marnie", "penman": MARNIE_EVIDENCE})
                    + "\n")
    verdicts = tmp_path / "verdicts.jsonl"
    base = ["--claims", str(claims), "--amrs", str(amrs)]
    assert dispatch(["verify", "--dataset", "averitec", *base,
                     "--question-mode", "question-plus-answer",
                     "--out", str(verdicts)]) == 0
    capsys.readouterr()
    # Settings that differ from the verify run: explain must read neither.
    monkeypatch.setenv("AMREX_DATASET", "fever")
    monkeypatch.setenv("AMREX_QUESTION_MODE", "answer-only")
    assert dispatch(["explain", "--pair", f"{verdicts}#c-marnie/e-marnie",
                     *base]) == 0
    captured = capsys.readouterr()
    assert "evidence: What is Marnie? It is a 1964 thriller film" in captured.out
    assert _header(captured.err) == ["# dataset = averitec",
                                     "# question_mode = question-plus-answer"]


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--dataset", "fever", "--sweep", "0:2:0.5"], "leaves [0, 1]"),
    (["explain", "--pair", "{missing}#c/e", "--generate"],
     "--generate requires --service"),
], ids=["evaluate-bad-sweep", "explain-generate-without-service"])
def test_argument_errors_come_before_any_file_is_read(tmp_path, capsys,
                                                      argv, message):
    missing = tmp_path / "missing.jsonl"
    argv = [a.format(missing=missing) for a in argv]
    assert dispatch([*argv, "--claims", str(missing), "--amrs", str(missing)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and str(missing) not in captured.err
    assert captured.out == ""


_REQUIRED_ARGS = {
    "smatch": ["--premise", "p.amr", "--hypothesis", "h.amr"],
    "score-pair": ["--claim-amr", "c.amr", "--evidence-amr", "e.amr",
                   "--claim-text", "c", "--evidence-text", "e"],
    "ingest": ["--dataset", "fever", "--in", "claims.jsonl"],
    "explain": ["--pair", "v.jsonl#c/e",
                "--claims", "claims.jsonl", "--amrs", "amrs.jsonl"],
}
_SCORING_FLAGS = {"--lambda": ["0.5"], "--backend": ["test"], "--jobs": ["1"],
                  "--restarts": ["1"], "--seed": ["1"], "--no-top": []}
_FLAG_ARGS = {**_SCORING_FLAGS, "--question-mode": ["question-plus-answer"],
              "--dataset": ["fever"], "--config": ["run.cfg"]}
_UNREAD_FLAGS = ([("smatch", f) for f in ("--lambda", "--backend", "--jobs")]
                 + [("score-pair", "--jobs")]
                 + [(command, f) for command in ("ingest", "explain")
                    for f in _SCORING_FLAGS]
                 + [("ingest", "--question-mode")]
                 + [("explain", f)
                    for f in ("--config", "--dataset", "--question-mode")])


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f in _UNREAD_FLAGS])
def test_subcommand_rejects_flags_it_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        dispatch([command, *_REQUIRED_ARGS[command], flag, *_FLAG_ARGS[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe\n"


@pytest.mark.parametrize("argv, content, where", [
    (["parse", "--in", "{bad}"], None, ""),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"], None, ""),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "evidence": [{"text": "y"}]}', ":1: missing key 'label'"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"], "[1, 2]", ":1: expected a JSON object"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"], "[1, 2]", ":1: expected a JSON object"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": "abc"}',
     ":1: evidence must be a list, got str"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": [{"text": 5}]}',
     ":1: evidence text must be a string, got int"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": ["S"], "evidence": [{"text": "y"}]}',
     ":1: label must be a string, got list"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"], '{"id": "c", "penman": 5}',
     ":1: penman must be a string, got int"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": [1], "claim": "x", "label": "S", "evidence": [{"text": "y"}]}',
     ":1: claim_id must be a string or an integer, got list"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": true, "claim": "x", "label": "S", "evidence": [{"text": "y"}]}',
     ":1: claim_id must be a string or an integer, got bool"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": [{"id": 1.5, "text": "y"}]}',
     ":1: evidence id must be a string or an integer, got float"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"], '{"id": null, "penman": "(x / y)"}',
     ":1: bundle id must be a string or an integer, got NoneType"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"], '{"id": {"a": 1}, "penman": "(x / y)"}',
     ":1: bundle id must be a string or an integer, got dict"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"],
     '{"id": "c1", "penman": "(a / x :mod (b / y :mod a))"}',
     "error: {bad}:1: bundle id 'c1': edge cycle through "),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"],
     '{"id": "c1", "penman": "(x / y :mod"}',
     "error: {bad}:1: bundle id 'c1': unbalanced parenthesis at offset 11"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"],
     '{"id": "c1", "penman": "(x / y)"}\n{"id": "c1", "penman": "(x / z)"}',
     ":2: duplicate bundle id 'c1' (first at line 1)"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c1", "claim": "x", "label": "S", "evidence": [{"text": "y"}]}\n'
     '{"claim_id": "c2", "claim": "x", "label": "S", "evidence": [{"text": "y"}]}\n'
     '{"claim_id": "c1", "claim": "z", "label": "R", "evidence": [{"text": "y"}]}',
     ":3: duplicate claim id 'c1' (first at line 1)"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim": "x", "label": "S", "evidence": [{"text": "y"}]}\n'
     '{"claim_id": 1, "claim": "z", "label": "R", "evidence": [{"text": "y"}]}',
     ":2: duplicate claim id '1' (first at line 1); "
     "line 1 has no claim_id and took its line number as id"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "film \\ud800", "label": "S", "evidence": [{"text": "y"}]}',
     ":1: claim holds a lone surrogate"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c\\udfff", "claim": "x", "label": "S", "evidence": [{"text": "y"}]}',
     ":1: claim_id holds a lone surrogate"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": [{"id": "\\ud800", "text": "y"}]}',
     ":1: evidence id holds a lone surrogate"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"],
     '{"id": "c1", "penman": "(x / film\\ud800)"}', ":1: penman holds a lone surrogate"),
    (["verify", "--claims", "{claims}", "--amrs", "{bad}"],
     '{"id": "\\ud800", "penman": "(x / y)"}', ":1: bundle id holds a lone surrogate"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": [{"text": "y"}]}\n'
     '{"claim_id": "d", "claim": "x", "label": "S", "evidence": '
     '[{"id": "e", "text": "y"}, {"id": "e", "text": "z"}]}',
     ":2: claim 'd': duplicate evidence ids"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "maybe", "evidence": [{"text": "y"}]}',
     ":1: claim 'c': unknown label 'maybe'"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": [{"text": "y", "kind": "video"}]}',
     ":1: claim 'c': unknown evidence kind 'video'"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}", "--dataset", "averitec"],
     '{"claim_id": "c", "claim": "x", "label": "S", "questions": '
     '[{"question": "q", "answers": [{"answer": "a", "answer_type": "Video"}]}]}',
     ":1: claim 'c': unknown answer type 'Video'"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "S", "evidence": [{"text": "y", "kind": "extractive"}]}',
     ":1: claim 'c': 3-way evidence must have kind 'sentence'"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
     '{"claim_id": "c", "claim": "x", "label": "N", "evidence": []}',
     ":1: claim 'c' has no evidence"),
    (["explain", "--pair", "{bad}#c-marnie/e-marnie", "--claims", "{claims}",
      "--amrs", "{amrs}"], None, ""),
    (["explain", "--pair", "{bad}#c-marnie/e-marnie", "--claims", "{claims}",
      "--amrs", "{amrs}"], "not json", ":1: bad JSON"),
    (["parse", "--in", "{bad}"], NOT_UTF8, ": not UTF-8"),
    (["parse", "--in", "{bad}"], "(x / y :mod", "error: {bad}: unbalanced parenthesis"),
    (["smatch", "--premise", "{good}", "--hypothesis", "{bad}"], "(x / y :mod",
     "error: {bad}: unbalanced parenthesis"),
    (["score-pair", "--claim-amr", "{good}", "--evidence-amr", "{bad}",
      "--claim-text", "x", "--evidence-text", "y"], "(a / x :mod (b / y :mod a))",
     "error: {bad}: edge cycle through "),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"], NOT_UTF8, ":1: not UTF-8"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}", "--config", "{bad}"],
     NOT_UTF8, ": 'utf-8' codec can't decode"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--backend", "file:{bad}"], NOT_UTF8, ":1: not UTF-8"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--backend", "file:{bad}"], None, ": No such file"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--backend", "file:{bad}"], "[1, 2]", ":1: expected a JSON object"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--backend", "file:{bad}"], '{"text": "a"}', ":1: missing key 'vector'"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}", "--backend", "file:{bad}"],
     '{"text": "a", "vector": [1]}\n{"text": "a", "vector": [2]}',
     ":2: duplicate text 'a' (first at line 1)"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}", "--backend", "file:{bad}"],
     '{"text": "film \\ud800", "vector": [1]}', ":1: text holds a lone surrogate"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}", "--backend", "file:{bad}"],
     '{"text": "", "vector": [1]}', ":1: text is empty"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--out", "{bad}/v.jsonl"], None, "/v.jsonl: No such file"),
    (["evaluate", "--claims", "{claims}", "--amrs", "{amrs}",
      "--report", "{bad}/reports"], "a file", "/reports: "),
    (["evaluate", "--claims", "{bad}", "--amrs", "{amrs}"], "", ": no claims to evaluate"),
    (["ingest", "--in", "{claims}", "--out", "{bad}/n.jsonl"], None,
     "/n.jsonl: No such file"),
], ids=["parse-missing", "claims-missing", "claims-no-label", "claims-not-object",
        "amrs-not-object", "evidence-not-a-list", "evidence-text-not-a-string",
        "label-not-a-string", "penman-not-a-string", "claim-id-a-list",
        "claim-id-a-bool", "evidence-id-a-float", "bundle-id-null",
        "bundle-id-an-object", "bundle-graph-cyclic", "bundle-graph-not-closed",
        "bundle-id-twice", "claim-id-twice",
        "claim-id-numbered-twice", "claim-text-lone-surrogate", "claim-id-lone-surrogate",
        "evidence-id-lone-surrogate", "bundle-concept-lone-surrogate",
        "bundle-id-lone-surrogate", "evidence-ids-twice", "label-unknown",
        "evidence-kind-unknown", "answer-type-unknown", "fever-kind-not-sentence",
        "claim-without-evidence", "verdicts-missing",
        "verdicts-bad-json", "parse-not-utf8", "parse-graph-not-closed",
        "smatch-hypothesis-not-closed", "score-pair-evidence-cyclic",
        "claims-not-utf8", "config-not-utf8",
        "embeddings-not-utf8", "embeddings-missing", "embeddings-not-object",
        "embeddings-no-vector", "embeddings-text-twice", "embeddings-text-lone-surrogate",
        "embeddings-text-empty", "verify-out-no-dir",
        "evaluate-report-under-a-file", "evaluate-claims-empty", "ingest-out-no-dir"])
def test_unreadable_or_malformed_input_is_domain_error(fever_files, tmp_path, capsys,
                                                       argv, content, where):
    claims, amrs = fever_files
    bad, good = tmp_path / "bad.jsonl", tmp_path / "good.amr"
    good.write_text("(x / film)")
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content + "\n")
    argv = [a.format(bad=bad, good=good, claims=claims, amrs=amrs) for a in argv]
    if argv[0] in ("verify", "evaluate", "ingest") and "--dataset" not in argv:
        argv += ["--dataset", "fever"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    # A where that names the file is the whole message; any other follows
    # the file's name.
    assert (where.format(bad=bad) if "{bad}" in where else f"{bad}{where}") in err
    # The file is named once: a prefix is never doubled.
    assert [line.count(str(bad)) for line in err.splitlines()
            if line.startswith("error:")] == [1]
    assert "Traceback" not in err


# A JSON line nested 1,500 levels deep: the decoder gives up on it.
_DEEP_LINE = '{"a": ' + "[" * 1500 + "]" * 1500 + "}"


@pytest.mark.parametrize("argv", [
    ["verify", "--claims", "{bad}", "--amrs", "{amrs}"],
    ["verify", "--claims", "{claims}", "--amrs", "{bad}"],
    ["verify", "--claims", "{claims}", "--amrs", "{amrs}", "--backend", "file:{bad}"],
    ["explain", "--pair", "{bad}#c-marnie/e-marnie", "--claims", "{claims}",
     "--amrs", "{amrs}"],
], ids=["claims", "bundle", "embeddings", "verdicts"])
def test_json_nested_too_deep_is_a_domain_error(fever_files, tmp_path, capsys, argv):
    claims, amrs = fever_files
    bad = tmp_path / "deep.jsonl"
    bad.write_text(_DEEP_LINE + "\n")
    argv = [a.format(bad=bad, claims=claims, amrs=amrs) for a in argv]
    if argv[0] == "verify":
        argv += ["--dataset", "fever"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert f"{bad}:1:" in line
    assert "Traceback" not in err


def _verify_out(fever_files, out) -> int:
    claims, amrs = fever_files
    return dispatch(["verify", "--dataset", "fever", "--claims", claims, "--amrs", amrs,
                     "--out", str(out)])


@pytest.mark.parametrize("command", ["verify", "ingest"])
def test_a_failed_out_write_keeps_the_old_file(fever_files, tmp_path, capsys, monkeypatch,
                                               command):
    claims, amrs = fever_files
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old rows\n")
    before = sorted(os.listdir(tmp_path))

    class HalfWritten:
        """A file that takes half of the text, then fails as a full disk."""
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def half_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWritten(fh) if "w" in mode or "x" in mode else fh

    # Every writer, wherever it opens its file, fills the disk halfway.
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", half_open)
    argv = {"verify": ["verify", "--claims", claims, "--amrs", amrs],
            "ingest": ["ingest", "--in", claims]}[command]
    assert dispatch([*argv, "--dataset", "fever", "--out", str(out)]) == 1
    assert f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}" in capsys.readouterr().err
    assert out.read_bytes() == b"old rows\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_out_replacing_a_file_keeps_its_mode(fever_files, tmp_path):
    expected, out = tmp_path / "expected.jsonl", tmp_path / "verdicts.jsonl"
    assert _verify_out(fever_files, expected) == 0
    out.write_text("old rows\n")
    out.chmod(0o640)
    before = sorted(os.listdir(tmp_path))
    assert _verify_out(fever_files, out) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == before


def test_out_through_a_symlink_writes_its_target(fever_files, tmp_path):
    expected, target, link = (tmp_path / n for n in ("expected.jsonl", "target.jsonl",
                                                     "link.jsonl"))
    assert _verify_out(fever_files, expected) == 0
    target.write_text("old rows\n")
    link.symlink_to(target)
    assert _verify_out(fever_files, link) == 0
    assert link.is_symlink() and target.read_bytes() == expected.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_out_to_a_fifo_reaches_its_reader(fever_files, tmp_path):
    expected, fifo = tmp_path / "expected.jsonl", tmp_path / "fifo"
    assert _verify_out(fever_files, expected) == 0
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert _verify_out(fever_files, fifo) == 0
        reader.join(timeout=60)
    finally:
        if reader.is_alive():  # release a reader still waiting for a writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert read == [expected.read_bytes()]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = tmp_path / "g.amr"
    src.write_text(MARNIE_CLAIM)
    result = subprocess.run(
        [sys.executable, "-m", "amrex.cli", "parse", "--in", str(src)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(amrex.__file__))})
    assert result.returncode == 0
    assert result.stdout.strip() == serialize_penman(parse_penman(MARNIE_CLAIM))


def test_verify_bytes_do_not_depend_on_the_string_hash_seed(fever_files, tmp_path):
    """Sets of strings iterate in an order set by the interpreter's hash
    seed; no verdict byte may follow it."""
    claims, amrs = fever_files
    src = os.path.dirname(os.path.dirname(amrex.__file__))
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"verdicts-{hash_seed}.jsonl"
        subprocess.run([sys.executable, "-m", "amrex.cli", "verify", "--dataset", "fever",
                        "--claims", claims, "--amrs", amrs, "--out", str(out)],
                       capture_output=True, check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 2


@pytest.mark.parametrize("command", ["verify", "evaluate"])
@pytest.mark.parametrize("claim_vector, evidence_vector, message", [
    ([0.0, 0.0], [1.0, 2.0], "cosine of zero-norm vector"),
    ([1.0, 2.0, 3.0], [1.0, 2.0], "dimension mismatch: 2 vs 3"),
    ([1e200, 1e200], [1e200, 1e200], "cosine overflow"),
], ids=["zero-vector", "dimension-mismatch", "overflow"])
def test_a_scoring_error_names_the_pair(fever_files, tmp_path, capsys, command,
                                        claim_vector, evidence_vector, message):
    claims, amrs = fever_files
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("".join(json.dumps({"text": t, "vector": v}) + "\n" for t, v in [
        ("a film was directed", claim_vector),
        ("the director made the film", evidence_vector),
        ("a disease can ride", [1.0, 0.0]),
        ("vaccination prevents it", [0.0, 1.0])]))
    assert dispatch([command, "--dataset", "fever", "--claims", claims, "--amrs", amrs,
                     "--backend", f"file:{vectors}", "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: claim 'c-marnie' / evidence 'e-marnie': {message}" in err
    assert "Traceback" not in err


def test_config_precedence_file_env_flag(fever_files, tmp_path, capsys,
                                         monkeypatch):
    claims, amrs = fever_files
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("lambda = 0.2\nseed = 3\nrestarts = 2\n")

    cfg = RunConfig()
    load_config_file(cfg, str(cfg_file))
    assert cfg.lam == 0.2 and cfg.seed == 3 and cfg.restarts == 2

    monkeypatch.setenv("AMREX_LAMBDA", "0.4")
    apply_env(cfg)
    assert cfg.lam == 0.4  # env overrides file

    assert dispatch(["score-pair", "--claim-amr", amrs, "--evidence-amr", amrs,
                     "--claim-text", "c", "--evidence-text", "e",
                     "--config", str(cfg_file), "--lambda", "0.9",
                     "--seed", "7"]) == 1  # amrs file is not penman: domain error
    err = capsys.readouterr().err
    assert "lambda = 0.9" in err  # flag overrides env overrides file
    assert "seed = 7" in err


@pytest.mark.parametrize("env, config, where", [
    ({"AMREX_EMPTY_EVIDENCE": "label-n"}, None, "AMREX_EMPTY_EVIDENCE"),
    ({}, "seed = 1\nempty_evidence = bogus\n", "{config}:2"),
    ({"AMREX_QUESTION_MODE": "answer"}, None, "AMREX_QUESTION_MODE"),
    ({"AMREX_DATASET": "fevre"}, None, "AMREX_DATASET"),
], ids=["env-empty-evidence", "file-empty-evidence", "env-question-mode",
        "env-dataset"])
def test_setting_outside_its_choices_is_config_error(fever_files, tmp_path, capsys,
                                                     monkeypatch, env, config, where):
    claims, amrs = fever_files
    argv = ["verify", "--dataset", "fever", "--claims", claims, "--amrs", amrs]
    cfg_file = tmp_path / "run.cfg"
    if config is not None:
        cfg_file.write_text(config)
        argv += ["--config", str(cfg_file)]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {where.format(config=cfg_file)}: bad value" in err
    assert "choose from" in err


def test_ingest_then_reload_prefixes_the_question_once(tmp_path, monkeypatch):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({
        "claim_id": "a1", "claim": "some claim", "label": "Refuted",
        "questions": [{"question": "When?", "answers": [
            {"answer": "in 2017", "answer_type": "Extractive"}]}],
    }) + "\n")
    normalized = tmp_path / "normalized.jsonl"
    monkeypatch.setenv("AMREX_QUESTION_MODE", "question-plus-answer")
    assert dispatch(["ingest", "--dataset", "averitec", "--in", str(raw),
                     "--out", str(normalized)]) == 0
    records = load_claims(str(normalized), AVERITEC, "question-plus-answer")
    assert records[0].evidence[0].text == "When? in 2017"


def test_readme_flag_table_matches_the_parser():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
                for line in fh if line.startswith(("| subcommand |", "| `"))]
    columns = rows[0][1:]
    table = {row[0]: {flag for flag, cell in zip(columns, row[1:]) if cell}
             for row in rows[1:]}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(table) == set(subparsers)
    settings = {f.name for f in fields(RunConfig)} | {"config"}
    setting_flags = {opt for p in subparsers.values() for a in p._actions
                     if a.dest in settings for opt in a.option_strings}
    assert set(columns) == setting_flags
    for name, subparser in subparsers.items():
        accepted = {opt for a in subparser._actions for opt in a.option_strings}
        assert table[name] == accepted & setting_flags, name


def test_worker_count_never_exceeds_pairs_or_cpus():
    unit = _WORK_PER_WORKER
    # jobs=0 sizes the pool from the work: serial below one worker's worth
    assert worker_count(0, [], 8) == 1
    assert worker_count(0, [unit - 1], 8) == 1
    assert worker_count(0, [unit // 2] * 2, 8) == 1
    assert worker_count(0, [unit // 2] * 3, 8) == 2
    assert worker_count(0, [unit] * 5 + [1], 64) == 6
    # ... capped at the usable CPUs and at the pairs
    assert worker_count(0, [unit] * 100, 2) == 2
    assert worker_count(0, [10 * unit] * 3, 64) == 3
    assert worker_count(0, [10**12], 64) == 1
    # an explicit N is honoured whatever the work, with the same caps
    assert worker_count(8, [1] * 10, 64) == 8
    assert worker_count(1, [10 * unit] * 10, 64) == 1
    assert worker_count(10**9, [1] * 10**3, 2) == 2
    assert worker_count(10**9, [1] * 3, 10**6) == 3
    assert worker_count(8, [], 8) == 1
    cpus = usable_cpus()
    assert 1 <= cpus <= (os.cpu_count() or cpus)


def _loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running *statement*."""
    src = os.path.dirname(os.path.dirname(amrex.__file__))
    probe = f"import sys; {statement}; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True, timeout=60)
    return set(result.stdout.split())


def test_cli_import_loads_no_http_library():
    """Nor the standard library's HTTP modules, which only a service call
    imports, nor the process-pool modules, which only a pooled run imports."""
    loaded = _loaded_by("import amrex.cli")
    assert sorted(m for m in loaded
                  if m.split(".")[0] in ("requests", "urllib3", "multiprocessing")
                  or m in ("concurrent.futures.process", "http.client",
                           "urllib.error", "urllib.request")) == []


def test_each_module_imports_only_the_stages_before_it():
    def amrex_modules(module):
        return {m for m in _loaded_by(f"import {module}") if m.split(".")[0] == "amrex"}

    assert amrex_modules("amrex") == {"amrex"}
    later = {f"amrex.{m}" for m in ("smatch", "entailment", "similarity",
                                    "verdict", "evaluation", "explain")}
    assert amrex_modules("amrex.ingest") & later == set()
    assert amrex_modules("amrex.smatch") == {"amrex", "amrex.errors",
                                             "amrex.graph", "amrex.smatch"}


def test_every_benchmark_span_target_exists():
    """Each function the benchmark's tracer wraps is still where its
    ``SPANS`` table says; a missing one breaks every traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for span, (module_name, attr) in tracer.SPANS.items():
        module = importlib.import_module(module_name)
        assert callable(functools.reduce(getattr, attr.split("."), module)), span


def _amrex_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted amrex name, for every amrex import in *tree*."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import amrex.cli`` binds ``amrex``, ``import amrex.cli as c`` binds ``c``
                if alias.name.split(".")[0] == "amrex":
                    aliases[alias.asname or "amrex"] = alias.name if alias.asname else "amrex"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "amrex":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The dotted amrex name that *node* spells, if any."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value, aliases)):
        return f"{base}.{node.attr}"
    return None


def _resolve(dotted: str):
    """The object *dotted* names: its longest prefix that imports as a
    module, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        return functools.reduce(getattr, parts[i:], module)
    raise ModuleNotFoundError(dotted)


def test_every_amrex_name_the_benchmark_uses_exists():
    """The benchmark's tracer and set-up probe, and the command its runner
    launches, import and reach only amrex names that exist, and call each
    with arguments its signature accepts."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    [launch] = [node.value.value for node in ast.parse((bench / "run.py").read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAUNCH"]]
    used = set()
    for source in ((bench / "tracer.py").read_text(),
                   (bench / "setup_probe.py").read_text(), launch):
        tree = ast.parse(source)
        aliases = _amrex_aliases(tree)
        used.update(aliases.values())
        for node in ast.walk(tree):
            if (dotted := _dotted(node, aliases)) is not None:
                used.add(dotted)
            if isinstance(node, ast.Call) and (dotted := _dotted(node.func, aliases)):
                args = [a for a in node.args if not isinstance(a, ast.Starred)]
                kwargs = {k.arg: k.value for k in node.keywords if k.arg}
                inspect.signature(_resolve(dotted)).bind_partial(*args, **kwargs)
    for dotted in used:
        _resolve(dotted)
    assert {"amrex.cli.main", "amrex.cli.dispatch", "amrex.smatch.AlignConfig",
            "amrex.smatch.align_exhaustive", "amrex.smatch.align_hill_climb",
            "amrex.ingest.join_amrs", "amrex.similarity.backend_from_spec"} <= used


def test_config_validation(tmp_path):
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        load_config_file(cfg, "/no/such/file.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("restarts = lots\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg, str(bad))
    bad.write_text("mystery = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg, str(bad))
    apply_env(cfg, {"AMREX_INCLUDE_TOP": "OFF"})
    assert cfg.include_top is False
    with pytest.raises(ConfigError, match="AMREX_INCLUDE_TOP: bad value 'ture'"):
        apply_env(cfg, {"AMREX_INCLUDE_TOP": "ture"})
    with pytest.raises(ConfigError, match="AMREX_JOBS: bad value '-1' for 'jobs'"):
        apply_env(cfg, {"AMREX_JOBS": "-1"})
    with pytest.raises(ConfigError, match="AMREX_RESTARTS: bad value '0' for 'restarts'"):
        apply_env(cfg, {"AMREX_RESTARTS": "0"})
    bad.write_text("seed = 1\nrestarts = -2\n")
    with pytest.raises(ConfigError, match=f"{bad}:2: bad value '-2' for 'restarts'"):
        load_config_file(cfg, str(bad))
    bad.write_text("jobs = -1\n")
    with pytest.raises(ConfigError, match=f"{bad}:1: bad value '-1' for 'jobs'"):
        load_config_file(cfg, str(bad))
    # Comment and blank lines are skipped, but count toward the line number.
    bad.write_text("# restarts\n\nrestarts 2\n")
    with pytest.raises(ConfigError, match=f"{bad}:3: expected key=value"):
        load_config_file(cfg, str(bad))
    apply_env(cfg, {"AMREX_JOBS": "0", "AMREX_RESTARTS": "1"})
    assert (cfg.jobs, cfg.restarts) == (0, 1)
    with pytest.raises(ConfigError):
        RunConfig(dataset="fever", lam=1.5).resolved_lambda()


def test_library_defaults_are_the_run_config_defaults():
    """A library call that leaves a setting out runs as the CLI does when
    the setting is left unset."""
    users = {
        "restarts": (AlignConfig, align_hill_climb),
        "include_top": (AlignConfig, align_hill_climb, score_mapping),
        "seed": (align_hill_climb, precompute_pair_components, lambda_sweep,
                 verify_claim),
        "jobs": (score_pairs, precompute_pair_components, lambda_sweep),
        "empty_evidence": (verdict_at, verify_claim, lambda_sweep, classify),
        "question_mode": (iter_claims, load_claims),
    }
    defaults = RunConfig()
    for name, functions in users.items():
        for function in functions:
            default = inspect.signature(function).parameters[name].default
            assert default == getattr(defaults, name), (function.__name__, name)
