import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import amrex
from amrex.cli import build_parser, dispatch
from amrex.config import (RunConfig, apply_env, load_config_file, usable_cpus,
                          worker_count)
from amrex.errors import ConfigError
from amrex.graph import parse_penman, serialize_penman
from amrex.ingest import load_averitec

from _fixtures import (MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM,
                       RABIES_EVIDENCE, RABIES_MAPPING)


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
    assert "# lambda = 0.0" in header  # the dataset default the run used


@pytest.mark.parametrize("command", [
    ["verify", "--out", "{out}/verdicts.jsonl"],
    ["evaluate", "--sweep", "0:1:0.5", "--report", "{out}"],
], ids=["verify", "evaluate-sweep-report"])
def test_parallel_matches_serial_byte_for_byte(fever_files, tmp_path, command):
    claims, amrs = fever_files
    outputs = {}
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        argv = [arg.format(out=out) for arg in command]
        assert dispatch(argv + ["--dataset", "fever", "--claims", claims,
                                "--amrs", amrs, "--backend", "test:dim=64",
                                "--seed", "11", "--jobs", jobs]) == 0
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["1"] and outputs["1"] == outputs["8"]


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
    (lambda row: row["pairs"][0].update(mapping=[["a0", "b99"]]), "missing from"),
    (lambda row: row.pop("dataset"), _WHERE + "no stored 'dataset'; re-run verify"),
    (lambda row: row.pop("question_mode"),
     _WHERE + "no stored 'question_mode'; re-run verify"),
], ids=["no-mapping", "unknown-variable", "no-dataset", "no-question-mode"])
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
    assert message.format(verdicts=verdicts) in capsys.readouterr().err


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
        assert f"error: bundle id '{broken}': " in captured.err
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
    (["explain", "--pair", "{bad}#c-marnie/e-marnie", "--claims", "{claims}",
      "--amrs", "{amrs}"], None, ""),
    (["explain", "--pair", "{bad}#c-marnie/e-marnie", "--claims", "{claims}",
      "--amrs", "{amrs}"], "not json", ":1: bad JSON"),
    (["parse", "--in", "{bad}"], NOT_UTF8, ": not UTF-8"),
    (["verify", "--claims", "{bad}", "--amrs", "{amrs}"], NOT_UTF8, ":1: not UTF-8"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}", "--config", "{bad}"],
     NOT_UTF8, ": 'utf-8' codec can't decode"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--backend", "file:{bad}"], NOT_UTF8, ":1: bad embedding record"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--backend", "file:{bad}"], None, ": No such file"),
    (["verify", "--claims", "{claims}", "--amrs", "{amrs}",
      "--out", "{bad}/v.jsonl"], None, "/v.jsonl: No such file"),
    (["evaluate", "--claims", "{claims}", "--amrs", "{amrs}",
      "--report", "{bad}/reports"], "a file", "/reports: "),
    (["ingest", "--in", "{claims}", "--out", "{bad}/n.jsonl"], None,
     "/n.jsonl: No such file"),
], ids=["parse-missing", "claims-missing", "claims-no-label", "claims-not-object",
        "amrs-not-object", "evidence-not-a-list", "evidence-text-not-a-string",
        "label-not-a-string", "penman-not-a-string", "verdicts-missing", "verdicts-bad-json",
        "parse-not-utf8", "claims-not-utf8", "config-not-utf8",
        "embeddings-not-utf8", "embeddings-missing", "verify-out-no-dir",
        "evaluate-report-under-a-file", "ingest-out-no-dir"])
def test_unreadable_or_malformed_input_is_domain_error(fever_files, tmp_path, capsys,
                                                       argv, content, where):
    claims, amrs = fever_files
    bad = tmp_path / "bad.jsonl"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content + "\n")
    argv = [a.format(bad=bad, claims=claims, amrs=amrs) for a in argv]
    if argv[0] not in ("parse", "explain"):
        argv += ["--dataset", "fever"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}{where}" in err
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = tmp_path / "g.amr"
    src.write_text(MARNIE_CLAIM)
    result = subprocess.run(
        [sys.executable, "-m", "amrex.cli", "parse", "--in", str(src)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(amrex.__file__))})
    assert result.returncode == 0
    assert result.stdout.strip() == serialize_penman(parse_penman(MARNIE_CLAIM))


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
    records = load_averitec(str(normalized), question_mode="question-plus-answer")
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
    assert worker_count(10**9, 10**9, 2) == 2
    assert worker_count(10**9, 3, 10**6) == 3
    assert worker_count(1, 10**9, 64) == 1
    assert worker_count(8, 0, 8) == 1
    cpus = usable_cpus()
    assert 1 <= cpus <= (os.cpu_count() or cpus)
    assert RunConfig().resolved_jobs() == cpus
    assert RunConfig(jobs=10**9).resolved_jobs() == 10**9


def test_cli_import_loads_no_http_library():
    src = os.path.dirname(os.path.dirname(amrex.__file__))
    probe = ("import sys, amrex.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('requests', 'urllib3')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src},
                            check=True, timeout=60)
    assert result.stdout.strip() == "[]"


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
    with pytest.raises(ConfigError):
        RunConfig(dataset="fever", lam=1.5).resolved_lambda()
