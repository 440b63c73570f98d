"""Command-line entry point.

Subcommands: parse, smatch, score-pair, verify, evaluate, ingest, explain.
Exit codes: 0 success, 1 domain error (bad label, missing AMR, ...),
2 usage error.  Diagnostics go to stderr; data goes to stdout or files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import evaluation, explain, ingest
from .config import (RunConfig, apply_env, effective_config_lines,
                     load_config_file, setting_key)
from .entailment import nli_pair, pair_from_json, pair_json
from .errors import AmrexError, DatasetError
from .graph import extract_triples, parse_penman, serialize_penman
from .similarity import backend_from_spec
from .smatch import AlignConfig, align_hill_climb
from .verdict import precompute_pair_components, verdict_at


def _add_settings(p: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` plus one flag per RunConfig field in *names*, declared
    by the field; the run's stderr header lists the same settings."""
    p.add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        if f.name in names:
            flag = dict(f.metadata["flag"])
            name = flag.pop("name", "--" + setting_key(f).replace("_", "-"))
            if "action" not in flag:
                flag.update(type=f.metadata["parse"], choices=f.metadata["choices"])
            p.add_argument(name, dest=f.name, default=None, **flag)
    p.set_defaults(settings=names)


def _configure(args: argparse.Namespace, unread=()) -> RunConfig:
    """Defaults < --config file < AMREX_* environment < the flags in *args*.
    Prints the settings the subcommand reads, less *unread*, to stderr."""
    cfg = RunConfig()
    if args.config:
        load_config_file(cfg, args.config)
    apply_env(cfg)
    for name in args.settings:
        if (value := getattr(args, name)) is not None:
            setattr(cfg, name, value)
    for line in effective_config_lines(
            cfg, [n for n in args.settings if n not in unread]):
        print(line, file=sys.stderr)
    return cfg


def _align_config(cfg: RunConfig) -> AlignConfig:
    return AlignConfig(restarts=cfg.restarts, seed=cfg.seed,
                       include_top=cfg.include_top)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise AmrexError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise AmrexError(f"cannot read {path}: not UTF-8 text ({exc.reason})")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise AmrexError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_parse(args) -> int:
    graph = parse_penman(_read(args.infile))
    if args.json:
        print(json.dumps({
            "root": graph.root,
            "nodes": dict(graph.nodes),
            "edges": [list(e) for e in graph.edges],
            "attributes": [list(a) for a in graph.attributes],
            "triples": [list(t) for t in extract_triples(graph)],
        }))
    else:
        print(serialize_penman(graph))
    return 0


def cmd_smatch(args) -> int:
    cfg = _configure(args)
    premise = parse_penman(_read(args.premise))
    hypothesis = parse_penman(_read(args.hypothesis))
    result = align_hill_climb(premise, hypothesis, restarts=cfg.restarts,
                              seed=cfg.seed, include_top=cfg.include_top)
    if args.json:
        print(json.dumps({
            "precision": result.precision, "recall": result.recall,
            "f1": result.f1, "matched": result.matched,
            "mapping": [list(p) for p in result.mapping.pairs],
        }))
    else:
        for hv, pv in result.mapping.pairs:
            print(f"{hv}({hypothesis.nodes[hv]}) --> {pv}({premise.nodes[pv]})")
        print(f"precision: {result.precision:.4f}  recall: {result.recall:.4f}  "
              f"f1: {result.f1:.4f}  matched: {result.matched}")
    return 0


def cmd_score_pair(args) -> int:
    cfg = _configure(args)
    backend = backend_from_spec(cfg.backend)
    claim_graph = parse_penman(_read(args.claim_amr))
    evidence_graph = parse_penman(_read(args.evidence_amr))
    score = nli_pair(args.evidence_text, evidence_graph,
                     args.claim_text, claim_graph,
                     cfg.resolved_lambda(), backend, _align_config(cfg))
    if args.json:
        print(json.dumps({"lambda": score.lam, **pair_json(score)}))
    else:
        bundle = explain.build_bundle(claim_graph, evidence_graph,
                                      args.claim_text, args.evidence_text, score)
        print(explain.render_text(bundle))
    return 0


def _verify_records(cfg: RunConfig, claims_path: str, amrs_path: str):
    records = ingest.load_claims(claims_path, cfg.dataset,
                                 question_mode=cfg.question_mode)
    bundle = ingest.load_amr_bundle(amrs_path)
    return ingest.join_amrs(records, bundle, strict=True)


def _verdict_json(v, cfg: RunConfig) -> str:
    """One verdict row: it stores what ``explain`` needs to render a pair."""
    return json.dumps({
        "claim_id": v.claim_id,
        "label": v.label.value,
        "e": float(v.e_value),
        "lambda": cfg.resolved_lambda(),
        "dataset": cfg.dataset,
        "question_mode": cfg.question_mode,
        "pairs": [{"evidence_id": p.evidence_id, **pair_json(p.score)}
                  for p in v.per_evidence],
    })


def cmd_verify(args) -> int:
    cfg = _configure(args)
    records = _verify_records(cfg, args.claims, args.amrs)
    backend = backend_from_spec(cfg.backend)
    lam = cfg.resolved_lambda()
    components = precompute_pair_components(records, backend, _align_config(cfg),
                                            cfg.seed, cfg.resolved_jobs())
    verdicts = [verdict_at(r, components[r.claim_id], lam, cfg.empty_evidence)
                for r in records]

    text = "".join(_verdict_json(v, cfg) + "\n" for v in verdicts)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _configure(args, unread=("lam",) if args.sweep else ())
    lambdas = (evaluation.sweep_range(args.sweep) if args.sweep
               else [cfg.resolved_lambda()])
    records = _verify_records(cfg, args.claims, args.amrs)
    backend = backend_from_spec(cfg.backend)
    reports = evaluation.lambda_sweep(records, lambdas, backend,
                                      _align_config(cfg), seed=cfg.seed,
                                      empty_evidence=cfg.empty_evidence,
                                      jobs=cfg.resolved_jobs())
    if args.report:
        try:
            os.makedirs(args.report, exist_ok=True)
        except OSError as exc:
            raise AmrexError(f"cannot write {args.report}: {exc.strerror or exc}")
        for r in reports:
            _write(os.path.join(args.report, f"report_lambda_{r.lam:g}.json"),
                   json.dumps({
                       "dataset": r.dataset, "lambda": r.lam,
                       "accuracy": r.accuracy, "per_label_f1": r.per_label_f1,
                       "macro_f1": r.macro_f1, "confusion": r.confusion,
                       "n_claims": r.n_claims,
                   }, indent=2))
        _write(os.path.join(args.report, "summary.md"),
               evaluation.report_markdown(reports))
    else:
        print(evaluation.report_markdown(reports), end="")
    return 0


def cmd_ingest(args) -> int:
    cfg = _configure(args)
    records = ingest.load_claims(args.infile, cfg.dataset)
    if args.out:
        ingest.write_normalized(records, args.out)
    if args.stats or not args.out:
        counts = ingest.label_counts(records)
        reference = ingest.REFERENCE_LABEL_COUNTS.get(cfg.dataset, {})
        print(f"claims: {len(records)}")
        for label, n in counts.items():
            ref = reference.get(label)
            flag = "" if ref is None or ref == n else f"  (reference: {ref})"
            print(f"{label}: {n}{flag}")
    return 0


def _parse_pair_selector(spec: str) -> tuple[str, str, str]:
    path, sep, rest = spec.partition("#")
    claim_id, sep2, evidence_id = rest.partition("/")
    if not sep or not sep2 or not path or not claim_id or not evidence_id:
        raise AmrexError(
            f"bad --pair selector {spec!r}; expected <verdicts.jsonl>#<claim_id>/<evidence_id>")
    return path, claim_id, evidence_id


def _stored_pair(verdict_path: str, claim_id: str, evidence_id: str):
    """The settings the claims were loaded with, the verdict label and the
    scored pair, all as ``verify`` stored them."""
    row = next((raw for _, raw in ingest.read_jsonl(verdict_path)
                if raw.get("claim_id") == claim_id), None)
    if row is None:
        raise AmrexError(f"claim {claim_id!r} not found in {verdict_path}")
    where = f"{verdict_path}: claim {claim_id!r} / evidence {evidence_id!r}"
    try:
        pair = next((p for p in row["pairs"] if p["evidence_id"] == evidence_id), None)
        if pair is None:
            raise AmrexError(
                f"evidence {evidence_id!r} not found for claim {claim_id!r} "
                f"in {verdict_path}")
        cfg = RunConfig(dataset=row["dataset"], question_mode=row["question_mode"])
        return cfg, row["label"], pair_from_json(row["lambda"], pair)
    except KeyError as exc:
        raise DatasetError(
            f"{where}: no stored {exc}; re-run verify to record the scored pair")
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{where}: malformed verdict row: {exc}")


_RENDERERS = {"text": explain.render_text, "markdown": explain.render_markdown,
              "prompt": explain.build_prompt}


def cmd_explain(args) -> int:
    if args.generate and not args.service:
        raise AmrexError("--generate requires --service <url>")
    verdict_path, claim_id, evidence_id = _parse_pair_selector(args.pair)
    cfg, label, score = _stored_pair(verdict_path, claim_id, evidence_id)
    for line in effective_config_lines(cfg, ("dataset", "question_mode")):
        print(line, file=sys.stderr)
    # Claims up to the selected one and only this pair's graphs: a graph
    # missing or malformed for another claim is no error here.
    records = ingest.iter_claims(args.claims, cfg.dataset,
                                 question_mode=cfg.question_mode)
    record = next((r for r in records if r.claim_id == claim_id), None)
    if record is None:
        raise AmrexError(f"claim {claim_id!r} not found in {args.claims}")
    item = next((ev for ev in record.evidence if ev.evidence_id == evidence_id), None)
    if item is None:
        raise AmrexError(f"evidence {evidence_id!r} not found for claim {claim_id!r}")
    amrs = ingest.load_amr_bundle(args.amrs, ids=(claim_id, evidence_id))
    missing = [i for i in (claim_id, evidence_id) if i not in amrs]
    if missing:
        raise DatasetError(f"AMR bundle {args.amrs} is missing ids: {missing}")
    claim_graph, evidence_graph = amrs[claim_id], amrs[evidence_id]
    if not all(hv in claim_graph.nodes and pv in evidence_graph.nodes
               for hv, pv in score.mapping.pairs):
        raise DatasetError(
            f"claim {claim_id!r} / evidence {evidence_id!r}: the stored mapping "
            f"names variables missing from {args.amrs}; re-run verify")

    bundle = explain.build_bundle(claim_graph, evidence_graph,
                                  record.claim_text, item.text, score, label=label)
    print(_RENDERERS[args.format](bundle))
    if args.generate:
        print(explain.generate_explanation(explain.build_prompt(bundle), args.service))
    return 0


# The settings verify and evaluate read: all of them.
_RUN_SETTINGS = ("dataset", "lam", "restarts", "seed", "include_top", "backend",
                 "empty_evidence", "question_mode", "jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amrex",
        description="Deterministic, explainable fact verification over AMR graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and re-serialize a Penman file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("smatch", help="align two AMR files")
    p.add_argument("--premise", required=True)
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--json", action="store_true")
    _add_settings(p, "restarts", "seed", "include_top")
    p.set_defaults(func=cmd_smatch)

    p = sub.add_parser("score-pair", help="score one claim/evidence pair")
    p.add_argument("--claim-amr", required=True)
    p.add_argument("--evidence-amr", required=True)
    p.add_argument("--claim-text", required=True)
    p.add_argument("--evidence-text", required=True)
    p.add_argument("--json", action="store_true")
    _add_settings(p, "restarts", "seed", "include_top", "lam", "backend")
    p.set_defaults(func=cmd_score_pair)

    p = sub.add_parser("verify", help="verdicts for a claims file")
    p.add_argument("--claims", required=True)
    p.add_argument("--amrs", required=True)
    p.add_argument("--out", default=None)
    _add_settings(p, *_RUN_SETTINGS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="metrics, optionally over a lambda sweep")
    p.add_argument("--claims", required=True)
    p.add_argument("--amrs", required=True)
    p.add_argument("--sweep", default=None, help="lambda sweep start:stop:step")
    p.add_argument("--report", default=None, help="directory for JSON/markdown reports")
    _add_settings(p, *_RUN_SETTINGS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ingest", help="normalize a dataset file and print stats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--stats", action="store_true")
    _add_settings(p, "dataset")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("explain", help="render the node-mapping justification of a scored pair")
    p.add_argument("--pair", required=True,
                   help="<verdicts.jsonl>#<claim_id>/<evidence_id>")
    p.add_argument("--claims", required=True)
    p.add_argument("--amrs", required=True)
    p.add_argument("--format", choices=list(_RENDERERS), default="text")
    p.add_argument("--generate", action="store_true")
    p.add_argument("--service", default=None, help="generation service URL")
    p.set_defaults(func=cmd_explain)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AmrexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
