"""Traced in-process run of one workload command.

``python3 tracer.py SPEC OUT`` imports amrex, replaces the layer functions
listed in ``SPANS`` with timing wrappers in every ``amrex.*`` module that
binds them, runs ``amrex.cli.dispatch`` on the argv in SPEC and writes the
spans, the alignment digest and the oracle check to OUT as JSON.  Nothing
here is imported by amrex; the parent harness imports this module only for
``layer_metrics``, which needs no amrex.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import statistics
import sys
import threading
import time

# span name -> (module, attribute path); the attribute is replaced wherever
# an amrex module binds the same object, so moved call sites stay traced.
SPANS = {
    "cli.dispatch": ("amrex.cli", "dispatch"),
    "graph.parse_penman": ("amrex.graph", "parse_penman"),
    "ingest.load_claims": ("amrex.ingest", "load_claims"),
    "ingest.load_amr_bundle": ("amrex.ingest", "load_amr_bundle"),
    "ingest.join_amrs": ("amrex.ingest", "join_amrs"),
    "smatch.align": ("amrex.smatch", "align_hill_climb"),
    "similarity.embed": ("amrex.similarity", "SimilarityBackend.embed"),
    "similarity.cosine": ("amrex.similarity", "cosine"),
    "verdict.verify_claim": ("amrex.verdict", "verify_claim"),
    "verdict.aggregate": ("amrex.verdict", "aggregate"),
    "evaluation.lambda_sweep": ("amrex.evaluation", "lambda_sweep"),
    "evaluation.predictions_at_lambda": ("amrex.evaluation", "predictions_at_lambda"),
    "evaluation.score_predictions": ("amrex.evaluation", "score_predictions"),
}
ROOT_SPAN = "cli.dispatch"


class Tracer:
    """In-memory spans ``[name, start, end, parent, thread]``.

    The parent is the innermost open span of the same thread; a span
    opened on a pool thread with nothing open there hangs under the root
    span, which is the run's ``cli.dispatch``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.root: int | None = None
        self.calls: dict[str, list] = {}   # span name -> [(args, result)]

    def wrap(self, name: str, fn, keep_calls: bool = False):
        tracer = self
        calls = self.calls.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.local.__dict__.setdefault("stack", [])
            with tracer.lock:
                index = len(tracer.spans)
                parent = stack[-1] if stack else tracer.root
                span = [name, 0.0, 0.0, parent, threading.get_ident()]
                tracer.spans.append(span)
                if name == ROOT_SPAN and tracer.root is None:
                    tracer.root = index
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if tracer.root == index:
                    tracer.root = None
            if keep_calls:
                calls.append((args, result))
            return result

        return traced

    def install(self) -> None:
        import importlib
        for name, (module_name, attr) in SPANS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method),
                                               keep_calls=True))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, keep_calls=(name == "smatch.align"))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "amrex" or mod_name.startswith("amrex."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(spans: list[list], index: int) -> float:
    """Span duration minus the part of it that its child spans cover."""
    _name, start, end, _parent, _thread = spans[index]
    children = [(max(s, start), min(e, end))
                for _n, s, e, parent, _t in spans if parent == index]
    return (end - start) - covered([c for c in children if c[1] > c[0]])


def mapping_digest(calls) -> str:
    """SHA-256 over every aligned pair's graphs, mapping and matched count,
    independent of the order the pairs were aligned in."""
    rows = []
    for args, result in calls:
        premise, hypothesis = args[0], args[1]
        rows.append(repr((sorted(premise.nodes.items()), sorted(premise.edges),
                          sorted(premise.attributes),
                          sorted(hypothesis.nodes.items()), sorted(hypothesis.edges),
                          sorted(hypothesis.attributes),
                          result.mapping.pairs, result.matched)))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def oracle_agreement(pairs) -> float:
    """Share of (premise, hypothesis) Penman pairs on which the hill climber
    matches as many triples as the exhaustive search."""
    from amrex.graph import parse_penman
    from amrex.smatch import AlignConfig, align_exhaustive, align_hill_climb
    cfg = AlignConfig()
    agree = 0
    for i, (premise_pm, hypothesis_pm) in enumerate(pairs):
        premise, hypothesis = parse_penman(premise_pm), parse_penman(hypothesis_pm)
        climbed = align_hill_climb(premise, hypothesis, restarts=cfg.restarts,
                                   seed=i, include_top=cfg.include_top)
        agree += climbed.matched == align_exhaustive(
            premise, hypothesis, include_top=cfg.include_top).matched
    return agree / len(pairs)


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced run's record."""
    spans = record["spans"]
    by_name: dict[str, list[float]] = {name: [] for name in SPANS}
    for name, start, end, _parent, _thread in spans:
        by_name[name].append(end - start)
    align_ms = sorted(1000 * d for d in by_name["smatch.align"])
    embed_calls = len(by_name["similarity.embed"])
    root = next(i for i, span in enumerate(spans) if span[0] == ROOT_SPAN)
    metrics = {
        "graph.parse_penman.calls": len(by_name["graph.parse_penman"]),
        "smatch.align.calls": len(align_ms),
        "smatch.align.ms_p50": statistics.median(align_ms) if align_ms else 0.0,
        "smatch.align.ms_p90": (statistics.quantiles(align_ms, n=10)[-1]
                                if len(align_ms) > 1 else sum(align_ms)),
        "smatch.align.ms_max": max(align_ms, default=0.0),
        "similarity.embed.calls": embed_calls,
        "similarity.embed.hit_ratio": (1 - record["distinct_texts"] / embed_calls
                                       if embed_calls else 0.0),
        "verdict.aggregate.calls": len(by_name["verdict.aggregate"]),
        "cli.self_s": self_time(spans, root),
    }
    for name in ("graph.parse_penman", "ingest.load_amr_bundle",
                 "ingest.load_claims", "ingest.join_amrs", "smatch.align",
                 "similarity.embed", "similarity.cosine",
                 "verdict.verify_claim", "verdict.aggregate",
                 "evaluation.lambda_sweep", "evaluation.predictions_at_lambda",
                 "evaluation.score_predictions", "cli.dispatch"):
        metrics[f"{name}.s"] = sum(by_name[name])
    return metrics


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import amrex  # noqa: F401  (binds every submodule before wrapping)
    import amrex.cli
    # The quality guards run outside the traced run; their time is
    # reported so the caller can leave it out of the tracing overhead.
    start = time.perf_counter()
    oracle = oracle_agreement(spec["oracle_pairs"])
    guard_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    with open(spec["stdout"], "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        code = amrex.cli.dispatch(spec["argv"])
    start = time.perf_counter()
    digest = mapping_digest(tracer.calls["smatch.align"])
    guard_s += time.perf_counter() - start
    record = {
        "exit": code,
        "spans": tracer.spans,
        "distinct_texts": len({args[1] for args, _ in tracer.calls["similarity.embed"]}),
        "mapping_sha256": digest,
        "oracle_agree_ratio": oracle,
        "guard_s": guard_s,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
