"""Multiclass metrics over verdicts and lambda sweeps.

Macro F1 averages over the dataset's full label set, so a label that never
occurs contributes 0.  The sweep computes each pair's components once with
:func:`amrex.verdict.precompute_pair_components`.  At each lambda it labels
a claim from its pairs' decisions ``th1(combined_score(lam, smatch_p,
cosine))``, the expression :func:`amrex.entailment.blend` thresholds,
through :func:`amrex.verdict.classify`, the helper ``verdict_at`` labels
with; it builds no per-pair score.  So each lambda's labels are the ones a
single-lambda run gives (tested).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .entailment import combined_score, th1
from .errors import ConfigError, DatasetError
from .ingest import ClaimRecord, VerdictLabel, label_set
from .similarity import SimilarityBackend
from .smatch import AlignConfig
from .verdict import PairComponents, classify, precompute_pair_components


@dataclass(frozen=True)
class EvaluationReport:
    dataset: str
    lam: float
    accuracy: float
    per_label_f1: dict[str, float]
    macro_f1: float
    confusion: dict[str, dict[str, int]]
    n_claims: int


def score_predictions(gold: list[VerdictLabel],
                      pred: list[VerdictLabel],
                      lam: float = 0.0) -> EvaluationReport:
    """Accuracy, per-label F1, macro F1 and the confusion matrix."""
    if len(gold) != len(pred):
        raise DatasetError(
            f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    if not gold:
        raise DatasetError("cannot score an empty prediction set")
    dataset = gold[0].dataset
    for label in (*gold, *pred):
        if label.dataset != dataset:
            raise DatasetError("mixed dataset tags in scoring input")
    labels = label_set(dataset)
    confusion = {g: {p: 0 for p in labels} for g in labels}
    for g, p in zip(gold, pred):
        confusion[g.value][p.value] += 1
    correct = sum(confusion[l][l] for l in labels)
    per_label_f1 = {}
    for l in labels:
        tp = confusion[l][l]
        gold_n = sum(confusion[l].values())
        pred_n = sum(confusion[g][l] for g in labels)
        precision = tp / pred_n if pred_n else 0.0
        recall = tp / gold_n if gold_n else 0.0
        per_label_f1[l] = (2 * precision * recall / (precision + recall)
                           if precision + recall else 0.0)
    macro = sum(per_label_f1.values()) / len(labels)
    return EvaluationReport(dataset=dataset, lam=lam,
                            accuracy=correct / len(gold),
                            per_label_f1=per_label_f1, macro_f1=macro,
                            confusion=confusion, n_claims=len(gold))


def predictions_at_lambda(records: list[ClaimRecord],
                          components: dict[str, list[PairComponents]],
                          lam: float,
                          empty_evidence: str = "error") -> list[VerdictLabel]:
    """Each record's label at *lam*: the label :func:`verdict_at` gives,
    from the same decisions, without building its per-pair scores."""
    return [classify(r, [th1(combined_score(lam, row.alignment.precision, row.cosine_sim))
                         for row in components[r.claim_id]], empty_evidence)[1]
            for r in records]


def lambda_sweep(records: list[ClaimRecord], lambdas: list[float],
                 backend: SimilarityBackend,
                 cfg: AlignConfig = AlignConfig(), seed: int = 0,
                 empty_evidence: str = "error",
                 jobs: int = 0) -> list[EvaluationReport]:
    """One report per lambda over the same precomputed pair components,
    aligned from *seed*."""
    if not lambdas:
        raise ConfigError("lambda sweep needs at least one value")
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    components = precompute_pair_components(records, backend, cfg, seed, jobs)
    gold = [r.gold_label for r in records]
    reports = []
    for lam in lambdas:
        pred = predictions_at_lambda(records, components, lam, empty_evidence)
        report = score_predictions(gold, pred, lam=lam)
        reports.append(report)
    return reports


# The most lambda values one sweep spec may ask for: 0:1:1e-4 and no more.
_MAX_SWEEP_VALUES = 10_001


def sweep_range(spec: str) -> list[float]:
    """Parse a ``start:stop:step`` sweep spec into a lambda list."""
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ConfigError(f"bad sweep spec {spec!r}, expected start:stop:step")
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ConfigError(f"sweep {spec!r}: {name} must be finite")
    if stop < start:
        raise ConfigError(f"sweep {spec!r} runs backwards: stop is below start")
    # A finer step repeats values at the 12-decimal rounding below.
    if not step >= 1e-12:
        raise ConfigError(f"sweep step must be at least 1e-12, got {step_s!r}")
    if (stop - start) / step >= _MAX_SWEEP_VALUES:
        raise ConfigError(
            f"sweep {spec!r} asks for more than {_MAX_SWEEP_VALUES} lambda values")
    values = []
    for k in itertools.count():
        v = round(start + k * step, 12)
        # Half the rounding grid: absorbs the rounding, adds no value past stop.
        if v > stop + 5e-13:
            return values
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"sweep {spec!r} leaves [0, 1] at lambda {v:g}")
        values.append(v)


def lambda_text(lam: float) -> str:
    """*lam* as report file names and table rows show it.  Any two values
    :func:`sweep_range` yields differ within 12 decimals, so they differ
    here; a value of up to 6 significant digits prints as with ``:g``."""
    return f"{lam:.12g}"


def report_markdown(reports: list[EvaluationReport]) -> str:
    """Render sweep reports as one markdown table: a row per lambda,
    columns for per-label F1, macro F1 and accuracy."""
    if not reports:
        return ""
    labels = label_set(reports[0].dataset)
    header = ["lambda", *labels, "Macro F1", "Acc."]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for r in reports:
        cells = [lambda_text(r.lam)]
        cells += [f"{r.per_label_f1[l]:.2f}" for l in labels]
        cells += [f"{r.macro_f1:.2f}", f"{r.accuracy:.2f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
