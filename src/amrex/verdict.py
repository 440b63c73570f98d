"""Per-claim verdicts: score every pair once, aggregate, threshold-classify.

The mean decision e over a claim's evidence is kept as an exact rational so
comparisons against the classification boundaries (0.1 and 0.5) never flip
through floating-point noise.  The two datasets use different label maps:

    3-way:  S when e >= 0.1;  N when -0.1 < e < 0.1;  R when e <= -0.1
    4-way:  S when e >= 0.5;  C when 0.1 < e < 0.5;
            N when -0.1 <= e <= 0.1;  C when -0.5 < e < -0.1;
            R when e <= -0.5

Note the middle band is open in the 3-way map and closed in the 4-way map;
both are applied literally.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .entailment import EntailmentScore, blend
from .errors import ConfigError, DatasetError, SimilarityError
from .ingest import AVERITEC, FEVER, VerdictLabel, require_graphs
from .similarity import SimilarityBackend, cosine
from .smatch import AlignConfig, SmatchResult, align_hill_climb

_TENTH = Fraction(1, 10)
_HALF = Fraction(1, 2)

# Each dataset's labels, built once: a VerdictLabel is frozen.
_FEVER_S, _FEVER_R, _FEVER_N = (VerdictLabel(v, FEVER) for v in "SRN")
_AVERITEC_S, _AVERITEC_R, _AVERITEC_N, _AVERITEC_C = (
    VerdictLabel(v, AVERITEC) for v in "SRNC")


@dataclass(frozen=True)
class PairScore:
    evidence_id: str
    score: EntailmentScore


@dataclass(frozen=True)
class ClaimVerdict:
    claim_id: str
    e_value: Fraction
    label: VerdictLabel
    per_evidence: tuple[PairScore, ...]


def _as_fraction(e) -> Fraction:
    if type(e) is Fraction:  # the mean of every sweep; skips the ABC check
        return e
    if isinstance(e, Rational):
        return Fraction(e)
    return Fraction(float(e))  # exact binary value of the float


def aggregate(decisions) -> Fraction:
    """Arithmetic mean of +-1 decisions, as an exact rational."""
    decisions = list(decisions)
    if not decisions:
        raise DatasetError("cannot aggregate an empty decision list")
    if any(d not in (1, -1) for d in decisions):
        raise ConfigError(f"decisions must be +1 or -1, got {decisions}")
    return Fraction(sum(decisions), len(decisions))


def th2_fever(e) -> VerdictLabel:
    e = _as_fraction(e)
    if e >= _TENTH:
        return _FEVER_S
    if e <= -_TENTH:
        return _FEVER_R
    return _FEVER_N


def th2_averitec(e) -> VerdictLabel:
    e = _as_fraction(e)
    if e >= _HALF:
        return _AVERITEC_S
    if e <= -_HALF:
        return _AVERITEC_R
    if -_TENTH <= e <= _TENTH:
        return _AVERITEC_N
    return _AVERITEC_C


def th2(e, dataset: str) -> VerdictLabel:
    if dataset == FEVER:
        return th2_fever(e)
    if dataset == AVERITEC:
        return th2_averitec(e)
    raise ConfigError(f"unknown dataset {dataset!r}")


def pair_seed(global_seed: int, claim_id: str, evidence_id: str) -> int:
    """Stable per-pair alignment seed, so parallel runs match serial ones."""
    return zlib.crc32(f"{global_seed}:{claim_id}:{evidence_id}".encode("utf-8"))


@dataclass(frozen=True)
class PairComponents:
    """What one (claim, evidence) pair contributes at any lambda."""
    evidence_id: str
    alignment: SmatchResult
    cosine_sim: float


def usable_cpus() -> int:
    """CPUs this process may run on; all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Estimated alignment work (see worker_count) that pays for one more worker.
# On 2 vCPUs serial alignment takes about 0.6 µs per unit on the largest
# seed-13 perfbench pairs (long-evidence) and up to 1.3 µs on the smallest
# (averitec-sweep), where per-pair set-up weighs most; a spawned worker, which
# imports amrex afresh, takes about 0.15 s to start.  The seed-13 workloads
# hold 145k-305k units, and each stays serial with a 1.6x margin.
_WORK_PER_WORKER = 500_000


def worker_count(jobs: int, work, cpus: int) -> int:
    """Alignment processes for pairs whose estimated work is *work*, one
    ``|claim nodes|² × |evidence nodes|`` entry per pair: *jobs* of them if
    given, else one per started ``_WORK_PER_WORKER`` units; never more than
    there are pairs or usable CPUs.  One means aligning in this process."""
    wanted = jobs or -(-sum(work) // _WORK_PER_WORKER)
    return max(1, min(wanted, len(work), cpus))


def score_pairs(pairs, backend: SimilarityBackend, cfg: AlignConfig = AlignConfig(),
                jobs: int = 0, names=()) -> list[tuple[SmatchResult, float]]:
    """``(alignment, cosine)`` of each ``(evidence text, evidence graph,
    claim text, claim graph, seed)`` in *pairs*, aligned under *cfg*: the
    one scoring path of ``verify``, ``evaluate`` and ``score-pair``.

    Embeds every text in this process, evidence before claim, and passes
    the backend one iterator over the distinct texts in that order, so a
    service backend fetches the texts it lacks in a few batched requests.
    A SimilarityError for the i-th pair, a failed request included, is
    raised while that pair is embedded, keeps its type and is prefixed
    with ``names[i]`` when given.  The alignments run in this process
    unless :func:`worker_count` gives more than one worker for *jobs* and
    the pairs' work, ``|claim nodes|² × |evidence nodes|`` each; in this
    process each graph's alignment tables are built once per call, and a
    worker builds them per pair.
    """
    texts = iter(dict.fromkeys(text for p in pairs for text in (p[0], p[2])))
    sims = []
    for i, (ev_text, _, claim_text, _, _) in enumerate(pairs):
        try:
            sims.append(cosine(backend.embed(ev_text, texts),
                               backend.embed(claim_text, texts)))
        except SimilarityError as exc:
            if names:
                exc.args = (f"{names[i]}: {exc}",)
            raise
    work = [len(p[3].nodes) ** 2 * len(p[1].nodes) for p in pairs]
    workers = worker_count(jobs, work, usable_cpus())
    if workers == 1:
        tables: dict = {}
        alignments = [align_hill_climb(ev_graph, claim_graph, cfg.restarts, seed,
                                       cfg.include_top, tables)
                      for _, ev_graph, _, claim_graph, seed in pairs]
    else:
        columns = ([p[1] for p in pairs], [p[3] for p in pairs],
                   [cfg.restarts] * len(pairs), [p[4] for p in pairs],
                   [cfg.include_top] * len(pairs))
        # Imported here: a serial run need not pay for loading them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # spawn, not fork: the caller may have threads (an HTTP stub, a tracer)
        with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
            alignments = list(pool.map(align_hill_climb, *columns,
                                       chunksize=-(-len(pairs) // (4 * workers))))
    return list(zip(alignments, sims))


def precompute_pair_components(records, backend: SimilarityBackend,
                               cfg: AlignConfig = AlignConfig(), seed: int = 0,
                               jobs: int = 0) -> dict[str, list[PairComponents]]:
    """Per-pair components of every joined :class:`amrex.ingest.ClaimRecord`,
    scored with :func:`score_pairs`; each pair has its own seed, derived
    from *seed* by :func:`pair_seed`, so the result does not depend on
    *jobs*.
    """
    require_graphs(records)
    components: dict[str, list[PairComponents]] = {}
    pairs = []
    names = []
    for record in records:
        if record.claim_id in components:
            raise DatasetError(f"claim {record.claim_id!r} appears twice")
        components[record.claim_id] = []
        for ev in record.evidence:
            pairs.append((record, ev))
            names.append(f"claim {record.claim_id!r} / evidence {ev.evidence_id!r}")
    scored = score_pairs(
        [(ev.text, ev.graph, record.claim_text, record.claim_graph,
          pair_seed(seed, record.claim_id, ev.evidence_id))
         for record, ev in pairs], backend, cfg, jobs, names)
    for (record, ev), (alignment, sim) in zip(pairs, scored):
        components[record.claim_id].append(
            PairComponents(ev.evidence_id, alignment, sim))
    return components


def classify(record, decisions: list[int],
             empty_evidence: str = "error") -> tuple[Fraction, VerdictLabel]:
    """The mean of *record*'s pair *decisions* (:func:`aggregate`) and the
    label it gives.  No decision is an error, or N at mean 0 under
    ``label-N`` *empty_evidence*."""
    if not decisions:
        if empty_evidence == "label-N":
            return Fraction(0), VerdictLabel("N", record.dataset)
        raise DatasetError(
            f"claim {record.claim_id!r} has no usable evidence after filtering")
    e = aggregate(decisions)
    return e, th2(e, record.dataset)


def verdict_at(record, rows: list[PairComponents], lam: float,
               empty_evidence: str = "error") -> ClaimVerdict:
    """Blend *record*'s pair components at *lam*, aggregate and classify
    (:func:`classify`)."""
    pairs = tuple(PairScore(row.evidence_id, blend(lam, row.alignment, row.cosine_sim))
                  for row in rows)
    e, label = classify(record, [p.score.decision for p in pairs], empty_evidence)
    return ClaimVerdict(claim_id=record.claim_id, e_value=e, label=label,
                        per_evidence=pairs)


def verify_claim(record, lam: float, backend: SimilarityBackend,
                 cfg: AlignConfig = AlignConfig(), seed: int = 0,
                 empty_evidence: str = "error") -> ClaimVerdict:
    """Score every evidence pair of one claim record, aggregate, and classify."""
    rows = precompute_pair_components([record], backend, cfg, seed)[record.claim_id]
    return verdict_at(record, rows, lam, empty_evidence)
