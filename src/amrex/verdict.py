"""Per-claim verdicts: score every pair once, aggregate, threshold-classify,
and write and read the verdict rows ``verify`` stores.

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

import json
import os
import threading
import zlib
from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from numbers import Rational

from .config import RunConfig
from .entailment import EntailmentScore, blend, combined_score, th1
from .errors import AmrexError, ConfigError, DatasetError, MappingError, SimilarityError
from .graph import AmrGraph
from .ingest import AVERITEC, FEVER, VerdictLabel, label_set, read_jsonl, require_graphs
from .similarity import EmbeddingServiceBackend, SimilarityBackend, cosine
from .smatch import (AlignConfig, SmatchResult, VariableMapping, align_hill_climb,
                     score_mapping)

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


# Estimated alignment work (see worker_count) that pays for one more child.
# On 2 vCPUs serial alignment takes about 0.4 µs per unit on the largest
# seed-13 perfbench pairs (long-evidence) and up to 1.7 µs on the smallest
# (averitec-sweep), where per-pair set-up weighs most; a fork, its pipe and
# its reap cost 2.1-2.8 ms in a process holding a loaded batch, and
# unpickling a child's results about 5 µs per pair.  So a child that takes
# over 50k units, 20-80 ms of alignment, costs a few percent of what it
# saves.  The seed-13 fever-verify and long-evidence batches hold 161k and
# 305k units; no batch tier-1's tests score at the default holds 15k.
_WORK_PER_WORKER = 50_000

# Estimated alignment work that pays for aligning in one child while this
# process embeds through a service.  100k units take at least 40 ms to
# align, far more than the fork.  The seed-13 averitec-sweep batch holds
# 145k units; a service test's batch holds about one per pair.
_WORK_TO_OVERLAP = 100_000


def worker_count(jobs: int, work, cpus: int) -> int:
    """Alignment processes for pairs whose estimated work is *work*, one
    ``|claim nodes|² × |evidence nodes|`` entry per pair: *jobs* of them if
    given, else one per started ``_WORK_PER_WORKER`` units; never more than
    there are pairs or *cpus*.  One means aligning in this process, unless
    :func:`score_pairs` aligns in a child while a service embeds."""
    wanted = jobs or -(-sum(work) // _WORK_PER_WORKER)
    return max(1, min(wanted, len(work), cpus))


def _cosines(pairs, backend: SimilarityBackend, names) -> list[float]:
    """The cosine of each of :func:`score_pairs`' *pairs*, embedded by
    *backend* in this process (see :func:`score_pairs`)."""
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
    return sims


def _align_batch(pairs, cfg: AlignConfig) -> list[SmatchResult]:
    """Align each ``(evidence graph, claim graph, seed)`` in *pairs* under
    *cfg*.  Each graph keeps its alignment tables, so the pairs a graph is
    in share them."""
    return [align_hill_climb(ev_graph, claim_graph, restarts=cfg.restarts,
                             seed=seed, include_top=cfg.include_top)
            for ev_graph, claim_graph, seed in pairs]


def _shares(work, n: int) -> list[tuple[int, int]]:
    """*n* contiguous, non-empty ``(start, stop)`` shares, in order, of the
    pairs whose estimated work is *work*, *n* at most their number: each
    share ends at the first pair that brings the work so far to its
    multiple of ``sum(work) / n``, so it holds at most that much work plus
    one pair's."""
    prefix = list(accumulate(work, initial=0))
    cuts = [0]
    for k in range(1, n):
        # kept after the previous cut and before each later share's pair
        cut = bisect_left(prefix, -(-k * prefix[-1] // n))
        cuts.append(max(cuts[-1] + 1, min(cut, len(work) - n + k)))
    cuts.append(len(work))
    return list(zip(cuts, cuts[1:]))


def _fork(batch, cfg: AlignConfig) -> tuple[int, int]:
    """The pid and the pipe's read end of a forked child that aligns
    *batch* (:func:`_align_batch`) on the graphs it inherits, writes the
    pickled results, or the exception it raised, to the pipe, and leaves
    by ``os._exit``, so it runs no exit handler and flushes no inherited
    buffer.  The one place alignment children are made."""
    import pickle
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            try:
                result = _align_batch(batch, cfg)
            except Exception as exc:
                result = exc
            data = pickle.dumps(result)
            with open(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def _result(read: int, first: str, last: str) -> list[SmatchResult]:
    """The results a child wrote to the pipe *read*; the exception it
    raised is raised here, and a child that ended without a complete
    result is an AmrexError naming the *first* and *last* pair it held."""
    import pickle
    with open(read, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        result = pickle.loads(data)
    except Exception:
        share = first if first == last else f"{first} to {last}"
        raise AmrexError(f"the child aligning {share} ended without a result") from None
    if isinstance(result, BaseException):
        raise result
    return result


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
    with ``names[i]`` when given.

    The pairs are aligned after embedding, in this process as one batch
    (:func:`_align_batch`), unless forked children align them while this
    process embeds: :func:`worker_count` children for *jobs* and the
    pairs' work, ``|claim nodes|² × |evidence nodes|`` each, counting one
    usable CPU fewer for an embedding service, when that is more than
    one, else one child when *backend* is an embedding service, *jobs* is
    not 1 and the work reaches ``_WORK_TO_OVERLAP``.  Where the platform
    cannot fork, or this process runs another thread, whose locks a child
    would copy, the pairs are aligned in this process.  Each child aligns
    one of :func:`_shares`, and this process reads their results in share
    order.  A child's exception is raised as at ``jobs=1``; on any error
    the children still running are killed, and no child outlives the call.
    """
    graphs = [(ev_graph, claim_graph, seed) for _, ev_graph, _, claim_graph, seed in pairs]
    work = [len(claim.nodes) ** 2 * len(ev.nodes) for ev, claim, _ in graphs]
    service = isinstance(backend, EmbeddingServiceBackend)
    workers = worker_count(jobs, work, usable_cpus() - service)
    if (not hasattr(os, "fork") or threading.active_count() != 1
            or workers == 1 and (jobs == 1 or not service or sum(work) < _WORK_TO_OVERLAP)):
        sims = _cosines(pairs, backend, names)
        return list(zip(_align_batch(graphs, cfg), sims))
    where = names or [f"pair {i}" for i in range(len(pairs))]
    shares = _shares(work, workers)
    children = []
    try:
        for start, stop in shares:
            children.append(_fork(graphs[start:stop], cfg))
        sims = _cosines(pairs, backend, names)
        alignments = [result for (_, read), (start, stop) in zip(children, shares)
                      for result in _result(read, where[start], where[stop - 1])]
    except BaseException:
        import signal  # like pickle, loaded only where it is used
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
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


def pair_json(score: EntailmentScore) -> dict:
    """The stored form of a scored pair: a verdict row's pair and
    ``score-pair --json`` (which adds the ``lambda`` a row keeps once)."""
    return {"f": score.f_value, "smatch_p": score.smatch_p,
            "cosine": score.cosine_sim, "decision": score.decision,
            "mapping": [list(p) for p in score.mapping.pairs]}


def verdict_json(v: ClaimVerdict, cfg: RunConfig) -> str:
    """One verdict row of a run under *cfg*, which :func:`read_pair` reads."""
    return json.dumps({"claim_id": v.claim_id, "label": v.label.value,
                       "e": float(v.e_value), "lambda": cfg.resolved_lambda(),
                       "dataset": cfg.dataset, "question_mode": cfg.question_mode,
                       "pairs": [{"evidence_id": p.evidence_id, **pair_json(p.score)}
                                 for p in v.per_evidence]})


@dataclass(frozen=True)
class StoredPair:
    where: str  # the verdict file and the pair's ids, as errors name them
    claim_id: str
    evidence_id: str
    dataset: str
    question_mode: str
    label: str
    score: EntailmentScore

    def check_mapping(self, claim_graph: AmrGraph, evidence_graph: AmrGraph, bundle: str) -> None:
        """A DatasetError unless each variable of the stored mapping is one
        of its graph's, read from *bundle*, and the mapping counts to the
        stored ``smatch_p`` under either ``include_top``, as rows omit it."""
        if not all(hv in claim_graph.nodes and pv in evidence_graph.nodes
                   for hv, pv in self.score.mapping.pairs):
            raise DatasetError(f"{self.where}: the stored mapping names variables "
                               f"missing from {bundle}; re-run verify")
        smatch_p = [score_mapping(evidence_graph, claim_graph, self.score.mapping,
                                  top).precision for top in (True, False)]
        if self.score.smatch_p not in smatch_p:
            raise DatasetError(
                f"{self.where}: malformed verdict row: smatch_p {self.score.smatch_p!r} "
                f"is not the stored mapping's count over the claim's triples, "
                f"{smatch_p[0]!r} with the top triple or {smatch_p[1]!r} without")


_CHOICES = {f.name: f.metadata["choices"] for f in fields(RunConfig)}


def _stored(value, name: str, choices=None):
    """*value* if it is one of *choices*, or a number when none are given;
    else a TypeError."""
    if choices is not None:
        if value not in choices:
            raise TypeError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    return value


def _stored_score(lam, pair: dict) -> EntailmentScore:
    decision, mapping = pair["decision"], pair["mapping"]
    if type(decision) is not int or decision not in (1, -1):
        raise TypeError(f"decision must be 1 or -1, got {decision!r}")
    if not (isinstance(mapping, list)
            and all(isinstance(p, list) and len(p) == 2
                    and all(isinstance(v, str) for v in p) for p in mapping)):
        raise TypeError("mapping must be a list of [claim variable, "
                        "evidence variable] string pairs")
    return EntailmentScore(_stored(lam, "lambda"), _stored(pair["smatch_p"], "smatch_p"),
                           _stored(pair["cosine"], "cosine"), _stored(pair["f"], "f"),
                           decision, VariableMapping(mapping))


def read_pair(path: str, ids: str) -> StoredPair:
    """The pair :func:`verdict_json` stored in *path* for *ids*, ``<claim
    id>/<evidence id>`` (ids may hold '/'): of the rows whose claim id c is
    a non-empty string and *ids* c, a '/' and a non-empty evidence id, in
    file order, the first holding a pair of that evidence id, else the first.
    A row that lacks a field, holds one of the wrong type or contradicts
    itself is a DatasetError naming the pair at fault, or the selected pair
    for the row's own fields: each pair's ``f`` must be ``lambda * smatch_p
    + (1 - lambda) * cosine`` and its ``decision`` th1(f), and the row's
    ``e`` and ``label`` the decisions' mean and th2 of it."""
    found = [(c, ids[len(c) + 1:], row) for _, row in read_jsonl(path)
             if isinstance(c := row.get("claim_id"), str) and c
             and ids.startswith(c + "/") and len(ids) > len(c) + 1]
    if not found:
        raise DatasetError(f"claim {ids[:ids.find('/', 1)]!r} not found in {path}")
    claim_id, evidence_id, row = next(
        (f for f in found if isinstance(pairs := f[2].get("pairs"), list)
         and any(isinstance(p, dict) and p.get("evidence_id") == f[1] for p in pairs)),
        found[0])
    where = selected = f"{path}: claim {claim_id!r} / evidence {evidence_id!r}"
    try:
        pairs = row["pairs"]
        if not (isinstance(pairs, list) and all(isinstance(p, dict) for p in pairs)):
            raise TypeError("pairs must be a list of objects")
        if not any(p["evidence_id"] == evidence_id for p in pairs):
            raise DatasetError(f"evidence {evidence_id!r} not found for claim "
                               f"{claim_id!r} in {path}")
        dataset, question_mode = (_stored(row[k], k, _CHOICES[k])
                                  for k in ("dataset", "question_mode"))
        label = _stored(row["label"], "label", label_set(dataset))
        scores = []
        for p in sorted(pairs, key=lambda p: p["evidence_id"] != evidence_id):
            where = f"{path}: claim {claim_id!r} / evidence {p['evidence_id']!r}"
            scores.append(s := _stored_score(row["lambda"], p))
            if s.f_value != (f := combined_score(s.lam, s.smatch_p, s.cosine_sim)):
                raise ValueError(f"pair {p['evidence_id']!r}: f {s.f_value!r} is not "
                                 f"lambda * smatch_p + (1 - lambda) * cosine = {f!r}")
            if s.decision != (d := th1(s.f_value)):
                raise ValueError(f"pair {p['evidence_id']!r}: decision "
                                 f"{s.decision:+d} is not th1(f) = {d:+d}")
        where = selected
        e, mean = _stored(row["e"], "e"), aggregate(s.decision for s in scores)
        if e != float(mean):
            raise ValueError(f"e {e!r} is not the mean of the decisions, {float(mean)!r}")
        if label != (expected := th2(mean, dataset).value):
            raise ValueError(f"label {label} is not th2 of the decisions' mean, {expected}")
        return StoredPair(where, claim_id, evidence_id, dataset, question_mode, label, scores[0])
    except KeyError as exc:
        raise DatasetError(f"{where}: no stored {exc}; re-run verify to record the scored pair")
    except (TypeError, ValueError, OverflowError, ConfigError, MappingError) as exc:
        raise DatasetError(f"{where}: malformed verdict row: {exc}")
