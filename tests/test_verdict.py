import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amrex import verdict
from amrex.cli import dispatch
from amrex.errors import ConfigError, DatasetError, EmbeddingMissError
from amrex.graph import parse_penman
from amrex.ingest import ClaimRecord, EvidenceItem, label_set
from amrex.similarity import DeterministicTestBackend, PrecomputedFileBackend
from amrex.smatch import AlignConfig
from amrex.verdict import (AVERITEC, FEVER, VerdictLabel, aggregate, pair_seed,
                           precompute_pair_components, th2, th2_averitec,
                           th2_fever, verify_claim)

from _fixtures import (MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM, RABIES_EVIDENCE,
                       random_graph)


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


def _literal_label(e, dataset: str) -> str:
    """The module docstring's label maps, on the exact value of *e*."""
    e = Fraction(e)
    if dataset == FEVER:
        return "S" if e >= Fraction(1, 10) else "R" if e <= Fraction(-1, 10) else "N"
    if e >= Fraction(1, 2):
        return "S"
    if e <= Fraction(-1, 2):
        return "R"
    return "N" if abs(e) <= Fraction(1, 10) else "C"


def test_th2_equals_a_fresh_label_at_every_boundary():
    """th2 returns labels built once per dataset: at each boundary and one
    step either side, as an int, a Fraction or a float, it equals the
    label built afresh from the written-out maps."""
    values = [-1, 0, 1]
    for b in (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 2), Fraction(-1, 2)):
        values += [b - Fraction(1, 1000), b, b + Fraction(1, 1000)]
        values += [math.nextafter(float(b), -math.inf), float(b),
                   math.nextafter(float(b), math.inf)]
    for dataset in (FEVER, AVERITEC):
        for e in values:
            label = th2(e, dataset)
            assert type(label) is VerdictLabel
            assert label == VerdictLabel(_literal_label(e, dataset), dataset), (e, dataset)


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


# An embedding service run in a process of its own, so that this one may run
# a single thread: hashed vectors, and HTTP 500 for a request holding a text
# that starts with "fail".
_SERVICE = r"""
import json, os, zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        if any(t.startswith("fail") for t in texts):
            self.send_response(500)
            self.end_headers()
            return
        data = json.dumps({"vectors": [[zlib.crc32(t.encode()) % 97 - 48.0, len(t), 1.0]
                                       for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass

server = HTTPServer(("127.0.0.1", 0), Handler)
if os.fork():
    os._exit(0)
print(server.server_port, os.getpid(), flush=True)
server.serve_forever()
"""


@pytest.fixture(scope="module")
def service_url():
    """The service's URL.  The service runs in a grandchild of this
    process, so a test can check that this process has no child left."""
    launcher = subprocess.Popen([sys.executable, "-c", _SERVICE], stdout=subprocess.PIPE,
                                text=True)
    port, pid = launcher.stdout.readline().split()
    launcher.wait()
    launcher.stdout.close()
    try:
        yield f"http://127.0.0.1:{port}"
    finally:
        os.kill(int(pid), signal.SIGKILL)


def _service_verify(tmp_path, url, failing=None):
    """``verify`` argv over 12 FEVER claims of 3 evidence each, embedded by
    the service at *url*; the evidence at *failing*, a (claim, evidence)
    index, has a text the service rejects."""
    claims, amrs = [], []
    for i in range(12):
        claim, evidence = [(MARNIE_CLAIM, MARNIE_EVIDENCE), (RABIES_CLAIM, RABIES_EVIDENCE)][i % 2]
        claims.append({"claim_id": f"c{i}", "claim": f"claim {i}", "label": "SUPPORTS",
                       "evidence": [{"id": f"c{i}-e{k}",
                                     "text": f"{'fail ' * ((i, k) == failing)}evidence {i} {k}"}
                                    for k in range(3)]})
        amrs += [{"id": f"c{i}", "penman": claim}]
        amrs += [{"id": f"c{i}-e{k}", "penman": evidence} for k in range(3)]
    for name, rows in (("claims", claims), ("amrs", amrs)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    return ["verify", "--dataset", "fever", "--claims", str(tmp_path / "claims.jsonl"),
            "--amrs", str(tmp_path / "amrs.jsonl"), "--backend", f"service:{url}"]


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child os.fork makes, with the batch work that pays
    for aligning in a child while a service embeds lowered to one unit."""
    real, pids = os.fork, []

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(verdict, "_WORK_TO_OVERLAP", 1)
    return pids


def _reaped(pids) -> bool:
    """Whether each of *pids* has ended and been reaped."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


def _forking():
    """Skip unless score_pairs may fork here."""
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    if threading.active_count() != 1:
        pytest.skip("the test process already runs another thread")


@pytest.mark.parametrize("threads", ["fork", "thread"])
def test_a_service_batch_aligns_in_a_worker_with_the_serial_bytes(
        service_url, tmp_path, monkeypatch, forks, threads):
    """At the default --jobs a batch embedded by a service aligns in one
    forked child on 2 CPUs, however much work it holds, while this process
    embeds, if this process runs a single thread, and in this process
    after embedding if it runs another.  It writes the bytes of --jobs 1,
    and no child outlives the command."""
    _forking()
    monkeypatch.setattr(verdict, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verdict, "_WORK_PER_WORKER", 1)
    argv = _service_verify(tmp_path, service_url)

    def rows(*jobs):
        out = tmp_path / f"verdicts{jobs}.jsonl"
        assert dispatch([*argv, "--out", str(out), *jobs]) == 0
        return out.read_bytes()

    serial = rows("--jobs", "1")
    assert forks == []
    other = threading.Event()
    thread = threading.Thread(target=other.wait)
    if threads == "thread":
        thread.start()
    try:
        assert rows() == serial
    finally:
        other.set()
        if threads == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == (threads == "fork")
    assert _reaped(forks)


def test_a_service_failing_mid_batch_ends_as_at_jobs_1(service_url, tmp_path, capsys,
                                                       forks):
    """A request the service fails while a child aligns gives the error of
    --jobs 1, naming the pair, with exit 1; the child is killed and reaped,
    so this process has no child left."""
    _forking()
    argv = _service_verify(tmp_path, service_url, failing=(8, 1))
    errors = []
    for jobs in (["--jobs", "1"], []):
        assert dispatch([*argv, *jobs]) == 1
        errors.append([line for line in capsys.readouterr().err.splitlines()
                       if line.startswith("error:")])
    assert len(forks) == 1
    assert errors[0] == errors[1] == [
        "error: claim 'c8' / evidence 'c8-e0': embedding service returned HTTP 500"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _random_pairs(seed: int, n: int):
    """*n* random graphs, and score_pairs' pairs of every two of them."""
    rng = random.Random(seed)
    graphs = [random_graph(rng, prefix=p) for p in "abcd"[:n]]
    return graphs, [(f"evidence {i}", graphs[i], f"claim {j}", graphs[j],
                     pair_seed(seed, str(j), str(i))) for i in range(n) for j in range(n)]


@pytest.mark.parametrize("threads", ["fork", "thread"])
def test_graphs_holding_their_tables_score_as_fresh_ones(monkeypatch, forks, threads):
    """A graph keeps its alignment tables once a batch has built them, and
    a forked child inherits them: score_pairs run twice on the same pairs
    gives equal results at jobs=1 and jobs=2, by two children per call if
    this process runs a single thread, and in this process if it runs
    another."""
    _forking()
    monkeypatch.setattr(verdict, "usable_cpus", lambda: 2)
    graphs, pairs = _random_pairs(29, 4)
    backend = DeterministicTestBackend(dim=16)
    other = threading.Event()
    thread = threading.Thread(target=other.wait)
    if threads == "thread":
        thread.start()
    try:
        results = [verdict.score_pairs(pairs, backend, jobs=jobs) for jobs in (2, 1, 2, 1)]
    finally:
        other.set()
        if threads == "thread":
            thread.join(timeout=10)
    assert all(g._memo for g in graphs)
    assert results[0] == results[1] == results[2] == results[3]
    assert len(forks) == 4 * (threads == "fork")
    assert _reaped(forks)


def test_a_pool_chunk_holds_graphs_and_seeds_but_no_text(monkeypatch, forks):
    """A child aligns graphs under seeds and reads no text: each share
    score_pairs forks a child for holds ``(evidence graph, claim graph,
    seed)`` triples, the shares in order are the batch's, and the results
    are those of jobs=1."""
    _forking()
    real, shares = verdict._fork, []

    def spy(batch, cfg):
        shares.append(batch)
        return real(batch, cfg)

    monkeypatch.setattr(verdict, "_fork", spy)
    monkeypatch.setattr(verdict, "usable_cpus", lambda: 2)
    _, pairs = _random_pairs(30, 3)
    backend = DeterministicTestBackend(dim=16)
    assert (verdict.score_pairs(pairs, backend, jobs=2)
            == verdict.score_pairs(pairs, backend, jobs=1))
    assert len(shares) == len(forks) == 2
    assert not any(isinstance(value, str)
                   for share in shares for item in share for value in item)
    assert [item for share in shares for item in share] == [
        (ev_graph, claim_graph, seed) for _, ev_graph, _, claim_graph, seed in pairs]
    assert _reaped(forks)


def test_an_alignment_error_in_a_child_is_raised_as_at_jobs_1(monkeypatch, forks):
    _forking()
    monkeypatch.setattr(verdict, "usable_cpus", lambda: 2)
    _, pairs = _random_pairs(31, 2)
    backend = DeterministicTestBackend(dim=16)
    for jobs in (1, 2):
        with pytest.raises(ConfigError, match=r"^restarts must be >= 1, got 0$"):
            verdict.score_pairs(pairs, backend, AlignConfig(restarts=0), jobs=jobs)
    assert len(forks) == 2
    assert _reaped(forks)


def test_a_child_ending_without_a_result_is_a_typed_error(monkeypatch, tmp_path, capsys,
                                                         forks):
    """A child that ends before it writes its results (here by os._exit)
    ends verify with exit 1 and an error naming the first and last pair
    of its share, never a traceback, and no child outlives the command."""
    _forking()
    monkeypatch.setattr(verdict, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verdict, "_align_batch", lambda batch, cfg: os._exit(3))
    argv = _service_verify(tmp_path, "unused")
    argv[-1] = "test"  # the backend
    assert dispatch([*argv, "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the child aligning claim 'c0' / evidence 'c0-e0' to "
        "claim 'c5' / evidence 'c5-e2' ended without a result"]
    assert len(forks) == 2
    assert _reaped(forks)


def test_an_interrupt_while_embedding_kills_the_children(monkeypatch, forks):
    """An exception in this process while the children align, here an
    interrupt while embedding, kills and reaps them at once, rather than
    waiting for them to finish, and reaches the caller."""
    _forking()

    class Interrupted(DeterministicTestBackend):
        def embed(self, text, upcoming=()):
            raise KeyboardInterrupt

    monkeypatch.setattr(verdict, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verdict, "_align_batch", lambda batch, cfg: time.sleep(60))
    _, pairs = _random_pairs(32, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verdict.score_pairs(pairs, Interrupted(dim=16), jobs=2)
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert _reaped(forks)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40), st.data())
def test_shares_are_contiguous_cover_the_batch_and_balance_the_work(work, data):
    n = data.draw(st.integers(1, len(work)))
    shares = verdict._shares(work, n)
    assert len(shares) == n
    assert shares[0][0] == 0 and shares[-1][1] == len(work)
    assert all(stop == start for (_, stop), (start, _) in zip(shares, shares[1:]))
    assert all(start < stop for start, stop in shares)
    for start, stop in shares:
        assert sum(work[start:stop]) * n <= sum(work) + n * max(work)
