"""Seeded inputs for the benchmark workloads.

Each workload is a claims JSONL file and an AMR bundle JSONL file written
from a seed; amrex sees only those files.  Graph sizes and evidence counts
follow fixed schedules that the seed only shuffles, so every seed asks for
nearly the same amount of alignment work while the graphs themselves
(concepts, roles, structure, texts) differ.

Why each workload exists:

- ``fever-verify``: ``verify`` on ~240 small pairs with the in-process test
  embedding backend.  Alignment is nearly all of the run, so aligner and
  pool changes show at full strength here.
- ``averitec-sweep``: an 11-point lambda sweep over QA-structured records
  whose answers come from a shared pool, embedded through the loopback
  embedding service.  Alignment is about half the run and embedding round
  trips most of the rest; ingest, parse and the blend passes also run.
  Embedding and transport changes show here, alignment changes only
  diluted.
- ``long-evidence``: ``verify`` on ~80 pairs of large graphs with a
  heavy-tailed size schedule.  A few pairs dominate alignment time, so
  climb scaling and how a pool balances its work decide throughput.
"""

from __future__ import annotations

import ast
import json
import os
import random
import statistics

CONCEPTS = (
    "person", "film", "country", "city", "company", "name", "date-entity",
    "thing", "disease", "organization", "government-organization", "state",
    "book", "song", "album", "team", "game", "award", "war", "university",
    "release-01", "direct-01", "star-01", "win-01", "say-01", "cause-01",
    "found-01", "play-01", "write-01", "bear-02", "die-01", "live-01",
    "include-01", "know-02", "have-org-role-91", "lead-02", "produce-01",
    "locate-01", "become-01", "receive-01", "publish-01", "elect-01",
    "american", "british", "new", "old", "first", "large", "popular",
    "political", "musical", "human", "mammal", "river", "island", "season",
)
ROLES = ("ARG0", "ARG1", "ARG2", "mod", "name", "time", "location", "op1",
         "op2", "domain", "poss", "part-of", "ARG0-of", "ARG1-of", "quant")
ATTR_ROLES = ("op1", "op2", "year", "month", "day", "polarity", "quant")
CONSTS = ("1", "2", "7", "14", "21", "1964", "2017", "-", '"Marnie"',
          '"Orion"', '"Green"', '"Paris"', '"Nile"', '"Smith"')
FILLER = ("the", "a", "of", "in", "was", "is", "by", "and", "that", "with",
          "for", "its", "on", "at", "as", "which", "after", "during")

# The three reference claim/evidence pairs of the test fixtures and their
# sentences; the fever-verify workload carries them so that every run is
# checked against their known structural scores.
REFERENCE_TEXTS = {
    "wish": ("Wish Upon was released in the 21st century.",
             "It is set to be released in theaters on July 14, 2017, by "
             "Broad Green Pictures and Orion Pictures"),
    "marnie": ("Marnie is a romantic film.",
               "Marnie is a 1964 American psychological thriller film "
               "directed by Alfred Hitchcock."),
    "rabies": ("Rabies is a ride at Six Parks.",
               "Rabies is a viral disease that causes inflammation of the "
               "brain in humans and other mammals."),
}
# Smatch precision of the reference pairs with the top triple counted,
# within this tolerance; rabies is only defined without the top triple.
REFERENCE_CHECKED = ("wish", "marnie")
REFERENCE_TOLERANCE = 0.05


class Graph:
    """A rooted DAG on node indices 0..n-1 whose edges all point from a
    lower to a higher index, so it is acyclic and, through its tree edges,
    reachable from node 0."""

    def __init__(self, concepts, tree, extra=(), attrs=()):
        self.concepts = list(concepts)
        self.tree = list(tree)      # (parent, role, child), one per child
        self.extra = list(extra)    # (source, role, target), re-entrancies
        self.attrs = list(attrs)    # (node, role, constant)

    def __len__(self):
        return len(self.concepts)

    def penman(self, prefix: str) -> str:
        children = [[] for _ in self.concepts]
        for p, role, c in self.tree:
            children[p].append((role, c))
        extra = [[] for _ in self.concepts]
        for s, role, t in self.extra:
            extra[s].append((role, t))
        attrs = [[] for _ in self.concepts]
        for n, role, value in self.attrs:
            attrs[n].append((role, value))
        declared = set()

        def emit(i):
            declared.add(i)
            parts = [f"({prefix}{i}/{self.concepts[i]}"]
            parts += [f":{role} {value}" for role, value in attrs[i]]
            parts += [f":{role} {emit(c)}" for role, c in children[i]]
            # A bare variable is a re-entrancy only once it is declared.
            parts += [f":{role} {prefix}{t}" for role, t in extra[i]
                      if t in declared]
            return " ".join(parts) + ")"

        return emit(0)

    def words(self) -> list[str]:
        return [c.split("-")[0] for c in self.concepts]


def random_graph(rng: random.Random, n: int, concepts=CONCEPTS) -> Graph:
    graph = Graph([rng.choice(concepts) for _ in range(n)],
                  [(rng.randrange(i), rng.choice(ROLES), i) for i in range(1, n)])
    for _ in range(n // 4):
        i, j = sorted(rng.sample(range(n), 2))
        graph.extra.append((i, rng.choice(ROLES), j))
    for _ in range(rng.randint(0, max(1, n // 4))):
        graph.attrs.append((rng.randrange(n), rng.choice(ATTR_ROLES),
                            rng.choice(CONSTS)))
    return graph


def grow(rng: random.Random, base: Graph, n: int, substitutions: int) -> Graph:
    """*base* with some concepts replaced and random nodes hung below its
    nodes until it has *n* nodes: evidence that contains most of a claim."""
    graph = Graph(base.concepts, base.tree, base.extra, base.attrs)
    for i in rng.sample(range(len(graph)), min(substitutions, len(graph))):
        graph.concepts[i] = rng.choice(CONCEPTS)
    while len(graph) < n:
        graph.tree.append((rng.randrange(len(graph)), rng.choice(ROLES), len(graph)))
        graph.concepts.append(rng.choice(CONCEPTS))
    for _ in range((n - len(base)) // 5):
        i, j = sorted(rng.sample(range(n), 2))
        graph.extra.append((i, rng.choice(ROLES), j))
    return graph


def sentence(rng: random.Random, words: list[str], extra: int = 0) -> str:
    out = list(words) + [rng.choice(FILLER) for _ in range(extra)]
    rng.shuffle(out)
    return " ".join(out).capitalize() + "."


def schedule(rng: random.Random, values, count: int) -> list:
    """*count* values cycling through *values*, in a seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def reference_pairs(root: str) -> dict[str, tuple[str, str, float]]:
    """name -> (claim Penman, evidence Penman, reference precision), read
    from the test fixtures without importing them."""
    path = os.path.join(root, "tests", "_fixtures.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                values[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return {name: (values[f"{name.upper()}_CLAIM"],
                   values[f"{name.upper()}_EVIDENCE"],
                   values["PAIR_SCORES"][name][0])
            for name in REFERENCE_TEXTS}


class Inputs:
    """Claims and bundle rows of one workload plus what the checks need."""

    def __init__(self, dataset: str):
        self.dataset = dataset
        self.claims: list[dict] = []
        self.bundle: list[dict] = []
        self.pairs = 0                 # (claim, evidence) pairs scored
        self.reference: dict[str, float] = {}   # claim id -> precision
        self.claim_nodes: list[int] = []
        self.evidence_nodes: list[int] = []
        self.answers = 0
        self.boolean_answers = 0
        self.all_boolean_claims = 0
        self.embed_texts: list[str] = []   # texts in embedding-call order

    def add_graph(self, rid: str, graph: Graph | str) -> None:
        text = graph if isinstance(graph, str) else graph.penman("v")
        self.bundle.append({"id": rid, "penman": text})

    def write(self, directory: str) -> tuple[str, str]:
        claims = os.path.join(directory, "claims.jsonl")
        amrs = os.path.join(directory, "amrs.jsonl")
        for path, rows in ((claims, self.claims), (amrs, self.bundle)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in rows)
        return claims, amrs

    def shape(self) -> dict:
        def quartiles(xs):
            return [round(q, 1) for q in statistics.quantiles(xs, n=4)]
        calls = len(self.embed_texts)
        return {
            "claims": len(self.claims),
            "pairs": self.pairs,
            "distinct_texts": len(set(self.embed_texts)),
            "claim_nodes_q": quartiles(self.claim_nodes),
            "evidence_nodes_q": quartiles(self.evidence_nodes),
            "boolean_answer_share": (round(self.boolean_answers / self.answers, 3)
                                     if self.answers else 0.0),
            "all_boolean_claim_share": round(self.all_boolean_claims
                                             / len(self.claims), 3),
            "embed_hit_share": round(1 - len(set(self.embed_texts)) / calls, 3),
        }


def _add_pair_texts(inputs: Inputs, claim_text: str, evidence_text: str) -> None:
    # Embedding order of one pair: evidence first, then claim.
    inputs.embed_texts += [evidence_text, claim_text]


def _claims_with_evidence(rng: random.Random, inputs: Inputs, prefix: str,
                          claim_sizes, evidence_counts, evidence_sizes,
                          substitutions, labels, kinds=()) -> None:
    """Claims, each with evidence graphs of which half grow out of the
    claim graph and half are unrelated.

    Every claim size is crossed with every evidence count, and the pairs
    take evidence sizes, substitution counts and grown/unrelated in turn
    from their lists, one claim size after another, so the seed changes
    which graphs a workload holds but not how many pairs of each size.
    """
    specs = [(size, count) for size in claim_sizes for count in evidence_counts]
    rng.shuffle(specs)
    per_size, start = {}, 0
    for size in claim_sizes:
        if size in per_size:
            continue
        n = sum(count for s, count in specs if s == size)
        per_size[size] = [
            (evidence_sizes[(start + k) % len(evidence_sizes)],
             substitutions[(start + k) % len(substitutions)], (start + k) % 2 == 0)
            for k in range(n)]
        rng.shuffle(per_size[size])
        start += n
    for i, (size, count) in enumerate(specs):
        cid = f"{prefix}{i:04d}"
        claim = random_graph(rng, size)
        claim_text = sentence(rng, claim.words(), 3)
        inputs.add_graph(cid, claim)
        inputs.claim_nodes.append(len(claim))
        evidence = []
        for j in range(count):
            eid = f"{cid}-e{j}"
            ev_size, subs, grown = per_size[size].pop()
            ev_size = max(ev_size, size)
            if grown:
                graph = grow(rng, claim, ev_size, subs)
                text = sentence(rng, claim.words() + graph.words()[size:], 4)
            else:
                graph = random_graph(rng, ev_size)
                text = sentence(rng, graph.words(), 4)
            inputs.add_graph(eid, graph)
            inputs.evidence_nodes.append(len(graph))
            item = {"id": eid, "text": text}
            if kinds:
                item["kind"] = kinds[(i + j) % len(kinds)]
            evidence.append(item)
            inputs.pairs += 1
            _add_pair_texts(inputs, claim_text, text)
        inputs.claims.append({"claim_id": cid, "claim": claim_text,
                              "label": rng.choice(labels), "evidence": evidence})


def fever_verify(seed: int, root: str) -> Inputs:
    rng = random.Random(f"fever-verify:{seed}")
    inputs = Inputs("fever")
    for name, (claim_pm, evidence_pm, precision) in reference_pairs(root).items():
        cid, eid = f"ref-{name}", f"ref-{name}-e0"
        claim_text, evidence_text = REFERENCE_TEXTS[name]
        inputs.claims.append({"claim_id": cid, "claim": claim_text,
                              "label": "SUPPORTS" if name != "rabies" else "REFUTES",
                              "evidence": [{"id": eid, "text": evidence_text}]})
        inputs.add_graph(cid, claim_pm)
        inputs.add_graph(eid, evidence_pm)
        if name in REFERENCE_CHECKED:
            inputs.reference[cid] = precision
        inputs.pairs += 1
        _add_pair_texts(inputs, claim_text, evidence_text)
    # 8 claim sizes, each twice, x 5 evidence counts: 80 claims, 240 pairs.
    _claims_with_evidence(rng, inputs, "c", list(range(3, 11)) * 2,
                          [1, 2, 3, 4, 5], list(range(8, 21)), [0, 1, 2],
                          ["SUPPORTS", "REFUTES", "NOT ENOUGH INFO"])
    return inputs


AVERITEC_LABELS = ("Supported", "Refuted", "Not Enough Evidence",
                   "Conflicting Evidence/Cherrypicking")


def averitec_sweep(seed: int, root: str) -> Inputs:
    rng = random.Random(f"averitec-sweep:{seed}")
    inputs = Inputs("averitec")
    n_claims = 300
    # A pool a sixth the size of the claim count keeps ~89% of the
    # embedding calls on texts already embedded.
    pool = []
    for k in range(n_claims // 6):
        graph = random_graph(rng, 1 + k % 5)
        pool.append((graph, sentence(rng, graph.words(), 2) + f" ({k})"))
    question_counts = schedule(rng, [2, 3, 4, 5], n_claims)
    answer_counts = schedule(rng, [1, 2, 3], sum(question_counts))
    # A quarter of the answers are Boolean, and every 30th claim has only
    # Boolean answers.
    boolean = schedule(rng, [True, False, False, False], sum(answer_counts))
    claim_sizes = schedule(rng, list(range(3, 9)), n_claims)
    q_index = a_index = 0
    for i in range(n_claims):
        cid = f"q{i:04d}"
        only_boolean = i % 30 == 29
        questions, chosen, n = [], [], 0
        for q in range(question_counts[i]):
            answers = []
            for _ in range(answer_counts[q_index]):
                inputs.answers += 1
                if only_boolean or boolean[a_index]:
                    inputs.boolean_answers += 1
                    answers.append({"answer": rng.choice(["Yes", "No"]),
                                    "answer_type": "Boolean"})
                else:
                    graph, text = pool[rng.randrange(len(pool))]
                    answers.append({"answer": text, "answer_type": rng.choice(
                        ["Extractive", "Abstractive"])})
                    inputs.add_graph(f"{cid}-e{n}", graph)
                    inputs.evidence_nodes.append(len(graph))
                    chosen.append((graph, text))
                n += 1
                a_index += 1
            q_index += 1
            questions.append({"question": f"What about {rng.choice(CONCEPTS)} {q}?",
                              "answers": answers})
        words = [w for g, _ in chosen for w in g.words()] or list(FILLER)
        claim = random_graph(rng, claim_sizes[i],
                             concepts=[c for g, _ in chosen for c in g.concepts]
                             + list(CONCEPTS[:12]))
        claim_text = sentence(rng, rng.sample(words, min(4, len(words)))
                              + claim.words(), 2)
        inputs.add_graph(cid, claim)
        inputs.claim_nodes.append(len(claim))
        inputs.all_boolean_claims += not chosen
        for _graph, text in chosen:
            inputs.pairs += 1
            _add_pair_texts(inputs, claim_text, text)
        inputs.claims.append({"claim_id": cid, "claim": claim_text,
                              "label": rng.choice(AVERITEC_LABELS),
                              "questions": questions})
    return inputs


def long_evidence(seed: int, root: str) -> Inputs:
    rng = random.Random(f"long-evidence:{seed}")
    inputs = Inputs("averitec")
    # 8 claim sizes x 5 evidence counts: 40 claims and 80 pairs, with
    # heavy-tailed evidence sizes: most pairs are mid-sized, a tenth are at
    # the 40-node cap.
    _claims_with_evidence(rng, inputs, "l", [5, 7, 9, 11, 13, 15, 17, 20],
                          [1, 2, 3, 2, 2],
                          [10, 12, 14, 16, 18, 20, 22, 26, 32, 40], [1, 2, 3],
                          "SRNC", ("extractive", "abstractive"))
    return inputs


GENERATORS = {
    "fever-verify": fever_verify,
    "averitec-sweep": averitec_sweep,
    "long-evidence": long_evidence,
}
