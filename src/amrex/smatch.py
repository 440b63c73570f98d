"""Smatch variable alignment between two AMR graphs.

The alignment searches for an injective partial mapping from hypothesis
variables to premise variables maximizing the number of hypothesis triples
that also occur in the premise after substitution.  Precision divides the
matched count by the hypothesis triple total, so it measures how much of
the hypothesis meaning is contained in the premise.

Two search procedures are provided: a restarted hill climber (the
production path) and an exhaustive branch-and-bound search used as an
oracle on small graphs.  Both are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ConfigError, GraphError, MappingError
from .graph import AmrGraph

_EXHAUSTIVE_MAX_HYP = 10
_EXHAUSTIVE_MAX_PREM = 12


@dataclass(frozen=True)
class VariableMapping:
    """Injective partial mapping hypothesis-variable -> premise-variable."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        hyp_seen: set[str] = set()
        prem_seen: set[str] = set()
        for hv, pv in self.pairs:
            if hv in hyp_seen:
                raise MappingError(f"hypothesis variable {hv!r} mapped twice")
            if pv in prem_seen:
                raise MappingError(f"premise variable {pv!r} mapped twice")
            hyp_seen.add(hv)
            prem_seen.add(pv)

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)


@dataclass(frozen=True)
class SmatchResult:
    mapping: VariableMapping
    matched: int
    hyp_total: int
    prem_total: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class AlignConfig:
    """Alignment knobs: restart count, RNG seed, top-triple convention."""

    restarts: int = 4
    seed: int = 0
    include_top: bool = True


class _MatchContext:
    """Premise-side lookup tables plus hypothesis triple lists."""

    def __init__(self, premise: AmrGraph, hypothesis: AmrGraph, include_top: bool):
        self.include_top = include_top
        self.prem_concepts = premise.nodes
        self.prem_rel = Counter((s, r, t) for s, r, t in premise.edges)
        self.prem_attr = Counter(premise.attributes)
        self.prem_root = premise.root
        self.hyp_nodes = hypothesis.nodes
        self.hyp_vars = list(hypothesis.nodes)
        self.hyp_edges = list(hypothesis.edges)
        self.hyp_attrs = list(hypothesis.attributes)
        self.hyp_root = hypothesis.root
        self.hyp_total = (len(hypothesis.nodes) + len(hypothesis.edges)
                          + len(hypothesis.attributes) + (1 if include_top else 0))
        self.prem_total = (len(premise.nodes) + len(premise.edges)
                           + len(premise.attributes) + (1 if include_top else 0))
        # Indices into hyp_edges of the edges incident to each hypothesis
        # variable (a self-loop once), for gain bookkeeping.
        self.hyp_edges_at: dict[str, list[int]] = defaultdict(list)
        for i, (s, _r, t) in enumerate(self.hyp_edges):
            self.hyp_edges_at[s].append(i)
            if t != s:
                self.hyp_edges_at[t].append(i)
        self.hyp_attrs_at: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        for attr in self.hyp_attrs:
            self.hyp_attrs_at[attr[0]].append(attr)
        self.prem_edges_by_role: dict[str, list[tuple[str, str]]] = defaultdict(list)
        self.prem_out: dict[str, set[str]] = defaultdict(set)
        self.prem_in: dict[str, set[str]] = defaultdict(set)
        for s, r, t in self.prem_rel:
            self.prem_edges_by_role[r].append((s, t))
            self.prem_out[s].add(t)
            self.prem_in[t].add(s)

    def count(self, m: dict[str, str]) -> int:
        """Matched hypothesis triples under mapping *m* (multiset-aware)."""
        matched = 0
        prem_concepts = self.prem_concepts
        for hv, concept in self.hyp_nodes.items():
            pv = m.get(hv)
            if pv is not None and prem_concepts.get(pv) == concept:
                matched += 1
        substituted = Counter()
        for s, r, t in self.hyp_edges:
            ps, pt = m.get(s), m.get(t)
            if ps is not None and pt is not None:
                substituted[(ps, r, pt)] += 1
        for key, n in substituted.items():
            matched += min(n, self.prem_rel.get(key, 0))
        substituted = Counter()
        for s, r, v in self.hyp_attrs:
            ps = m.get(s)
            if ps is not None:
                substituted[(ps, r, v)] += 1
        for key, n in substituted.items():
            matched += min(n, self.prem_attr.get(key, 0))
        if (self.include_top
                and m.get(self.hyp_root) == self.prem_root
                and self.hyp_nodes[self.hyp_root] == self.prem_concepts[self.prem_root]):
            matched += 1
        return matched


def matched_triples(premise: AmrGraph, hypothesis: AmrGraph,
                    mapping: VariableMapping, include_top: bool = True) -> int:
    """Count hypothesis triples present in the premise under *mapping*.

    Instance triples need equal concepts, relation triples need both
    endpoints mapped and an equal role, attribute triples need equal role
    and constant, and the top triple needs mapped roots with equal root
    concepts.  Raises :class:`MappingError` on unknown variables.
    """
    m = mapping.as_dict()
    for hv, pv in m.items():
        if hv not in hypothesis.nodes:
            raise MappingError(f"unknown hypothesis variable {hv!r}")
        if pv not in premise.nodes:
            raise MappingError(f"unknown premise variable {pv!r}")
    return _MatchContext(premise, hypothesis, include_top).count(m)


def _result(ctx: _MatchContext, m: dict[str, str]) -> SmatchResult:
    matched = ctx.count(m)
    pairs = tuple((hv, m[hv]) for hv in ctx.hyp_vars if hv in m)
    precision = matched / ctx.hyp_total if ctx.hyp_total else 0.0
    recall = matched / ctx.prem_total if ctx.prem_total else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return SmatchResult(mapping=VariableMapping(pairs), matched=matched,
                        hyp_total=ctx.hyp_total, prem_total=ctx.prem_total,
                        precision=precision, recall=recall, f1=f1)


def _greedy_init(ctx: _MatchContext, pvars: list[str], rng: random.Random) -> dict[str, str]:
    m: dict[str, str] = {}
    used: set[str] = set()
    for hv in ctx.hyp_vars:
        concept = ctx.hyp_nodes[hv]
        for pv in pvars:
            if pv not in used and ctx.prem_concepts[pv] == concept:
                m[hv] = pv
                used.add(pv)
                break
    free = [pv for pv in pvars if pv not in used]
    rng.shuffle(free)
    for hv in ctx.hyp_vars:
        if hv not in m and free:
            m[hv] = free.pop()
    return m


def _random_init(ctx: _MatchContext, pvars: list[str], rng: random.Random) -> dict[str, str]:
    free = list(pvars)
    rng.shuffle(free)
    return {hv: free[i] for i, hv in enumerate(ctx.hyp_vars) if i < len(free)}


def _assign(m: dict[str, str], hv: str, pv: str | None) -> None:
    """Map hv -> pv in *m*, or unmap hv when pv is None."""
    if pv is None:
        m.pop(hv, None)
    else:
        m[hv] = pv


def _place(m: dict[str, str], inv: dict[str, str], changes: dict[str, str | None],
           hv: str, pv: str) -> None:
    """Add hv -> pv to the change set *changes* of *m*, moving any occupant
    of pv to hv's vacated premise variable (or unmapping it).  *inv* is
    *m*'s inverse, premise -> hypothesis."""
    occupant = next((h for h, p in changes.items() if p == pv), None)
    if occupant is None and inv.get(pv) not in changes:
        occupant = inv.get(pv)
    vacated = changes.get(hv, m.get(hv))
    changes[hv] = pv
    if occupant is not None and occupant != hv:
        changes[occupant] = vacated


def _neighbours(ctx: _MatchContext, pvars: list[str],
                m: dict[str, str]) -> Iterator[dict[str, str | None]]:
    """Yield every neighbour of *m* as a change set ``{hv: new pv or None}``,
    in search order.

    First single moves (each hypothesis variable to each free premise
    variable, then to unmapped), then swaps of two hypothesis variables
    with different images, then edge plantings: for a hypothesis edge and a
    premise edge with the same role, map both endpoints onto the premise
    edge in one step.  The coordinated move is what lets a relation match
    be reached when neither endpoint alone gains anything.
    """
    inv = {pv: hv for hv, pv in m.items()}
    for hv in ctx.hyp_vars:
        cur_pv = m.get(hv)
        for pv in pvars + [None]:
            if pv == cur_pv or (pv is not None and pv in inv):
                continue
            yield {hv: pv}
    for i, h1 in enumerate(ctx.hyp_vars):
        for h2 in ctx.hyp_vars[i + 1:]:
            p1, p2 = m.get(h1), m.get(h2)
            if p1 == p2:
                continue
            yield {h1: p2, h2: p1}
    for s, r, t in ctx.hyp_edges:
        if s == t:
            continue
        for ps, pt in ctx.prem_edges_by_role.get(r, ()):
            if ps == pt or (m.get(s) == ps and m.get(t) == pt):
                continue
            changes: dict[str, str | None] = {}
            _place(m, inv, changes, s, ps)
            if changes.get(t, m.get(t)) != pt:
                _place(m, inv, changes, t, pt)
            yield changes


def _substituted(ctx: _MatchContext, m: dict[str, str]) -> tuple[Counter, Counter]:
    """How often each premise relation and attribute triple is the image
    of a hypothesis triple under *m*: the ``n`` that ``count`` caps."""
    rel: Counter = Counter()
    for s, r, t in ctx.hyp_edges:
        key = (m.get(s), r, m.get(t))
        if key in ctx.prem_rel:
            rel[key] += 1
    attr: Counter = Counter()
    for s, r, v in ctx.hyp_attrs:
        key = (m.get(s), r, v)
        if key in ctx.prem_attr:
            attr[key] += 1
    return rel, attr


def _gain(ctx: _MatchContext, m: dict[str, str], changes: dict[str, str | None],
          rel: Counter, attr: Counter) -> int:
    """``count(m + changes) - count(m)`` from the triples incident to the
    changed variables; *rel* and *attr* are ``_substituted(ctx, m)``."""
    gain = 0
    prem_concepts, prem_rel, prem_attr = ctx.prem_concepts, ctx.prem_rel, ctx.prem_attr
    edges: list[int] = []
    rel_delta: dict[tuple, int] = {}
    attr_delta: dict[tuple, int] = {}
    for hv, new in changes.items():
        old = m.get(hv)
        if old == new:
            continue
        concept = ctx.hyp_nodes[hv]
        if new is not None and prem_concepts[new] == concept:
            gain += 1
        if old is not None and prem_concepts[old] == concept:
            gain -= 1
        edges += ctx.hyp_edges_at[hv]
        for _s, r, v in ctx.hyp_attrs_at[hv]:
            if (key := (old, r, v)) in prem_attr:
                attr_delta[key] = attr_delta.get(key, 0) - 1
            if (key := (new, r, v)) in prem_attr:
                attr_delta[key] = attr_delta.get(key, 0) + 1
    # A swap or planting reaches an edge between two changed variables
    # twice, and duplicate edges are equal tuples: dedupe by index.
    for i in (set(edges) if len(changes) > 1 else edges):
        s, r, t = ctx.hyp_edges[i]
        old_s, old_t = m.get(s), m.get(t)
        if (key := (old_s, r, old_t)) in prem_rel:
            rel_delta[key] = rel_delta.get(key, 0) - 1
        if (key := (changes.get(s, old_s), r, changes.get(t, old_t))) in prem_rel:
            rel_delta[key] = rel_delta.get(key, 0) + 1
    # count() caps a key's matches at its premise multiplicity p, so a key
    # substituted n times before and n + d times after adds
    # min(n + d, p) - min(n, p), spelled out as it is the hot path.
    for delta, substituted, prem in ((rel_delta, rel, prem_rel),
                                     (attr_delta, attr, prem_attr)):
        for key, d in delta.items():
            if d:
                p, n = prem[key], substituted.get(key, 0)
                gain += (n + d if n + d < p else p) - (n if n < p else p)
    root = ctx.hyp_root
    if (ctx.include_top and root in changes
            and ctx.hyp_nodes[root] == prem_concepts[ctx.prem_root]):
        gain += (changes[root] == ctx.prem_root) - (m.get(root) == ctx.prem_root)
    return gain


def _climb(ctx: _MatchContext, pvars: list[str], m: dict[str, str]) -> tuple[dict[str, str], int]:
    """Greedy local search until no gain: each step takes the first
    neighbour with the largest strict gain.  Returns the mapping and its
    count."""
    current = ctx.count(m)
    while True:
        rel, attr = _substituted(ctx, m)
        best_gain = 0
        best: dict[str, str | None] | None = None
        for changes in _neighbours(ctx, pvars, m):
            gain = _gain(ctx, m, changes, rel, attr)
            if gain > best_gain:
                best_gain = gain
                best = changes
        if best is None:
            return m, current
        for hv, pv in best.items():
            _assign(m, hv, pv)
        current += best_gain


def _canonicalize(ctx: _MatchContext, pvars: list[str], m: dict[str, str]) -> dict[str, str]:
    """Deterministically re-place variables whose assignment contributes
    no matched triple.

    Zero-contribution assignments are ties for the climber; among them we
    prefer premise variables that preserve graph adjacency with the images
    of already-mapped neighbours (outgoing edges first), breaking remaining
    ties by premise declaration order.  This never changes the matched
    count but pins the reported mapping.
    """
    m = dict(m)
    rel, attr = _substituted(ctx, m)
    floating = []
    for hv in ctx.hyp_vars:
        if hv in m and _gain(ctx, m, {hv: None}, rel, attr) != 0:
            continue
        if m.pop(hv, None) is not None:
            rel, attr = _substituted(ctx, m)
        floating.append(hv)
    used = set(m.values())
    for hv in floating:
        free = [pv for pv in pvars if pv not in used]
        if not free:
            continue
        rel, attr = _substituted(ctx, m)
        edges = [ctx.hyp_edges[i] for i in ctx.hyp_edges_at[hv]]
        best_key = best_pv = None
        for pv in free:
            gain = _gain(ctx, m, {hv: pv}, rel, attr)
            m[hv] = pv
            out_adj = sum(1 for s, _r, t in edges
                          if s == hv and t in m and m[t] in ctx.prem_out[pv])
            in_adj = sum(1 for s, _r, t in edges
                         if t == hv and s in m and m[s] in ctx.prem_in[pv])
            del m[hv]
            key = (gain, out_adj, in_adj)
            if best_key is None or key > best_key:
                best_key = key
                best_pv = pv
        m[hv] = best_pv
        used.add(best_pv)
    return m


def align_hill_climb(premise: AmrGraph, hypothesis: AmrGraph,
                     restarts: int = 4, seed: int = 0,
                     include_top: bool = True) -> SmatchResult:
    """Best alignment over *restarts* hill-climbing runs.

    The first restart starts from a concept-match-greedy mapping, the rest
    from random injective mappings; each run applies the best single
    move, swap or edge planting until no gain.  Deterministic for a fixed
    seed.
    """
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    ctx = _MatchContext(premise, hypothesis, include_top)
    pvars = list(premise.nodes)
    rng = random.Random(seed)
    best_m: dict[str, str] | None = None
    best_count = -1
    for r in range(restarts):
        init = _greedy_init(ctx, pvars, rng) if r == 0 else _random_init(ctx, pvars, rng)
        m, c = _climb(ctx, pvars, init)
        if c > best_count:
            best_count = c
            best_m = m
    best_m = _canonicalize(ctx, pvars, best_m)
    return _result(ctx, best_m)


def align_exhaustive(premise: AmrGraph, hypothesis: AmrGraph,
                     include_top: bool = True) -> SmatchResult:
    """Globally optimal alignment by branch-and-bound enumeration.

    Guarded to small graphs (hypothesis <= 10 nodes, premise <= 12) since
    the mapping space grows factorially.  Used as the testing oracle for
    the hill climber.
    """
    if len(hypothesis.nodes) > _EXHAUSTIVE_MAX_HYP:
        raise GraphError(
            f"exhaustive alignment guard: hypothesis has {len(hypothesis.nodes)} "
            f"nodes (max {_EXHAUSTIVE_MAX_HYP})")
    if len(premise.nodes) > _EXHAUSTIVE_MAX_PREM:
        raise GraphError(
            f"exhaustive alignment guard: premise has {len(premise.nodes)} "
            f"nodes (max {_EXHAUSTIVE_MAX_PREM})")
    ctx = _MatchContext(premise, hypothesis, include_top)
    pvars = list(premise.nodes)
    hvars = ctx.hyp_vars
    order = {hv: i for i, hv in enumerate(hvars)}

    # Upper bound on what variables hvars[i:] can still add: their instance
    # triples, their attributes, edges whose later endpoint they are, and
    # the top triple when the root is among them.
    potential = [0] * (len(hvars) + 1)
    for i in range(len(hvars) - 1, -1, -1):
        hv = hvars[i]
        p = 1 + len(ctx.hyp_attrs_at[hv])
        for j in ctx.hyp_edges_at[hv]:
            s, _r, t = ctx.hyp_edges[j]
            later = max(order[s], order[t])
            if later == i:
                p += 1
        if include_top and hv == ctx.hyp_root:
            p += 1
        potential[i] = potential[i + 1] + p

    best = {"count": -1, "m": {}}
    m: dict[str, str] = {}
    used: set[str] = set()
    prem_rel = dict(ctx.prem_rel)
    prem_attr = dict(ctx.prem_attr)

    def assign_gain(hv: str, pv: str) -> tuple[int, list]:
        """Gain from mapping hv->pv given current m; decrements premise
        multiset counters and returns an undo list."""
        gain = 0
        undo = []
        if ctx.prem_concepts[pv] == ctx.hyp_nodes[hv]:
            gain += 1
        for j in ctx.hyp_edges_at[hv]:
            s, r, t = ctx.hyp_edges[j]
            if s == hv and t == hv:
                key = (pv, r, pv)
            elif s == hv:
                if t not in m:
                    continue
                key = (pv, r, m[t])
            else:
                if s not in m:
                    continue
                key = (m[s], r, pv)
            if prem_rel.get(key, 0) > 0:
                prem_rel[key] -= 1
                undo.append(("rel", key))
                gain += 1
        for s, r, v in ctx.hyp_attrs_at[hv]:
            key = (pv, r, v)
            if prem_attr.get(key, 0) > 0:
                prem_attr[key] -= 1
                undo.append(("attr", key))
                gain += 1
        if (include_top and hv == ctx.hyp_root and pv == ctx.prem_root
                and ctx.hyp_nodes[hv] == ctx.prem_concepts[pv]):
            gain += 1
        return gain, undo

    def undo_assign(undo: list) -> None:
        for kind, key in undo:
            if kind == "rel":
                prem_rel[key] += 1
            else:
                prem_attr[key] += 1

    def dfs(i: int, current: int) -> None:
        if current + potential[i] <= best["count"]:
            return
        if i == len(hvars):
            if current > best["count"]:
                best["count"] = current
                best["m"] = dict(m)
            return
        hv = hvars[i]
        for pv in pvars:
            if pv in used:
                continue
            gain, undo = assign_gain(hv, pv)
            m[hv] = pv
            used.add(pv)
            dfs(i + 1, current + gain)
            used.discard(pv)
            del m[hv]
            undo_assign(undo)
        dfs(i + 1, current)  # leave hv unmapped

    dfs(0, 0)
    final = _canonicalize(ctx, pvars, best["m"])
    return _result(ctx, final)


def smatch_precision(premise: AmrGraph, hypothesis: AmrGraph,
                     cfg: AlignConfig = AlignConfig()) -> SmatchResult:
    """Alignment with precision over the hypothesis triple count.

    The hypothesis is the claim whose meaning containment in the premise
    (the evidence) is being measured; the winning mapping is retained for
    explanation rendering.
    """
    return align_hill_climb(premise, hypothesis, restarts=cfg.restarts,
                            seed=cfg.seed, include_top=cfg.include_top)
