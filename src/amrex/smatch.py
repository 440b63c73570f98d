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

import math
import random
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ConfigError, GraphError, MappingError
from .graph import AmrGraph, extract_triples

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
    """Alignment knobs: restart count and top-triple convention."""

    restarts: int = 4
    include_top: bool = True


def _premise_half(premise: AmrGraph, include_top: bool) -> tuple:
    """The premise's tables: its concepts, triple total, relation counter,
    ``(kind, role, value) -> {variable: multiplicity}`` index, edges by
    role, and the variables each role leaves and enters."""
    triples = extract_triples(premise, include_top)
    rel: Counter = Counter()
    unary: dict[tuple[str, str, str], dict[str, int]] = defaultdict(dict)
    for kind, var, role, value in triples:
        if kind == "relation":
            rel[(var, role, value)] += 1
        else:
            counts = unary[(kind, role, value)]
            counts[var] = counts.get(var, 0) + 1
    edges_by_role: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for s, r, t in rel:
        edges_by_role[r].append((s, t))
    leaves = {r: {s for s, _t in ends} for r, ends in edges_by_role.items()}
    enters = {r: {t for _s, t in ends} for r, ends in edges_by_role.items()}
    return (premise.nodes, len(triples), rel, dict(unary), dict(edges_by_role),
            leaves, enters)


def _claim_half(hypothesis: AmrGraph, include_top: bool) -> tuple:
    """The claim's tables: its concepts, variables, triple total,
    ``variable -> {(kind, role, value): multiplicity}`` index, distinct
    edges with their multiplicities, and each variable's incident edges as
    indices into them."""
    triples = extract_triples(hypothesis, include_top)
    rel: Counter = Counter()
    unary: dict[str, dict[tuple[str, str, str], int]] = {v: {} for v in hypothesis.nodes}
    for kind, var, role, value in triples:
        if kind == "relation":
            rel[(var, role, value)] += 1
        else:
            counts, key = unary[var], (kind, role, value)
            counts[key] = counts.get(key, 0) + 1
    edges = list(rel)
    edges_at: dict[str, list[int]] = {v: [] for v in hypothesis.nodes}
    for i, (s, _r, t) in enumerate(edges):
        edges_at[s].append(i)
        edges_at[t].append(i)
    return (hypothesis.nodes, list(hypothesis.nodes), len(triples), unary, edges,
            list(rel.values()), edges_at)


def _half(build, graph: AmrGraph, include_top: bool, tables: dict | None) -> tuple:
    """``build(graph, include_top)``, or the half kept in *tables* by an
    earlier call for the same graph object; the entry holds the graph, so
    its id is not reused while *tables* lives."""
    if tables is None:
        return build(graph, include_top)
    key = (build, id(graph), include_top)
    entry = tables.get(key)
    if entry is None:
        entry = tables[key] = (graph, build(graph, include_top))
    return entry[1]


class _MatchContext:
    """Both graphs' triples, from ``extract_triples``, as alignment tables.

    A relation triple depends on two variables' images.  Every other triple
    (instance, attribute, top) depends on one variable's image, and since a
    mapping is injective only hv's own such triples can land on pv's: their
    matches are the exact table ``unary[hv][pv]``, the multiset intersection
    of the two variables' ``(kind, role, value)`` triples, 0 for pv None.

    The claim's relations are held once per distinct edge, ``hyp_edges[i]``
    occurring ``hyp_mult[i]`` times.  An injective mapping sends distinct
    edges to distinct images, so an edge whose image the premise holds p
    times matches ``min(hyp_mult[i], p)`` times.

    Each graph's tables depend on that graph alone: a premise half
    (:func:`_premise_half`) and a claim half (:func:`_claim_half`), which a
    caller aligning many pairs may keep in *tables* across contexts.  Only
    the ``unary`` and ``bound`` rows are built per pair.
    """

    def __init__(self, premise: AmrGraph, hypothesis: AmrGraph, include_top: bool,
                 tables: dict | None = None):
        (self.prem_concepts, self.prem_total, self.prem_rel, prem_unary,
         self.prem_edges_by_role, leaves, enters) = _half(
            _premise_half, premise, include_top, tables)
        (self.hyp_nodes, self.hyp_vars, self.hyp_total, hyp_unary, self.hyp_edges,
         self.hyp_mult, self.hyp_edges_at) = _half(
            _claim_half, hypothesis, include_top, tables)
        # bound[hv][pv]: the most triples mapping hv -> pv can ever match:
        # unary[hv][pv] plus each incident edge's multiplicity when its role
        # leaves (hv the source) or enters (hv the target) pv in the
        # premise.  Unmapping never gains and an edge matches at most its
        # multiplicity, so a change set gains at most the sum of its entries.
        self.unary: dict[str, dict[str | None, int]] = {}
        self.bound: dict[str, dict[str | None, int]] = {}
        for hv in self.hyp_vars:
            row = self.unary[hv] = dict.fromkeys(self.prem_concepts, 0)
            row[None] = 0
            for key, n in hyp_unary[hv].items():
                for pv, p in prem_unary.get(key, {}).items():
                    row[pv] += min(n, p)
            bound = self.bound[hv] = dict(row)
            for i in self.hyp_edges_at[hv]:
                s, r, _t = self.hyp_edges[i]
                for pv in (leaves if s == hv else enters).get(r, ()):
                    bound[pv] += self.hyp_mult[i]

    def count(self, m: dict[str, str]) -> int:
        """Matched hypothesis triples under mapping *m* (multiset-aware)."""
        unary, prem_rel = self.unary, self.prem_rel
        matched = sum(unary[hv][pv] for hv, pv in m.items())
        for (s, r, t), n in zip(self.hyp_edges, self.hyp_mult):
            matched += min(n, prem_rel.get((m.get(s), r, m.get(t)), 0))
        return matched


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


def _greedy_init(ctx: _MatchContext, rng: random.Random) -> dict[str, str]:
    m: dict[str, str] = {}
    used: set[str] = set()
    for hv in ctx.hyp_vars:
        concept = ctx.hyp_nodes[hv]
        for pv, prem_concept in ctx.prem_concepts.items():
            if pv not in used and prem_concept == concept:
                m[hv] = pv
                used.add(pv)
                break
    free = [pv for pv in ctx.prem_concepts if pv not in used]
    rng.shuffle(free)
    for hv in ctx.hyp_vars:
        if hv not in m and free:
            m[hv] = free.pop()
    return m


def _random_init(ctx: _MatchContext, rng: random.Random) -> dict[str, str]:
    free = list(ctx.prem_concepts)
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


def _neighbours(ctx: _MatchContext, m: dict[str, str]) -> Iterator[dict[str, str | None]]:
    """Yield every neighbour of *m* as a change set ``{hv: new pv or None}``,
    in search order.

    First single moves (each hypothesis variable to each free premise
    variable), then swaps of two hypothesis variables with different
    images, then edge plantings: for a hypothesis edge and a premise edge
    with the same role, map both endpoints onto the premise edge in one
    step.  The coordinated move is what lets a relation match be reached
    when neither endpoint alone gains anything.  Unmapping a variable
    alone never gains, so it is no move; a swap or planting may still
    unmap the variable it displaces.
    """
    inv = {pv: hv for hv, pv in m.items()}
    for hv in ctx.hyp_vars:
        for pv in ctx.prem_concepts:
            if pv not in inv:
                yield {hv: pv}
    for i, h1 in enumerate(ctx.hyp_vars):
        for h2 in ctx.hyp_vars[i + 1:]:
            p1, p2 = m.get(h1), m.get(h2)
            if p1 == p2:
                continue
            yield {h1: p2, h2: p1}
    for s, r, t in ctx.hyp_edges:
        for ps, pt in ctx.prem_edges_by_role.get(r, ()):
            if m.get(s) == ps and m.get(t) == pt:
                continue
            changes: dict[str, str | None] = {}
            _place(m, inv, changes, s, ps)
            if changes.get(t, m.get(t)) != pt:
                _place(m, inv, changes, t, pt)
            yield changes


def _gain(ctx: _MatchContext, m: dict[str, str], changes: dict[str, str | None]) -> int:
    """``count(m + changes) - count(m)`` from the changed variables' unary
    entries and incident edges."""
    gain = 0
    unary, prem_rel, mult = ctx.unary, ctx.prem_rel, ctx.hyp_mult
    edges: list[int] = []
    for hv, new in changes.items():
        old = m.get(hv)
        if old == new:
            continue
        row = unary[hv]
        gain += row[new] - row[old]
        edges += ctx.hyp_edges_at[hv]
    # A swap or planting reaches an edge between two changed variables
    # twice: dedupe by index.  Each edge matches min(n, p) times, spelled
    # out as this is the hot path.
    for i in (set(edges) if len(changes) > 1 else edges):
        s, r, t = ctx.hyp_edges[i]
        n, old_s, old_t = mult[i], m.get(s), m.get(t)
        if p := prem_rel.get((old_s, r, old_t)):
            gain -= n if n < p else p
        if p := prem_rel.get((changes.get(s, old_s), r, changes.get(t, old_t))):
            gain += n if n < p else p
    return gain


def _climb(ctx: _MatchContext, m: dict[str, str]) -> tuple[dict[str, str], int]:
    """Greedy local search until no gain: each step takes the first
    neighbour with the largest strict gain.  Returns the mapping and its
    count.  A neighbour whose ``ctx.bound`` sum cannot beat the step's best
    gain so far is not scored: it could not be taken, so the step is the
    same."""
    bound = ctx.bound
    current = ctx.count(m)
    while True:
        best_gain = 0
        best: dict[str, str | None] | None = None
        for changes in _neighbours(ctx, m):
            ub = 0
            for hv, pv in changes.items():
                ub += bound[hv][pv]
            if ub <= best_gain:
                continue
            gain = _gain(ctx, m, changes)
            if gain > best_gain:
                best_gain = gain
                best = changes
        if best is None:
            return m, current
        for hv, pv in best.items():
            _assign(m, hv, pv)
        current += best_gain


def _max_assignment(weights: list[list[int]]) -> int:
    """The largest total weight of an injective partial assignment of rows
    to columns, for non-negative integer weights.

    The Hungarian method (Kuhn 1955; Munkres 1957) in potentials form, on
    costs ``-weight``.  With no negative weight some best assignment gives
    every row a column, so zero columns added up to the row count stand in
    for a row left unassigned.
    """
    n = len(weights)
    m = max(n, len(weights[0]))
    cost = [[]] + [[0] + [-w for w in row] + [0] * (m - len(row)) for row in weights]
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner = [0] * (m + 1)  # owner[j]: the row holding column j, 0 for none
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        # Grow a shortest augmenting path from row i over reduced costs.
        owner[0], j0 = i, 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return v[0]


def _upper_bound(ctx: _MatchContext, incumbent: int) -> int:
    """An upper bound on the count of every injective mapping: half a
    maximum-weight assignment of claim to premise variables, unless the
    cheaper row bound, each claim variable's best weight regardless of
    injectivity, is already no more than *incumbent*."""
    # weight[i][j] is twice hv = hyp_vars[i]'s share of count() when mapped
    # to the j-th premise variable: a relation is in both endpoints' bounds
    # and so weighs a half in each.  So a mapping's count is at most half
    # the weight of its pairs.
    weight = [[ctx.unary[hv][pv] + ctx.bound[hv][pv] for pv in ctx.prem_concepts]
              for hv in ctx.hyp_vars]
    bound = sum(max(row) for row in weight) // 2
    if bound <= incumbent:
        return bound
    return _max_assignment(weight) // 2


def _canonicalize(ctx: _MatchContext, m: dict[str, str]) -> dict[str, str]:
    """Deterministically re-place variables whose assignment contributes
    no matched triple.

    Zero-contribution assignments are ties for the climber; among them we
    prefer premise variables that preserve graph adjacency with the images
    of already-mapped neighbours (outgoing edges first), breaking remaining
    ties by premise declaration order.  This never changes the matched
    count but pins the reported mapping.
    """
    m = dict(m)
    links = {(s, t) for s, _r, t in ctx.prem_rel}
    floating = []
    for hv in ctx.hyp_vars:
        if hv in m and _gain(ctx, m, {hv: None}) != 0:
            continue
        m.pop(hv, None)
        floating.append(hv)
    used = set(m.values())
    for hv in floating:
        free = [pv for pv in ctx.prem_concepts if pv not in used]
        if not free:
            continue
        edges = [(ctx.hyp_edges[i], ctx.hyp_mult[i]) for i in ctx.hyp_edges_at[hv]]

        def rank(pv: str) -> tuple[int, int, int]:
            out_adj = sum(n for (s, _r, t), n in edges
                          if s == hv and t in m and (pv, m[t]) in links)
            in_adj = sum(n for (s, _r, t), n in edges
                         if t == hv and s in m and (m[s], pv) in links)
            return _gain(ctx, m, {hv: pv}), out_adj, in_adj

        m[hv] = max(free, key=rank)
        used.add(m[hv])
    return m


def align_hill_climb(premise: AmrGraph, hypothesis: AmrGraph,
                     restarts: int = 4, seed: int = 0,
                     include_top: bool = True, tables: dict | None = None) -> SmatchResult:
    """Best alignment over at most *restarts* hill-climbing runs.

    The first restart starts from a concept-match-greedy mapping, the rest
    from random injective mappings; each run applies the best single
    move, swap or edge planting until no gain.  Deterministic for a fixed
    seed.  The runs stop once the best count reaches ``_upper_bound``:
    a later run could only tie, and a tie never replaces the first best,
    so the result is the one all *restarts* runs give.  *tables*, a dict
    the caller keeps for a batch, shares each graph's half of the
    alignment tables between the batch's pairs (see :class:`_MatchContext`).
    """
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    ctx = _MatchContext(premise, hypothesis, include_top, tables)
    rng = random.Random(seed)
    best_m: dict[str, str] | None = None
    best_count = -1
    bound = None
    for r in range(restarts):
        init = _greedy_init(ctx, rng) if r == 0 else _random_init(ctx, rng)
        m, c = _climb(ctx, init)
        if c > best_count:
            best_count = c
            best_m = m
        if r + 1 < restarts:
            if bound is None:
                bound = _upper_bound(ctx, best_count)
            if best_count >= bound:
                break
    best_m = _canonicalize(ctx, best_m)
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
    hvars = ctx.hyp_vars
    order = {hv: i for i, hv in enumerate(hvars)}

    # Upper bound on what variables hvars[i:] can still add: their best
    # unary entries and the edges whose later endpoint they are.
    potential = [0] * (len(hvars) + 1)
    for i in range(len(hvars) - 1, -1, -1):
        hv = hvars[i]
        p = max(ctx.unary[hv].values())
        for j in ctx.hyp_edges_at[hv]:
            s, _r, t = ctx.hyp_edges[j]
            if max(order[s], order[t]) == i:
                p += ctx.hyp_mult[j]
        potential[i] = potential[i + 1] + p

    best = {"count": -1, "m": {}}
    m: dict[str, str] = {}
    used: set[str] = set()

    def dfs(i: int, current: int) -> None:
        if current + potential[i] <= best["count"]:
            return
        if i == len(hvars):
            if current > best["count"]:
                best["count"] = current
                best["m"] = dict(m)
            return
        hv = hvars[i]
        for pv in ctx.prem_concepts:
            if pv in used:
                continue
            gain = _gain(ctx, m, {hv: pv})  # exact, as hv is still unmapped
            m[hv] = pv
            used.add(pv)
            dfs(i + 1, current + gain)
            used.discard(pv)
            del m[hv]
        dfs(i + 1, current)  # leave hv unmapped

    dfs(0, 0)
    final = _canonicalize(ctx, best["m"])
    return _result(ctx, final)

