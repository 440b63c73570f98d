"""Smatch variable alignment between two AMR graphs.

The alignment searches for an injective partial mapping from hypothesis
variables to premise variables maximizing the number of hypothesis triples
that also occur in the premise after substitution.  Precision divides the
matched count by the hypothesis triple total, so it measures how much of
the hypothesis meaning is contained in the premise.

Two search procedures are provided: a restarted hill climber (the
production path) and an exhaustive branch-and-bound search used as an
oracle on small graphs.  Both are deterministic for a fixed seed.  Each
climber step is a short list of moves ``(hv, old pv, new pv)``: one for a
single move, two for a swap, up to four for an edge planting, all scored
from the climb's match tables by one gain function.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

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
    role, the variables each role leaves and enters, and the edge indexes
    ``(role, target) -> {source: multiplicity}`` and ``(role, source) ->
    {target: multiplicity}``."""
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
    sources: dict[tuple[str, str], dict[str, int]] = defaultdict(dict)
    targets: dict[tuple[str, str], dict[str, int]] = defaultdict(dict)
    for (s, r, t), p in rel.items():
        edges_by_role[r].append((s, t))
        sources[(r, t)][s] = p
        targets[(r, s)][t] = p
    leaves = {r: {s for s, _t in ends} for r, ends in edges_by_role.items()}
    enters = {r: {t for _s, t in ends} for r, ends in edges_by_role.items()}
    return (premise.nodes, len(triples), rel, dict(unary), dict(edges_by_role),
            leaves, enters, dict(sources), dict(targets))


def _claim_half(hypothesis: AmrGraph, include_top: bool) -> tuple:
    """The claim's tables: its concepts, variables, triple total,
    ``variable -> {(kind, role, value): multiplicity}`` index, distinct
    edges with their multiplicities, each variable's incident edges as
    indices into them, and the edges between each two variables, under
    both orders of the pair."""
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
    between: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, (s, _r, t) in enumerate(edges):
        edges_at[s].append(i)
        edges_at[t].append(i)
        between[(s, t)].append(i)
        between[(t, s)].append(i)
    return (hypothesis.nodes, list(hypothesis.nodes), len(triples), unary, edges,
            list(rel.values()), edges_at, dict(between))


def _half(build, graph: AmrGraph, include_top: bool) -> tuple:
    """``build(graph, include_top)``, built once per graph and kept in its
    memo for as long as the graph lives."""
    key = build, include_top
    half = graph._memo.get(key)
    if half is None:
        half = graph._memo[key] = build(graph, include_top)
    return half


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

    Every count and step score, the climber's, canonicalization's and the
    exhaustive search's, reads the match tables (:func:`_match_tables`), which
    :func:`_take` keeps through the premise's edges
    ``prem_sources[(role, target)]`` and ``prem_targets[(role, source)]``,
    each ``{variable: multiplicity}``.  A step whose moves move both ends
    of a claim edge reads it through ``hyp_between[(a, b)]``, keyed by
    both orders of the pair.

    Each graph's tables depend on that graph alone: a premise half
    (:func:`_premise_half`) and a claim half (:func:`_claim_half`), each
    built on the graph's first context in that role and kept on the graph
    (:func:`_half`).  Only the ``unary`` and ``bound`` rows are built per
    pair.
    """

    def __init__(self, premise: AmrGraph, hypothesis: AmrGraph, include_top: bool):
        (self.prem_concepts, self.prem_total, self.prem_rel, prem_unary,
         self.prem_edges_by_role, leaves, enters, self.prem_sources,
         self.prem_targets) = _half(_premise_half, premise, include_top)
        (self.hyp_nodes, self.hyp_vars, self.hyp_total, hyp_unary, self.hyp_edges,
         self.hyp_mult, self.hyp_edges_at, self.hyp_between) = _half(
            _claim_half, hypothesis, include_top)
        # bound[hv][pv]: the most triples mapping hv -> pv can ever match:
        # unary[hv][pv] plus each incident edge's multiplicity when its role
        # leaves (hv the source) or enters (hv the target) pv in the
        # premise.  Unmapping never gains and an edge matches at most its
        # multiplicity, so a step gains at most the sum of its moves' entries.
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


def _result(ctx: _MatchContext, m: dict[str, str], matched: int) -> SmatchResult:
    pairs = tuple((hv, m[hv]) for hv in ctx.hyp_vars if hv in m)
    precision = matched / ctx.hyp_total if ctx.hyp_total else 0.0
    recall = matched / ctx.prem_total if ctx.prem_total else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return SmatchResult(mapping=VariableMapping(pairs), matched=matched,
                        hyp_total=ctx.hyp_total, prem_total=ctx.prem_total,
                        precision=precision, recall=recall, f1=f1)


def score_mapping(premise: AmrGraph, hypothesis: AmrGraph, mapping: VariableMapping,
                  include_top: bool = True) -> SmatchResult:
    """The scores of *mapping*, counted from the match tables as the
    searches count their own mappings.  Each of its variables must be a
    variable of its graph."""
    ctx = _MatchContext(premise, hypothesis, include_top)
    m = mapping.as_dict()
    return _result(ctx, m, _match_tables(ctx, m)[1])


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


def _plantings(ctx: _MatchContext, m: dict[str, str],
               inv: dict[str, str]) -> Iterator[list[tuple[str, str | None, str | None]]]:
    """Yield *m*'s edge plantings as moves ``(hv, old pv, new pv)``, in
    search order: for a hypothesis edge s -r-> t and a premise edge ps -r->
    pt, map s to ps and t to pt in one step.  The coordinated move is what
    lets a relation match be reached when neither endpoint alone gains
    anything.  A variable displaced from ps takes the image s vacates, or
    t's when s vacates pt; one displaced from pt takes t's, or s's when t
    vacates ps; a displaced variable is unmapped when that image is None.
    An endpoint already in place is a move that changes nothing.  *inv* is
    *m*'s inverse, premise -> hypothesis."""
    for s, r, t in ctx.hyp_edges:
        a, b = m.get(s), m.get(t)
        for ps, pt in ctx.prem_edges_by_role.get(r, ()):
            if a == ps and b == pt:
                continue
            moves = [(s, a, ps), (t, b, pt)]
            o1, o2 = inv.get(ps), inv.get(pt)
            if o1 is not None and o1 != s and o1 != t:
                moves.append((o1, ps, b if a == pt else a))
            if o2 is not None and o2 != s and o2 != t:
                moves.append((o2, pt, a if b == ps else b))
            yield moves


def _match_tables(ctx: _MatchContext, m: dict[str, str]) -> tuple[dict, int]:
    """The match tables under *m*, and *m*'s count.  ``score[hv][pv]`` is
    what hv's own triples match with hv at pv and every other variable at
    its image: ``unary[hv][pv]`` plus ``min(n, p)`` for each distinct
    incident edge, p the premise count of its image (0 while its other
    endpoint is unmapped); ``score[hv][None]`` is 0.  While hv is unmapped,
    ``score[hv][pv]`` is the gain of mapping it to pv, so the entries *m*'s
    variables gain as :func:`_take` places them one by one sum to its count."""
    score = {hv: dict(ctx.unary[hv]) for hv in ctx.hyp_vars}
    placed: dict[str, str] = {}
    matched = 0
    for hv, pv in m.items():
        matched += score[hv][pv]
        _take(ctx, score, placed, {hv: pv})
    return score, matched


def _crossed(ctx: _MatchContext, i: int, old_s: str | None, old_t: str | None,
             new_s: str | None, new_t: str | None) -> int:
    """The correction for claim edge *i* when both its endpoints move: its
    match at both new images, less the two matches the endpoints' row
    differences each count with the other endpoint left in place, plus its
    match at both old images, which both differences subtract."""
    r, n, get = ctx.hyp_edges[i][1], ctx.hyp_mult[i], ctx.prem_rel.get
    crossed = 0
    if p := get((new_s, r, new_t)):
        crossed += n if n < p else p
    if p := get((new_s, r, old_t)):
        crossed -= n if n < p else p
    if p := get((old_s, r, new_t)):
        crossed -= n if n < p else p
    if p := get((old_s, r, old_t)):
        crossed += n if n < p else p
    return crossed


def _moves_gain(ctx: _MatchContext, score: dict, moves) -> int:
    """The count after *moves*, each ``(hv, old pv, new pv)``, less the count
    before, read from the match tables *score* before them: the moved
    variables' row differences, plus :func:`_crossed` for each claim edge
    between two of them.  A graph is a rooted DAG, so no edge has both ends
    on one variable.  A move that changes nothing adds 0 to both."""
    gain = 0
    for hv, old, new in moves:
        row = score[hv]
        gain += row[new] - row[old]
    between, edges = ctx.hyp_between, ctx.hyp_edges
    for (h1, old1, new1), (h2, old2, new2) in combinations(moves, 2):
        for i in between.get((h1, h2), ()):
            if edges[i][0] == h1:
                gain += _crossed(ctx, i, old1, old2, new1, new2)
            else:
                gain += _crossed(ctx, i, old2, old1, new2, new1)
    return gain


def _take(ctx: _MatchContext, score: dict, m: dict[str, str],
          changes: dict[str, str | None]) -> None:
    """Apply *changes* to *m* and keep *score* its match tables: the one
    place their edge entries are written.  A row reads only the images of
    its variable's claim neighbours, so only the rows across the changed
    variables' incident edges move: each loses the entries of the premise
    edges at the old image and gains those at the new one."""
    sources, targets, edges, mult = (ctx.prem_sources, ctx.prem_targets,
                                     ctx.hyp_edges, ctx.hyp_mult)
    for hv, new in changes.items():
        old = m.get(hv)
        if old == new:
            continue
        for i in ctx.hyp_edges_at[hv]:
            s, r, t = edges[i]
            n = mult[i]
            if s == hv:
                row, index = score[t], targets
            else:
                row, index = score[s], sources
            for pv, p in index.get((r, old), {}).items():
                row[pv] -= n if n < p else p
            for pv, p in index.get((r, new), {}).items():
                row[pv] += n if n < p else p
        _assign(m, hv, new)


def _best_step(ctx: _MatchContext, score: dict,
               m: dict[str, str]) -> tuple[int, dict[str, str | None] | None]:
    """The climber's step from *m*: the first neighbour in search order
    with the largest strict gain, as ``(gain, change set)``, or ``(0,
    None)`` at a local optimum.

    The search order is single moves (each hypothesis variable to each
    free premise variable), then swaps of two hypothesis variables with
    different images, then :func:`_plantings`.  Unmapping a variable alone
    never gains, so it is no move; a swap or planting may still unmap the
    variable it displaces.  Single moves are read from the match tables
    *score*'s rows.  A swap is the two moves ``(h1, p1, p2), (h2, p2,
    p1)``, and it and each planting are scored by :func:`_moves_gain`,
    unless they cannot beat the best gain so far, as they then could not
    be taken.  hv's share, ``score[hv][m(hv)] + unary[hv][m(hv)]``, is
    twice its part of the count.  The triples at a step's moved
    variables match at most the sum of their ``bound[hv][new]`` after
    it and at least half the sum of their shares before it, so a step
    gains at most half the sum of ``2 * bound[hv][new] - share[hv]``
    over its moves that change an image, rounded down; a swap whose sum
    is at most ``2 * best gain + 1`` is skipped.  A planting that moves
    both endpoints matches the planted edge, counted at both ends of its
    sum, so its sum is at least twice its gain plus 2, and one that moves
    one endpoint repeats a single move or swap already scanned: a planting
    whose sum is at most ``2 * best gain + 3`` is skipped, with the same steps."""
    bound, hyp_vars = ctx.bound, ctx.hyp_vars
    images = [m.get(hv) for hv in hyp_vars]
    share = {hv: score[hv][pv] + ctx.unary[hv][pv] for hv, pv in zip(hyp_vars, images)}
    inv = {pv: hv for hv, pv in m.items()}
    free = [pv for pv in ctx.prem_concepts if pv not in inv]
    best_gain = 0
    best = None
    if free:
        for hv, p1 in zip(hyp_vars, images):
            row = score[hv]
            pv = max(free, key=row.__getitem__)  # the first of the largest
            if row[pv] - row[p1] > best_gain:
                best_gain, best = row[pv] - row[p1], [(hv, p1, pv)]
    for i, h1 in enumerate(hyp_vars):
        p1, bound1, share1 = images[i], bound[h1], share[h1]
        for j in range(i + 1, len(hyp_vars)):
            p2 = images[j]
            if p1 == p2:
                continue
            h2 = hyp_vars[j]
            if (2 * (bound1[p2] + bound[h2][p1]) - share1 - share[h2]
                    <= 2 * best_gain + 1):
                continue
            moves = (h1, p1, p2), (h2, p2, p1)
            gain = _moves_gain(ctx, score, moves)
            if gain > best_gain:
                best_gain, best = gain, moves
    for moves in _plantings(ctx, m, inv):
        ub = 0
        for hv, old, new in moves:
            if old != new:
                ub += 2 * bound[hv][new] - share[hv]
        if ub <= 2 * best_gain + 3:
            continue
        gain = _moves_gain(ctx, score, moves)
        if gain > best_gain:
            best_gain, best = gain, moves
    return best_gain, best and {hv: new for hv, _old, new in best}


def _climb(ctx: _MatchContext, m: dict[str, str],
           limit: int) -> tuple[dict[str, str], int, dict]:
    """Greedy local search until no gain: each step takes
    :func:`_best_step` and applies it with :func:`_take`, which keeps the
    climb's match tables (:func:`_match_tables`, built once per climb)
    exact for the new mapping.  The climb stops once its count reaches
    *limit*, an upper bound on every mapping's count (:func:`_upper_bound`),
    as no step could then gain.  Returns the mapping, its count and its
    match tables."""
    score, current = _match_tables(ctx, m)
    while current < limit:
        gain, best = _best_step(ctx, score, m)
        if best is None:
            break
        _take(ctx, score, m, best)
        current += gain
    return m, current, score


def _upper_bound(ctx: _MatchContext) -> int:
    """An upper bound on the count of every injective mapping: half the
    smaller of the row bound, each claim variable's largest weight, and the
    column bound, each premise variable's largest weight."""
    # weight[i][j] is twice hv = hyp_vars[i]'s share of a count when mapped
    # to the j-th premise variable: a relation is in both endpoints' bounds
    # and so weighs a half in each.  So a mapping's count is at most half
    # the weight of its pairs, and as it uses each claim and each premise
    # variable at most once, and no weight is negative, at most half of
    # either sum.
    weight = [[ctx.unary[hv][pv] + ctx.bound[hv][pv] for pv in ctx.prem_concepts]
              for hv in ctx.hyp_vars]
    rows = sum(max(row) for row in weight)
    columns = sum(max(column) for column in zip(*weight))
    return min(rows, columns) // 2


def _canonicalize(ctx: _MatchContext, m: dict[str, str], score: dict) -> dict[str, str]:
    """Deterministically re-place variables whose assignment contributes
    no matched triple, in *m* and its match tables *score*, both kept
    exact with :func:`_take`; returns *m*.

    A variable floats when ``score[hv][m.get(hv)]`` is 0: unmapping it
    loses nothing, and so changes no other variable's entry at its image.
    Zero-contribution assignments are ties for the climber; among them we
    prefer premise variables that preserve graph adjacency with the images
    of already-mapped neighbours (outgoing edges first), breaking remaining
    ties by premise declaration order.  A floater is placed by its entry
    ``score[hv][pv]``, its gain while it is unmapped, first.  This never
    changes the matched count but pins the reported mapping.
    """
    links = {(s, t) for s, _r, t in ctx.prem_rel}
    floating = [hv for hv in ctx.hyp_vars if score[hv][m.get(hv)] == 0]
    _take(ctx, score, m, dict.fromkeys(floating))
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
            return score[hv][pv], out_adj, in_adj

        pv = max(free, key=rank)
        _take(ctx, score, m, {hv: pv})
        used.add(pv)
    return m


def align_hill_climb(premise: AmrGraph, hypothesis: AmrGraph,
                     restarts: int = 4, seed: int = 0,
                     include_top: bool = True) -> SmatchResult:
    """Best alignment over at most *restarts* hill-climbing runs.

    The first restart starts from a concept-match-greedy mapping, the rest
    from random injective mappings; each run applies the best single
    move, swap or edge planting until no gain.  Deterministic for a fixed
    seed.  A run stops once its count reaches ``_upper_bound``, and the
    runs once the best count does: no step could then gain, a later run
    could only tie, and a tie never replaces the first best, so the result
    is the one all *restarts* runs to no gain give.  Each graph's half
    of the alignment tables is built once and kept on the graph, so every
    pair a graph is in shares it (see :class:`_MatchContext`).
    """
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    ctx = _MatchContext(premise, hypothesis, include_top)
    rng = random.Random(seed)
    best_count = -1
    bound = _upper_bound(ctx)
    for r in range(restarts):
        init = _greedy_init(ctx, rng) if r == 0 else _random_init(ctx, rng)
        m, c, score = _climb(ctx, init, bound)
        if c > best_count:
            best_count, best_m, best_score = c, m, score
        if best_count >= bound:
            break
    return _result(ctx, _canonicalize(ctx, best_m, best_score), best_count)


def align_exhaustive(premise: AmrGraph, hypothesis: AmrGraph,
                     include_top: bool = True) -> SmatchResult:
    """Globally optimal alignment by branch-and-bound enumeration.

    Guarded to small graphs (hypothesis <= 10 nodes, premise <= 12) since
    the mapping space grows factorially.  Used as the testing oracle for
    the hill climber.  Each placement of a still unmapped variable gains
    its match-table entry, and is applied and undone with :func:`_take`.
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
    score = _match_tables(ctx, m)[0]
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
            gain = score[hv][pv]  # exact, as hv is still unmapped
            _take(ctx, score, m, {hv: pv})
            used.add(pv)
            dfs(i + 1, current + gain)
            used.discard(pv)
            _take(ctx, score, m, {hv: None})
        dfs(i + 1, current)  # leave hv unmapped

    dfs(0, 0)
    _take(ctx, score, m, best["m"])  # from the empty mapping dfs restored
    return _result(ctx, _canonicalize(ctx, m, score), best["count"])

