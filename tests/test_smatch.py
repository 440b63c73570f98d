import functools
import hashlib
import itertools
import pickle
import random
from collections import Counter, defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import ConfigError, GraphError, MappingError
from amrex.graph import AmrGraph, Triple, extract_triples, parse_penman
from amrex import smatch
from amrex.smatch import (VariableMapping, _assign, _best_step, _canonicalize, _claim_half,
                          _climb, _MatchContext, _match_tables, _moves_gain, _plantings,
                          _premise_half, _take, _upper_bound, align_exhaustive,
                          align_hill_climb, score_mapping)

from _fixtures import (MARNIE_CLAIM, MARNIE_EVIDENCE, RABIES_CLAIM,
                       RABIES_EVIDENCE, RABIES_MAPPING, WISH_CLAIM,
                       WISH_EVIDENCE, random_graph)


def test_mapping_injectivity_enforced():
    with pytest.raises(MappingError):
        VariableMapping((("a0", "b0"), ("a1", "b0")))
    with pytest.raises(MappingError):
        VariableMapping((("a0", "b0"), ("a0", "b1")))


def test_matched_triples_marnie_reference_mapping():
    premise = parse_penman(MARNIE_EVIDENCE)
    hypothesis = parse_penman(MARNIE_CLAIM)
    m = VariableMapping((("a0", "b0"), ("a1", "b1"),
                         ("a2", "b11"), ("a3", "b12"))).as_dict()
    # film/name/Marnie instances + top + name edge + op1 edge
    for include_top, matched in ((True, 6), (False, 5)):
        assert _literal_count(premise, hypothesis, m, include_top) == matched
        ctx = _MatchContext(premise, hypothesis, include_top)
        assert _match_tables(ctx, m)[1] == matched


def test_matched_triples_identity_single_node():
    g = parse_penman("(x/hello)")
    assert _literal_count(g, g, {"x": "x"}, True) == 2  # instance + top
    assert _match_tables(_MatchContext(g, g, True), {"x": "x"})[1] == 2


def test_matched_triples_empty_mapping():
    premise = parse_penman(MARNIE_EVIDENCE)
    hypothesis = parse_penman(MARNIE_CLAIM)
    assert _literal_count(premise, hypothesis, {}, True) == 0
    assert _match_tables(_MatchContext(premise, hypothesis, True), {})[1] == 0


def test_self_alignment_is_perfect():
    g = parse_penman(RABIES_CLAIM)
    result = align_hill_climb(g, g, restarts=4, seed=0)
    assert result.precision == result.recall == result.f1 == 1.0
    assert result.matched == result.hyp_total == result.prem_total


def test_disjoint_concepts_score_zero():
    result = align_hill_climb(parse_penman("(x/cat)"), parse_penman("(y/dog)"))
    assert result.matched == 0
    assert result.precision == 0.0


def test_restarts_must_be_positive():
    g = parse_penman("(x/cat)")
    with pytest.raises(ConfigError):
        align_hill_climb(g, g, restarts=0)


def test_determinism_same_seed():
    premise = parse_penman(RABIES_EVIDENCE)
    hypothesis = parse_penman(RABIES_CLAIM)
    a = align_hill_climb(premise, hypothesis, restarts=6, seed=42)
    b = align_hill_climb(premise, hypothesis, restarts=6, seed=42)
    assert a == b


def test_rabies_alignment_reproduces_reference_mapping():
    premise = parse_penman(RABIES_EVIDENCE)
    hypothesis = parse_penman(RABIES_CLAIM)
    result = align_hill_climb(premise, hypothesis, restarts=4, seed=0)
    assert dict(result.mapping.pairs) == dict(RABIES_MAPPING)


def test_precision_asymmetry_swaps_precision_and_recall():
    a = parse_penman(MARNIE_EVIDENCE)
    b = parse_penman(MARNIE_CLAIM)
    ab = align_hill_climb(a, b, restarts=8, seed=0)
    ba = align_hill_climb(b, a, restarts=8, seed=0)
    assert ab.matched == ba.matched
    assert ab.precision == pytest.approx(ba.recall)
    assert ab.recall == pytest.approx(ba.precision)
    assert ab.precision != ab.recall


def test_smatch_precision_reference_pairs():
    cases = [
        (WISH_EVIDENCE, WISH_CLAIM, True, 7, 13),
        (MARNIE_EVIDENCE, MARNIE_CLAIM, True, 6, 8),
        (RABIES_EVIDENCE, RABIES_CLAIM, False, 6, 14),
    ]
    for evidence, claim, include_top, matched, total in cases:
        result = align_hill_climb(parse_penman(evidence), parse_penman(claim),
                                  include_top=include_top)
        assert result.matched == matched
        assert result.hyp_total == total
        assert result.precision == pytest.approx(matched / total)


def test_exhaustive_guard():
    rng = random.Random(0)
    big = random_graph(rng, max_nodes=8)
    small = parse_penman("(x/cat)")
    huge_nodes = {f"v{i}": "cat" for i in range(11)}
    from amrex.graph import AmrGraph
    edges = tuple((f"v0", "mod", f"v{i}") for i in range(1, 11))
    huge = AmrGraph(root="v0", nodes=huge_nodes, edges=edges)
    with pytest.raises(GraphError):
        align_exhaustive(small, huge)
    premise = AmrGraph(root="v0", nodes={f"v{i}": "cat" for i in range(13)},
                       edges=tuple(("v0", "mod", f"v{i}") for i in range(1, 13)))
    with pytest.raises(GraphError, match="premise has 13 nodes"):
        align_exhaustive(premise, small)


def test_exhaustive_identical_graphs():
    g = parse_penman(MARNIE_CLAIM)
    result = align_exhaustive(g, g)
    assert result.precision == 1.0


def _with_repeats(rng: random.Random, g: AmrGraph) -> AmrGraph:
    """*g* with 1-3 of its edges and 0-2 of its attributes repeated, so that
    a claim edge or attribute may occur more often than in the premise."""
    edges = list(g.edges)
    if edges:
        edges += [rng.choice(g.edges) for _ in range(rng.randint(1, 3))]
    attributes = list(g.attributes)
    if attributes:
        attributes += [rng.choice(g.attributes) for _ in range(rng.randint(0, 2))]
    return AmrGraph(root=g.root, nodes=g.nodes, edges=tuple(edges),
                    attributes=tuple(attributes))


def test_exhaustive_counts_each_repeated_edge():
    # Three equal claim edges land on three equal premise edges: h0 -> p0,
    # h1 -> p1 matches 5 triples.  Counting each distinct edge once would
    # prefer h0 -> p2, h1 -> p3, which matches 4.
    premise = parse_penman("(p0 / a :ARG0 (p1 / c) :ARG0 p1 :ARG0 p1"
                           "       :mod (p2 / a :ARG0 (p3 / b :quant 1)))")
    hypothesis = parse_penman("(h0 / a :ARG0 (h1 / b :quant 1) :ARG0 h1 :ARG0 h1)")
    assert align_exhaustive(premise, hypothesis).matched == 5


def _oracle_pairs():
    """The 85 seeded small pairs the exhaustive oracle checks the climber
    on, the last 60 with edges and attributes repeated."""
    rng = random.Random(7)
    pairs = [(random_graph(rng, max_nodes=8, prefix="p"),
              random_graph(rng, max_nodes=6, prefix="h")) for _ in range(25)]
    rng = random.Random(8)
    pairs += [(_with_repeats(rng, random_graph(rng, max_nodes=8, prefix="p")),
               _with_repeats(rng, random_graph(rng, max_nodes=6, prefix="h")))
              for _ in range(60)]
    return pairs


def test_hill_climb_matches_exhaustive_oracle():
    for premise, hypothesis in _oracle_pairs():
        for include_top in (True, False):
            oracle = align_exhaustive(premise, hypothesis, include_top=include_top)
            hc = align_hill_climb(premise, hypothesis, restarts=8, seed=3,
                                  include_top=include_top)
            assert hc.matched <= oracle.matched
            assert hc.matched == oracle.matched


_GOLDEN_ORACLE_MAPPINGS_SHA256 = "b2148d6236261b2de42503e87eff982ae30e820e0f2766308d29e80aa554765e"


def test_exhaustive_mappings_match_golden_digest():
    """Pins the oracle's exact mappings, not only its counts: a change to
    its placement order, its step score or canonicalization changes the
    SHA-256 of its (mapping, matched) results on the oracle pairs, with and
    without the top triple."""
    digest = hashlib.sha256()
    for premise, hypothesis in _oracle_pairs():
        for include_top in (True, False):
            r = align_exhaustive(premise, hypothesis, include_top=include_top)
            digest.update(repr((r.mapping.pairs, r.matched)).encode())
    assert digest.hexdigest() == _GOLDEN_ORACLE_MAPPINGS_SHA256


_GOLDEN_MAPPINGS_SHA256 = "ec89214b164c29a38305fb45972e419551fa54295055f86f16514b1aaec87b09"


def _golden_pairs():
    """The 40 seeded random (premise, hypothesis) pairs of the first golden
    digest."""
    rng = random.Random(2024)
    return [(random_graph(rng, max_nodes=24, prefix="p"),
             random_graph(rng, max_nodes=14, prefix="h")) for _ in range(40)]


def _golden_long_pairs():
    """The 10 seeded `long-evidence`-scale pairs of the second golden digest."""
    rng = random.Random(7)
    return [(random_graph(rng, max_nodes=40, prefix="p", max_attributes=20),
             random_graph(rng, max_nodes=20, prefix="h", max_attributes=10))
            for _ in range(10)]


def _mappings_sha256(pairs) -> str:
    """The SHA-256 of the climber's (mapping, matched) result on each pair,
    with the pair's index as its seed and include_top on even indices."""
    digest = hashlib.sha256()
    for i, (premise, hypothesis) in enumerate(pairs):
        r = align_hill_climb(premise, hypothesis, restarts=4, seed=i,
                             include_top=i % 2 == 0)
        digest.update(repr((r.mapping.pairs, r.matched)).encode())
    return digest.hexdigest()


def test_hill_climb_mappings_match_golden_digest():
    """Pins the climber's exact mappings on graphs beyond the oracle's size:
    a change to the neighbour order, the tie rule or canonicalization
    changes the SHA-256 of the 40 (mapping, matched) results."""
    assert _mappings_sha256(_golden_pairs()) == _GOLDEN_MAPPINGS_SHA256


_GOLDEN_LONG_MAPPINGS_SHA256 = "ec077fa2a501d182a856905381da3af225008bc5aab887f250ca4c7210284796"


def test_hill_climb_mappings_at_long_evidence_scale_match_golden_digest():
    """Pins the climber's mappings where most neighbours are skipped by
    their gain bound: premises of up to 40 nodes and 20 attributes,
    hypotheses of up to 20 nodes and 10 attributes.  A bound that drops
    its edge or attribute term skips a step the climber needs and changes
    the digest."""
    assert _mappings_sha256(_golden_long_pairs()) == _GOLDEN_LONG_MAPPINGS_SHA256


_GOLDEN_REPEAT_MAPPINGS_SHA256 = "b2d37f492e5d6b5fda32c326a2410c9d7ff4ebb4c24bae6f671add26a18ad58b"


def _golden_repeat_pairs():
    """40 seeded pairs built as ``_golden_pairs`` builds them, with edges
    and attributes repeated."""
    rng = random.Random(2025)
    return [(_with_repeats(rng, random_graph(rng, max_nodes=24, prefix="p")),
             _with_repeats(rng, random_graph(rng, max_nodes=14, prefix="h")))
            for _ in range(40)]


def test_hill_climb_mappings_with_repeated_edges_match_golden_digest():
    """Pins the climber's mappings where claim edges and attributes repeat,
    so that the premise's multiplicity caps their matches.  A repeated
    edge's plantings are yielded once: a later identical change set has
    the same gain, so it could never win a step."""
    assert _mappings_sha256(_golden_repeat_pairs()) == _GOLDEN_REPEAT_MAPPINGS_SHA256


def _count_calls(monkeypatch, name) -> list[int]:
    """Count the calls of ``smatch``'s function *name*."""
    calls = [0]
    function = getattr(smatch, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(smatch, name, counted)
    return calls


def test_certified_restarts_change_no_result(monkeypatch):
    """A climb stops once its count reaches the upper bound, and the
    restarts once the best count does.  With a bound no count reaches,
    every climb runs to no gain and every restart runs, and each result is
    the same: no step past the bound could gain, a later restart can only
    tie, and a tie keeps the first best."""
    pairs = [(p, h, i, i % 2 == 0) for golden in (_golden_pairs(), _golden_long_pairs())
             for i, (p, h) in enumerate(golden)]
    certified = [align_hill_climb(p, h, restarts=4, seed=seed, include_top=top)
                 for p, h, seed, top in pairs]
    calls = _count_calls(monkeypatch, "_climb")
    monkeypatch.setattr(smatch, "_upper_bound", lambda ctx: ctx.hyp_total + 1)
    assert [align_hill_climb(p, h, restarts=4, seed=seed, include_top=top)
            for p, h, seed, top in pairs] == certified
    assert calls[0] == 4 * len(pairs)


def test_restarts_stop_only_at_the_bound(monkeypatch):
    calls = _count_calls(monkeypatch, "_climb")
    steps = _count_calls(monkeypatch, "_best_step")
    g = parse_penman(RABIES_CLAIM)
    assert align_hill_climb(g, g, restarts=4).matched == _MatchContext(g, g, True).hyp_total
    assert calls[0] == 1
    # The greedy start maps the claim onto itself, at the bound: the climb
    # scans no step.
    assert steps[0] == 0
    # h0 -> p0 and h1 -> p2 each hold one end of an ARG0 edge, so the bound
    # counts the claim's edge, but no premise ARG0 edge joins p0 to p2.
    premise = parse_penman("(r / z :op1 (p0 / a :ARG0 (p1 / x))"
                           "       :op2 (p3 / y :ARG0 (p2 / b)))")
    hypothesis = parse_penman("(h0 / a :ARG0 (h1 / b))")
    ctx = _MatchContext(premise, hypothesis, True)
    assert _upper_bound(ctx) == 3
    calls[0] = 0
    assert align_hill_climb(premise, hypothesis, restarts=4).matched == 2
    assert calls[0] == 4
    # Each claim variable could take p0 alone, so the row half is 4, but
    # the claim's three variables share the premise's one: the column half
    # is 2, the count the first climb reaches.
    premise = parse_penman("(p0 / a)")
    hypothesis = parse_penman("(h0 / a :mod (h1 / a) :domain (h2 / a))")
    ctx = _MatchContext(premise, hypothesis, True)
    assert _upper_bound(ctx) == 2
    calls[0] = 0
    assert align_hill_climb(premise, hypothesis, restarts=4).matched == 2
    assert calls[0] == 1


def test_result_bounds_and_f1():
    rng = random.Random(11)
    for _ in range(20):
        premise = random_graph(rng, max_nodes=7, prefix="p")
        hypothesis = random_graph(rng, max_nodes=7, prefix="h")
        r = align_hill_climb(premise, hypothesis, restarts=4, seed=1)
        assert 0.0 <= r.precision <= 1.0
        assert 0.0 <= r.recall <= 1.0
        assert 0.0 <= r.f1 <= 1.0
        assert r.matched <= min(r.hyp_total, r.prem_total)
        if r.precision + r.recall:
            assert r.f1 == pytest.approx(
                2 * r.precision * r.recall / (r.precision + r.recall))


def test_zero_triple_hypothesis_has_zero_precision():
    # A single node with no concept overlap still yields totals > 0; the
    # degenerate "no hypothesis triples" case cannot be built from a valid
    # graph, so exercise the denominator guard via matched == 0 instead.
    r = align_hill_climb(parse_penman("(p/cat)"), parse_penman("(h/dog)"))
    assert r.precision == 0.0
    assert r.f1 == 0.0


def _unchecked_graph(nodes, edges=(), attributes=()) -> AmrGraph:
    """An AmrGraph built without validation, so it may hold cycles and
    duplicate edges and attributes."""
    g = object.__new__(AmrGraph)
    for name, value in (("root", next(iter(nodes))), ("nodes", dict(nodes)),
                        ("edges", tuple(edges)), ("attributes", tuple(attributes))):
        object.__setattr__(g, name, value)
    return g


@st.composite
def _graphs(draw, prefix: str, max_nodes: int):
    """Small graphs over few concepts, roles and constants, so that matches,
    duplicates and edges in both directions are common.  Each edge joins two
    distinct variables: ``AmrGraph`` accepts no other edge.  Roles include the
    triple kinds' names, so an attribute may be spelled like an instance or
    top triple."""
    n = draw(st.integers(1, max_nodes))
    variables = [f"{prefix}{i}" for i in range(n)]
    nodes = {v: draw(st.sampled_from("abc")) for v in variables}
    var = st.sampled_from(variables)
    role = st.sampled_from(("ARG0", "ARG1", "instance", "top"))
    edges = []
    if n > 1:
        # A source and a nonzero offset to the target, modulo n.
        ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        edges = [(variables[i], r, variables[(i + k) % n])
                 for (i, k), r in draw(st.lists(st.tuples(ends, role), max_size=2 * n))]
    attributes = draw(st.lists(st.tuples(var, role, st.sampled_from("12")),
                               max_size=n))
    return _unchecked_graph(nodes, edges, attributes)


@st.composite
def _mapped_graphs(draw):
    """A premise, a hypothesis and a random injective partial mapping of
    the hypothesis variables onto the premise's."""
    premise = draw(_graphs("p", 6))
    hypothesis = draw(_graphs("h", 5))
    images = draw(st.permutations(list(premise.nodes)))
    mapped = draw(st.lists(st.booleans(), min_size=len(hypothesis.nodes),
                           max_size=len(hypothesis.nodes)))
    m = {hv: pv for hv, pv, keep in zip(hypothesis.nodes, images, mapped) if keep}
    return premise, hypothesis, m


def _literal_count(premise, hypothesis, m, include_top):
    """Smatch's matched count as defined: the hypothesis triples whose
    variables are all mapped, rewritten under *m*, intersected as a
    multiset with the premise triples."""
    substituted = Counter()
    for kind, var, role, value in extract_triples(hypothesis, include_top):
        if var not in m or (kind == "relation" and value not in m):
            continue
        image = m[value] if kind == "relation" else value
        substituted[Triple(kind, m[var], role, image)] += 1
    premise_triples = Counter(extract_triples(premise, include_top))
    return sum((substituted & premise_triples).values())


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_count_is_the_multiset_intersection_of_substituted_triples(graphs):
    """The count the match tables give, by placing the mapping's variables
    one at a time, shares the unary table with the bound, so it is held to
    the definition written out here without _MatchContext."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        assert (_match_tables(ctx, m)[1]
                == _literal_count(premise, hypothesis, m, include_top))


def _gain(ctx, m, changes):
    """The count of ``m + changes`` less *m*'s, from the changed variables' unary
    entries and incident edges, each edge rescored at its old and new
    images: the reference the library's table gains are held to."""
    gain = 0
    edges = set()
    for hv, new in changes.items():
        old = m.get(hv)
        if old != new:
            gain += ctx.unary[hv][new] - ctx.unary[hv][old]
            edges.update(ctx.hyp_edges_at[hv])
    for i in edges:
        s, r, t = ctx.hyp_edges[i]
        n, old_s, old_t = ctx.hyp_mult[i], m.get(s), m.get(t)
        gain -= min(n, ctx.prem_rel.get((old_s, r, old_t), 0))
        gain += min(n, ctx.prem_rel.get((changes.get(s, old_s), r, changes.get(t, old_t)), 0))
    return gain


def _literal_tables(ctx, m):
    """The match tables under *m* as defined: ``unary[hv][pv]`` plus, for
    each distinct claim edge at hv, ``min(n, p)`` with p the premise count
    of its image when hv is at pv and the other endpoint at its image."""
    score = {}
    for hv in ctx.hyp_vars:
        row = score[hv] = dict(ctx.unary[hv])
        for i in ctx.hyp_edges_at[hv]:
            s, r, t = ctx.hyp_edges[i]
            for pv in ctx.prem_concepts:
                image = (pv, r, m.get(t)) if s == hv else (m.get(s), r, pv)
                row[pv] += min(ctx.hyp_mult[i], ctx.prem_rel.get(image, 0))
    return score


def _neighbour_kinds(ctx, m):
    """The climber's neighbourhood of *m* as ``(kind, moves)``, each move
    ``(hv, old pv, new pv)``, in search order: single moves, which
    ``_best_step`` reads from its match tables, then the swaps and the
    plantings it scores."""
    inv = {pv: hv for hv, pv in m.items()}
    for hv in ctx.hyp_vars:
        for pv in ctx.prem_concepts:
            if pv not in inv:
                yield "single", [(hv, m.get(hv), pv)]
    for i, h1 in enumerate(ctx.hyp_vars):
        for h2 in ctx.hyp_vars[i + 1:]:
            p1, p2 = m.get(h1), m.get(h2)
            if p1 != p2:
                yield "swap", [(h1, p1, p2), (h2, p2, p1)]
    for moves in _plantings(ctx, m, inv):
        yield "planting", moves


def _neighbour_moves(ctx, m):
    """The climber's neighbourhood of *m* as moves, in search order."""
    return (moves for _kind, moves in _neighbour_kinds(ctx, m))


def _neighbours(ctx, m):
    """The climber's neighbourhood of *m* as change sets ``{hv: new pv}``,
    in search order."""
    for moves in _neighbour_moves(ctx, m):
        yield {hv: new for hv, _old, new in moves}


def _copied_neighbours(ctx, m):
    """The climber's neighbourhood in search order, each neighbour built as
    a whole copied mapping: the reference for the change sets."""
    def place(trial, hv, pv):
        occupant = next((h for h, p in trial.items() if p == pv), None)
        vacated = trial.get(hv)
        trial[hv] = pv
        if occupant is not None and occupant != hv:
            _assign(trial, occupant, vacated)

    for hv in ctx.hyp_vars:
        for pv in ctx.prem_concepts:
            if pv not in m.values():
                trial = dict(m)
                _assign(trial, hv, pv)
                yield trial
    for i, h1 in enumerate(ctx.hyp_vars):
        for h2 in ctx.hyp_vars[i + 1:]:
            if m.get(h1) != m.get(h2):
                trial = dict(m)
                _assign(trial, h1, m.get(h2))
                _assign(trial, h2, m.get(h1))
                yield trial
    for s, r, t in ctx.hyp_edges:
        for ps, pt in ctx.prem_edges_by_role.get(r, ()):
            if m.get(s) != ps and m.get(t) != pt and (m.get(s), m.get(t)) != (pt, ps):
                trial = dict(m)
                place(trial, s, ps)
                if trial.get(t) != pt:
                    place(trial, t, pt)
                yield trial


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_gain_of_every_neighbour_equals_count_difference(graphs):
    """The literal count is the oracle for the climber's incremental
    scoring: for every change set a mapping's neighbourhood yields, the
    gain equals the count after applying it minus the count before.
    Applied in order, the change sets are the neighbours built by copying
    the mapping.  Unmapping one variable is no neighbour, but
    ``_canonicalize`` reads its gain too."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        count = functools.partial(_literal_count, premise, hypothesis,
                                  include_top=include_top)
        before = count(m)
        moves = list(_neighbours(ctx, m))
        applied = []
        for changes in moves + [{hv: None} for hv in m]:
            after = dict(m)
            for hv, pv in changes.items():
                _assign(after, hv, pv)
            applied.append(after)
            assert _gain(ctx, m, changes) == count(after) - before
        assert applied[:len(moves)] == list(_copied_neighbours(ctx, m))


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_gain_of_every_neighbour_is_at_most_its_bound(graphs):
    """The climber skips a swap or planting whose bound cannot beat the
    step's best gain, so the bound must hold: for every neighbour a
    mapping's neighbourhood yields, every move changes its variable's
    image, and ``_moves_gain`` is at most the sum of ``ctx.bound`` over
    the moves, and at most half the sum the climber reads, of ``2 *
    bound[hv][new]`` less hv's share ``score[hv][old] + unary[hv][old]``.
    The shares sum to twice the count."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        score, count = _match_tables(ctx, m)
        share = {hv: score[hv][m.get(hv)] + ctx.unary[hv][m.get(hv)] for hv in ctx.hyp_vars}
        assert sum(share.values()) == 2 * count
        for moves in _neighbour_moves(ctx, m):
            assert all(old != new for _hv, old, new in moves)
            gain = _moves_gain(ctx, score, moves)
            assert gain <= sum(ctx.bound[hv][new] for hv, _old, new in moves)
            assert 2 * gain <= sum(2 * ctx.bound[hv][new] - share[hv] for hv, _old, new in moves)


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_table_gain_of_every_neighbour_equals_gain(graphs):
    """The climber scores its steps from per-climb match tables: the
    tables are the formula's, each move starts from its variable's image
    under the mapping and moves a variable no other move moves, and for
    every single move, swap and planting, ``_moves_gain`` of its moves, in
    either order, equals the reference ``_gain`` and the literal count
    difference; a single move's gain is its row difference."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        count = functools.partial(_literal_count, premise, hypothesis,
                                  include_top=include_top)
        score, before = _match_tables(ctx, m)
        assert score == _literal_tables(ctx, m)
        assert before == count(m)
        assert score_mapping(premise, hypothesis, VariableMapping(m.items()),
                             include_top).matched == before
        for moves in _neighbour_moves(ctx, m):
            assert [old for _hv, old, _new in moves] == [m.get(hv) for hv, _o, _n in moves]
            changes = {hv: new for hv, _old, new in moves}
            assert len(changes) == len(moves)
            after = dict(m)
            for hv, pv in changes.items():
                _assign(after, hv, pv)
            expected = count(after) - before
            assert _moves_gain(ctx, score, moves) == _gain(ctx, m, changes) == expected
            assert _moves_gain(ctx, score, moves[::-1]) == expected
            if len(moves) == 1:
                (hv, old, new), = moves
                assert score[hv][new] - score[hv][old] == expected


# Planting h0 -ARG0-> h1 onto p0 -ARG0-> p1 from a mapping in each case of
# what the premise edge's ends hold, and the mapping it gives.  The ARG1
# edges join the displaced variables to the endpoints, so their moves'
# gains cross.  With an endpoint in place or the two swapped, that mapping
# is a single move or swap's (_REPEATED), and no planting gives it.
_PLANTING_CASES = {
    "t-at-ps": ({"h0": "p2", "h1": "p0", "h2": "p1"},
                {"h0": "p0", "h1": "p1", "h2": "p2"}),
    "s-at-pt": ({"h0": "p1", "h1": "p3", "h2": "p0"},
                {"h0": "p0", "h1": "p1", "h2": "p3"}),
    "swapped": ({"h0": "p1", "h1": "p0", "h3": "p4"},
                {"h0": "p0", "h1": "p1", "h3": "p4"}),
    "both-occupied": ({"h0": "p2", "h1": "p3", "h2": "p0", "h3": "p1"},
                      {"h0": "p0", "h1": "p1", "h2": "p2", "h3": "p3"}),
    "s-unmapped": ({"h1": "p3", "h2": "p0", "h3": "p1"},
                   {"h0": "p0", "h1": "p1", "h3": "p3"}),
    "t-unmapped": ({"h0": "p2", "h2": "p0", "h3": "p1"},
                   {"h0": "p0", "h1": "p1", "h2": "p2"}),
    "s-in-place": ({"h0": "p0", "h1": "p3", "h3": "p1"},
                   {"h0": "p0", "h1": "p1", "h3": "p3"}),
    "t-in-place": ({"h0": "p2", "h1": "p1", "h2": "p0"},
                   {"h0": "p0", "h1": "p1", "h2": "p2"}),
}
_REPEATED = {"swapped", "s-in-place", "t-in-place"}


@pytest.mark.parametrize("case", _PLANTING_CASES)
def test_each_displacement_case_of_a_planting(case):
    """A planting's moves start from the mapping's images and give the
    mapping written out above, which the neighbour built by copying the
    mapping gives too, and their gain is the literal count difference.
    In a repeated case, no planting moves h0 to p0 and h1 to p1, and the
    mapping is given by a single move or swap before the plantings."""
    m, expected = _PLANTING_CASES[case]
    premise = _unchecked_graph(
        {"p0": "a", "p1": "b", "p2": "c", "p3": "a", "p4": "b"},
        [("p0", "ARG0", "p1"), ("p2", "ARG1", "p0"), ("p3", "ARG1", "p1")])
    hypothesis = _unchecked_graph(
        {"h0": "a", "h1": "b", "h2": "c", "h3": "a"},
        [("h0", "ARG0", "h1"), ("h2", "ARG1", "h0"), ("h3", "ARG1", "h1")])
    ctx = _MatchContext(premise, hypothesis, include_top=False)
    count = functools.partial(_literal_count, premise, hypothesis, include_top=False)
    score, _count = _match_tables(ctx, m)
    plantings = list(_plantings(ctx, m, {pv: hv for hv, pv in m.items()}))
    planted = [("h0", m.get("h0"), "p0"), ("h1", m.get("h1"), "p1")]
    if case in _REPEATED:
        assert all(moves[:2] != planted for moves in plantings)
        changes = {hv: expected.get(hv) for hv in m.keys() | expected.keys()
                   if m.get(hv) != expected.get(hv)}
        assert changes in [{hv: new for hv, _old, new in moves}
                           for kind, moves in _neighbour_kinds(ctx, m) if kind != "planting"]
        return
    moves = plantings[0]  # the first claim edge onto the one ARG0 premise edge
    assert moves[:2] == planted
    after = dict(m)
    for hv, old, new in moves:
        assert old == m.get(hv)
        _assign(after, hv, new)
    assert after == expected
    copied = list(_copied_neighbours(ctx, m))
    assert copied[len(copied) - len(plantings)] == expected
    assert _moves_gain(ctx, score, moves) == count(expected) - count(m)


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs(), st.lists(st.integers(0, 10**6), max_size=8))
def test_tables_kept_over_steps_equal_fresh_tables(graphs, picks):
    """After any sequence of applied neighbours, the tables ``_take`` kept
    in place are the formula's for the final mapping, and the mapping is
    the one the change sets give."""
    premise, hypothesis, m0 = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        m = dict(m0)
        score, _count = _match_tables(ctx, m)
        for pick in picks:
            moves = list(_neighbours(ctx, m))
            if not moves:
                break
            changes = moves[pick % len(moves)]
            expected = dict(m)
            for hv, pv in changes.items():
                _assign(expected, hv, pv)
            _take(ctx, score, m, changes)
            assert m == expected
        assert score == _literal_tables(ctx, m)


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_canonicalize_from_kept_tables_equals_from_fresh_ones(graphs):
    """``align_hill_climb`` canonicalizes the winning climb's mapping with
    the tables the climb kept: that gives the mapping fresh tables of it
    give, leaves the count as it was and keeps the tables exact."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        climbed, count, score = _climb(ctx, dict(m), _upper_bound(ctx))
        assert count == _literal_count(premise, hypothesis, climbed, include_top)
        fresh = _canonicalize(ctx, dict(climbed), _match_tables(ctx, climbed)[0])
        kept = _canonicalize(ctx, climbed, score)
        assert kept == fresh
        assert _literal_count(premise, hypothesis, kept, include_top) == count
        assert score == _literal_tables(ctx, kept)


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_each_step_is_the_first_best_neighbour_by_count(graphs):
    """Along a whole climb, each step ``_best_step`` takes from its kept
    tables is the one a scan of every neighbour, built by copying the
    mapping and scored by the literal count, takes: the first with the
    largest strict gain."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        count = functools.partial(_literal_count, premise, hypothesis,
                                  include_top=include_top)
        climbed = dict(m)
        score, _count = _match_tables(ctx, climbed)
        while True:
            before = count(climbed)
            best_gain, best = 0, None
            for trial in _copied_neighbours(ctx, climbed):
                if count(trial) - before > best_gain:
                    best_gain, best = count(trial) - before, trial
            gain, changes = _best_step(ctx, score, climbed)
            assert gain == best_gain
            if best is None:
                assert changes is None
                break
            _take(ctx, score, climbed, changes)
            assert climbed == best


def _margin_graph(rng: random.Random, prefix: str, n: int) -> AmrGraph:
    """A graph of *n* > 1 variables over three concepts, two roles and two
    constants, with up to 2n edges and n attributes."""
    variables = [f"{prefix}{i}" for i in range(n)]
    edges = [(variables[i], rng.choice(("ARG0", "ARG1")), variables[(i + k) % n])
             for i, k in ((rng.randrange(n), rng.randrange(1, n))
                          for _ in range(rng.randint(0, 2 * n)))]
    attributes = [(rng.choice(variables), "mod", rng.choice("12"))
                  for _ in range(rng.randint(0, n))]
    return _unchecked_graph({v: rng.choice("abc") for v in variables}, edges, attributes)


def test_each_step_is_the_first_best_neighbour_at_the_skip_margin():
    """``_best_step`` skips a swap whose sum ub of ``2 * bound[hv][new] -
    share[hv]`` over its moves (see ``_best_step``) is at most ``2 *
    best_gain + 1``, and a planting whose ub is at most ``2 * best_gain +
    3``.  Along whole climbs, each of its steps is the one a scan that
    skips nothing takes: the first neighbour with the largest strict gain.
    The climbs start from nearly full mappings between graphs of about
    equal size, so few single moves are free, and many steps are at the
    margin of the skip: a swap skip loosened by two would miss a swap that
    wins with ub at most ``2 * best_gain + 3``, best_gain being the best
    before it in search order.  A planting matches the planted edge, which
    its ub counts at both ends, so its ub is at least twice its gain plus
    2.  So no planting wins with ub below ``2 * best_gain + 4``, and a
    planting skip loosened by one misses a planting that wins with ub just
    that."""
    rng = random.Random(20)
    at_margin = Counter()
    for _ in range(700):
        n = rng.randint(2, 6)
        premise = _margin_graph(rng, "p", n + rng.randint(0, 1))
        hypothesis = _margin_graph(rng, "h", n)
        images = rng.sample(list(premise.nodes), n)
        m = {hv: pv for hv, pv in zip(hypothesis.nodes, images) if rng.random() < 0.9}
        for include_top in (True, False):
            ctx = _MatchContext(premise, hypothesis, include_top)
            score, _count = _match_tables(ctx, m)
            climbed = dict(m)
            while True:
                share = {hv: score[hv][climbed.get(hv)] + ctx.unary[hv][climbed.get(hv)]
                         for hv in ctx.hyp_vars}
                best_gain, best, kind_at_margin = 0, None, None
                for kind, moves in _neighbour_kinds(ctx, climbed):
                    gain = _moves_gain(ctx, score, moves)
                    ub = sum(2 * ctx.bound[hv][new] - share[hv] for hv, _old, new in moves)
                    if kind == "planting":
                        assert ub >= 2 * gain + 2
                    if gain > best_gain:
                        limit = 4 if kind == "planting" else 3
                        best_gain, best, kind_at_margin = (
                            gain, moves, (kind, ub <= 2 * best_gain + limit))
                gain, changes = _best_step(ctx, score, climbed)
                assert (gain, changes) == (best_gain, best and {hv: new for hv, _, new in best})
                if best is None:
                    break
                at_margin[kind_at_margin[0]] += kind_at_margin[1]
                _take(ctx, score, climbed, changes)
    assert at_margin["swap"] >= 100 and at_margin["planting"] >= 50


def _literal_bound(premise, hypothesis, include_top):
    """``ctx.bound`` as defined: for hv -> pv, the multiset intersection of
    the two variables' non-relation ``(kind, role, value)`` triples, plus
    each distinct hypothesis edge at hv, times its multiplicity, when the
    premise has an edge of its role leaving pv (hv the source) or entering
    pv (hv the target).  Unmapped, hv matches nothing."""
    def split(triples):
        unary, relations = defaultdict(Counter), Counter()
        for kind, var, role, value in triples:
            if kind == "relation":
                relations[(var, role, value)] += 1
            else:
                unary[var][(kind, role, value)] += 1
        return unary, relations

    prem_unary, prem_rel = split(extract_triples(premise, include_top))
    hyp_unary, hyp_rel = split(extract_triples(hypothesis, include_top))
    bound = {}
    for hv in hypothesis.nodes:
        row = bound[hv] = {None: 0}
        for pv in premise.nodes:
            row[pv] = sum((hyp_unary[hv] & prem_unary[pv]).values())
            for (s, r, t), n in hyp_rel.items():
                if s == hv and any((ps, pr) == (pv, r) for ps, pr, _pt in prem_rel):
                    row[pv] += n
                if t == hv and any((pr, pt) == (r, pv) for _ps, pr, pt in prem_rel):
                    row[pv] += n
    return bound


@settings(max_examples=300, deadline=None)
@given(_graphs("p", 6), _graphs("h", 5))
def test_bound_is_the_per_variable_formula(premise, hypothesis):
    """The climber prunes and ``_upper_bound`` weighs with ``ctx.bound``, so
    a looser bound would still hold yet prune less: pin its every entry."""
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        assert ctx.bound == _literal_bound(premise, hypothesis, include_top)


@st.composite
def _renamings(draw):
    """A premise, a hypothesis and new names for each one's variables, the
    names of both graphs drawn from one alphabet."""
    premise, hypothesis = draw(_graphs("p", 6)), draw(_graphs("h", 5))

    def names(g):
        new = draw(st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), unique=True,
                            min_size=len(g.nodes), max_size=len(g.nodes)))
        return dict(zip(g.nodes, new))

    return premise, hypothesis, names(premise), names(hypothesis)


def _renamed(g, names):
    """*g* with each variable v renamed ``names[v]``, declared in the same
    order."""
    return _unchecked_graph({names[v]: c for v, c in g.nodes.items()},
                            [(names[s], r, names[t]) for s, r, t in g.edges],
                            [(names[v], r, value) for v, r, value in g.attributes])


@settings(max_examples=200, deadline=None)
@given(_renamings(), st.integers(0, 2**32 - 1))
def test_renaming_variables_in_declaration_order_renames_only_the_mapping(renaming, seed):
    """Both searches read variables by their declaration order alone:
    renaming every variable of both graphs, in that order, keeps
    ``matched`` and ``precision`` and every other field of the result but
    the mapping, which is the old one renamed."""
    premise, hypothesis, prem_names, hyp_names = renaming
    renamed = _renamed(premise, prem_names), _renamed(hypothesis, hyp_names)
    for include_top in (True, False):
        for align in (functools.partial(align_hill_climb, restarts=4, seed=seed),
                      align_exhaustive):
            before = align(premise, hypothesis, include_top=include_top)
            after = align(*renamed, include_top=include_top)
            assert (after.matched, after.precision) == (before.matched, before.precision)
            pairs = tuple((hyp_names[hv], prem_names[pv]) for hv, pv in before.mapping.pairs)
            assert after == replace(before, mapping=VariableMapping(pairs))


def _random_mapping(rng, premise, hypothesis):
    """A random injective partial mapping of *hypothesis* onto *premise*."""
    images = rng.sample(list(premise.nodes), len(premise.nodes))
    return {hv: pv for hv, pv in zip(hypothesis.nodes, images) if rng.random() < 0.7}


def _copy(g: AmrGraph) -> AmrGraph:
    """An equal graph that holds no tables yet."""
    return _unchecked_graph(g.nodes, g.edges, g.attributes)


def _halves(g: AmrGraph) -> dict:
    """The premise and claim halves of *g* under both include_top values,
    built directly, keyed as a graph keeps them."""
    return {(build, include_top): build(g, include_top)
            for build in (_premise_half, _claim_half) for include_top in (True, False)}


@settings(max_examples=100, deadline=None)
@given(_graphs("p", 6), _graphs("h", 5), _graphs("p", 4), st.randoms(use_true_random=False))
def test_contexts_from_kept_halves_equal_fresh_ones(a, b, c, rng):
    """Each graph keeps its half of the tables across pairs: every context
    composed from kept halves, a graph against itself (one object in both
    roles) included, has the tables, counts and alignment of one built
    from fresh copies of its graphs, its counts are the literal ones, and
    each graph builds one half per role and include_top, equal to the one
    ``_premise_half`` or ``_claim_half`` builds."""
    graphs = (a, b, c)
    for premise, hypothesis in itertools.product(graphs, repeat=2):
        for include_top in (True, False):
            kept = _MatchContext(premise, hypothesis, include_top)
            fresh = _MatchContext(_copy(premise), _copy(hypothesis), include_top)
            assert vars(kept) == vars(fresh)
            for _ in range(3):
                m = _random_mapping(rng, premise, hypothesis)
                assert (_match_tables(kept, m) == _match_tables(fresh, m)
                        == (_literal_tables(fresh, m),
                            _literal_count(premise, hypothesis, m, include_top)))
            seed = rng.randrange(100)
            assert (align_hill_climb(premise, hypothesis, 2, seed, include_top)
                    == align_hill_climb(_copy(premise), _copy(hypothesis), 2, seed,
                                        include_top))
    for g in graphs:
        assert g._memo == _halves(g)
    again = _MatchContext(a, a, True)
    assert again.prem_rel is _MatchContext(a, b, True).prem_rel
    assert again.hyp_edges is _MatchContext(b, a, True).hyp_edges


def test_a_pickled_graph_holding_its_halves_loads_back_equal():
    """A graph pickled after it built its halves loads back equal, and its
    contexts equal those of graphs that built none."""
    premise, hypothesis = parse_penman(MARNIE_EVIDENCE), parse_penman(MARNIE_CLAIM)
    for include_top in (True, False):
        _MatchContext(premise, hypothesis, include_top)
        _MatchContext(hypothesis, premise, include_top)
    assert premise._memo == _halves(premise)
    loaded = pickle.loads(pickle.dumps((premise, hypothesis)))
    assert loaded == (premise, hypothesis)
    for include_top in (True, False):
        for p, h in (loaded, loaded[::-1]):
            assert (vars(_MatchContext(p, h, include_top))
                    == vars(_MatchContext(_copy(p), _copy(h), include_top)))


def test_gain_caps_duplicate_edges_at_the_premise_count():
    # Two equal hypothesis edges land on the one premise edge: one match.
    premise = _unchecked_graph({"p0": "a", "p1": "c"}, [("p0", "ARG0", "p1")])
    hypothesis = _unchecked_graph({"h0": "a", "h1": "b"},
                                  [("h0", "ARG0", "h1"), ("h0", "ARG0", "h1")])
    ctx = _MatchContext(premise, hypothesis, include_top=False)
    m = {"h0": "p0"}
    score, count = _match_tables(ctx, m)
    assert score["h1"]["p1"] == _moves_gain(ctx, score, [("h1", None, "p1")]) == 1
    assert count == _literal_count(premise, hypothesis, m, False)
    after = {"h0": "p0", "h1": "p1"}
    assert (_match_tables(ctx, after)[1] - count
            == _literal_count(premise, hypothesis, after, False) - count == 1)


def test_count_caps_duplicate_attributes_at_the_premise_count():
    # Two equal hypothesis attributes meet one premise attribute: one match,
    # and one premise attribute of two meets the one hypothesis attribute.
    premise = _unchecked_graph({"p0": "a", "p1": "b"},
                               attributes=[("p0", "mod", "1"),
                                           ("p1", "mod", "2"), ("p1", "mod", "2")])
    hypothesis = _unchecked_graph({"h0": "a", "h1": "b"},
                                  attributes=[("h0", "mod", "1"), ("h0", "mod", "1"),
                                              ("h1", "mod", "2")])
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        for m, matched in (({"h0": "p0"}, 2 + include_top), ({"h1": "p1"}, 2),
                           ({"h0": "p0", "h1": "p1"}, 4 + include_top)):
            assert _match_tables(ctx, m)[1] == matched
            assert _literal_count(premise, hypothesis, m, include_top) == matched


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_upper_bound_is_at_least_the_optimum(graphs):
    """The climber stops restarting once its count reaches the bound, so
    the bound must hold for every injective mapping: it is at least the
    exhaustive optimum.  It is also no looser than half of either the row
    sum, each claim variable's largest weight, or the column sum, each
    premise variable's largest weight."""
    premise, hypothesis, _m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        optimum = align_exhaustive(premise, hypothesis, include_top).matched
        weight = {(hv, pv): ctx.unary[hv][pv] + ctx.bound[hv][pv]
                  for hv in ctx.hyp_vars for pv in ctx.prem_concepts}
        rows = sum(max(weight[hv, pv] for pv in ctx.prem_concepts)
                   for hv in ctx.hyp_vars)
        columns = sum(max(weight[hv, pv] for hv in ctx.hyp_vars)
                      for pv in ctx.prem_concepts)
        assert optimum <= _upper_bound(ctx) <= min(rows, columns) // 2
