import hashlib
import itertools
import math
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import ConfigError, GraphError, MappingError
from amrex.graph import AmrGraph, Triple, extract_triples, parse_penman
from amrex import smatch
from amrex.smatch import (VariableMapping, _assign, _best_step, _gain, _MatchContext,
                          _match_tables, _max_assignment, _plantings, _swap_gain,
                          _table_gain, _take, _upper_bound, align_exhaustive, align_hill_climb)

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
    mapping = VariableMapping((("a0", "b0"), ("a1", "b1"),
                               ("a2", "b11"), ("a3", "b12")))
    # film/name/Marnie instances + top + name edge + op1 edge
    assert _MatchContext(premise, hypothesis, True).count(mapping.as_dict()) == 6
    assert _MatchContext(premise, hypothesis, False).count(mapping.as_dict()) == 5


def test_matched_triples_identity_single_node():
    g = parse_penman("(x/hello)")
    assert _MatchContext(g, g, True).count({"x": "x"}) == 2  # instance + top


def test_matched_triples_empty_mapping():
    premise = parse_penman(MARNIE_EVIDENCE)
    hypothesis = parse_penman(MARNIE_CLAIM)
    assert _MatchContext(premise, hypothesis, True).count({}) == 0


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


def test_hill_climb_matches_exhaustive_oracle():
    rng = random.Random(7)
    pairs = [(random_graph(rng, max_nodes=8, prefix="p"),
              random_graph(rng, max_nodes=6, prefix="h")) for _ in range(25)]
    rng = random.Random(8)
    pairs += [(_with_repeats(rng, random_graph(rng, max_nodes=8, prefix="p")),
               _with_repeats(rng, random_graph(rng, max_nodes=6, prefix="h")))
              for _ in range(60)]
    for premise, hypothesis in pairs:
        for include_top in (True, False):
            oracle = align_exhaustive(premise, hypothesis, include_top=include_top)
            hc = align_hill_climb(premise, hypothesis, restarts=8, seed=3,
                                  include_top=include_top)
            assert hc.matched <= oracle.matched
            assert hc.matched == oracle.matched


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


def _count_climbs(monkeypatch) -> list[int]:
    calls = [0]
    climb = smatch._climb

    def counted(*args):
        calls[0] += 1
        return climb(*args)

    monkeypatch.setattr(smatch, "_climb", counted)
    return calls


def test_certified_restarts_change_no_result(monkeypatch):
    """The restarts stop once the best count reaches the upper bound.  With
    a bound no count reaches, every restart runs, and each result is the
    same: a later restart can only tie, and a tie keeps the first best."""
    pairs = [(p, h, i, i % 2 == 0) for golden in (_golden_pairs(), _golden_long_pairs())
             for i, (p, h) in enumerate(golden)]
    certified = [align_hill_climb(p, h, restarts=4, seed=seed, include_top=top)
                 for p, h, seed, top in pairs]
    calls = _count_climbs(monkeypatch)
    monkeypatch.setattr(smatch, "_upper_bound", lambda ctx, incumbent: ctx.hyp_total + 1)
    assert [align_hill_climb(p, h, restarts=4, seed=seed, include_top=top)
            for p, h, seed, top in pairs] == certified
    assert calls[0] == 4 * len(pairs)


def test_restarts_stop_only_at_the_bound(monkeypatch):
    calls = _count_climbs(monkeypatch)
    g = parse_penman(RABIES_CLAIM)
    assert align_hill_climb(g, g, restarts=4).matched == _MatchContext(g, g, True).hyp_total
    assert calls[0] == 1
    # h0 -> p0 and h1 -> p2 each hold one end of an ARG0 edge, so the bound
    # counts the claim's edge, but no premise ARG0 edge joins p0 to p2.
    premise = parse_penman("(r / z :op1 (p0 / a :ARG0 (p1 / x))"
                           "       :op2 (p3 / y :ARG0 (p2 / b)))")
    hypothesis = parse_penman("(h0 / a :ARG0 (h1 / b))")
    ctx = _MatchContext(premise, hypothesis, True)
    assert _upper_bound(ctx, -1) == 3
    calls[0] = 0
    assert align_hill_climb(premise, hypothesis, restarts=4).matched == 2
    assert calls[0] == 4


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
    """count(), _gain and the bound share the unary table, so count() is held
    to the definition written out here without _MatchContext."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        assert ctx.count(m) == _literal_count(premise, hypothesis, m, include_top)


def _neighbours(ctx, m):
    """The climber's neighbourhood of *m* as change sets, in search order:
    single moves and swaps, which ``_best_step`` reads from its match
    tables without building them, then the plantings it scans."""
    inv = {pv: hv for hv, pv in m.items()}
    for hv in ctx.hyp_vars:
        for pv in ctx.prem_concepts:
            if pv not in inv:
                yield {hv: pv}
    for i, h1 in enumerate(ctx.hyp_vars):
        for h2 in ctx.hyp_vars[i + 1:]:
            p1, p2 = m.get(h1), m.get(h2)
            if p1 != p2:
                yield {h1: p2, h2: p1}
    yield from _plantings(ctx, m, inv)


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
            if (m.get(s), m.get(t)) != (ps, pt):
                trial = dict(m)
                place(trial, s, ps)
                if trial.get(t) != pt:
                    place(trial, t, pt)
                yield trial


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_gain_of_every_neighbour_equals_count_difference(graphs):
    """count() is the oracle for the climber's incremental scoring: for every
    change set a mapping's neighbourhood yields, the gain equals the count
    after applying it minus the count before.  Applied in order, the change
    sets are the neighbours built by copying the mapping.  Unmapping one
    variable is no neighbour, but ``_canonicalize`` scores it too."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        before = ctx.count(m)
        moves = list(_neighbours(ctx, m))
        applied = []
        for changes in moves + [{hv: None} for hv in m]:
            after = dict(m)
            for hv, pv in changes.items():
                _assign(after, hv, pv)
            applied.append(after)
            assert _gain(ctx, m, changes) == ctx.count(after) - before
        assert applied[:len(moves)] == list(_copied_neighbours(ctx, m))


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_gain_of_every_neighbour_is_at_most_its_bound(graphs):
    """The climber skips a neighbour whose bound cannot beat the step's best
    gain, so the bound must hold: for every change set a mapping's
    neighbourhood yields, the gain is at most the sum of ``ctx.bound``
    over the change set's entries."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        for changes in _neighbours(ctx, m):
            bound = sum(ctx.bound[hv][pv] for hv, pv in changes.items())
            assert _gain(ctx, m, changes) <= bound


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_table_gain_of_every_neighbour_equals_gain(graphs):
    """The climber scores its steps from per-climb match tables: for every
    single move, swap and planting, the table gain equals ``_gain`` and the
    count difference, a single move's gain is its row difference, and a
    swap's is ``_swap_gain``."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        score = _match_tables(ctx, m)
        before = ctx.count(m)
        for changes in _neighbours(ctx, m):
            after = dict(m)
            for hv, pv in changes.items():
                _assign(after, hv, pv)
            expected = ctx.count(after) - before
            assert _table_gain(ctx, score, m, changes) == _gain(ctx, m, changes) == expected
            if len(changes) == 1:
                (hv, pv), = changes.items()
                assert score[hv][pv] - score[hv][m.get(hv)] == expected
            elif len(changes) == 2:
                (h1, p2), (h2, p1) = changes.items()
                if (p1, p2) == (m.get(h1), m.get(h2)):  # a swap
                    assert _swap_gain(ctx, score, h1, p1, h2, p2) == expected


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs(), st.lists(st.integers(0, 10**6), max_size=8))
def test_tables_kept_over_steps_equal_fresh_tables(graphs, picks):
    """After any sequence of applied neighbours, the tables ``_take`` kept
    in place equal tables built afresh from the final mapping, and the
    mapping is the one the change sets give."""
    premise, hypothesis, m0 = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        m = dict(m0)
        score = _match_tables(ctx, m)
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
        assert score == _match_tables(ctx, m)


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_each_step_is_the_first_best_neighbour_by_count(graphs):
    """Along a whole climb, each step ``_best_step`` takes from its kept
    tables is the one a scan of every neighbour, built by copying the
    mapping and scored by ``count``, takes: the first with the largest
    strict gain."""
    premise, hypothesis, m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        climbed = dict(m)
        score = _match_tables(ctx, climbed)
        while True:
            before = ctx.count(climbed)
            best_gain, best = 0, None
            for trial in _copied_neighbours(ctx, climbed):
                if ctx.count(trial) - before > best_gain:
                    best_gain, best = ctx.count(trial) - before, trial
            gain, changes = _best_step(ctx, score, climbed)
            assert gain == best_gain
            if best is None:
                assert changes is None
                break
            _take(ctx, score, climbed, changes)
            assert climbed == best


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


def _random_mapping(rng, premise, hypothesis):
    """A random injective partial mapping of *hypothesis* onto *premise*."""
    images = rng.sample(list(premise.nodes), len(premise.nodes))
    return {hv: pv for hv, pv in zip(hypothesis.nodes, images) if rng.random() < 0.7}


@settings(max_examples=100, deadline=None)
@given(_graphs("p", 6), _graphs("h", 5), _graphs("p", 4), st.randoms(use_true_random=False))
def test_contexts_from_kept_halves_equal_fresh_ones(a, b, c, rng):
    """A batch keeps each graph's half of the tables in one dict across
    pairs: every context composed from kept halves, a graph against itself
    (one object in both roles) included, has the tables, counts and
    alignment of one built afresh, and the halves are built once."""
    tables: dict = {}
    graphs = (a, b, c)
    for premise, hypothesis in itertools.product(graphs, repeat=2):
        for include_top in (True, False):
            kept = _MatchContext(premise, hypothesis, include_top, tables)
            fresh = _MatchContext(premise, hypothesis, include_top)
            assert vars(kept) == vars(fresh)
            for _ in range(3):
                m = _random_mapping(rng, premise, hypothesis)
                assert kept.count(m) == fresh.count(m)
            seed = rng.randrange(100)
            assert (align_hill_climb(premise, hypothesis, 2, seed, include_top, tables)
                    == align_hill_climb(premise, hypothesis, 2, seed, include_top))
    # One premise half and one claim half per graph and include_top.
    assert len(tables) == 2 * len(graphs) * 2
    again = _MatchContext(a, a, True, tables)
    assert again.prem_rel is _MatchContext(a, b, True, tables).prem_rel
    assert again.hyp_edges is _MatchContext(b, a, True, tables).hyp_edges


def test_gain_caps_duplicate_edges_at_the_premise_count():
    # Two equal hypothesis edges land on the one premise edge: one match.
    premise = _unchecked_graph({"p0": "a", "p1": "c"}, [("p0", "ARG0", "p1")])
    hypothesis = _unchecked_graph({"h0": "a", "h1": "b"},
                                  [("h0", "ARG0", "h1"), ("h0", "ARG0", "h1")])
    ctx = _MatchContext(premise, hypothesis, include_top=False)
    m = {"h0": "p0"}
    assert _gain(ctx, m, {"h1": "p1"}) == 1
    assert ctx.count({"h0": "p0", "h1": "p1"}) - ctx.count(m) == 1


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
            assert ctx.count(m) == matched
            assert _literal_count(premise, hypothesis, m, include_top) == matched


@settings(max_examples=300, deadline=None)
@given(_mapped_graphs())
def test_upper_bound_is_at_least_the_optimum(graphs):
    """The climber stops restarting once its count reaches the bound, so
    the bound must hold for every injective mapping: it is at least the
    exhaustive optimum, both as the assignment bound (incumbent -1) and as
    the row bound (an incumbent no bound exceeds)."""
    premise, hypothesis, _m = graphs
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        optimum = align_exhaustive(premise, hypothesis, include_top).matched
        assert _upper_bound(ctx, math.inf) >= _upper_bound(ctx, -1) >= optimum


def _brute_force_assignment(weights) -> int:
    """The heaviest injective partial assignment of rows to columns, over
    every one of them."""
    def best(i, free):
        if i == len(weights):
            return 0
        return max([best(i + 1, free)] + [weights[i][j] + best(i + 1, free - {j})
                                          for j in free])
    return best(0, frozenset(range(len(weights[0]))))


def test_max_assignment_equals_brute_force():
    rng = random.Random(5)
    for rows, cols in itertools.product(range(1, 6), range(1, 8)):
        for _ in range(6):
            high = rng.choice((1, 3, 9))
            weights = [[0] * cols if rng.random() < 0.2
                       else [rng.randint(0, high) for _ in range(cols)]
                       for _ in range(rows)]
            assert _max_assignment(weights) == _brute_force_assignment(weights), weights
