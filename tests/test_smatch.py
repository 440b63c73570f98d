import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import ConfigError, GraphError, MappingError
from amrex.graph import AmrGraph, parse_penman
from amrex.smatch import (AlignConfig, VariableMapping, _assign, _gain,
                          _MatchContext, _neighbours, _substituted,
                          align_exhaustive, align_hill_climb, matched_triples,
                          smatch_precision)

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
    assert matched_triples(premise, hypothesis, mapping) == 6
    assert matched_triples(premise, hypothesis, mapping, include_top=False) == 5


def test_matched_triples_identity_single_node():
    g = parse_penman("(x/hello)")
    mapping = VariableMapping((("x", "x"),))
    assert matched_triples(g, g, mapping) == 2  # instance + top


def test_matched_triples_empty_mapping():
    premise = parse_penman(MARNIE_EVIDENCE)
    hypothesis = parse_penman(MARNIE_CLAIM)
    assert matched_triples(premise, hypothesis, VariableMapping(())) == 0


def test_matched_triples_unknown_variable():
    g = parse_penman("(x/hello)")
    with pytest.raises(MappingError):
        matched_triples(g, g, VariableMapping((("ghost", "x"),)))
    with pytest.raises(MappingError):
        matched_triples(g, g, VariableMapping((("x", "ghost"),)))


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
        result = smatch_precision(parse_penman(evidence), parse_penman(claim),
                                  AlignConfig(include_top=include_top))
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


def test_exhaustive_identical_graphs():
    g = parse_penman(MARNIE_CLAIM)
    result = align_exhaustive(g, g)
    assert result.precision == 1.0


def test_hill_climb_matches_exhaustive_oracle():
    rng = random.Random(7)
    for _ in range(25):
        premise = random_graph(rng, max_nodes=8, prefix="p")
        hypothesis = random_graph(rng, max_nodes=6, prefix="h")
        for include_top in (True, False):
            oracle = align_exhaustive(premise, hypothesis, include_top=include_top)
            hc = align_hill_climb(premise, hypothesis, restarts=8, seed=3,
                                  include_top=include_top)
            assert hc.matched <= oracle.matched
            assert hc.matched == oracle.matched


_GOLDEN_MAPPINGS_SHA256 = "ec89214b164c29a38305fb45972e419551fa54295055f86f16514b1aaec87b09"


def test_hill_climb_mappings_match_golden_digest():
    """Pins the climber's exact mappings on graphs beyond the oracle's size:
    a change to the neighbour order, the tie rule or canonicalization
    changes the SHA-256 of the 40 (mapping, matched) results."""
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for i in range(40):
        premise = random_graph(rng, max_nodes=24, prefix="p")
        hypothesis = random_graph(rng, max_nodes=14, prefix="h")
        r = align_hill_climb(premise, hypothesis, restarts=4, seed=i,
                             include_top=i % 2 == 0)
        digest.update(repr((r.mapping.pairs, r.matched)).encode())
    assert digest.hexdigest() == _GOLDEN_MAPPINGS_SHA256


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
    """An AmrGraph built without validation, so it may hold self-loops,
    cycles and duplicate edges and attributes."""
    g = object.__new__(AmrGraph)
    for name, value in (("root", next(iter(nodes))), ("nodes", dict(nodes)),
                        ("edges", tuple(edges)), ("attributes", tuple(attributes))):
        object.__setattr__(g, name, value)
    return g


@st.composite
def _graphs(draw, prefix: str, max_nodes: int):
    """Small graphs over few concepts, roles and constants, so that matches,
    duplicates and self-loops are common."""
    n = draw(st.integers(1, max_nodes))
    variables = [f"{prefix}{i}" for i in range(n)]
    nodes = {v: draw(st.sampled_from("abc")) for v in variables}
    var = st.sampled_from(variables)
    role = st.sampled_from(("ARG0", "ARG1"))
    edges = draw(st.lists(st.tuples(var, role, var), max_size=2 * n))
    attributes = draw(st.lists(st.tuples(var, role, st.sampled_from("12")),
                               max_size=n))
    return _unchecked_graph(nodes, edges, attributes)


def _copied_neighbours(ctx, pvars, m):
    """The climber's neighbourhood in search order, each neighbour built as
    a whole copied mapping: the reference for the change sets."""
    def place(trial, hv, pv):
        occupant = next((h for h, p in trial.items() if p == pv), None)
        vacated = trial.get(hv)
        trial[hv] = pv
        if occupant is not None and occupant != hv:
            _assign(trial, occupant, vacated)

    for hv in ctx.hyp_vars:
        for pv in pvars + [None]:
            if pv != m.get(hv) and (pv is None or pv not in m.values()):
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
            if s != t and ps != pt and (m.get(s), m.get(t)) != (ps, pt):
                trial = dict(m)
                place(trial, s, ps)
                if trial.get(t) != pt:
                    place(trial, t, pt)
                yield trial


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gain_of_every_neighbour_equals_count_difference(data):
    """count() is the oracle for the climber's incremental scoring: for every
    change set a mapping's neighbourhood yields, the gain equals the count
    after applying it minus the count before.  Applied in order, the change
    sets are the neighbours built by copying the mapping."""
    premise = data.draw(_graphs("p", 6))
    hypothesis = data.draw(_graphs("h", 5))
    pvars = list(premise.nodes)
    images = data.draw(st.permutations(pvars))
    mapped = data.draw(st.lists(st.booleans(), min_size=len(hypothesis.nodes),
                                max_size=len(hypothesis.nodes)))
    m = {hv: pv for hv, pv, keep in zip(hypothesis.nodes, images, mapped) if keep}
    for include_top in (True, False):
        ctx = _MatchContext(premise, hypothesis, include_top)
        rel, attr = _substituted(ctx, m)
        before = ctx.count(m)
        applied = []
        for changes in _neighbours(ctx, pvars, m):
            after = dict(m)
            for hv, pv in changes.items():
                _assign(after, hv, pv)
            applied.append(after)
            assert _gain(ctx, m, changes, rel, attr) == ctx.count(after) - before
        assert applied == list(_copied_neighbours(ctx, pvars, m))


def test_gain_caps_duplicate_edges_at_the_premise_count():
    # Two equal hypothesis edges land on the one premise edge: one match.
    premise = _unchecked_graph({"p0": "a", "p1": "c"}, [("p0", "ARG0", "p1")])
    hypothesis = _unchecked_graph({"h0": "a", "h1": "b"},
                                  [("h0", "ARG0", "h1"), ("h0", "ARG0", "h1")])
    ctx = _MatchContext(premise, hypothesis, include_top=False)
    m = {"h0": "p0"}
    assert _gain(ctx, m, {"h1": "p1"}, *_substituted(ctx, m)) == 1
    assert ctx.count({"h0": "p0", "h1": "p1"}) - ctx.count(m) == 1
