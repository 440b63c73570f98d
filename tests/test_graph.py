import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import GraphError, PenmanParseError
from amrex.graph import (MAX_DEPTH, AmrGraph, Triple, extract_triples,
                         parse_penman, serialize_penman)

from _fixtures import (ALL_PENMAN, MARNIE_CLAIM, RABIES_CLAIM, WISH_EVIDENCE,
                       random_graph)


def test_parse_minimal():
    g = parse_penman("(x/hello)")
    assert g.root == "x"
    assert g.nodes == {"x": "hello"}
    assert g.edges == ()
    assert g.attributes == ()


def test_parse_marnie_claim_shape():
    g = parse_penman(MARNIE_CLAIM)
    assert g.root == "a0"
    assert len(g.nodes) == 4
    assert len(g.edges) == 3
    assert len(g.attributes) == 0
    assert ("a0", "ARG0-of", "a1") in g.edges  # inverted role kept verbatim


def test_parse_numeric_attribute():
    g = parse_penman(RABIES_CLAIM)
    assert ("a5", "op1", "6") in g.attributes
    assert ("a5", "op2", "a6") in g.edges


def test_parse_bare_token_reentrancy():
    g = parse_penman("(w/want-01 :ARG0 (b/boy) :ARG1 (g/go-02 :ARG0 b))")
    assert ("g", "ARG0", "b") in g.edges
    assert g.attributes == ()


def test_parse_bare_token_undeclared_is_constant():
    g = parse_penman(WISH_EVIDENCE)
    assert ("b2", "ARG1", "i") in g.attributes


def test_parse_quoted_constant_verbatim():
    g = parse_penman('(d/disease :name "Rabies")')
    assert g.attributes == (("d", "name", '"Rabies"'),)


def test_unbalanced_parenthesis_reports_offset():
    with pytest.raises(PenmanParseError) as exc:
        parse_penman("(x/a :ARG0")
    assert "unbalanced parenthesis" in str(exc.value)
    assert exc.value.offset == 10


@pytest.mark.parametrize("text, message, offset", [
    ('(x/a :name "Mar', "unterminated string", 11),
    ("(x/a b)", "unexpected character 'b'", 5),
    ("(x/a : (y/b))", "empty role", 6),
    ("(x/a :mod )", "expected value", 10),
    ("(a / b", "unbalanced parenthesis", 6),
], ids=["unterminated-string", "unexpected-character", "empty-role",
        "missing-value", "node-not-closed"])
def test_malformed_penman_names_the_fault_and_its_offset(text, message, offset):
    with pytest.raises(PenmanParseError) as exc:
        parse_penman(text)
    assert str(exc.value) == f"{message} at offset {offset}"
    assert exc.value.offset == offset


def test_duplicate_variable_rejected():
    with pytest.raises(PenmanParseError) as exc:
        parse_penman("(x/a :mod (x/b))")
    assert "duplicate" in str(exc.value)


def test_empty_concept_rejected():
    with pytest.raises(PenmanParseError) as exc:
        parse_penman("(x/ :mod (y/b))")
    assert "empty concept" in str(exc.value)


def test_dangling_input_rejected():
    with pytest.raises(PenmanParseError) as exc:
        parse_penman("(x/a) extra")
    assert "dangling" in str(exc.value)


def test_empty_input_rejected():
    with pytest.raises(PenmanParseError):
        parse_penman("   ")


def test_reentrant_cycle_rejected():
    with pytest.raises(GraphError):
        parse_penman("(a/x :mod (b/y :mod a))")


def _nested(depth: int) -> str:
    """A chain of *depth* nodes, each the ``:mod`` child of the one before."""
    return "".join(f"(n{i}/x :mod " for i in range(depth - 1)) + \
        f"(n{depth - 1}/x" + ")" * depth


def test_deepest_nesting_round_trips():
    g = parse_penman(_nested(MAX_DEPTH))
    assert len(g.nodes) == MAX_DEPTH
    assert Counter(extract_triples(parse_penman(serialize_penman(g)))) == \
        Counter(extract_triples(g))


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
def test_nesting_too_deep_is_a_parse_error(depth):
    text = _nested(depth)
    with pytest.raises(PenmanParseError) as exc:
        parse_penman(text)
    assert "nested deeper than" in str(exc.value)
    assert exc.value.offset == text.index(f"(n{MAX_DEPTH}/")


_PENMAN_ALPHABET = '()/:" \nabxy01-'


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_PENMAN_ALPHABET)))
def test_parse_arbitrary_text_raises_only_typed_errors(text):
    try:
        parse_penman(text)
    except (PenmanParseError, GraphError):
        pass


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        AmrGraph(root="missing", nodes={"x": "a"})
    with pytest.raises(GraphError):
        AmrGraph(root="x", nodes={"x": "a"}, edges=(("x", "mod", "ghost"),))
    with pytest.raises(GraphError):
        AmrGraph(root="x", nodes={"x": "a", "y": ""},
                 edges=(("x", "mod", "y"),))
    with pytest.raises(GraphError):  # y unreachable from root
        AmrGraph(root="x", nodes={"x": "a", "y": "b"})
    with pytest.raises(GraphError, match="empty variable id"):
        AmrGraph(root="", nodes={"": "a"})
    with pytest.raises(GraphError, match="edge source 'ghost' is not declared"):
        AmrGraph(root="x", nodes={"x": "a"}, edges=(("ghost", "mod", "x"),))
    with pytest.raises(GraphError, match="empty role on edge from 'x'"):
        AmrGraph(root="x", nodes={"x": "a", "y": "b"}, edges=(("x", "", "y"),))
    with pytest.raises(GraphError, match="empty role on attribute of 'x'"):
        AmrGraph(root="x", nodes={"x": "a"}, attributes=(("x", "", "1"),))
    with pytest.raises(GraphError, match="attribute source 'ghost' is not declared"):
        AmrGraph(root="x", nodes={"x": "a"}, attributes=(("ghost", "mod", "1"),))


@st.composite
def _edge_lists(draw):
    """Nodes ``0..n-1``, a root and an edge list.  Half the lists keep only
    forward edges (i < j): acyclic, with diamonds where two paths meet.
    The rest may hold self-loops and cycles, reachable or not; any node
    that no edge reaches stays isolated."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=10))
    if draw(st.booleans()):
        edges = [(min(s, t), max(s, t)) for s, t in edges if s != t]
    return n, draw(node), edges


def _is_rooted_dag(n, root, edges) -> bool:
    """Breadth-first search from the root for reachability, and Kahn's
    algorithm over every edge for acyclicity."""
    seen, frontier = {root}, [root]
    while frontier:
        frontier = [t for s in frontier for (s2, t) in edges if s2 == s and t not in seen]
        seen.update(frontier)
    indegree = Counter(t for _s, t in edges)
    ready = [v for v in range(n) if indegree[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for s, t in edges:
            if s == v:
                indegree[t] -= 1
                if indegree[t] == 0:
                    ready.append(t)
    return len(seen) == n and removed == n


@settings(max_examples=500, deadline=None)
@given(_edge_lists())
def test_graph_is_valid_exactly_when_a_rooted_dag(case):
    n, root, edges = case
    kwargs = dict(root=f"v{root}", nodes={f"v{i}": "c" for i in range(n)},
                  edges=[(f"v{s}", "mod", f"v{t}") for s, t in edges])
    if _is_rooted_dag(n, root, edges):
        AmrGraph(**kwargs)
    else:
        with pytest.raises(GraphError):
            AmrGraph(**kwargs)


def test_serialize_fixpoint_minimal():
    g = parse_penman("(x/hello)")
    assert serialize_penman(g) == "(x/hello)"


def test_serialize_keeps_numeric_attribute_unquoted():
    g = parse_penman(WISH_EVIDENCE)
    assert ":century" not in serialize_penman(g)  # attribute belongs to claim
    g = parse_penman("(a5/date-entity :century 21)")
    assert ":century 21" in serialize_penman(g)


@pytest.mark.parametrize("name", sorted(ALL_PENMAN))
def test_round_trip_reference_graphs(name):
    g = parse_penman(ALL_PENMAN[name])
    again = parse_penman(serialize_penman(g))
    assert Counter(extract_triples(again)) == Counter(extract_triples(g))


def test_extract_triples_counts():
    g = parse_penman(MARNIE_CLAIM)
    triples = extract_triples(g, include_top=True)
    assert len(triples) == 8
    kinds = Counter(t.kind for t in triples)
    assert kinds == {"instance": 4, "relation": 3, "top": 1}

    g = parse_penman(RABIES_CLAIM)
    triples = extract_triples(g, include_top=True)
    kinds = Counter(t.kind for t in triples)
    assert kinds == {"instance": 7, "relation": 6, "attribute": 1, "top": 1}
    assert len(triples) == 15


def test_extract_triples_minimal_with_top():
    g = parse_penman("(x/hello)")
    assert set(extract_triples(g, include_top=True)) == {
        Triple("top", "x", "", "hello"),
        Triple("instance", "x", "", "hello"),
    }


def test_triple_count_formula():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng)
        for include_top in (True, False):
            triples = extract_triples(g, include_top=include_top)
            assert len(triples) == (len(g.nodes) + len(g.edges)
                                    + len(g.attributes) + int(include_top))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_graphs(seed):
    g = random_graph(random.Random(seed))
    again = parse_penman(serialize_penman(g))
    assert Counter(extract_triples(again)) == Counter(extract_triples(g))
    assert Counter(extract_triples(again, include_top=False)) == \
        Counter(extract_triples(g, include_top=False))
