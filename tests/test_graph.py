import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from amrex.errors import GraphError, PenmanParseError
from amrex.graph import (MAX_DEPTH, AmrGraph, Attribute, Edge, Triple, extract_triples,
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
    ('(x/a :r "b"c)', "unexpected character 'c'", 11),
    ('(x/""', "unbalanced parenthesis", 5),
    ('(x/a"b")', "unexpected character '\"'", 4),
    ('(x/a :r "', "unterminated string", 8),
], ids=["unterminated-string", "unexpected-character", "empty-role",
        "missing-value", "node-not-closed", "token-after-quoted-value",
        "quoted-concept-not-closed", "quote-after-concept", "lone-quote-value"])
def test_malformed_penman_names_the_fault_and_its_offset(text, message, offset):
    with pytest.raises(PenmanParseError) as exc:
        parse_penman(text)
    assert str(exc.value) == f"{message} at offset {offset}"
    assert exc.value.offset == offset


def test_whitespace_between_tokens_is_any_unicode_space():
    g = parse_penman("(x/a\u3000:r b)")
    assert g.attributes == (("x", "r", "b"),)


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


_TOKEN_RE = re.compile(r'[^\s()/:"]+')


class _Parser:
    """The recursive-descent parser ``parse_penman`` replaced, which reads
    one character at a time: the reference it is held to."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nodes: dict[str, str] = {}
        self.edges: list[Edge] = []
        self.attributes: list[Attribute] = []

    def fail(self, message: str, offset: int | None = None) -> None:
        raise PenmanParseError(message, self.pos if offset is None else offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_token(self) -> str:
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            return ""
        self.pos = m.end()
        return m.group()

    def read_quoted(self) -> str:
        start = self.pos
        self.pos += 1  # opening quote
        while not self.at_end() and self.text[self.pos] != '"':
            self.pos += 1
        if self.at_end():
            self.fail("unterminated string", start)
        self.pos += 1  # closing quote
        return self.text[start:self.pos]

    def parse(self) -> AmrGraph:
        if not self.text or not self.text.strip():
            self.fail("empty input", 0)
        self.skip_ws()
        if self.peek() != "(":
            self.fail("expected '('")
        root = self.parse_node()
        self.skip_ws()
        if not self.at_end():
            self.fail("dangling input after top-level form")
        return AmrGraph(root=root, nodes=self.nodes,
                        edges=tuple(self.edges),
                        attributes=tuple(self.attributes))

    def parse_node(self, depth: int = 1) -> str:
        if depth > MAX_DEPTH:
            self.fail(f"nodes nested deeper than {MAX_DEPTH} levels")
        self.pos += 1  # consume '('
        self.skip_ws()
        var_offset = self.pos
        var = self.read_token()
        if not var:
            self.fail("expected variable")
        if var in self.nodes:
            self.fail(f"duplicate variable declaration {var!r}", var_offset)
        self.skip_ws()
        if self.peek() != "/":
            self.fail("expected '/' after variable")
        self.pos += 1
        self.skip_ws()
        concept_offset = self.pos
        concept = self.read_quoted() if self.peek() == '"' else self.read_token()
        if not concept:
            self.fail("empty concept", concept_offset)
        self.nodes[var] = concept

        while True:
            self.skip_ws()
            if self.at_end():
                self.fail("unbalanced parenthesis")
            ch = self.peek()
            if ch == ")":
                self.pos += 1
                return var
            if ch != ":":
                self.fail(f"unexpected character {ch!r}")
            self.pos += 1
            role = self.read_token()
            if not role:
                self.fail("empty role")
            self.skip_ws()
            if self.at_end():
                self.fail("unbalanced parenthesis")
            ch = self.peek()
            if ch == "(":
                child = self.parse_node(depth + 1)
                self.edges.append((var, role, child))
            elif ch == '"':
                value = self.read_quoted()
                self.attributes.append((var, role, value))
            else:
                value_offset = self.pos
                value = self.read_token()
                if not value:
                    self.fail("expected value", value_offset)
                if value in self.nodes:
                    # Re-entrant reference to an already declared variable.
                    self.edges.append((var, role, value))
                else:
                    self.attributes.append((var, role, value))


def _outcome(parse, text):
    """The graph's fields, in order, or the error's type, message and
    offset."""
    try:
        g = parse(text)
    except PenmanParseError as e:
        return type(e), str(e), e.offset
    except GraphError as e:
        return type(e), str(e)
    return g.root, list(g.nodes.items()), g.edges, g.attributes


_PENMAN_ALPHABET = '()/:" \nabxy01-'


@st.composite
def _edited_penman(draw):
    """A one-character substitution or deletion of a reference text or of
    a serialized random graph."""
    text = draw(st.one_of(
        st.sampled_from(sorted(ALL_PENMAN.values())),
        st.integers(0, 10**9).map(lambda seed: serialize_penman(
            random_graph(random.Random(seed))))))
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + draw(st.sampled_from(["", *_PENMAN_ALPHABET])) + text[i + 1:]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_PENMAN_ALPHABET), _edited_penman()))
def test_parse_arbitrary_text_raises_only_typed_errors(text):
    """Any text parses or raises a typed error, and the same graph, or
    error with the same message and offset, as the reference parser."""
    assert _outcome(parse_penman, text) == _outcome(lambda t: _Parser(t).parse(), text)


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
