"""AMR graph model, Penman parser/serializer, and triple extraction.

An AMR is a rooted, directed, acyclic graph: concept-labelled nodes
identified by variables, role-labelled edges between variables, and
role-labelled constant attributes.  The textual form is Penman notation:

    (a0/film
       :ARG0-of (a1/romantic-03)
       :name (a2/name :op1 (a3/Marnie)))

Inverted roles (``:ARG0-of``) are kept exactly as written; roles are stored
with the leading ``:`` stripped.  A bare token in value position refers to a
previously declared variable (re-entrancy) or, failing that, is kept as a
constant attribute value.  Quoted and numeric constants are stored verbatim.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import GraphError, PenmanParseError

Edge = tuple[str, str, str]        # (source var, role, target var)
Attribute = tuple[str, str, str]   # (source var, role, constant)

_TOKEN_RE = re.compile(r'[^\s()/:"]+')
# Deepest nesting parsed: parser and serializer recurse once per level.
MAX_DEPTH = 500


class Triple(NamedTuple):
    """Atomic comparable unit: top, instance, relation or attribute.

    ``role`` is empty for top/instance triples.  ``arg2`` is a concept for
    top/instance, a variable for relation, and a constant for attribute.
    """

    kind: str
    arg1: str
    role: str
    arg2: str


@dataclass(frozen=True)
class AmrGraph:
    """Immutable AMR graph.

    ``nodes`` maps variable ids to concepts in declaration order.  Every
    edge endpoint and attribute source must be a declared variable, the
    edge relation must be acyclic, and every node must be reachable from
    the root (otherwise the graph has no Penman form).
    """

    root: str
    nodes: dict[str, str]
    edges: tuple[Edge, ...] = ()
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        self._validate()

    def _validate(self) -> None:
        if self.root not in self.nodes:
            raise GraphError(f"root {self.root!r} is not a declared variable")
        for var, concept in self.nodes.items():
            if not var:
                raise GraphError("empty variable id")
            if not concept:
                raise GraphError(f"empty concept for variable {var!r}")
        for src, role, tgt in self.edges:
            if src not in self.nodes:
                raise GraphError(f"edge source {src!r} is not declared")
            if tgt not in self.nodes:
                raise GraphError(f"edge target {tgt!r} is not declared")
            if not role:
                raise GraphError(f"empty role on edge from {src!r}")
        for src, role, _value in self.attributes:
            if src not in self.nodes:
                raise GraphError(f"attribute source {src!r} is not declared")
            if not role:
                raise GraphError(f"empty role on attribute of {src!r}")
        # One depth-first walk from the root.  on_walk maps each visited
        # variable to whether it is still on the walk: an edge back to one
        # closes a cycle, and a variable never visited is unreachable.
        out: dict[str, list[str]] = {var: [] for var in self.nodes}
        for src, _role, tgt in self.edges:
            out[src].append(tgt)
        on_walk = {self.root: True}
        stack: list[tuple[str, Iterator[str]]] = [(self.root, iter(out[self.root]))]
        while stack:
            var, it = stack[-1]
            for nxt in it:
                if on_walk.get(nxt):
                    raise GraphError(f"edge cycle through {nxt!r}")
                if nxt not in on_walk:
                    on_walk[nxt] = True
                    stack.append((nxt, iter(out[nxt])))
                    break
            else:
                on_walk[var] = False
                stack.pop()
        unreachable = [v for v in self.nodes if v not in on_walk]
        if unreachable:
            raise GraphError(f"nodes unreachable from root: {unreachable}")

    @cached_property
    def _memo(self) -> dict:
        """Tables derived from this graph, kept for as long as it lives
        and pickled with it: not a field, so equality and ``repr`` ignore
        it."""
        return {}


class _Parser:
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


def parse_penman(text: str) -> AmrGraph:
    """Parse one Penman form into an :class:`AmrGraph`.

    Raises :class:`PenmanParseError` with a byte offset on malformed input,
    nodes nested deeper than :data:`MAX_DEPTH` included, and
    :class:`GraphError` if the parsed structure violates a graph invariant
    (e.g. a re-entrant edge closes a cycle).
    """
    if not text or not text.strip():
        raise PenmanParseError("empty input", 0)
    return _Parser(text).parse()


def serialize_penman(g: AmrGraph) -> str:
    """Serialize a graph to a single-line Penman string.

    Each node is declared at its first visit in a preorder walk from the
    root (attributes first, then edges, both in declaration order); later
    references are emitted as bare variable tokens.  The output re-parses
    to an identical triple multiset.
    """
    attrs_by_src: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for src, role, value in g.attributes:
        attrs_by_src[src].append((role, value))
    edges_by_src: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for src, role, tgt in g.edges:
        edges_by_src[src].append((role, tgt))

    declared: set[str] = set()

    def emit(var: str) -> str:
        declared.add(var)
        parts = [f"({var}/{g.nodes[var]}"]
        for role, value in attrs_by_src[var]:
            parts.append(f":{role} {value}")
        for role, tgt in edges_by_src[var]:
            if tgt in declared:
                parts.append(f":{role} {tgt}")
            else:
                parts.append(f":{role} {emit(tgt)}")
        return " ".join(parts) + ")"

    return emit(g.root)


def extract_triples(g: AmrGraph, include_top: bool = True) -> list[Triple]:
    """Flatten a graph into its comparable triples.

    One instance triple per node, one relation triple per edge, one
    attribute triple per attribute, plus a single top triple
    ``(top, root, '', root-concept)`` when *include_top* is set.
    """
    triples: list[Triple] = []
    if include_top:
        triples.append(Triple("top", g.root, "", g.nodes[g.root]))
    for var, concept in g.nodes.items():
        triples.append(Triple("instance", var, "", concept))
    for src, role, tgt in g.edges:
        triples.append(Triple("relation", src, role, tgt))
    for src, role, value in g.attributes:
        triples.append(Triple("attribute", src, role, value))
    return triples
