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
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import GraphError, PenmanParseError

Edge = tuple[str, str, str]        # (source var, role, target var)
Attribute = tuple[str, str, str]   # (source var, role, constant)

# A Penman token: a parenthesis or slash; a role, the colon and its name,
# which may be empty; a quoted string, which runs to the end of the text
# when it is not closed; or a bare token.  Every character but whitespace
# is in one.
_TOKENS = re.compile(r'[()/]|:[^\s()/:"]*|"[^"]*"?|[^\s()/:"]+')
# The first characters of the tokens that are not bare.  The empty string
# is in it too, so ``token[:1] in _PUNCT`` holds for an empty token.
_PUNCT = '()/:"'
# Deepest nesting parsed: the serializer recurses once per level.
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


def _offset(text: str, index: int) -> int:
    """Where the *index*-th token of *text* starts, or the text's length
    past the last token: read only to raise an error."""
    match = next(islice(_TOKENS.finditer(text), index, None), None)
    return len(text) if match is None else match.start()


def _unterminated(quoted: str) -> bool:
    return len(quoted) == 1 or quoted[-1] != '"'


def parse_penman(text: str) -> AmrGraph:
    """Parse one Penman form into an :class:`AmrGraph`.

    The text is split into :data:`_TOKENS` and the graph built in one loop
    over them, with a stack of the ``(parent, role)`` of each open node
    below the root; an edge to a node is appended when the node closes.

    Raises :class:`PenmanParseError` with the offset of the token at fault,
    or the text's length past the last, on malformed input, nodes nested
    deeper than :data:`MAX_DEPTH` included, and :class:`GraphError` if the
    parsed structure violates a graph invariant (e.g. a re-entrant edge
    closes a cycle).
    """
    tokens = _TOKENS.findall(text)
    if not tokens:
        raise PenmanParseError("empty input", 0)
    if tokens[0] != "(":
        raise PenmanParseError("expected '('", _offset(text, 0))
    # The end of the text reads as empty tokens, which no rule accepts:
    # enough of them that a node's header can be read whole.
    tokens += ("", "", "")
    nodes: dict[str, str] = {}
    edges: list[Edge] = []
    attributes: list[Attribute] = []
    stack: list[tuple[str, str]] = []
    opening = True  # whether tokens[i] is the '(' of a node
    i = 0
    while True:
        if opening:
            var, slash, concept = tokens[i + 1:i + 4]
            if var[:1] in _PUNCT:
                raise PenmanParseError("expected variable", _offset(text, i + 1))
            if var in nodes:
                raise PenmanParseError(f"duplicate variable declaration {var!r}",
                                       _offset(text, i + 1))
            if slash != "/":
                raise PenmanParseError("expected '/' after variable", _offset(text, i + 2))
            if concept[:1] == '"':
                if _unterminated(concept):
                    raise PenmanParseError("unterminated string", _offset(text, i + 3))
            elif concept[:1] in _PUNCT:
                raise PenmanParseError("empty concept", _offset(text, i + 3))
            nodes[var] = concept
            opening = False
            i += 4
            continue
        tok = tokens[i]
        if tok == ")":
            if not stack:
                break
            parent, role = stack.pop()
            edges.append((parent, role, var))
            var = parent
            i += 1
        elif tok[:1] == ":":
            role = tok[1:]
            if not role:
                raise PenmanParseError("empty role", _offset(text, i) + 1)
            value = tokens[i + 1]
            if value == "(":
                stack.append((var, role))
                if len(stack) == MAX_DEPTH:
                    raise PenmanParseError(f"nodes nested deeper than {MAX_DEPTH} levels",
                                           _offset(text, i + 1))
                opening = True
                i += 1
                continue
            if value[:1] == '"':
                if _unterminated(value):
                    raise PenmanParseError("unterminated string", _offset(text, i + 1))
                attributes.append((var, role, value))
            elif not value:
                raise PenmanParseError("unbalanced parenthesis", len(text))
            elif value[:1] in _PUNCT:
                raise PenmanParseError("expected value", _offset(text, i + 1))
            elif value in nodes:
                # Re-entrant reference to an already declared variable.
                edges.append((var, role, value))
            else:
                attributes.append((var, role, value))
            i += 2
        elif tok:
            raise PenmanParseError(f"unexpected character {tok[0]!r}", _offset(text, i))
        else:
            raise PenmanParseError("unbalanced parenthesis", len(text))
    if tokens[i + 1]:
        raise PenmanParseError("dangling input after top-level form", _offset(text, i + 1))
    return AmrGraph(root=var, nodes=nodes, edges=tuple(edges),
                    attributes=tuple(attributes))


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
