"""Shared test fixtures: the three reference claim/evidence AMR pairs, a
seeded random graph generator, one-pair scoring, and any JSON value with
the paths to put it at."""

import random

from hypothesis import strategies as st

from amrex.entailment import blend
from amrex.graph import AmrGraph
from amrex.smatch import AlignConfig
from amrex.verdict import score_pairs

# Claim: "Wish Upon was released in the 21st century."
WISH_CLAIM = """(a0/release-01
   :ARG1 (a1/music
      :name (a2/name
         :op1 (a3/Wish)
         :op2 (a4/Upon)))
   :time (a5/date-entity
      :century 21))"""

# Evidence: "It is set to be released in theaters on July 14, 2017, by
# Broad Green Pictures and Orion Pictures"
WISH_EVIDENCE = """(b0/set-08
   :ARG1 (b1/it)
   :ARG2 (b2/release-01
      :ARG0 (b3/and
         :op1 (b4/company
            :name (b5/name
               :op1 (b6/Broad)
               :op2 (b7/Green)
               :op3 (b8/Pictures)))
         :op2 (b9/company
            :name (b10/name
               :op1 (b11/Orion)
               :op2 (b12/Pictures))))
      :ARG1 i
      :location (b13/theater)
      :time (b14/date-entity
         :day 14
         :month 7
         :year 2017)))"""

# Claim: "Marnie is a romantic film."
MARNIE_CLAIM = """(a0/film
   :ARG0-of (a1/romantic-03)
   :name (a2/name
      :op1 (a3/Marnie)))"""

# Evidence: "Marnie is a 1964 American psychological thriller film directed
# by Alfred Hitchcock."
MARNIE_EVIDENCE = """(b0/film
   :ARG1-of (b1/direct-01
      :ARG0 (b2/person
         :name (b3/name
            :op1 (b4/Alfred)
            :op2 (b5/Hitchcock))))
   :mod (b6/thriller
      :mod (b7/psychological))
   :mod (b8/country
      :name (b9/name
         :op1 (b10/America)))
   :name (b11/name
      :op1 (b12/Marnie))
   :time (b13/date-entity
      :year 1964))"""

# Claim: "Rabies is a ride at Six Parks."
RABIES_CLAIM = """(a0/ride-01
   :ARG1 (a1/disease
      :name (a2/name
         :op1 (a3/Rabies)))
   :location (a4/amusement-park
      :name (a5/name
         :op1 6
         :op2 (a6/Parks))))"""

# Evidence: "Rabies is a viral disease that causes inflammation of the
# brain in humans and other mammals."
RABIES_EVIDENCE = """(b0/disease
   :ARG0-of (b1/cause-01
      :ARG1 (b2/inflame-01
         :ARG1 (b3/brain)
         :part-of (b4/and
            :op1 (b5/human)
            :op2 (b6/mammal
               :mod (b7/other)))))
   :domain (b8/disease
      :name (b9/name
         :op1 (b10/Rabies)))
   :mod (b11/virus))"""

RABIES_MAPPING = (
    ("a0", "b0"), ("a1", "b8"), ("a2", "b9"), ("a3", "b10"),
    ("a4", "b2"), ("a5", "b4"), ("a6", "b6"),
)

ALL_PENMAN = {
    "wish-claim": WISH_CLAIM, "wish-evidence": WISH_EVIDENCE,
    "marnie-claim": MARNIE_CLAIM, "marnie-evidence": MARNIE_EVIDENCE,
    "rabies-claim": RABIES_CLAIM, "rabies-evidence": RABIES_EVIDENCE,
}

# Reference pair scores: (structural containment, textual similarity).
PAIR_SCORES = {"wish": (0.53, 0.38), "marnie": (0.75, 0.70), "rabies": (0.46, 0.59)}

_CONCEPTS = ("cat", "dog", "run-01", "name", "thing", "city", "person", "want-01")
_ROLES = ("ARG0", "ARG1", "mod", "name", "op1", "op2", "time")
_CONSTS = ("1", "2", "21", '"X"', "seven")


def random_graph(rng: random.Random, max_nodes: int = 8, prefix: str = "n",
                 max_attributes: int = 2) -> AmrGraph:
    """A random rooted DAG: a spanning tree plus forward extra edges so the
    result is always acyclic and root-reachable, and up to *max_attributes*
    attributes."""
    n = rng.randint(1, max_nodes)
    variables = [f"{prefix}{i}" for i in range(n)]
    nodes = {v: rng.choice(_CONCEPTS) for v in variables}
    edges = []
    for i in range(1, n):
        edges.append((variables[rng.randrange(i)], rng.choice(_ROLES), variables[i]))
    for _ in range(rng.randint(0, max(0, n - 2))):
        i, j = rng.randrange(n), rng.randrange(n)
        if i < j:
            edges.append((variables[i], rng.choice(_ROLES), variables[j]))
    attributes = []
    for _ in range(rng.randint(0, max_attributes)):
        attributes.append((rng.choice(variables), rng.choice(_ROLES),
                           rng.choice(_CONSTS)))
    return AmrGraph(root=variables[0], nodes=nodes, edges=tuple(edges),
                    attributes=tuple(attributes))


def score_pair(premise_text, premise_amr, hypothesis_text, hypothesis_amr,
               lam, backend, cfg=AlignConfig(), seed=0):
    """One (evidence, claim) pair scored and blended at *lam*, as
    ``score-pair`` scores it."""
    [(alignment, sim)] = score_pairs([(premise_text, premise_amr, hypothesis_text,
                                       hypothesis_amr, seed)], backend, cfg)
    return blend(lam, alignment, sim)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def field_paths(value, prefix=()):
    """The path of every field and list item nested in *value*."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))
