"""Built-in reference data: the eight unmixed product-quotient families with
p_g = q = 2, with their expected invariants and Jacobian decompositions.

Witness generating vectors are re-derived by exhaustive search constrained
to each row's (group, genera, branch) data; among the searched pairs the
selector keeps the first one with p_g = 2, which is the defining condition
of these families (branch data alone also admits degenerate pairs, e.g. two
V4 covers branched over the same involution).  ``row_witnesses`` keeps no
cache of its own: the searches it makes are kept on the catalog group, so
rows and descriptions that share a signature search it once per process.

Each row pins its paired character, the nontrivial rational character with
nonzero reduced dimension on both curves, by its ``(d, n, m)`` data: the
reduced dimension, the multiplicity and the Schur index, which is 2 exactly
for the quaternionic Q8 row.  On every row's group, the nontrivial rational
characters with the row's ``(n, m)`` are exactly the witness's match, or,
for V4, the three linear characters that ``Aut(V4)`` permutes.
"""

from __future__ import annotations

from .covering import GeneratingVector, search_generating_vectors
from .errors import NoWitness, UnknownName, _quoted
from .groups import Record, catalog_group
from .surface import geometric_genus


class TableRow(Record):
    # singularities: sorted (n, q) pairs; jac1, jac2: sorted (d, n) pairs of
    # the nontrivial factors; paired: (d, n, m) of the matched character
    __slots__ = (
        "name", "group_name", "genera", "branch1", "branch2", "k2", "singularities",
        "eta", "family_dim", "jac1", "jac2", "paired",
    )


ROWS: tuple[TableRow, ...] = (
    TableRow("V4", "V4", (3, 3), (2, 2), (2, 2), 8, (), 0, 4,
             ((1, 1), (1, 1)), ((1, 1), (1, 1)), (1, 1, 1)),
    TableRow("S3-8", "S3", (3, 4), (3,), (2, 2), 8, (), 0, 3,
             ((1, 2),), ((1, 1), (1, 2)), (1, 2, 1)),
    TableRow("D4-8", "D4", (3, 5), (2,), (2, 2), 8, (), 0, 3,
             ((1, 2),), ((1, 1), (1, 1), (1, 2)), (1, 2, 1)),
    TableRow("A4", "A4", (4, 4), (2,), (2,), 6, ((2, 1), (2, 1)), 2, 2,
             ((1, 3),), ((1, 3),), (1, 3, 1)),
    TableRow("S3-5", "S3", (3, 3), (3,), (3,), 5, ((3, 1), (3, 2)), 3, 2,
             ((1, 2),), ((1, 2),), (1, 2, 1)),
    TableRow("Q8", "Q8", (3, 3), (2,), (2,), 4, ((2, 1),) * 4, 4, 2,
             ((2, 1),), ((2, 1),), (2, 1, 2)),
    TableRow("D4-4", "D4", (3, 3), (2,), (2,), 4, ((2, 1),) * 4, 4, 2,
             ((1, 2),), ((1, 2),), (1, 2, 1)),
    TableRow("C2", "C2", (2, 2), (2, 2), (2, 2), 4, ((2, 1),) * 4, 4, 4,
             ((1, 1),), ((1, 1),), (1, 1, 1)),
)


def row_by_name(name: str) -> TableRow:
    for row in ROWS:
        if row.name == name:
            return row
    raise UnknownName(f"no catalog row named {_quoted(name)}; known: {', '.join(r.name for r in ROWS)}")


def select_pair(vectors1, vectors2):
    """The first pair in search order with a base genus other than 1 or
    with p_g = 2, or else the first pair; NoWitness when a side is empty."""
    if not vectors1 or not vectors2:
        raise NoWitness("search directive produced no generating vector")
    for gv1 in vectors1:
        for gv2 in vectors2:
            if gv1.base_genus != 1 or gv2.base_genus != 1 or geometric_genus(gv1, gv2) == 2:
                return gv1, gv2
    return vectors1[0], vectors2[0]


def row_witnesses(name: str) -> tuple[GeneratingVector, GeneratingVector]:
    """Deterministic witness pair for a catalog row."""
    row = row_by_name(name)
    group = catalog_group(row.group_name)
    vectors1 = search_generating_vectors(group, 1, row.branch1)
    vectors2 = search_generating_vectors(group, 1, row.branch2)
    return select_pair(vectors1, vectors2)
