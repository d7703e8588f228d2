"""Built-in reference data: the eight unmixed product-quotient families with
p_g = q = 2, with their expected invariants and Jacobian decompositions.

Witness generating vectors are re-derived by exhaustive search constrained
to each row's (group, genera, branch) data; among the searched pairs the
selector keeps the first one with p_g = 2, which is the defining condition
of these families (branch data alone also admits degenerate pairs, e.g. two
V4 covers branched over the same involution).  ``row_witnesses`` keeps no
cache of its own: the searches it makes are kept on the catalog group, so
rows and descriptions that share a signature search it once per process.

Character positions follow an external computer-algebra numbering in the
reference lists; the alias table below records the hand-matched criterion
(degree, kernel element, or self-duality pattern) that pins each referenced
position to a character of this package's canonical tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chars import character_table, rational_characters
from .covering import GeneratingVector, search_generating_vectors
from .errors import InternalInconsistency, NoWitness, UnknownName
from .groups import Group, catalog_group
from .perms import parse_permutation
from .surface import geometric_genus


@dataclass(frozen=True)
class TableRow:
    name: str
    group_name: str
    genera: tuple[int, int]
    branch1: tuple[int, ...]
    branch2: tuple[int, ...]
    k2: int
    singularities: tuple[tuple[int, int], ...]  # sorted (n, q) pairs
    eta: int
    family_dim: int
    jac1: tuple[tuple[int, int], ...]           # sorted (d, n) pairs, nontrivial factors
    jac2: tuple[tuple[int, int], ...]
    paired: tuple[int, int]                     # (d, n) of the matched character
    paired_ref: int                             # reference character number
    moduli_component: int


ROWS: tuple[TableRow, ...] = (
    TableRow("V4", "V4", (3, 3), (2, 2), (2, 2), 8, (), 0, 4,
             ((1, 1), (1, 1)), ((1, 1), (1, 1)), (1, 1), 4, 3),
    TableRow("S3-8", "S3", (3, 4), (3,), (2, 2), 8, (), 0, 3,
             ((1, 2),), ((1, 1), (1, 2)), (1, 2), 3, 3),
    TableRow("D4-8", "D4", (3, 5), (2,), (2, 2), 8, (), 0, 3,
             ((1, 2),), ((1, 1), (1, 1), (1, 2)), (1, 2), 5, 3),
    TableRow("A4", "A4", (4, 4), (2,), (2,), 6, ((2, 1), (2, 1)), 2, 2,
             ((1, 3),), ((1, 3),), (1, 3), 4, 6),
    TableRow("S3-5", "S3", (3, 3), (3,), (3,), 5, ((3, 1), (3, 2)), 3, 2,
             ((1, 2),), ((1, 2),), (1, 2), 3, 8),
    TableRow("Q8", "Q8", (3, 3), (2,), (2,), 4, ((2, 1),) * 4, 4, 2,
             ((2, 1),), ((2, 1),), (2, 1), 5, 9),
    TableRow("D4-4", "D4", (3, 3), (2,), (2,), 4, ((2, 1),) * 4, 4, 2,
             ((1, 2),), ((1, 2),), (1, 2), 5, 9),
    TableRow("C2", "C2", (2, 2), (2, 2), (2, 2), 4, ((2, 1),) * 4, 4, 4,
             ((1, 1),), ((1, 1),), (1, 1), 2, 9),
)


def row_by_name(name: str) -> TableRow:
    for row in ROWS:
        if row.name == name:
            return row
    raise UnknownName(f"no catalog row named {name!r}; known: {', '.join(r.name for r in ROWS)}")


def select_pair(vectors1, vectors2, prefer_pg2: bool):
    """First pair in search order, preferring p_g = 2 when requested."""
    first_valid = None
    for gv1 in vectors1:
        for gv2 in vectors2:
            if first_valid is None:
                first_valid = (gv1, gv2)
            if not prefer_pg2:
                return gv1, gv2
            if geometric_genus(gv1, gv2) == 2:
                return gv1, gv2
    if first_valid is not None:
        return first_valid
    raise NoWitness("search produced no generating vector pair")


def row_witnesses(name: str) -> tuple[GeneratingVector, GeneratingVector]:
    """Deterministic witness pair for a catalog row."""
    row = row_by_name(name)
    group = catalog_group(row.group_name)
    vectors1 = search_generating_vectors(group, 1, row.branch1)
    vectors2 = search_generating_vectors(group, 1, row.branch2)
    if not vectors1 or not vectors2:
        raise NoWitness(f"no generating vectors for row {row.name}")
    return select_pair(vectors1, vectors2, prefer_pg2=True)


# -- reference character numbering -------------------------------------------
#
# criterion forms:
#   ("trivial",)                  the trivial character
#   ("kernel", cycles)            the nontrivial linear character annihilating
#                                 the given catalog-realization element
#   ("unique_degree", d)          the unique nontrivial character of degree d
#   ("degree_not_self_dual", d)   smallest-index degree-d character that is
#                                 not self-dual (a complex-conjugate pair;
#                                 both constituents share a rational orbit)

CHARACTER_ALIASES: dict[tuple[str, int], tuple] = {
    ("V4", 1): ("trivial",),
    ("V4", 2): ("kernel", "(1,3)(2,4)"),
    ("V4", 3): ("kernel", "(1,2)(3,4)"),
    ("V4", 4): ("kernel", "(1,4)(2,3)"),
    ("S3", 1): ("trivial",),
    ("S3", 2): ("unique_degree", 1),
    ("S3", 3): ("unique_degree", 2),
    ("D4", 5): ("unique_degree", 2),
    ("A4", 4): ("unique_degree", 3),
    ("Q8", 5): ("unique_degree", 2),
    ("C2", 1): ("trivial",),
    ("C2", 2): ("unique_degree", 1),
    ("C4xC2semiC2", 9): ("degree_not_self_dual", 2),
}


def resolve_reference_character(group_name: str, ref_index: int) -> int:
    """Canonical complex-character index for a referenced table position."""
    try:
        criterion = CHARACTER_ALIASES[(group_name, ref_index)]
    except KeyError:
        raise UnknownName(
            f"character {ref_index} of {group_name} has no recorded matching criterion"
        ) from None
    group = catalog_group(group_name)
    table = character_table(group)
    if criterion[0] == "trivial":
        return 0  # ``character_table`` certifies that the trivial character is first
    if criterion[0] == "kernel":
        element = parse_permutation(criterion[1], group.degree)
        matches = [
            i
            for i, cf in enumerate(table.irreducibles)
            if table.degrees[i] == 1 and i != 0 and cf.at(element) == 1
        ]
        if len(matches) != 1:
            raise InternalInconsistency(
                f"{len(matches)} nontrivial linear characters of {group_name} "
                f"have {criterion[1]} in their kernel, not 1"
            )
        return matches[0]
    if criterion[0] == "unique_degree":
        matches = [i for i, d in enumerate(table.degrees) if d == criterion[1] and i != 0]
        if len(matches) != 1:
            raise InternalInconsistency(f"degree {criterion[1]} is not unique in {group_name}")
        return matches[0]
    if criterion[0] == "degree_not_self_dual":
        matches = [
            i
            for i, d in enumerate(table.degrees)
            if d == criterion[1] and table.dual[i] != i
        ]
        if not matches:
            raise InternalInconsistency(
                f"no non-self-dual degree-{criterion[1]} character in {group_name}"
            )
        return matches[0]
    raise AssertionError(f"unknown criterion {criterion!r}")  # pragma: no cover


def rational_index_of_complex(group: Group, complex_index: int) -> int:
    """Rational character (Galois orbit) containing a complex irreducible."""
    rats = rational_characters(character_table(group))
    for i, rc in enumerate(rats):
        if complex_index in rc.orbit:
            return i
    raise AssertionError("every complex character belongs to an orbit")  # pragma: no cover
