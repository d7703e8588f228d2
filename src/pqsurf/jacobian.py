"""Group-algebra decomposition of Jacobians and the K3-partner pairing.

For a curve C with G-action, the Jacobian decomposes up to isogeny as a
product B_1^{n_1} x ... x B_r^{n_r} indexed by the rational irreducible
representations; dim B_i = (1/2) <psi_i, chi_V> with chi_V the Hurwitz
character.  Pairing the decompositions of two curves locates the isogeny
factor whose Kummer surface carries the transcendental cohomology of the
quotient surface.

The decomposition label and the motive block are the paper's, for q = 2
with a surjective Albanese map, that is both base curves elliptic; off that
domain ``decomposition_label`` and ``motive_h2_decomposition`` return None.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .chars import (
    character_table,
    inner_product,
    rational_characters,
)
from .covering import GeneratingVector, hurwitz_character, genus, require_same_group
from .errors import InternalInconsistency
from .groups import Record, stored


@stored
def isotypical_dimensions(gv: GeneratingVector) -> tuple[int, ...]:
    """The reduced dimension d = (1/2) <psi, chi_V> of the factor B of each
    rational irreducible psi, in ``rational_characters`` order; B occurs
    n times, n being psi's ``multiplicity_n``."""
    rats = rational_characters(character_table(gv.group))
    chi_v = hurwitz_character(gv)
    dims = []
    for rc in rats:
        d = Fraction(inner_product(rc.psi, chi_v), 2)
        if d.denominator != 1 or d < 0:
            raise InternalInconsistency("reduced dimension must be a nonnegative integer")
        dims.append(int(d))
    if sum(d * rc.multiplicity_n for d, rc in zip(dims, rats)) != genus(gv):
        raise InternalInconsistency("dimension count must equal the genus")
    return tuple(dims)


def _prime_marks(count: int) -> str:
    return "'" * count


def decomposition_label(gv: GeneratingVector) -> Optional[str]:
    """Symbolic shape of the isogeny decomposition of J(C) over an elliptic
    base: one E per trivial-factor dimension, then L (1-dim), A (2-dim
    quaternionic) or B(d) per nontrivial factor, with multiplicities;
    None over any other base."""
    if gv.base_genus != 1:
        return None
    dims = isotypical_dimensions(gv)
    rats = rational_characters(character_table(gv.group))
    parts = ["E"] * dims[0]
    counters = {"L": 0, "A": 0, "B": 0}
    for d, rc in zip(dims[1:], rats[1:]):
        if d == 0:
            continue
        if d == 1:
            name = "L" + _prime_marks(counters["L"])
            counters["L"] += 1
        elif d == 2 and rc.quaternionic:
            name = "A" + _prime_marks(counters["A"])
            counters["A"] += 1
        else:
            name = f"B({d})" + _prime_marks(counters["B"])
            counters["B"] += 1
        if rc.multiplicity_n > 1:
            name += f"^{rc.multiplicity_n}"
        parts.append(name)
    return " x ".join(parts) if parts else "0"


class PairingMatch(Record):
    """Rational character ``rational_index``, of reduced dimension d1, d2 > 0
    on the two curves."""

    __slots__ = ("rational_index", "d1", "d2", "partner_label")


class PairingReport(Record):
    """Certificate data for the K3 partner of the quotient surface."""

    # status: "unique", "none" or "multiple"
    __slots__ = ("status", "matches", "rank_z2", "generic_k", "notes")


def _rank_z2(gv1: GeneratingVector, gv2: GeneratingVector) -> int:
    require_same_group(gv1, gv2)
    # rank Z = <chi1 chi2, 1> = <chi1, chi2>, since the Hurwitz characters are real
    rank_z = inner_product(hurwitz_character(gv1), hurwitz_character(gv2))
    if rank_z.denominator != 1:
        raise InternalInconsistency("rank of Z must be an integer")
    rank = rank_z.numerator - 4 * gv1.base_genus * gv2.base_genus
    if rank < 0 or rank % 2:
        raise InternalInconsistency(f"rank of Z2 must be even and nonnegative, not {rank}")
    return rank


@stored
def k3_pairing(gv1: GeneratingVector, gv2: GeneratingVector) -> PairingReport:
    """Locate the rational characters W with nonzero reduced dimension on the
    first curve whose dual W^v has nonzero reduced dimension on the second.
    Complex conjugation is the Galois twist by -1, so W^v is W's own orbit:
    W and its dual are the same rational character.

    A unique match with d = 1 on both sides certifies the Kummer surface of a
    product of elliptic curves as K3 partner; a quaternionic match (Schur
    index 2) certifies the Kummer surface of the 2-dimensional reduced factor.
    """
    group = require_same_group(gv1, gv2)
    rats = rational_characters(character_table(group))
    dims1, dims2 = isotypical_dimensions(gv1), isotypical_dimensions(gv2)

    matches = []
    notes = []
    for idx, (rc, d1, d2) in enumerate(zip(rats, dims1, dims2)):
        if idx == 0:
            continue  # the trivial character belongs to the Albanese part
        if d1 == 0 or d2 == 0:
            continue
        if d1 == 1 and d2 == 1:
            partner = "Km(L1 x L2)"
        elif rc.quaternionic and 2 in (d1, d2):
            partner = "Km(A)"
        else:
            partner = None
        matches.append(PairingMatch(rational_index=idx, d1=d1, d2=d2, partner_label=partner))
        if rc.quaternionic:
            notes.append(
                "quaternionic factor: the elliptic curve factors carry complex multiplication"
            )
        if rc.schur_index_unverified:
            notes.append("schur_index_unverified")

    if len(matches) == 1:
        status = "unique"
    elif not matches:
        status = "none"
        notes.append("NoMatch: no rational character pairs across the two curves")
    else:
        status = "multiple"
        notes.append("MultipleMatches: pairing flagged for review")

    rank_z2 = _rank_z2(gv1, gv2)
    generic_k = rank_z2 - 4
    notes.append("generic_k assumes Hom(L1, L2) = 0 (no isogenies between the factors)")
    return PairingReport(
        status=status,
        matches=tuple(matches),
        rank_z2=rank_z2,
        generic_k=generic_k,
        notes=tuple(notes),
    )


def motive_h2_decomposition(gv1: GeneratingVector, gv2: GeneratingVector) -> Optional[dict]:
    """Decompose h^2 = U + Z1 + Z2 + (exceptional classes) of the resolved
    quotient over elliptic bases, as the report's ``motive`` block: the ranks
    of the Albanese part U + Z1, and Z2 as one h1(L1) x h1(L2) per pairing
    match.  The rank of Z2 is ``k3_pairing(...).rank_z2`` and the exceptional
    rank is the surface's eta; each value has one home.  None unless both
    base genera are 1."""
    require_same_group(gv1, gv2)
    if gv1.base_genus != 1 or gv2.base_genus != 1:
        return None
    matches = k3_pairing(gv1, gv2).matches
    return {
        "rank_U": 2,
        "rank_Z1": 4 * gv1.base_genus * gv2.base_genus,
        "z2_label": " + ".join("h1(L1) x h1(L2)" for _ in matches) or None,
    }
