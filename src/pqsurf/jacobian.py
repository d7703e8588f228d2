"""Group-algebra decomposition of Jacobians and the K3-partner pairing.

For a curve C with G-action, the Jacobian decomposes up to isogeny as a
product B_1^{n_1} x ... x B_r^{n_r} indexed by the rational irreducible
representations; dim B_i = (1/2) <psi_i, chi_V> with chi_V the Hurwitz
character.  Pairing the decompositions of two curves locates the isogeny
factor whose Kummer surface carries the transcendental cohomology of the
quotient surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chars import (
    character_table,
    inner_product,
    rational_characters,
)
from .covering import GeneratingVector, hurwitz_character, genus, require_same_group
from .errors import BaseGenusUnsupported, InternalInconsistency
from .groups import stored


@dataclass(frozen=True)
class IsotypicalFactor:
    rational_char_index: int
    reduced_dim: int      # dim of one reduced factor B_i
    multiplicity: int     # n_i, with B_i^{n_i} in the decomposition
    schur_index: int


@stored
def isotypical_dimensions(gv: GeneratingVector) -> tuple[IsotypicalFactor, ...]:
    """One factor per rational irreducible: d = (1/2) <psi, chi_V>."""
    table = character_table(gv.group)
    rats = rational_characters(table)
    chi_v = hurwitz_character(gv)
    factors = []
    for idx, rc in enumerate(rats):
        pairing = inner_product(rc.psi, chi_v)
        d = Fraction(pairing, 2)
        if d.denominator != 1 or d < 0:
            raise InternalInconsistency("reduced dimension must be a nonnegative integer")
        factors.append(
            IsotypicalFactor(
                rational_char_index=idx,
                reduced_dim=int(d),
                multiplicity=rc.multiplicity_n,
                schur_index=rc.schur_index,
            )
        )
    total = sum(f.reduced_dim * f.multiplicity for f in factors)
    if total != genus(gv):
        raise InternalInconsistency("dimension count must equal the genus")
    return tuple(factors)


def _prime_marks(count: int) -> str:
    return "'" * count


def decomposition_label(gv: GeneratingVector) -> str:
    """Symbolic shape of the isogeny decomposition of J(C) over an elliptic
    base: one E per trivial-factor dimension, then L (1-dim), A (2-dim
    quaternionic) or B(d) per nontrivial factor, with multiplicities."""
    if gv.base_genus != 1:
        raise BaseGenusUnsupported("labels are defined for base genus 1 only")
    factors = isotypical_dimensions(gv)
    parts = []
    for _ in range(factors[0].reduced_dim):
        parts.append("E")
    counters = {"L": 0, "A": 0, "B": 0}
    for f in factors[1:]:
        if f.reduced_dim == 0:
            continue
        if f.reduced_dim == 1:
            name = "L" + _prime_marks(counters["L"])
            counters["L"] += 1
        elif f.reduced_dim == 2 and f.schur_index == 2:
            name = "A" + _prime_marks(counters["A"])
            counters["A"] += 1
        else:
            name = f"B({f.reduced_dim})" + _prime_marks(counters["B"])
            counters["B"] += 1
        if f.multiplicity > 1:
            name += f"^{f.multiplicity}"
        parts.append(name)
    return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PairingMatch:
    rational_index: int
    d1: int
    n1: int
    m1: int
    d2: int
    n2: int
    m2: int
    quaternionic: bool
    partner_label: Optional[str]


@dataclass(frozen=True)
class PairingReport:
    """Certificate data for the K3 partner of the quotient surface."""

    status: str  # "unique" | "none" | "multiple"
    matches: tuple[PairingMatch, ...]
    rank_z2: int
    generic_k: int
    notes: tuple[str, ...]


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
    table = character_table(group)
    rats = rational_characters(table)
    dims1 = {f.rational_char_index: f for f in isotypical_dimensions(gv1)}
    dims2 = {f.rational_char_index: f for f in isotypical_dimensions(gv2)}

    matches = []
    notes = []
    for idx, rc in enumerate(rats):
        if idx == 0:
            continue  # the trivial character belongs to the Albanese part
        f1 = dims1[idx]
        f2 = dims2[idx]
        if f1.reduced_dim == 0 or f2.reduced_dim == 0:
            continue
        quaternionic = rc.schur_index == 2
        if f1.reduced_dim == 1 and f2.reduced_dim == 1:
            partner = "Km(L1 x L2)"
        elif quaternionic and 2 in (f1.reduced_dim, f2.reduced_dim):
            partner = "Km(A)"
        else:
            partner = None
        matches.append(
            PairingMatch(
                rational_index=idx,
                d1=f1.reduced_dim,
                n1=f1.multiplicity,
                m1=f1.schur_index,
                d2=f2.reduced_dim,
                n2=f2.multiplicity,
                m2=f2.schur_index,
                quaternionic=quaternionic,
                partner_label=partner,
            )
        )
        if quaternionic:
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


@dataclass(frozen=True)
class MotiveDecomposition:
    """Ranks of the Albanese pieces of the second cohomology motive
    h^2 = U + Z1 + Z2 + (exceptional classes), and the shape of Z2.  The
    rank of Z2 is ``k3_pairing(...).rank_z2`` and the exceptional rank is
    the surface's eta; each value has one home."""

    rank_U: int
    rank_Z1: int
    z2_label: Optional[str]


def motive_h2_decomposition(gv1: GeneratingVector, gv2: GeneratingVector) -> MotiveDecomposition:
    """Decompose h^2 of the resolved quotient: the Albanese part U + Z1 and
    the isotypical cross terms Z2, one h1(L1) x h1(L2) per pairing match."""
    require_same_group(gv1, gv2)
    if gv1.base_genus != 1 or gv2.base_genus != 1:
        raise BaseGenusUnsupported("motive decomposition requires elliptic bases")
    matches = k3_pairing(gv1, gv2).matches
    return MotiveDecomposition(
        rank_U=2,
        rank_Z1=4 * gv1.base_genus * gv2.base_genus,
        z2_label=" + ".join("h1(L1) x h1(L2)" for _ in matches) or None,
    )
