"""Full analysis pipeline for a pair of generating vectors, and report
rendering.  Reports are deterministic: identical inputs produce identical
bytes (the only run-dependent field is the tool version)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .chars import CharacterTable, character_table, rational_characters
from .covering import GeneratingVector, genus, hurwitz_character
from .groups import Group
from .jacobian import (
    IsotypicalFactor,
    MotiveDecomposition,
    PairingReport,
    decomposition_label,
    isotypical_dimensions,
    k3_pairing,
    motive_h2_decomposition,
)
from .lattice import GUARANTEED, CRITERION_NOT_SATISFIED
from .surface import RANK_NEW_NOTE, SurfaceReport, chevalley_weil, invariants


@dataclass(frozen=True)
class CurveSummary:
    base_genus: int
    orders: tuple[int, ...]
    genus: int
    hurwitz: tuple[int, ...]
    chevalley_weil: tuple[int, ...]
    factors: tuple[IsotypicalFactor, ...]
    label: Optional[str]
    handles: tuple[tuple[str, str], ...]
    monodromies: tuple[str, ...]


@dataclass(frozen=True)
class Analysis:
    group_label: str
    group: Group
    curves: tuple[CurveSummary, CurveSummary]
    surface: SurfaceReport
    motive: Optional[MotiveDecomposition]
    pairing: PairingReport
    embedding: Optional[str]
    warnings: tuple[str, ...]
    aux: Optional[tuple[str, tuple[IsotypicalFactor, ...]]] = None
    input_echo: Optional[str] = None
    version: str = __version__


def _curve_summary(gv: GeneratingVector) -> CurveSummary:
    chi_v = hurwitz_character(gv)
    cw = chevalley_weil(gv)
    factors = isotypical_dimensions(gv)
    label = decomposition_label(gv) if gv.base_genus == 1 else None
    return CurveSummary(
        base_genus=gv.base_genus,
        orders=gv.orders,
        genus=genus(gv),
        hurwitz=tuple(int(v) for v in chi_v.values),
        chevalley_weil=tuple(cw[i] for i in range(len(cw))),
        factors=factors,
        label=label,
        handles=tuple((a.cycle_string(), b.cycle_string()) for a, b in gv.handles),
        monodromies=tuple(c.cycle_string() for c in gv.monodromies),
    )


def analyze_pair(gv1: GeneratingVector, gv2: GeneratingVector, group_label: str = "") -> Analysis:
    """Run the whole pipeline on a validated pair of generating vectors."""
    group = gv1.group
    surf = invariants(gv1, gv2)
    pairing = k3_pairing(gv1, gv2)
    motive = None
    if gv1.base_genus == 1 and gv2.base_genus == 1:
        motive = motive_h2_decomposition(gv1, gv2)
    embedding = None
    if surf.signature_new is not None:
        embedding = GUARANTEED if 0 <= surf.signature_new[1] <= 8 else CRITERION_NOT_SATISFIED

    warnings = list(surf.warnings)
    rats = rational_characters(character_table(group))
    if any(rc.schur_index_unverified for rc in rats):
        warnings.append("schur_index_unverified")
    if pairing.matches:
        warnings.append("generic_k_assumes_no_isogenies")

    return Analysis(
        group_label=group_label or f"order-{group.order} group",
        group=group,
        curves=(_curve_summary(gv1), _curve_summary(gv2)),
        surface=surf,
        motive=motive,
        pairing=pairing,
        embedding=embedding,
        warnings=tuple(dict.fromkeys(warnings)),
    )


# -- serialization ----------------------------------------------------------

def _character_table_dict(table: CharacterTable) -> dict:
    return {
        "exponent": table.group.exponent,
        "degrees": list(table.degrees),
        "values": [
            [{str(a): m for a, m in v.multiplicities} for v in cf.values]
            for cf in table.irreducibles
        ],
    }


def _factor_dict(f: IsotypicalFactor) -> dict:
    return {
        "rational_char": f.rational_char_index,
        "d": f.reduced_dim,
        "n": f.multiplicity,
        "m": f.schur_index,
    }


def to_json_dict(analysis: Analysis) -> dict:
    group = analysis.group
    table = character_table(group)
    rats = rational_characters(table)
    out = {
        "version": analysis.version,
        "input": analysis.input_echo,
        "group": {
            "label": analysis.group_label,
            "order": group.order,
            "degree": group.degree,
            "exponent": group.exponent,
            "num_classes": len(group.classes),
            "class_sizes": list(group.class_sizes),
            "class_representatives": [r.cycle_string() for r in group.class_reps],
            "character_table": _character_table_dict(table),
            "rational_characters": [
                {
                    "orbit": list(rc.orbit),
                    "schur_index": rc.schur_index,
                    "multiplicity_n": rc.multiplicity_n,
                    "values": [int(v) for v in rc.psi.values],
                    "schur_index_unverified": rc.schur_index_unverified,
                }
                for rc in rats
            ],
        },
        "curves": [
            {
                "base_genus": c.base_genus,
                "orders": list(c.orders),
                "genus": c.genus,
                "handles": [list(h) for h in c.handles],
                "monodromies": list(c.monodromies),
                "hurwitz_character": list(c.hurwitz),
                "chevalley_weil": list(c.chevalley_weil),
                "isotypical_factors": [_factor_dict(f) for f in c.factors],
                "label": c.label,
            }
            for c in analysis.curves
        ],
        "surface": {
            "p_g": analysis.surface.p_g,
            "q": analysis.surface.q,
            "chi": analysis.surface.chi,
            "e_quotient": analysis.surface.e_quotient,
            "e": analysis.surface.e,
            "K2": analysis.surface.k2,
            "b2": analysis.surface.b2,
            "rank_new": analysis.surface.rank_new,
            "signature_new": list(analysis.surface.signature_new)
            if analysis.surface.signature_new
            else None,
            "eta": analysis.surface.eta,
            "family_dim": analysis.surface.family_dim,
            "singularities": [
                {"n": s.n, "q": s.q, "chain": list(s.hj_chain), "type": str(s)}
                for s in analysis.surface.singularities
            ],
        },
        "motive": {
            "rank_U": analysis.motive.rank_U,
            "rank_Z1": analysis.motive.rank_Z1,
            "rank_Z2": analysis.motive.rank_Z2,
            "eta": analysis.motive.eta,
            "z2_label": analysis.motive.z2_label,
            "partner_label": analysis.motive.partner_label,
            "generic_k": analysis.motive.generic_k,
            "generic": analysis.motive.generic,
        }
        if analysis.motive
        else None,
        "pairing": {
            "status": analysis.pairing.status,
            "rank_z2": analysis.pairing.rank_z2,
            "generic_k": analysis.pairing.generic_k,
            "matches": [
                {
                    "rational_char": m.rational_index,
                    "dual_char": m.rational_index,
                    "curve1": {"d": m.d1, "n": m.n1, "m": m.m1},
                    "curve2": {"d": m.d2, "n": m.n2, "m": m.m2},
                    "quaternionic": m.quaternionic,
                    "partner_label": m.partner_label,
                }
                for m in analysis.pairing.matches
            ],
            "notes": list(analysis.pairing.notes),
        },
        "lattice": {
            "rank_new": analysis.surface.rank_new,
            "transcendental_signature_bound": list(analysis.surface.signature_new)
            if analysis.surface.signature_new
            else None,
            "k3_embedding": analysis.embedding,
        },
        "warnings": list(analysis.warnings),
        "notes": {"rank_new_convention": RANK_NEW_NOTE},
    }
    if analysis.aux is not None:
        label, factors = analysis.aux
        out["aux_decomposition"] = {
            "group": label,
            "isotypical_factors": [_factor_dict(f) for f in factors],
        }
    return out


def to_json(analysis: Analysis) -> str:
    return json.dumps(to_json_dict(analysis), indent=2, sort_keys=True) + "\n"


def render_text(analysis: Analysis) -> str:
    surf = analysis.surface
    lines = []
    push = lines.append
    push(f"pqsurf {analysis.version}")
    push(
        f"group: {analysis.group_label} "
        f"(order {analysis.group.order}, degree {analysis.group.degree}, "
        f"{len(analysis.group.classes)} classes, exponent {analysis.group.exponent})"
    )
    for i, c in enumerate(analysis.curves, start=1):
        push(
            f"curve {i}: base genus {c.base_genus}, branch orders "
            f"({', '.join(str(m) for m in c.orders)}), genus {c.genus}"
        )
        push(f"  monodromies: {' '.join(c.monodromies) if c.monodromies else '-'}")
        push(f"  hurwitz character: ({', '.join(str(v) for v in c.hurwitz)})")
        push(f"  chevalley-weil multiplicities: ({', '.join(str(v) for v in c.chevalley_weil)})")
        dims = ", ".join(
            f"[{f.reduced_dim},{f.multiplicity},m={f.schur_index}]" for f in c.factors
        )
        push(f"  isotypical factors [d,n,m]: {dims}")
        if c.label:
            push(f"  jacobian decomposition: {c.label}")
    push(
        f"surface: p_g={surf.p_g} q={surf.q} chi={surf.chi} e={surf.e} "
        f"K^2={surf.k2} b2={surf.b2} eta={surf.eta}"
    )
    sing = ", ".join(str(s) for s in surf.singularities) if surf.singularities else "none"
    push(f"  singularities: {sing}")
    push(f"  family dimension: {surf.family_dim}")
    if surf.rank_new is not None:
        push(
            f"  H2_new: rank {surf.rank_new} = 12 - K^2, "
            f"transcendental signature bounded by {surf.signature_new}"
        )
    if analysis.motive:
        m = analysis.motive
        push(
            f"motive h2: U rank {m.rank_U}, Z1 rank {m.rank_Z1}, "
            f"Z2 rank {m.rank_Z2}, exceptional rank {m.eta}"
        )
        if m.z2_label:
            push(f"  Z2 = {m.z2_label} (+ Q(-1)^{m.generic_k} for generic members)")
    push(f"pairing: {analysis.pairing.status}")
    for match in analysis.pairing.matches:
        flag = " quaternionic" if match.quaternionic else ""
        partner = f" partner {match.partner_label}" if match.partner_label else ""
        push(
            f"  rational character {match.rational_index}: curve1 [d,n,m] = "
            f"[{match.d1},{match.n1},{match.m1}], curve2 = "
            f"[{match.d2},{match.n2},{match.m2}]{flag}{partner}"
        )
    if analysis.embedding is not None:
        push(
            f"lattice: signature bound {surf.signature_new}, "
            f"embedding into the K3 lattice: {analysis.embedding}"
        )
    if analysis.aux is not None:
        label, factors = analysis.aux
        dims = ", ".join(
            f"[{f.reduced_dim},{f.multiplicity},m={f.schur_index}]" for f in factors
        )
        push(f"aux decomposition over {label}: {dims}")
    push("warnings:")
    for w in analysis.warnings:
        push(f"  - {w}")
    push(f"note: {RANK_NEW_NOTE}")
    return "\n".join(lines) + "\n"
