"""Full analysis pipeline for a pair of generating vectors, and its report.

``analyze_pair`` runs the pipeline stages and returns the report as one
JSON document: a dict whose leaves are str, int, bool or None.  ``to_json``
dumps that document and ``render_text`` formats it, so the text report is a
rendering of the JSON document.  Reports are deterministic: identical
inputs produce identical bytes (the only run-dependent field is the tool
version)."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from . import __version__
from .chars import character_table, rational_characters
from .covering import GeneratingVector, genus, hurwitz_character
from .jacobian import (
    IsotypicalFactor,
    decomposition_label,
    isotypical_dimensions,
    k3_pairing,
    motive_h2_decomposition,
)
from .lattice import GUARANTEED, CRITERION_NOT_SATISFIED
from .surface import RANK_NEW_NOTE, chevalley_weil, invariants


def _factors(factors: tuple[IsotypicalFactor, ...]) -> list[dict]:
    return [
        {
            "rational_char": f.rational_char_index,
            "d": f.reduced_dim,
            "n": f.multiplicity,
            "m": f.schur_index,
        }
        for f in factors
    ]


def _curve(gv: GeneratingVector) -> dict:
    return {
        "base_genus": gv.base_genus,
        "orders": list(gv.orders),
        "genus": genus(gv),
        "handles": [[a.cycle_string(), b.cycle_string()] for a, b in gv.handles],
        "monodromies": [c.cycle_string() for c in gv.monodromies],
        "hurwitz_character": [int(v) for v in hurwitz_character(gv).values],
        "chevalley_weil": list(chevalley_weil(gv).values()),
        "isotypical_factors": _factors(isotypical_dimensions(gv)),
        "label": decomposition_label(gv) if gv.base_genus == 1 else None,
    }


def analyze_pair(
    gv1: GeneratingVector,
    gv2: GeneratingVector,
    group_label: str = "",
    aux: Optional[tuple[str, GeneratingVector]] = None,
) -> dict:
    """Run the whole pipeline on a validated pair of generating vectors and
    return the report document.  ``aux`` is a ``(label, vector)`` over
    another group whose isotypical decomposition the report adds.  The
    document's ``"input"`` is None, for the caller to set to the
    description text."""
    group = gv1.group
    surf = invariants(gv1, gv2)
    pairing = k3_pairing(gv1, gv2)
    motive = None
    if gv1.base_genus == 1 and gv2.base_genus == 1:
        motive = motive_h2_decomposition(gv1, gv2)
    signature = embedding = None
    if surf.signature_new is not None:
        signature = list(surf.signature_new)
        embedding = GUARANTEED if 0 <= signature[1] <= 8 else CRITERION_NOT_SATISFIED

    table = character_table(group)
    rats = rational_characters(table)
    warnings = list(surf.warnings)
    if any(rc.schur_index_unverified for rc in rats):
        warnings.append("schur_index_unverified")
    if pairing.matches:
        warnings.append("generic_k_assumes_no_isogenies")

    doc = {
        "version": __version__,
        "input": None,
        "group": {
            "label": group_label or f"order-{group.order} group",
            "order": group.order,
            "degree": group.degree,
            "exponent": group.exponent,
            "num_classes": len(group.classes),
            "class_sizes": list(group.class_sizes),
            "class_representatives": [r.cycle_string() for r in group.class_reps],
            "character_table": {
                "exponent": group.exponent,
                "degrees": list(table.degrees),
                "values": [
                    [{str(a): m for a, m in v.multiplicities} for v in cf.values]
                    for cf in table.irreducibles
                ],
            },
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
        "curves": [_curve(gv1), _curve(gv2)],
        "surface": {
            "p_g": surf.p_g,
            "q": surf.q,
            "chi": surf.chi,
            "e_quotient": surf.e_quotient,
            "e": surf.e,
            "K2": surf.k2,
            "b2": surf.b2,
            "rank_new": surf.rank_new,
            "signature_new": signature,
            "eta": surf.eta,
            "family_dim": surf.family_dim,
            "singularities": [
                {"n": s.n, "q": s.q, "chain": list(s.hj_chain), "type": str(s)}
                for s in surf.singularities
            ],
        },
        # the keys are MotiveDecomposition's field names
        "motive": asdict(motive) if motive is not None else None,
        "pairing": {
            "status": pairing.status,
            "rank_z2": pairing.rank_z2,
            "generic_k": pairing.generic_k,
            "matches": [
                {
                    "rational_char": m.rational_index,
                    "dual_char": m.rational_index,
                    "curve1": {"d": m.d1, "n": m.n1, "m": m.m1},
                    "curve2": {"d": m.d2, "n": m.n2, "m": m.m2},
                    "quaternionic": m.quaternionic,
                    "partner_label": m.partner_label,
                }
                for m in pairing.matches
            ],
            "notes": list(pairing.notes),
        },
        "lattice": {
            "rank_new": surf.rank_new,
            "transcendental_signature_bound": signature,
            "k3_embedding": embedding,
        },
        "notes": {"rank_new_convention": RANK_NEW_NOTE},
    }
    if aux is not None:
        label, aux_gv = aux
        aux_rats = rational_characters(character_table(aux_gv.group))
        if any(rc.schur_index_unverified for rc in aux_rats):
            warnings.append("schur_index_unverified")
        doc["aux_decomposition"] = {
            "group": label,
            "isotypical_factors": _factors(isotypical_dimensions(aux_gv)),
        }
    doc["warnings"] = list(dict.fromkeys(warnings))
    return doc


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _seq(values) -> str:
    return f"({', '.join(str(v) for v in values)})"


def _dims(factors: list[dict]) -> str:
    return ", ".join(f"[{f['d']},{f['n']},m={f['m']}]" for f in factors)


def render_text(doc: dict) -> str:
    """The text report: a rendering of the document ``analyze_pair`` returns."""
    group, surf, pairing = doc["group"], doc["surface"], doc["pairing"]
    lines = [
        f"pqsurf {doc['version']}",
        f"group: {group['label']} (order {group['order']}, degree {group['degree']}, "
        f"{group['num_classes']} classes, exponent {group['exponent']})",
    ]
    push = lines.append
    for i, c in enumerate(doc["curves"], start=1):
        push(
            f"curve {i}: base genus {c['base_genus']}, branch orders "
            f"{_seq(c['orders'])}, genus {c['genus']}"
        )
        push(f"  monodromies: {' '.join(c['monodromies']) or '-'}")
        push(f"  hurwitz character: {_seq(c['hurwitz_character'])}")
        push(f"  chevalley-weil multiplicities: {_seq(c['chevalley_weil'])}")
        push(f"  isotypical factors [d,n,m]: {_dims(c['isotypical_factors'])}")
        if c["label"]:
            push(f"  jacobian decomposition: {c['label']}")
    push(
        f"surface: p_g={surf['p_g']} q={surf['q']} chi={surf['chi']} e={surf['e']} "
        f"K^2={surf['K2']} b2={surf['b2']} eta={surf['eta']}"
    )
    push(f"  singularities: {', '.join(s['type'] for s in surf['singularities']) or 'none'}")
    push(f"  family dimension: {surf['family_dim']}")
    if surf["rank_new"] is not None:
        push(
            f"  H2_new: rank {surf['rank_new']} = 12 - K^2, "
            f"transcendental signature bounded by {_seq(surf['signature_new'])}"
        )
    m = doc["motive"]
    if m is not None:
        push(
            f"motive h2: U rank {m['rank_U']}, Z1 rank {m['rank_Z1']}, "
            f"Z2 rank {m['rank_Z2']}, exceptional rank {m['eta']}"
        )
        if m["z2_label"]:
            push(f"  Z2 = {m['z2_label']} (+ Q(-1)^{m['generic_k']} for generic members)")
    push(f"pairing: {pairing['status']}")
    for match in pairing["matches"]:
        c1, c2 = match["curve1"], match["curve2"]
        flag = " quaternionic" if match["quaternionic"] else ""
        partner = f" partner {match['partner_label']}" if match["partner_label"] else ""
        push(
            f"  rational character {match['rational_char']}: curve1 [d,n,m] = "
            f"[{c1['d']},{c1['n']},{c1['m']}], curve2 = "
            f"[{c2['d']},{c2['n']},{c2['m']}]{flag}{partner}"
        )
    lattice = doc["lattice"]
    if lattice["k3_embedding"] is not None:
        push(
            f"lattice: signature bound {_seq(lattice['transcendental_signature_bound'])}, "
            f"embedding into the K3 lattice: {lattice['k3_embedding']}"
        )
    aux = doc.get("aux_decomposition")
    if aux is not None:
        push(f"aux decomposition over {aux['group']}: {_dims(aux['isotypical_factors'])}")
    push("warnings:")
    lines.extend(f"  - {w}" for w in doc["warnings"])
    push(f"note: {doc['notes']['rank_new_convention']}")
    return "\n".join(lines) + "\n"
