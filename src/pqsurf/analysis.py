"""Full analysis pipeline for a pair of generating vectors, and its report.

``analyze_pair`` runs the pipeline stages and returns the report as one
JSON document: a dict whose leaves are str, int, bool or None.  ``to_json``
dumps that document and ``render_text`` formats it, so the text report is a
rendering of the JSON document.  The document (``"schema": 2``) keeps each
value under one key, listed in the README's "Report keys" table, and the
text report reads each value from that key.  Reports are deterministic:
identical inputs produce identical bytes (the only run-dependent field is
the tool version)."""

from __future__ import annotations

import json
from typing import Optional

from . import __version__
from .chars import character_table, rational_characters
from .covering import GeneratingVector, genus, hurwitz_character
from .jacobian import (
    decomposition_label,
    isotypical_dimensions,
    k3_pairing,
    motive_h2_decomposition,
)
from .lattice import GUARANTEED, CRITERION_NOT_SATISFIED, k3_signature_guaranteed
from .surface import chevalley_weil, invariants

RANK_NEW_NOTE = (
    "rank_new is computed as b2 - 6 = 12 - K^2 from the Betti-number "
    "derivation (b2 = e + 6 when b1 = 4); some references state 14 - K^2 "
    "for this rank, which is inconsistent with the displayed arithmetic."
)


def _factor(d: int, rc) -> dict:
    return {"d": d, "n": rc.multiplicity_n, "m": rc.schur_index}


def _factors(gv: GeneratingVector) -> list[dict]:
    rats = rational_characters(character_table(gv.group))
    return [
        {"rational_char": i, **_factor(d, rc)}
        for i, (d, rc) in enumerate(zip(isotypical_dimensions(gv), rats))
    ]


def _curve(gv: GeneratingVector) -> dict:
    return {
        "base_genus": gv.base_genus,
        "orders": list(gv.orders),
        "genus": genus(gv),
        "handles": [[a.cycle_string(), b.cycle_string()] for a, b in gv.handles],
        "monodromies": [c.cycle_string() for c in gv.monodromies],
        "hurwitz_character": [int(v) for v in hurwitz_character(gv).values],
        "chevalley_weil": list(chevalley_weil(gv)),
        "isotypical_factors": _factors(gv),
        "label": decomposition_label(gv),
    }


def analyze_pair(
    gv1: GeneratingVector,
    gv2: GeneratingVector,
    group_label: str = "",
    aux: Optional[tuple[str, GeneratingVector]] = None,
) -> dict:
    """Run the whole pipeline on a pair of generating vectors and
    return the report document.  ``aux`` is a ``(label, vector)`` over
    another group whose isotypical decomposition the report adds.  The
    document's ``"input"`` is None, for the caller to set to the
    description text."""
    group = gv1.group
    surf = invariants(gv1, gv2)
    pairing = k3_pairing(gv1, gv2)
    # with q = 2 the Albanese map is surjective exactly when both base
    # curves are elliptic: H^1(S) is H^1(C1/G) + H^1(C2/G)
    surjective = gv1.base_genus == 1 and gv2.base_genus == 1
    rank_new = signature = embedding = None
    # the K3-type piece is the paper's, for p_g = q = 2 and a surjective map
    if (surf["p_g"], surf["q"]) == (2, 2) and surjective:
        rank_new = surf["b2"] - 6
        signature = [2, rank_new - 2]
        embedding = GUARANTEED if k3_signature_guaranteed(signature) else CRITERION_NOT_SATISFIED

    table = character_table(group)
    rats = rational_characters(table)
    warnings = [] if (surf["p_g"], surf["q"]) == (2, 2) else ["NotPgQ2"]
    if surf["q"] == 2 and not surjective:
        warnings.append("AlbaneseNotSurjective")
    warnings.append("rank_new_convention")
    if any(rc.schur_index_unverified for rc in rats):
        warnings.append("schur_index_unverified")
    if pairing.matches:
        warnings.append("generic_k_assumes_no_isogenies")

    doc = {
        "schema": 2,
        "version": __version__,
        "input": None,
        "group": {
            "label": group_label or f"order-{group.order} group",
            "order": group.order,
            "degree": group.degree,
            "class_sizes": list(group.class_sizes),
            "class_representatives": [r.cycle_string() for r in group.class_reps],
            "character_table": {
                "exponent": group.exponent,
                "degrees": list(table.degrees),
                "values": [
                    [{str(a): m for a, m in v} for v in cf.values]
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
        "surface": surf,
        "motive": motive_h2_decomposition(gv1, gv2),
        "pairing": {
            "status": pairing.status,
            "rank_z2": pairing.rank_z2,
            "generic_k": pairing.generic_k,
            "matches": [
                {
                    "rational_char": m.rational_index,
                    "curve1": _factor(m.d1, rats[m.rational_index]),
                    "curve2": _factor(m.d2, rats[m.rational_index]),
                    "quaternionic": rats[m.rational_index].quaternionic,
                    "partner_label": m.partner_label,
                }
                for m in pairing.matches
            ],
            "notes": list(pairing.notes),
        },
        "lattice": {
            "rank_new": rank_new,
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
            "isotypical_factors": _factors(aux_gv),
        }
    doc["warnings"] = list(dict.fromkeys(warnings))
    return doc


def to_json(doc: dict | list) -> str:
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
        f"{len(group['class_sizes'])} classes, exponent {group['character_table']['exponent']})",
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
    lattice = doc["lattice"]
    if lattice["rank_new"] is not None:
        push(
            f"  H2_new: rank {lattice['rank_new']} = 12 - K^2, transcendental signature "
            f"bounded by {_seq(lattice['transcendental_signature_bound'])}"
        )
    m = doc["motive"]
    if m is not None:
        push(
            f"motive h2: U rank {m['rank_U']}, Z1 rank {m['rank_Z1']}, "
            f"Z2 rank {pairing['rank_z2']}, exceptional rank {surf['eta']}"
        )
        if m["z2_label"]:
            push(f"  Z2 = {m['z2_label']} (+ Q(-1)^{pairing['generic_k']} for generic members)")
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
