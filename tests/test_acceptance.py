"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; all tolerances are exact integer/rational equality.
"""

import random
import time

from pqsurf.catalog import ROWS, row_witnesses
from pqsurf.chars import (
    character_table,
    frobenius_schur,
    inner_product,
    rational_characters,
)
from pqsurf.cli import reproduce_tables
from pqsurf.covering import (
    GeneratingVector,
    genus,
    hurwitz_character,
    search_generating_vectors,
)
from pqsurf.groups import CATALOG_NAMES, catalog_group
from pqsurf.jacobian import isotypical_dimensions, k3_pairing, motive_h2_decomposition
from pqsurf.lattice import (
    GUARANTEED,
    determinant,
    direct_sum,
    discriminant_group,
    e8_minus,
    hyperbolic_plane,
    is_even,
    k3_embeddable,
    k3_lattice,
    lambda_d,
    rank1,
    signature,
)
from pqsurf.perms import parse_permutation
from pqsurf.surface import chevalley_weil, invariants

from conveniences import class_index, rescale
from cyclotomic_reference import Cyclotomic, field_inner_product, value_cyc


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


CATALOG_SIGNATURES = tuple(
    dict.fromkeys((row.group_name, 1, row.branch1) for row in ROWS)
    | dict.fromkeys((row.group_name, 1, row.branch2) for row in ROWS)
)


def test_criterion_1_surface_table_reproduction():
    start = time.monotonic()
    expected_k2 = []
    computed_k2 = []
    ok = True
    for row in ROWS:
        gv1, gv2 = row_witnesses(row.name)
        rep = invariants(gv1, gv2)
        expected_k2.append(row.k2)
        computed_k2.append(rep["K2"])
        sing = tuple((s["n"], s["q"]) for s in rep["singularities"])
        ok = ok and rep["K2"] == row.k2
        ok = ok and sing == row.singularities
        ok = ok and rep["eta"] == row.eta
        ok = ok and rep["family_dim"] == row.family_dim
        ok = ok and (genus(gv1), genus(gv2)) == row.genera
        ok = ok and rep["p_g"] == 2 and rep["q"] == 2
    elapsed = time.monotonic() - start
    ok = ok and computed_k2 == expected_k2 == [8, 8, 8, 6, 5, 4, 4, 4]
    ok = ok and [row.eta for row in ROWS] == [0, 0, 0, 2, 3, 4, 4, 4]
    ok = ok and [row.family_dim for row in ROWS] == [4, 3, 3, 2, 2, 2, 2, 4]
    ok = ok and elapsed < 10.0
    _report("1 (surface-invariant table)", ok, f"{elapsed:.2f}s, single thread")


def test_criterion_2_jacobian_table_reproduction():
    results = reproduce_tables()
    ok = all(r["ok"] for r in results)
    paired = {r["row"]: tuple(r["paired_dn"]) for r in results}
    ok = ok and paired["Q8"] == (2, 1)
    ok = ok and paired["S3-8"] == (1, 2) and paired["S3-5"] == (1, 2)
    ok = ok and paired["D4-8"] == (1, 2) and paired["D4-4"] == (1, 2)
    # the row's (n, m) pins the matched character: on every group but V4,
    # whose three linear characters Aut(V4) permutes, no other nontrivial
    # rational character has it
    for row in ROWS:
        if row.group_name == "V4":
            continue
        gv1, gv2 = row_witnesses(row.name)
        match = k3_pairing(gv1, gv2).matches[0]
        rats = rational_characters(character_table(catalog_group(row.group_name)))
        same_n_m = [
            i for i, rc in enumerate(rats)
            if i != 0 and (rc.multiplicity_n, rc.schur_index) == row.paired[1:]
        ]
        ok = ok and same_n_m == [match.rational_index]
    _report("2 (jacobian table)", ok)


def test_criterion_3_worked_example():
    G = catalog_group("V4")
    p = lambda s: parse_permutation(s, 4)
    gv1 = GeneratingVector(
        G, ((p("(1,3)(2,4)"), p("()")),),
        (p("(1,2)(3,4)"), p("(1,2)(3,4)")), (2, 2),
    )
    gv2 = GeneratingVector(
        G, ((p("(1,2)(3,4)"), p("()")),),
        (p("(1,3)(2,4)"), p("(1,3)(2,4)")), (2, 2),
    )
    ok = hurwitz_character(gv1).values == (6, -2, 2, 2)
    ok = ok and genus(gv1) == 3 and genus(gv2) == 3

    # dims in the labelling (chi_00, chi_01, chi_10, chi_11), where
    # (1,0) = (1,2)(3,4) and (0,1) = (1,3)(2,4)
    ct = character_table(G)
    t10, t01, t11 = p("(1,2)(3,4)"), p("(1,3)(2,4)"), p("(1,4)(2,3)")

    def paper_order(gv):
        rats = rational_characters(ct)
        dims = {}
        for i, (d, rc) in enumerate(zip(isotypical_dimensions(gv), rats)):
            cf = ct.irreducibles[rc.orbit[0]]
            if i == 0:
                dims["triv"] = d
            elif value_cyc(cf, class_index(G, t01)) == 1:
                dims["chi01"] = d
            elif value_cyc(cf, class_index(G, t10)) == 1:
                dims["chi10"] = d
            else:
                assert value_cyc(cf, class_index(G, t11)) == 1
                dims["chi11"] = d
        return (dims["triv"], dims["chi01"], dims["chi10"], dims["chi11"])

    ok = ok and paper_order(gv1) == (1, 1, 0, 1)
    ok = ok and paper_order(gv2) == (1, 0, 1, 1)
    _report("3 (explicit V4 example)", ok)


def test_criterion_4_q8_quaternionic_detection():
    G = catalog_group("Q8")
    ct = character_table(G)
    deg2 = ct.degrees.index(2)
    ok = frobenius_schur(ct, deg2) == -1
    rc = next(rc for rc in rational_characters(ct) if deg2 in rc.orbit)
    ok = ok and rc.schur_index == 2 and rc.multiplicity_n == 1
    gv = search_generating_vectors(G, 1, (2,))[0]
    # psi = 2*chi gives d = (1/2)<psi, chi_V> = 2
    d = inner_product(rc.psi, hurwitz_character(gv)) / 2
    ok = ok and d == 2
    factors = [
        (d, rc.multiplicity_n)
        for i, (d, rc) in enumerate(zip(isotypical_dimensions(gv), rational_characters(ct)))
        if d and i
    ]
    ok = ok and factors == [(2, 1)]
    _report("4 (quaternionic case)", ok)


def test_criterion_5_lattice_facts():
    lam = k3_lattice()
    ok = is_even(lam) and abs(determinant(lam)) == 1 and signature(lam) == (3, 19)
    for d in (1, 2, 3, 5):
        ld = lambda_d(d)
        ok = ok and signature(ld) == (2, 19)
        disc = discriminant_group(ld)
        ok = ok and disc.invariant_factors == (2 * d,) and disc.ell == 1

    rng = random.Random(20260809)
    checked = 0
    for _ in range(100):
        n_u = rng.choice((0, 1, 2))
        parts = [hyperbolic_plane()] * n_u
        # fill the positive part up to s_+ = 2 with rescaled rank-1 pieces
        for _ in range(2 - n_u):
            parts.append(rescale(rank1(rng.randint(1, 6)), -1))
        budget = 8 - n_u
        if budget == 8 and rng.random() < 0.4:
            parts.append(e8_minus())
            budget = 0
        for _ in range(rng.randint(0, budget)):
            parts.append(rank1(rng.randint(1, 6)))
        rng.shuffle(parts)
        lattice = direct_sum(*parts)
        s = signature(lattice)
        assert s[0] == 2 and 0 <= s[1] <= 8 and is_even(lattice)
        ok = ok and k3_embeddable(lattice) == GUARANTEED
        checked += 1
    ok = ok and checked == 100
    _report("5 (lattice facts)", ok, "100 randomized instances")


def test_criterion_6_character_property_suite():
    start = time.monotonic()
    ok = True
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        ct = character_table(G)
        ok = ok and sum(d * d for d in ct.degrees) == G.order
        k = len(G.classes)
        for i in range(k):
            for j in range(k):
                ok = ok and field_inner_product(ct.irreducibles[i], ct.irreducibles[j]) == (
                    1 if i == j else 0
                )
        for c1 in range(k):
            for c2 in range(k):
                total = Cyclotomic.zero(G.exponent)
                for cf in ct.irreducibles:
                    total = total + value_cyc(cf, c1) * value_cyc(cf, c2).conjugate()
                expected = G.order // G.class_sizes[c1] if c1 == c2 else 0
                ok = ok and total == expected
    # abelian groups against the brute-force homomorphism oracle
    from test_chars import abelian_table_oracle, table_exponents

    for name in ("C2", "C4", "C6", "V4"):
        G = catalog_group(name)
        ok = ok and table_exponents(G) == abelian_table_oracle(G)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report("6 (character tables, 9 groups)", ok, f"{elapsed:.2f}s")


def test_criterion_7_covering_hodge_consistency():
    vectors = []
    for name, g0, orders in CATALOG_SIGNATURES:
        G = catalog_group(name)
        vectors.extend(search_generating_vectors(G, g0, orders))
    ok = len(vectors) >= 50
    for gv in vectors:
        G = gv.group
        ct = character_table(G)
        chi_v = hurwitz_character(gv)
        ok = ok and chi_v.values[0] == 2 * genus(gv)
        mults = chevalley_weil(gv)
        for c in range(len(G.classes)):
            total = Cyclotomic.zero(G.exponent)
            for i, n in enumerate(mults):
                if n:
                    v = value_cyc(ct.irreducibles[i], c)
                    total = total + (v + v.conjugate()).scale(n)
            ok = ok and total == chi_v.values[c]
        dims = zip(isotypical_dimensions(gv), rational_characters(ct))
        ok = ok and sum(d * rc.multiplicity_n for d, rc in dims) == genus(gv)
    # pair identities on the eight catalog rows
    for row in ROWS:
        gv1, gv2 = row_witnesses(row.name)
        rep = invariants(gv1, gv2)
        ok = ok and rep["e"] + rep["K2"] == 12 * rep["chi"]
        dec = motive_h2_decomposition(gv1, gv2)
        rank_z2 = k3_pairing(gv1, gv2).rank_z2
        ok = ok and dec["rank_U"] + dec["rank_Z1"] + rank_z2 + rep["eta"] == rep["b2"]
    _report("7 (covering/Hodge suite)", ok, f"{len(vectors)} vectors")


def test_criterion_8_rank_discrepancy_guard():
    from pqsurf.analysis import analyze_pair

    ok = True
    for row in ROWS:
        gv1, gv2 = row_witnesses(row.name)
        doc = analyze_pair(gv1, gv2, group_label=row.group_name)
        lattice = doc["lattice"]
        ok = ok and lattice["rank_new"] == 12 - doc["surface"]["K2"]
        ok = ok and "rank_new_convention" in doc["warnings"]
        ok = ok and "rank_new_convention" in doc["notes"]
        n = lattice["transcendental_signature_bound"][1]
        ok = ok and 0 <= n <= 8
        ok = ok and lattice["k3_embedding"] == GUARANTEED
    _report("8 (rank convention guard)", ok)
