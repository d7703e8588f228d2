"""Cross-module consistency on inputs outside the p_g = q = 2 catalog:
the cohomological identities must hold for any valid pair."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf.analysis import analyze_pair
from pqsurf.chars import character_table, rational_characters
from pqsurf.covering import fixed_point_counts, fixed_point_data, genus, search_generating_vectors
from pqsurf.groups import catalog_group, group_from_generators
from pqsurf.jacobian import isotypical_dimensions, k3_pairing, motive_h2_decomposition
from pqsurf.lattice import IntegralLattice, determinant, signature
from pqsurf.perms import Permutation
from pqsurf.surface import euler_characteristic, hirzebruch_jung, invariants, quotient_singularities

from conveniences import value_at
from cyclotomic_reference import value_cyc


def test_c4_pair_with_order_4_singularities():
    G = catalog_group("C4")
    vecs = search_generating_vectors(G, 1, (4, 4))
    assert len(vecs) == 32
    assert genus(vecs[0]) == 4
    gv1, gv2 = vecs[0], vecs[1]
    sing = quotient_singularities(gv1, gv2)
    assert sorted((s.n, s.q) for s in sing) == [(4, 1), (4, 1), (4, 3), (4, 3)]
    assert sorted(s.hj_chain for s in sing) == [(2, 2, 2), (2, 2, 2), (4,), (4,)]
    rep = invariants(gv1, gv2)
    assert rep.eta == 8
    assert (rep.p_g, rep.q, rep.k2, rep.e) == (4, 2, 16, 20)
    assert "NotPgQ2" in analyze_pair(gv1, gv2)["warnings"]
    dec = motive_h2_decomposition(gv1, gv2)
    assert dec["rank_U"] + dec["rank_Z1"] + k3_pairing(gv1, gv2).rank_z2 + rep.eta == rep.b2 == 26


def test_c6_pair_with_order_6_singularities():
    G = catalog_group("C6")
    vecs = search_generating_vectors(G, 1, (6, 6))
    gv1, gv2 = vecs[0], vecs[1]
    sing = quotient_singularities(gv1, gv2)
    assert sorted((s.n, s.q) for s in sing) == [(6, 1), (6, 1), (6, 5), (6, 5)]
    rep = invariants(gv1, gv2)
    assert rep.eta == 2 * 1 + 2 * 5
    assert rep.e + rep.k2 == 12 * rep.chi
    dec = motive_h2_decomposition(gv1, gv2)
    assert dec["rank_U"] + dec["rank_Z1"] + k3_pairing(gv1, gv2).rank_z2 + rep.eta == rep.b2


def test_identities_hold_across_cross_pairs():
    G = catalog_group("D4")
    vecs2 = search_generating_vectors(G, 1, (2,))
    vecs22 = search_generating_vectors(G, 1, (2, 2))
    pairs = [(a, b) for a in vecs2[:2] for b in vecs22[:4]]
    for gv1, gv2 in pairs:
        rep = invariants(gv1, gv2)
        assert rep.e + rep.k2 == 12 * rep.chi
        assert rep.b2 == rep.e - 2 + 4 * rep.q
        dec = motive_h2_decomposition(gv1, gv2)
        assert dec["rank_U"] + dec["rank_Z1"] + k3_pairing(gv1, gv2).rank_z2 + rep.eta == rep.b2
        rats = rational_characters(character_table(G))
        for gv in (gv1, gv2):
            assert sum(
                d * rc.multiplicity_n for d, rc in zip(isotypical_dimensions(gv), rats)
            ) == genus(gv)


def _basket(gv1, gv2, types):
    """(K^2, e) of the resolved quotient from the genera and the basket of
    singularity types (Bauer-Catanese-Grunewald-Pignatelli):
    K^2 = 8(g1-1)(g2-1)/|G| - sum k_x, k_x = -2 + (2+q+q')/n + sum(b_i-2)
    with q q' = 1 mod n, and e = 4(g1-1)(g2-1)/|G| + sum(l_x + 1 - 1/n)."""
    base = Fraction((genus(gv1) - 1) * (genus(gv2) - 1), gv1.group.order)
    k2, e = 8 * base, 4 * base
    for n, q in types:
        chain = hirzebruch_jung(n, q)
        k2 -= -2 + Fraction(2 + q + pow(q, -1, n), n) + sum(b - 2 for b in chain)
        e += len(chain) + 1 - Fraction(1, n)
    return k2, e


def _basket_pairs():
    c5 = group_from_generators([Permutation((2, 3, 4, 5, 1))])
    c5_vecs = search_generating_vectors(c5, 0, (5, 5, 5))
    assert len(c5_vecs) == 12
    yield from ((a, b) for a in c5_vecs for b in c5_vecs)
    for name, orders in (("C4", (4, 4)), ("C6", (6, 6))):
        vecs = search_generating_vectors(catalog_group(name), 1, orders)[:6]
        yield from ((a, b) for a in vecs for b in vecs)
    for name, orders1, orders2 in (("D4", (2,), (2, 2)), ("A4", (2,), (2,)), ("Q8", (2,), (2,))):
        group = catalog_group(name)
        vecs1 = search_generating_vectors(group, 1, orders1)[:3]
        vecs2 = search_generating_vectors(group, 1, orders2)[:3]
        yield from ((a, b) for a in vecs1 for b in vecs2)


def test_basket_formulas_match_singularities():
    types_seen = set()
    for gv1, gv2 in _basket_pairs():
        rep = invariants(gv1, gv2)
        types = [(s.n, s.q) for s in rep.singularities]
        types_seen.update(types)
        assert _basket(gv1, gv2, types) == (rep.k2, rep.e)
    assert {(4, 1), (4, 3), (5, 2), (5, 3), (6, 1), (6, 5)} <= types_seen


def test_basket_formulas_reject_a_wrong_rotation():
    vecs = search_generating_vectors(catalog_group("C4"), 1, (4, 4))
    rep = invariants(vecs[0], vecs[1])
    (n, q), *rest = [(s.n, s.q) for s in rep.singularities]
    assert _basket(vecs[0], vecs[1], [(n, q)] + rest) == (rep.k2, rep.e)
    assert _basket(vecs[0], vecs[1], [(n, n - q)] + rest) != (rep.k2, rep.e)


def test_fixed_point_counts_match_the_coset_walk():
    walked = {}
    for gv1, gv2 in _basket_pairs():
        for gv in (gv1, gv2):
            if gv not in walked:
                reps = gv.group.class_reps[1:]
                walked[gv] = [len(fixed_point_data(gv, rep)) for rep in reps]
                assert list(fixed_point_counts(gv)[1:]) == walked[gv]
        # the Lefschetz average, with the fixed points counted by the walk
        group = gv1.group
        total = (2 - 2 * genus(gv1)) * (2 - 2 * genus(gv2)) + sum(
            size * f1 * f2
            for size, f1, f2 in zip(group.class_sizes[1:], walked[gv1], walked[gv2])
        )
        assert euler_characteristic(gv1, gv2)[0] == total // group.order
    assert len(walked) > 30


def test_s3_character_table_literal():
    # canonical class order: identity, transpositions, 3-cycles
    G = catalog_group("S3")
    ct = character_table(G)
    rows = [tuple(value_cyc(cf, c) for c in range(3)) for cf in ct.irreducibles]
    assert rows == [(1, 1, 1), (1, -1, 1), (2, 0, -1)]


def test_a4_degree3_eigenvalues_at_a_3cycle():
    G = catalog_group("A4")
    ct = character_table(G)
    std = ct.degrees.index(3)
    three_cycle = next(g for g in G.elements if g.order() == 3)
    # trace 0 on a 3-cycle: eigenvalues are the three cube roots of unity,
    # stored as powers of zeta_6 (A4 has exponent 6)
    value = value_at(ct.irreducibles[std], three_cycle)
    assert G.exponent == 6 and value == ((0, 1), (2, 1), (4, 1))


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [
        [draw(st.integers(min_value=-4, max_value=4)) for _ in range(n)]
        for _ in range(n)
    ]


@settings(max_examples=120, deadline=None)
@given(integer_matrices())
def test_signature_definite_oracle(rows):
    # A^T A is positive semidefinite; when nondegenerate its signature is (n, 0)
    n = len(rows)
    gram = [
        [sum(rows[k][i] * rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    lat = IntegralLattice(tuple(tuple(r) for r in gram))
    if determinant(lat) == 0:
        return
    assert signature(lat) == (n, 0)
    negated = IntegralLattice(tuple(tuple(-x for x in r) for r in gram))
    assert signature(negated) == (0, n)
