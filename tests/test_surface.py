import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf.analysis import analyze_pair
from pqsurf.chars import ClassFunction, character_table
from pqsurf.covering import GeneratingVector, hurwitz_character, genus, search_generating_vectors
from pqsurf import surface
from pqsurf.errors import InternalInconsistency, NotCoprime, OutOfRange
from pqsurf.groups import catalog_group, group_from_generators
from pqsurf.perms import parse_permutation
from pqsurf.surface import (
    chevalley_weil,
    euler_characteristic,
    geometric_genus,
    hirzebruch_jung,
    invariants,
    quotient_singularities,
)
from conveniences import class_index
from cyclotomic_reference import Cyclotomic, value_cyc
from planted import planted
from test_covering import s3_branch3, v4_example_pair


def test_hirzebruch_jung_examples():
    assert hirzebruch_jung(2, 1) == (2,)
    assert hirzebruch_jung(3, 2) == (2, 2)
    assert hirzebruch_jung(3, 1) == (3,)
    assert hirzebruch_jung(5, 3) == (2, 3)
    with pytest.raises(NotCoprime):
        hirzebruch_jung(4, 2)
    with pytest.raises(OutOfRange):
        hirzebruch_jung(3, 3)
    with pytest.raises(OutOfRange):
        hirzebruch_jung(1, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.data())
def test_hirzebruch_jung_reconstructs_the_fraction(n, data):
    from math import gcd

    q = data.draw(
        st.integers(min_value=1, max_value=n - 1).filter(lambda q: gcd(q, n) == 1)
    )
    chain = hirzebruch_jung(n, q)
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - Fraction(1, value)
    assert value == Fraction(n, q)
    assert all(b >= 2 for b in chain)


def test_quotient_singularities_v4_free():
    gv1, gv2 = v4_example_pair()
    assert quotient_singularities(gv1, gv2) == ()


def test_quotient_singularities_s3_pair():
    gv = s3_branch3()
    sing = quotient_singularities(gv, gv)
    assert sing == ((3, 1), (3, 2))
    assert [hirzebruch_jung(n, q) for n, q in sing] == [(3,), (2, 2)]
    assert [s["type"] for s in invariants(gv, gv)["singularities"]] == ["1/3(1,1)", "1/3(1,2)"]


def test_quotient_singularities_a4_pair():
    G = catalog_group("A4")
    vectors = search_generating_vectors(G, 1, (2,))
    gv1, gv2 = vectors[0], vectors[1]
    assert quotient_singularities(gv1, gv2) == ((2, 1), (2, 1))


def test_chevalley_weil_unbranched():
    G = catalog_group("V4")
    etale = GeneratingVector(
        G,
        ((parse_permutation("(1,2)(3,4)", 4), parse_permutation("(1,3)(2,4)", 4)),),
        (), (),
    )
    mult = chevalley_weil(etale)
    trivial = 0  # canonical index of the trivial character for abelian groups
    assert mult[trivial] == 1


def test_chevalley_weil_v4_example():
    gv1, _ = v4_example_pair()
    mult = chevalley_weil(gv1)
    G = catalog_group("V4")
    ct = character_table(G)
    t10 = parse_permutation("(1,2)(3,4)", 4)
    expected = []
    for cf in ct.irreducibles:
        if all(value_cyc(cf, c) == 1 for c in range(len(G.classes))):
            expected.append(1)  # trivial
        elif value_cyc(cf, class_index(G, t10)) == 1:
            expected.append(0)  # annihilates the monodromy
        else:
            expected.append(1)
    assert mult == tuple(expected)


def test_chevalley_weil_s3():
    gv = s3_branch3()
    mult = chevalley_weil(gv)
    ct = character_table(catalog_group("S3"))
    by_degree = {}
    for i, n in enumerate(mult):
        by_degree.setdefault(ct.degrees[i], []).append(n)
    assert by_degree[2] == [1]          # the standard character appears once
    assert sorted(by_degree[1]) == [0, 1]  # trivial once, sign not at all


def test_chevalley_weil_conjugate_sum_is_hurwitz():
    # CW-1: chi_Omega + conjugate = chi_V, exactly
    for name, g0, orders in [("V4", 1, (2, 2)), ("S3", 1, (3,)), ("Q8", 1, (2,)), ("C4xC2semiC2", 0, (2, 2, 2, 4))]:
        G = catalog_group(name)
        ct = character_table(G)
        for gv in search_generating_vectors(G, g0, orders)[:4]:
            mult = chevalley_weil(gv)
            chi_v = hurwitz_character(gv)
            for c in range(len(G.classes)):
                total = Cyclotomic.zero(G.exponent)
                for i, n in enumerate(mult):
                    if n:
                        v = value_cyc(ct.irreducibles[i], c)
                        total = total + (v + v.conjugate()).scale(n)
                assert total == chi_v.values[c]


def test_euler_characteristic_examples():
    gv1, gv2 = v4_example_pair()
    assert euler_characteristic(gv1, gv2) == (4, 4)

    gv = s3_branch3()
    assert euler_characteristic(gv, gv) == (4, 7)

    G = catalog_group("A4")
    vectors = search_generating_vectors(G, 1, (2,))
    assert euler_characteristic(vectors[0], vectors[1]) == (4, 6)


def test_invariants_v4():
    gv1, gv2 = v4_example_pair()
    rep = invariants(gv1, gv2)
    assert (rep["p_g"], rep["q"], rep["chi"]) == (2, 2, 1)
    assert rep["K2"] == 8
    assert rep["eta"] == 0
    assert rep["family_dim"] == 4
    assert rep["b2"] == 10
    doc = analyze_pair(gv1, gv2)
    assert doc["lattice"]["rank_new"] == 4
    assert doc["lattice"]["transcendental_signature_bound"] == [2, 2]
    assert "rank_new_convention" in doc["warnings"]
    assert "NotPgQ2" not in doc["warnings"]


def test_invariants_s3_k2_5():
    gv = s3_branch3()
    rep = invariants(gv, gv)
    assert rep["K2"] == 5
    assert rep["eta"] == 3
    assert rep["family_dim"] == 2
    assert geometric_genus(gv, gv) == 2


def test_invariants_a4():
    G = catalog_group("A4")
    vectors = search_generating_vectors(G, 1, (2,))
    rep = invariants(vectors[0], vectors[1])
    assert rep["K2"] == 6
    assert rep["eta"] == 2
    assert rep["family_dim"] == 2


@pytest.mark.parametrize(
    "generators, degree, curve1, curve2, family_dim",
    [
        # P^1 with two branch points has no moduli: 0 + (3*0 - 3 + 3)
        (["(1,2,3)"], 3, (0, (3, 3)), (0, (3, 3, 3)), 0),
        # an unramified elliptic base has one modulus: 1 + (3*1 - 3 + 2)
        (["(1,2)"], 2, (1, ()), (1, (2, 2)), 3),
        # the trivial group: 0 + (3*2 - 3)
        (["()"], 1, (0, ()), (2, ()), 3),
    ],
    ids=["C3-rational", "C2-elliptic", "trivial"],
)
def test_family_dimension_on_rational_and_elliptic_bases(generators, degree, curve1, curve2, family_dim):
    """dim M_{g0,r} per curve, also where 2 g0 - 2 + r <= 0."""
    G = group_from_generators([parse_permutation(g, degree) for g in generators])
    gv1, gv2 = (search_generating_vectors(G, g0, orders)[0] for g0, orders in (curve1, curve2))
    assert invariants(gv1, gv2)["family_dim"] == family_dim


def test_noether_formula_holds_for_arbitrary_pairs():
    # e + K^2 = 12 chi by construction must stay consistent with b2
    G = catalog_group("D4")
    vectors = search_generating_vectors(G, 1, (2, 2))
    pairs = [(vectors[0], vectors[0]), (vectors[0], vectors[-1])]
    for gv1, gv2 in pairs:
        rep = invariants(gv1, gv2)
        assert rep["e"] + rep["K2"] == 12 * rep["chi"]
        assert rep["b2"] == rep["e"] - 2 + 4 * rep["q"]
        assert rep["eta"] == sum(len(s["chain"]) for s in rep["singularities"])


def test_singularity_chain_reconstruction():
    chain = hirzebruch_jung(7, 3)
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - Fraction(1, value)
    assert value == Fraction(7, 3)


def test_chevalley_weil_result_is_an_immutable_tuple():
    gv1, _ = v4_example_pair()
    mult = chevalley_weil(gv1)
    assert type(mult) is tuple
    assert chevalley_weil(gv1) == mult == chevalley_weil(v4_example_pair()[0])


def planted_table(monkeypatch, group, classes, value):
    """Let ``surface`` read a character table of ``group`` whose every
    irreducible, of degree d, takes the stored multiset value(d) at each
    class in ``classes``."""
    table = character_table(group)
    irreducibles = tuple(
        ClassFunction(group, tuple(value(d) if k in classes else v for k, v in enumerate(cf.values)))
        for cf, d in zip(table.irreducibles, table.degrees)
    )
    faulty = dataclasses.replace(table, irreducibles=irreducibles)
    monkeypatch.setattr(surface, "character_table", lambda group: faulty)


@planted
def test_planted_chevalley_weil_faults_are_internal_inconsistency(monkeypatch):
    # fresh vectors, so no multiplicities are kept on them yet
    s3 = catalog_group("S3")
    elliptic = dataclasses.replace(search_generating_vectors(s3, 1, (3,))[0])
    rational = dataclasses.replace(search_generating_vectors(s3, 0, (2, 2, 3))[0])
    three_cycles = {class_index(s3, elliptic.monodromies[0])}
    # a single eigenvalue zeta_3 = zeta_6^2 at the branch point of order 3 adds 1/3: not an integer
    planted_table(monkeypatch, s3, three_cycles, lambda d: ((2, 1),))
    with pytest.raises(InternalInconsistency, match="must be an integer"):
        surface.chevalley_weil(elliptic)
    # no eigenvalues at all leaves d (g0 - 1) = -d for a nontrivial character
    branch_classes = {class_index(s3, c) for c in rational.monodromies}
    planted_table(monkeypatch, s3, branch_classes, lambda d: ())
    with pytest.raises(InternalInconsistency, match="nonnegative"):
        surface.chevalley_weil(rational)
    assert surface.chevalley_weil.__wrapped__ not in elliptic._memo


@planted
def test_planted_chevalley_weil_genus_fault_is_internal_inconsistency(monkeypatch):
    # every eigenvalue 1 at the branch point: the trivial character once and
    # nothing else, dimension 1, where the S3 cover of signature (1; 3) has genus 3
    s3 = catalog_group("S3")
    elliptic = dataclasses.replace(search_generating_vectors(s3, 1, (3,))[0])
    assert genus(elliptic) == 3
    three_cycles = {class_index(s3, elliptic.monodromies[0])}
    planted_table(monkeypatch, s3, three_cycles, lambda d: ((0, d),))
    with pytest.raises(InternalInconsistency, match="must sum to the genus"):
        surface.chevalley_weil(elliptic)


def c4_rational_vector():
    """A fresh C4 cover of the line branched in orders (2, 4, 4), so that no
    pair stage is kept on it yet.  Its pair with itself has six points
    1/2(1,1) and four 1/4(1,1), p_g = 0 and K^2 = -4, and the dual map of
    C4 is not the identity."""
    return dataclasses.replace(search_generating_vectors(catalog_group("C4"), 0, (2, 4, 4))[0])


def test_c4_rational_pair_meets_the_basket_formulas():
    gv = c4_rational_vector()
    rep = invariants(gv, gv)
    sing = quotient_singularities(gv, gv)
    assert sing == ((2, 1),) * 6 + ((4, 1),) * 4
    assert (rep["p_g"], rep["q"], rep["K2"], rep["e"]) == (0, 0, -4, 16)
    assert surface._basket_formulas(4, genus(gv), genus(gv), sing) == (-4, 16)


@planted
def test_planted_dual_map_fault_is_internal_inconsistency(monkeypatch):
    # a dual map that forgets complex conjugation moves p_g, and K^2 with it,
    # while Noether still holds: p_g reads 1 on this pair
    gv = c4_rational_vector()
    table = character_table(gv.group)
    identity = tuple(range(len(table.dual)))
    assert table.dual != identity
    faulty = dataclasses.replace(table, dual=identity)
    monkeypatch.setattr(surface, "character_table", lambda group: faulty)
    with pytest.raises(InternalInconsistency, match="basket formulas give"):
        invariants(gv, gv)


@planted
def test_planted_rotation_fault_is_internal_inconsistency(monkeypatch):
    # _basket reporting 1/n(1,n-q) for 1/n(1,q): the four points 1/4(1,1)
    # turn into 1/4(1,3), whose longer chains raise eta and e
    basket = surface._basket
    monkeypatch.setattr(
        surface, "_basket", lambda *args: {(n, n - q): c for (n, q), c in basket(*args).items()}
    )
    gv = c4_rational_vector()
    with pytest.raises(InternalInconsistency, match="basket formulas give"):
        invariants(gv, gv)


@planted
def test_planted_dropped_singularity_is_internal_inconsistency(monkeypatch):
    # a singularity pass that misses one point 1/2(1,1)
    singularities = surface.quotient_singularities
    monkeypatch.setattr(surface, "quotient_singularities", lambda gv1, gv2: singularities(gv1, gv2)[1:])
    gv = c4_rational_vector()
    with pytest.raises(InternalInconsistency, match="basket formulas give"):
        invariants(gv, gv)


@planted
def test_planted_fixed_point_fault_fails_the_b2_certificate(monkeypatch):
    # the C4 vector fixes (4, 4, 2, 2) points by class; a count of 4 for the
    # last class keeps the Lefschetz average whole but moves e from 16 to 19
    counts = surface.fixed_point_counts
    monkeypatch.setattr(surface, "fixed_point_counts", lambda gv: counts(gv)[:3] + (4,))
    gv = c4_rational_vector()
    assert counts(gv) == (4, 4, 2, 2)
    with pytest.raises(InternalInconsistency, match=re.escape("b2 = 2 + D + eta = 14, not 17")) as raised:
        invariants(gv, gv)
    # e is wrong, so the basket formulas, checked first, fail as well
    assert str(raised.value).startswith("the basket formulas give (K^2, e) = (-4, 16), not (-7, 19); ")


@planted
def test_planted_dual_map_fault_fails_the_b2_certificate(monkeypatch):
    # a 3-cycle on the three nontrivial characters of C4, not the
    # conjugation: p_g stays 0, so the basket formulas still hold, but the
    # H^1 multiplicities pair to D = 1, not 2
    gv = c4_rational_vector()
    table = character_table(gv.group)
    assert table.dual == (0, 1, 3, 2)
    faulty = dataclasses.replace(table, dual=(0, 3, 1, 2))
    monkeypatch.setattr(surface, "character_table", lambda group: faulty)
    with pytest.raises(InternalInconsistency, match=re.escape("b2 = 2 + D + eta = 13, not 14")) as raised:
        invariants(gv, gv)
    assert "basket" not in str(raised.value)
