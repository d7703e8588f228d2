import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf.chars import ClassFunction, CyclotomicValue, character_table
from pqsurf.covering import GeneratingVector, hurwitz_character, genus, search_generating_vectors
from pqsurf import surface
from pqsurf.errors import InternalInconsistency, NotCoprime, OutOfRange
from pqsurf.groups import catalog_group
from pqsurf.perms import parse_permutation
from pqsurf.surface import (
    QuotientSingularity,
    chevalley_weil,
    euler_characteristic,
    geometric_genus,
    hirzebruch_jung,
    invariants,
    quotient_singularities,
)
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
    assert [(s.n, s.q) for s in sing] == [(3, 1), (3, 2)]
    assert [s.hj_chain for s in sing] == [(3,), (2, 2)]
    assert str(sing[0]) == "1/3(1,1)"


def test_quotient_singularities_a4_pair():
    G = catalog_group("A4")
    vectors = search_generating_vectors(G, 1, (2,))
    gv1, gv2 = vectors[0], vectors[1]
    sing = quotient_singularities(gv1, gv2)
    assert [(s.n, s.q) for s in sing] == [(2, 1), (2, 1)]


def test_chevalley_weil_unbranched():
    G = catalog_group("V4")
    etale = GeneratingVector(
        G, 1,
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
    expected = {}
    for i, cf in enumerate(ct.irreducibles):
        if all(v == 1 for v in cf.values):
            expected[i] = 1  # trivial
        elif cf.at(t10) == 1:
            expected[i] = 0  # annihilates the monodromy
        else:
            expected[i] = 1
    assert mult == expected


def test_chevalley_weil_s3():
    gv = s3_branch3()
    mult = chevalley_weil(gv)
    ct = character_table(catalog_group("S3"))
    by_degree = {}
    for i, n in mult.items():
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
                for i, n in mult.items():
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
    assert (rep.p_g, rep.q, rep.chi) == (2, 2, 1)
    assert rep.k2 == 8
    assert rep.eta == 0
    assert rep.family_dim == 4
    assert rep.b2 == 10
    assert rep.rank_new == 4
    assert rep.signature_new == (2, 2)
    assert "rank_new_convention" in rep.warnings
    assert "NotPgQ2" not in rep.warnings


def test_invariants_s3_k2_5():
    gv = s3_branch3()
    rep = invariants(gv, gv)
    assert rep.k2 == 5
    assert rep.eta == 3
    assert rep.family_dim == 2
    assert geometric_genus(gv, gv) == 2


def test_invariants_a4():
    G = catalog_group("A4")
    vectors = search_generating_vectors(G, 1, (2,))
    rep = invariants(vectors[0], vectors[1])
    assert rep.k2 == 6
    assert rep.eta == 2
    assert rep.family_dim == 2


def test_noether_formula_holds_for_arbitrary_pairs():
    # e + K^2 = 12 chi by construction must stay consistent with b2
    G = catalog_group("D4")
    vectors = search_generating_vectors(G, 1, (2, 2))
    pairs = [(vectors[0], vectors[0]), (vectors[0], vectors[-1])]
    for gv1, gv2 in pairs:
        rep = invariants(gv1, gv2)
        assert rep.e + rep.k2 == 12 * rep.chi
        assert rep.b2 == rep.e - 2 + 4 * rep.q
        assert rep.eta == sum(len(s.hj_chain) for s in rep.singularities)


def test_singularity_chain_reconstruction():
    s = QuotientSingularity(7, 3)
    value = Fraction(s.hj_chain[-1])
    for b in reversed(s.hj_chain[:-1]):
        value = b - Fraction(1, value)
    assert value == Fraction(7, 3)


def test_chevalley_weil_result_is_a_fresh_dict():
    gv1, _ = v4_example_pair()
    mult = chevalley_weil(gv1)
    expected = dict(mult)
    mult[0] += 5
    mult.clear()
    assert chevalley_weil(gv1) == expected
    assert chevalley_weil(gv1) is not chevalley_weil(gv1)


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
    three_cycles = {s3.class_index(elliptic.monodromies[0])}
    # a single eigenvalue zeta_3 = zeta_6^2 at the branch point of order 3 adds 1/3: not an integer
    planted_table(monkeypatch, s3, three_cycles, lambda d: CyclotomicValue(6, ((2, 1),)))
    with pytest.raises(InternalInconsistency, match="must be an integer"):
        surface.chevalley_weil(elliptic)
    # no eigenvalues at all leaves d (g0 - 1) = -d for a nontrivial character
    branch_classes = {s3.class_index(c) for c in rational.monodromies}
    planted_table(monkeypatch, s3, branch_classes, lambda d: CyclotomicValue(6, ()))
    with pytest.raises(InternalInconsistency, match="nonnegative"):
        surface.chevalley_weil(rational)
    assert surface._chevalley_weil.__wrapped__ not in elliptic._memo


@planted
def test_planted_chevalley_weil_genus_fault_is_internal_inconsistency(monkeypatch):
    # every eigenvalue 1 at the branch point: the trivial character once and
    # nothing else, dimension 1, where the S3 cover of signature (1; 3) has genus 3
    s3 = catalog_group("S3")
    elliptic = dataclasses.replace(search_generating_vectors(s3, 1, (3,))[0])
    assert genus(elliptic) == 3
    three_cycles = {s3.class_index(elliptic.monodromies[0])}
    planted_table(monkeypatch, s3, three_cycles, lambda d: CyclotomicValue(6, ((0, d),)))
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
    assert [(s.n, s.q) for s in rep.singularities] == [(2, 1)] * 6 + [(4, 1)] * 4
    assert (rep.p_g, rep.q, rep.k2, rep.e) == (0, 0, -4, 16)
    assert surface._basket_formulas(4, genus(gv), genus(gv), rep.singularities) == (-4, 16)


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
