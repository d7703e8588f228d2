import pytest

from pqsurf import jacobian
from pqsurf.chars import ClassFunction
from pqsurf.covering import genus, search_generating_vectors
from pqsurf.errors import BaseGenusUnsupported, InternalInconsistency
from pqsurf.groups import catalog_group
from pqsurf.jacobian import (
    decomposition_label,
    isotypical_dimensions,
    k3_pairing,
    motive_h2_decomposition,
)
from pqsurf.perms import parse_permutation
from planted import planted
from test_covering import s3_branch3, v4_example_pair


def by_kernel_element(group, factors, element):
    """Factor on the nontrivial linear character annihilating the element."""
    from pqsurf.chars import character_table, rational_characters

    ct = character_table(group)
    rats = rational_characters(ct)
    for f in factors:
        rc = rats[f.rational_char_index]
        if f.rational_char_index == 0 or rc.constituent_degree != 1:
            continue
        cf = ct.irreducibles[rc.orbit[0]]
        if cf.at(element) == 1:
            return f
    raise AssertionError("no such factor")


def test_isotypical_dimensions_v4_example():
    gv1, gv2 = v4_example_pair()
    G = gv1.group
    t10 = parse_permutation("(1,2)(3,4)", 4)
    t01 = parse_permutation("(1,3)(2,4)", 4)
    t11 = parse_permutation("(1,4)(2,3)", 4)

    f1 = isotypical_dimensions(gv1)
    assert f1[0].reduced_dim == 1  # trivial factor: the elliptic base
    # paper order (chi_00, chi_01, chi_10, chi_11): dims (1, 1, 0, 1)
    assert by_kernel_element(G, f1, t01).reduced_dim == 1
    assert by_kernel_element(G, f1, t10).reduced_dim == 0
    assert by_kernel_element(G, f1, t11).reduced_dim == 1

    f2 = isotypical_dimensions(gv2)
    assert f2[0].reduced_dim == 1
    assert by_kernel_element(G, f2, t01).reduced_dim == 0
    assert by_kernel_element(G, f2, t10).reduced_dim == 1
    assert by_kernel_element(G, f2, t11).reduced_dim == 1


def test_isotypical_dimensions_q8():
    G = catalog_group("Q8")
    gv = search_generating_vectors(G, 1, (2,))[0]
    factors = isotypical_dimensions(gv)
    nontrivial = [f for f in factors if f.rational_char_index != 0 and f.reduced_dim]
    assert len(nontrivial) == 1
    f = nontrivial[0]
    assert (f.reduced_dim, f.multiplicity, f.schur_index) == (2, 1, 2)


def test_dimension_sum_equals_genus():
    for name, g0, orders in [("V4", 1, (2, 2)), ("S3", 1, (2, 2)), ("D4", 1, (2, 2)), ("A4", 1, (2,))]:
        G = catalog_group(name)
        for gv in search_generating_vectors(G, g0, orders):
            factors = isotypical_dimensions(gv)
            assert sum(f.reduced_dim * f.multiplicity for f in factors) == genus(gv)
            assert all(f.reduced_dim >= 0 for f in factors)
            assert factors[0].reduced_dim == g0


def test_decomposition_labels():
    gv1, _ = v4_example_pair()
    assert decomposition_label(gv1) == "E x L x L'"

    assert decomposition_label(s3_branch3()) == "E x L^2"

    G = catalog_group("Q8")
    gv = search_generating_vectors(G, 1, (2,))[0]
    assert decomposition_label(gv) == "E x A"

    g0_zero = search_generating_vectors(catalog_group("C4xC2semiC2"), 0, (2, 2, 2, 4))[0]
    with pytest.raises(BaseGenusUnsupported):
        decomposition_label(g0_zero)


def test_each_rational_character_is_its_own_dual():
    # complex conjugation is a Galois twist, so every orbit holds the
    # conjugates of its members; C4, C6, A4 and C4xC2semiC2 have non-real
    # irreducibles
    from pqsurf.chars import character_table, rational_characters
    from pqsurf.groups import CATALOG_NAMES

    nonreal = 0
    for name in CATALOG_NAMES:
        table = character_table(catalog_group(name))
        for rc in rational_characters(table):
            for i in rc.orbit:
                assert table.dual[i] in rc.orbit
                nonreal += table.dual[i] != i
    assert nonreal > 0


def test_motive_decomposition_v4():
    gv1, gv2 = v4_example_pair()
    dec = motive_h2_decomposition(gv1, gv2)
    assert (dec.rank_U, dec.rank_Z1, dec.rank_Z2, dec.eta) == (2, 4, 4, 0)
    assert dec.b2 == 10
    assert dec.generic_k == 0
    assert dec.generic
    assert dec.z2_label == "h1(L1) x h1(L2)"
    assert dec.partner_label == "Km(L1 x L2)"


def test_motive_decomposition_s3_and_a4():
    gv = s3_branch3()
    dec = motive_h2_decomposition(gv, gv)
    assert dec.rank_Z2 == 4
    assert dec.eta == 3

    G = catalog_group("A4")
    vectors = search_generating_vectors(G, 1, (2,))
    dec = motive_h2_decomposition(vectors[0], vectors[1])
    assert dec.rank_Z2 == 4
    assert dec.eta == 2


def test_rank_z2_is_even_and_nonnegative():
    G = catalog_group("D4")
    vectors = search_generating_vectors(G, 1, (2, 2))
    for gv2 in vectors[:5]:
        dec = motive_h2_decomposition(vectors[0], gv2)
        assert dec.rank_Z2 >= 0 and dec.rank_Z2 % 2 == 0


@planted
def test_planted_rank_z_fault_is_internal_inconsistency(monkeypatch):
    # one more at the identity class of the first Hurwitz character adds
    # chi2(1) / |G| = 2 g2 / 12 = 8/12 to rank Z, which is then not an integer
    group = catalog_group("A4")
    gv1, gv2 = search_generating_vectors(group, 1, (2,))[:2]
    assert genus(gv2) == 4
    real = jacobian.hurwitz_character

    def shifted(gv):
        values = real(gv).values
        if gv is gv1:
            values = (values[0] + 1,) + values[1:]
        return ClassFunction(group, values)

    monkeypatch.setattr(jacobian, "hurwitz_character", shifted)
    with pytest.raises(InternalInconsistency, match="rank of Z must be an integer"):
        jacobian._rank_z2(gv1, gv2)


def test_k3_pairing_v4():
    gv1, gv2 = v4_example_pair()
    report = k3_pairing(gv1, gv2)
    assert report.status == "unique"
    match = report.matches[0]
    assert (match.d1, match.n1) == (1, 1)
    assert (match.d2, match.n2) == (1, 1)
    assert not match.quaternionic
    assert match.partner_label == "Km(L1 x L2)"
    # the matched character annihilates the product of the two branch involutions
    from pqsurf.chars import character_table, rational_characters

    G = gv1.group
    rats = rational_characters(character_table(G))
    cf = character_table(G).irreducibles[rats[match.rational_index].orbit[0]]
    t11 = parse_permutation("(1,4)(2,3)", 4)
    assert cf.at(t11) == 1


def test_k3_pairing_q8_is_quaternionic():
    G = catalog_group("Q8")
    vectors = search_generating_vectors(G, 1, (2,))
    report = k3_pairing(vectors[0], vectors[1])
    assert report.status == "unique"
    match = report.matches[0]
    assert (match.d1, match.n1, match.m1) == (2, 1, 2)
    assert match.quaternionic
    assert match.partner_label == "Km(A)"
    assert any("complex multiplication" in note for note in report.notes)


def test_k3_pairing_s3_k2_8_row():
    G = catalog_group("S3")
    vecs1 = search_generating_vectors(G, 1, (3,))
    vecs2 = search_generating_vectors(G, 1, (2, 2))
    from pqsurf.surface import geometric_genus

    pair = next(
        (a, b) for a in vecs1 for b in vecs2 if geometric_genus(a, b) == 2
    )
    report = k3_pairing(*pair)
    assert report.status == "unique"
    match = report.matches[0]
    assert (match.d1, match.n1) == (1, 2)
    assert (match.d2, match.n2) == (1, 2)


def test_k3_pairing_reports_multiple_matches():
    # two V4-covers branched over the same involution share two characters
    G = catalog_group("V4")
    vectors = search_generating_vectors(G, 1, (2, 2))
    t = parse_permutation("(1,2)(3,4)", 4)
    same = [gv for gv in vectors if gv.monodromies[0] == t]
    report = k3_pairing(same[0], same[0])
    assert report.status == "multiple"
    assert len(report.matches) == 2
    assert any("MultipleMatches" in n for n in report.notes)
