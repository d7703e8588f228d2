import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pqsurf import chars
from pqsurf.chars import (
    ClassFunction,
    character_table,
    frobenius_schur,
    induced_trivial,
    inner_product,
    rational_characters,
)
from pqsurf.errors import GroupMismatch, InternalInconsistency, NotASubgroup
from pqsurf.groups import (
    CATALOG_NAMES,
    catalog_group,
    group_from_generators,
    power_map,
)
from pqsurf.perms import parse_permutation

from conveniences import class_index, value_at
from cyclotomic_reference import Cyclotomic, field_inner_product, value_cyc
from planted import PLANTED, all_test_modules, planted
from scale_groups import reference_cyclic_subgroup, reference_pow

ABELIAN = ("C2", "C4", "C6", "V4")


def abelian_table_oracle(G):
    """All homomorphisms G -> <zeta_e> by brute-force generator assignment."""
    e = G.exponent
    chars = set()
    for assignment in itertools.product(range(e), repeat=len(G.generators)):
        values = {G.identity: 0}
        frontier = [G.identity]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for s, a in zip(G.generators, assignment):
                y = s * x
                v = (values[x] + a) % e
                if y in values:
                    if values[y] != v:
                        consistent = False
                        break
                else:
                    values[y] = v
                    frontier.append(y)
        if consistent:
            chars.add(tuple(values[rep] for rep in G.class_reps))
    return chars


def table_exponents(G):
    """Character table rows of an abelian group as root-of-unity exponents."""
    ct = character_table(G)
    rows = set()
    for cf in ct.irreducibles:
        exps = []
        for v in cf.values:
            ((a, count),) = v
            assert count == 1
            exps.append(a)
        rows.add(tuple(exps))
    return rows


@pytest.mark.parametrize("name", ABELIAN)
def test_abelian_tables_match_hom_enumeration(name):
    G = catalog_group(name)
    assert table_exponents(G) == abelian_table_oracle(G)


def test_v4_table_values_are_signs():
    ct = character_table(catalog_group("V4"))
    for cf in ct.irreducibles:
        for c in range(len(cf.values)):
            assert value_cyc(cf, c) in (1, -1)


def test_degree_sequences():
    assert character_table(catalog_group("S3")).degrees == (1, 1, 2)
    assert character_table(catalog_group("Q8")).degrees == (1, 1, 1, 1, 2)
    assert character_table(catalog_group("A4")).degrees == (1, 1, 1, 3)
    assert character_table(catalog_group("C4xC2semiC2")).degrees == (1,) * 8 + (2, 2)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_degrees_divide_order_and_sum_of_squares(name):
    G = catalog_group(name)
    ct = character_table(G)
    assert sum(d * d for d in ct.degrees) == G.order
    assert all(G.order % d == 0 for d in ct.degrees)
    assert len(ct.irreducibles) == len(G.classes)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_first_orthogonality(name):
    ct = character_table(catalog_group(name))
    for i, a in enumerate(ct.irreducibles):
        for j, b in enumerate(ct.irreducibles):
            assert field_inner_product(a, b) == (1 if i == j else 0)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_second_orthogonality(name):
    G = catalog_group(name)
    ct = character_table(G)
    e = G.exponent
    k = len(G.classes)
    for c1 in range(k):
        for c2 in range(k):
            total = Cyclotomic.zero(e)
            for cf in ct.irreducibles:
                total = total + value_cyc(cf, c1) * value_cyc(cf, c2).conjugate()
            expected = G.order // G.class_sizes[c1] if c1 == c2 else 0
            assert total == expected


def test_table_ordering_is_deterministic(monkeypatch):
    G = catalog_group("D4")
    before = character_table(G)
    # drop the table kept on the group, so that it is built again
    monkeypatch.setattr(G, "_memo", {})
    after = character_table(G)
    assert after is not before
    assert before.degrees == after.degrees
    assert [cf.values for cf in before.irreducibles] == [cf.values for cf in after.irreducibles]


def test_inner_product_element_wise_oracle():
    # class-wise sum with sizes equals the raw sum over group elements; the
    # degree-2 character of S3 is its own rational character
    G = catalog_group("S3")
    ct = character_table(G)
    chi = ct.irreducibles[2]
    (psi,) = (rc.psi for rc in rational_characters(ct) if rc.orbit == (2,))
    raw = Cyclotomic.zero(G.exponent)
    for g in G.elements:
        c = class_index(G, g)
        raw = raw + value_cyc(chi, c) * value_cyc(chi, class_index(G, g.inverse()))
    assert raw.scale(Fraction(1, G.order)).as_rational() == inner_product(psi, psi) == 1


def test_inner_product_examples():
    G = catalog_group("V4")
    ct = character_table(G)
    # chi_V of the explicit K^2=8 cover, on classes (e, (1,0), (0,1), (1,1))
    chi_v = ClassFunction(G, (6, -2, 2, 2))
    t10 = parse_permutation("(1,2)(3,4)", 4)
    # each character of V4 is its own rational character, with int values
    chi_01 = next(
        rc.psi
        for rc in rational_characters(ct)
        if value_at(rc.psi, t10) == -1 and value_at(rc.psi, parse_permutation("(1,3)(2,4)", 4)) == 1
    )
    assert inner_product(chi_01, chi_v) == 2

    q8 = catalog_group("Q8")
    ctq = character_table(q8)
    chi5 = ctq.irreducibles[ctq.degrees.index(2)]
    minus_one = next(g for g in q8.elements if g.order() == 2)
    ind = induced_trivial(q8, reference_cyclic_subgroup(q8, minus_one))
    # Frobenius reciprocity: (chi5(1) + chi5(-1)) / 2 = 0, and psi = 2 chi5
    assert field_inner_product(chi5, ind) == 0
    (psi,) = (rc.psi for rc in rational_characters(ctq) if rc.orbit == (4,))
    assert inner_product(psi, ind) == 0 and psi.values[0] == 4

    with pytest.raises(GroupMismatch):
        inner_product(chi_01, ClassFunction(q8, (1,) * 5))


def test_induced_trivial_examples():
    G = catalog_group("V4")
    whole = induced_trivial(G, G.elements)
    assert whole.values == (1, 1, 1, 1)
    regular = induced_trivial(G, (G.identity,))
    assert regular.values == (4, 0, 0, 0)
    sub = reference_cyclic_subgroup(G, parse_permutation("(1,2)(3,4)", 4))
    # classes are ordered (e, (1,0), (0,1), (1,1)) in the catalog realization
    assert induced_trivial(G, sub).values == (2, 2, 0, 0)
    with pytest.raises(NotASubgroup):
        induced_trivial(G, (parse_permutation("(1,2)(3,4)", 4),))


def test_rational_characters_v4_c4_q8():
    v4 = rational_characters(character_table(catalog_group("V4")))
    assert len(v4) == 4
    assert all(rc.orbit == (i,) and rc.schur_index == 1 for i, rc in enumerate(v4))

    c4 = rational_characters(character_table(catalog_group("C4")))
    assert len(c4) == 3
    orbit_sizes = sorted(len(rc.orbit) for rc in c4)
    assert orbit_sizes == [1, 1, 2]  # trivial, sign, merged faithful pair

    q8 = rational_characters(character_table(catalog_group("Q8")))
    two_dim = [rc for rc in q8 if rc.schur_index * rc.multiplicity_n == 2]
    assert len(two_dim) == 1
    assert two_dim[0].orbit == (4,)
    assert two_dim[0].schur_index == 2
    assert two_dim[0].multiplicity_n == 1
    assert not two_dim[0].schur_index_unverified


def test_rational_character_invariants():
    for name in CATALOG_NAMES:
        ct = character_table(catalog_group(name))
        for rc in rational_characters(ct):
            assert all(isinstance(v, int) for v in rc.psi.values)
            norm = inner_product(rc.psi, rc.psi)
            assert norm == rc.schur_index ** 2 * len(rc.orbit)
            assert rc.multiplicity_n * rc.schur_index == ct.degrees[rc.orbit[0]]


def test_frobenius_schur_examples():
    ct = character_table(catalog_group("Q8"))
    assert frobenius_schur(ct, 0) == 1  # trivial character
    assert frobenius_schur(ct, ct.degrees.index(2)) == -1

    c4 = character_table(catalog_group("C4"))
    values = sorted(frobenius_schur(c4, i) for i in range(4))
    assert values == [0, 0, 1, 1]  # two faithful characters are complex


def test_frobenius_schur_of_rational_valued_is_nonzero():
    for name in CATALOG_NAMES:
        ct = character_table(catalog_group(name))
        for i, cf in enumerate(ct.irreducibles):
            if all(value_cyc(cf, c).as_rational() is not None for c in range(len(cf.values))):
                assert frobenius_schur(ct, i) in (-1, 1)


def test_eigenvalue_multiplicities_examples():
    # a value is stored as the multiset of its eigenvalues zeta_e^a, e = exp(G)
    q8 = catalog_group("Q8")
    ct = character_table(q8)
    minus_one = next(g for g in q8.elements if g.order() == 2)
    # trivial character: single eigenvalue 1
    assert value_at(ct.irreducibles[0], minus_one) == ((0, 1),)
    # degree-2 character at the central involution: both eigenvalues -1 = zeta_4^2
    assert value_at(ct.irreducibles[ct.degrees.index(2)], minus_one) == ((2, 2),)

    v4 = catalog_group("V4")
    ctv = character_table(v4)
    t10 = parse_permutation("(1,2)(3,4)", 4)
    chi = next(
        i for i, cf in enumerate(ctv.irreducibles) if value_cyc(cf, class_index(v4, t10)) == -1
    )
    assert value_at(ctv.irreducibles[chi], t10) == ((1, 1),)


def test_eigenvalue_multiplicities_reconstruct_values():
    for name in ("S3", "Q8", "A4", "C4xC2semiC2"):
        G = catalog_group(name)
        ct = character_table(G)
        e = G.exponent
        for i in range(len(ct.irreducibles)):
            for rep in G.class_reps:
                n = rep.order()
                value = value_at(ct.irreducibles[i], rep)
                assert sum(m for _, m in value) == ct.degrees[i]
                # the eigenvalues of rep are n-th roots of unity
                assert all(a % (e // n) == 0 for a, _ in value)
                # chi(rep^t) = sum of zeta_e^(a t) over the eigenvalue multiset
                for t in range(n):
                    total = Cyclotomic.zero(e)
                    for a, m in value:
                        total = total + Cyclotomic.root(e, a * t).scale(m)
                    assert total == value_cyc(ct.irreducibles[i], class_index(G, reference_pow(rep, t)))


def _induced_by_conjugation(G, sub):
    """The definition Ind_H^G 1(g) = #{x in G : x^-1 g x in H} / |H|."""
    sub = frozenset(sub)
    return tuple(
        Fraction(sum(1 for x in G.elements if x.inverse() * rep * x in sub), len(sub))
        for rep in G.class_reps
    )


def _s4():
    return group_from_generators(
        [parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)]
    )


def test_induced_trivial_matches_the_conjugation_count():
    groups = [catalog_group(name) for name in CATALOG_NAMES] + [_s4()]
    checked = 0
    for G in groups:
        subgroups = {reference_cyclic_subgroup(G, g) for g in G.elements}
        subgroups |= {frozenset((G.identity,)), frozenset(G.elements)}
        for sub in subgroups:
            assert induced_trivial(G, sub).values == _induced_by_conjugation(G, sub)
            checked += 1
    a4 = catalog_group("A4")
    klein = frozenset(g for g in a4.elements if g.order() <= 2)
    assert len(klein) == 4
    assert induced_trivial(a4, klein).values == _induced_by_conjugation(a4, klein)
    assert induced_trivial(a4, klein).values == (3, 3, 0, 0)
    assert checked > 60


def test_induced_trivial_still_rejects_non_subgroups():
    s4 = _s4()
    a4 = catalog_group("A4")
    p = lambda s: parse_permutation(s, 4)
    for G, elements in [
        (s4, ()),
        (s4, (p("()"), p("(1,2)"), p("(1,2,3)"))),
        (s4, (p("()"), p("(1,2,3)"))),
        (a4, (p("()"), p("(1,2)"))),
    ]:
        with pytest.raises(NotASubgroup):
            induced_trivial(G, elements)


def test_trivial_rational_character_comes_first():
    for name in CATALOG_NAMES:
        assert rational_characters(character_table(catalog_group(name)))[0].orbit == (0,)


def test_trivial_group_table_is_one_linear_character():
    # 1 divides p - 1 for every prime p, so the Dixon prime is found at once
    assert chars._dixon_prime(1, 1) == 3
    G = group_from_generators([parse_permutation("()", 2)])
    table = character_table(G)
    assert G.order == 1 and table.degrees == (1,) and table.dual == (0,)
    assert table.irreducibles[0].values == (((0, 1),),)
    (rc,) = rational_characters(table)
    assert (rc.psi.values, rc.orbit, rc.schur_index, rc.multiplicity_n) == ((1,), (0,), 1, 1)


def test_tables_hash_by_identity():
    # two tables not kept on their group, so rational_characters computes
    # anew: its value is kept on each table object, and a table with equal
    # values does not stand in for it
    group = catalog_group("A4")
    table, twin = (chars.character_table.__wrapped__(group) for _ in range(2))
    assert table.irreducibles == twin.irreducibles and table != twin
    first = rational_characters(table)
    assert rational_characters(table) is first
    assert len(first) == 3  # the two non-real linear characters form one orbit
    again = rational_characters(twin)
    assert again is not first and again == first
    # one group object returns one table; an equal group built separately
    # builds its own
    gens = catalog_group("S3").generators
    group, equal = group_from_generators(gens), group_from_generators(gens)
    assert character_table(group) is character_table(group)
    assert group == equal and character_table(equal) is not character_table(group)


# -- certificates with a planted fault -----------------------------------------
#
# Each plant breaks one step of Dixon's method, the Frobenius-Schur sum, the
# Galois orbit sums, the dual map or the traces, and the certificate after it
# must raise InternalInconsistency.  The tests check only
# through ``pytest.raises``, so they keep their meaning under ``python -O``,
# which strips ``assert``.

REPO = Path(__file__).resolve().parents[1]
build_table = character_table.__wrapped__  # not kept on the group, so plants take effect


def _identity_class_matrix(group, i):
    k = len(group.classes)
    return [[int(r == c) for c in range(k)] for r in range(k)]


def _plant_corrupted_charpoly(monkeypatch):
    # one more in the constant coefficient: the roots found are not the
    # eigenvalues, so their eigenspaces do not cover the space
    real = chars._charpoly

    def corrupted(R, p):
        poly = real(R, p)
        return [(poly[0] + 1) % p] + poly[1:]

    monkeypatch.setattr(chars, "_charpoly", corrupted)


def _plant_scaled_central_characters(monkeypatch):
    real = chars._central_characters
    monkeypatch.setattr(
        chars, "_central_characters", lambda g, p: [[2 * x % p for x in w] for w in real(g, p)]
    )


def _plant_dropped_central_character(monkeypatch):
    real = chars._central_characters
    monkeypatch.setattr(chars, "_central_characters", lambda g, p: real(g, p)[:-1])


def _plant_vanishing_eigenvector(monkeypatch):
    # C2: two eigenvalues whose eigenspaces both come back as the second
    # basis vector, which is 0 on the identity class
    monkeypatch.setattr(chars, "_eigenvalues", lambda R, p: [0, 1])
    monkeypatch.setattr(chars, "_kernel", lambda mat, p: [[0] * (len(mat[0]) - 1) + [1]])


def _plant(name, value):
    return lambda monkeypatch: monkeypatch.setattr(chars, name, value)


DIXON_PLANTS = [
    ("C4", _plant("_eigenvalues", lambda R, p: []), "failed to diagonalise"),
    ("C4", _plant_corrupted_charpoly, "a class matrix failed to diagonalise"),
    ("S3", _plant("_class_matrix", _identity_class_matrix), "not separated"),
    ("C2", _plant_vanishing_eigenvector, "vanishes on the identity class"),
    ("A4", _plant_scaled_central_characters, "degree recovery failed"),
    ("Q8", _plant_dropped_central_character, "sum of squares"),
    ("S3", _plant("_primitive_root", lambda p: 1), "do not sum to the degree"),
]


@planted
@pytest.mark.parametrize("name, plant, message", DIXON_PLANTS, ids=[m for _, _, m in DIXON_PLANTS])
def test_planted_dixon_fault_is_internal_inconsistency(monkeypatch, name, plant, message):
    plant(monkeypatch)
    with pytest.raises(InternalInconsistency, match="Dixon: .*" + message):
        build_table(catalog_group(name))


def _plant_changed_value(monkeypatch):
    """The first nonlinear irreducible built reads its degree d (eigenvalue
    1, d times) at the first class where it has two distinct eigenvalues:
    its degree and its multisets' sizes stay, |chi(c)| grows."""
    real = chars.ClassFunction
    changed = []

    def changed_value(group, values):
        ((_, d),) = values[0]
        k = next((k for k, v in enumerate(values) if len(v) > 1), None)
        if d > 1 and k is not None and not changed:
            changed.append(k)
            values = values[:k] + (((0, d),),) + values[k + 1:]
        return real(group, values)

    monkeypatch.setattr(chars, "ClassFunction", changed_value)


@planted
@pytest.mark.parametrize("name", ("S3", "Q8", "A4"))
def test_planted_table_value_fails_column_orthogonality(monkeypatch, name):
    # no other certificate of the table sees the change: the degrees, the
    # multiset sizes and the dual map all still hold
    _plant_changed_value(monkeypatch)
    with pytest.raises(InternalInconsistency, match="column orthogonality"):
        build_table(catalog_group(name))


def _kernel_plant(monkeypatch, edit):
    """``_kernel`` with ``edit`` applied to every basis it returns for a
    space of dimension >= 2."""
    real = chars._kernel

    def edited(mat, p):
        basis = real(mat, p)
        return edit(basis) if len(basis) >= 2 else basis

    monkeypatch.setattr(chars, "_kernel", edited)


@planted
@pytest.mark.parametrize("name", ("C4", "Q8", "A4", "C4xC2semiC2"))
def test_planted_lost_eigenvector_fails_to_diagonalise(monkeypatch, name):
    # the eigenspaces' pivots no longer add up to the space they split
    _kernel_plant(monkeypatch, lambda basis: basis[:-1])
    with pytest.raises(InternalInconsistency, match="Dixon: a class matrix failed to diagonalise"):
        build_table(catalog_group(name))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_repeated_eigenvector_gives_the_same_table(monkeypatch, name):
    # the echelon basis drops the repeat, and coverage counts pivots
    expected = character_table(catalog_group(name))
    _kernel_plant(monkeypatch, lambda basis: basis + basis[:1])
    table = build_table(catalog_group(name))
    assert table.irreducibles == expected.irreducibles and table.degrees == expected.degrees


@planted
def test_planted_frobenius_schur_fault_is_internal_inconsistency(monkeypatch):
    table = character_table(catalog_group("S3"))
    real = chars.power_map
    # squares all landing on the identity make the indicator the degree, 2
    monkeypatch.setattr(
        chars, "power_map", lambda g, k: (0,) * len(g.classes) if k == 2 else real(g, k)
    )
    with pytest.raises(InternalInconsistency, match="Frobenius-Schur"):
        frobenius_schur(table, table.degrees.index(2))


@planted
def test_planted_orbit_fault_is_internal_inconsistency(monkeypatch):
    table = character_table(catalog_group("C4"))
    # only the unit 1: every orbit is a single character, and i is not rational
    monkeypatch.setattr(chars, "gcd", lambda a, b: a)
    with pytest.raises(InternalInconsistency, match="orbit sum must be integral"):
        rational_characters.__wrapped__(table)


def _c3xc5():
    return group_from_generators(
        [parse_permutation("(1,2,3)", 8), parse_permutation("(4,5,6,7,8)", 8)]
    )


TRUNCATED_ORBIT_GROUPS = {"C4": lambda: catalog_group("C4"), "C3xC5": _c3xc5}


@planted
@pytest.mark.parametrize("name", TRUNCATED_ORBIT_GROUPS)
def test_planted_truncated_orbit_is_internal_inconsistency(monkeypatch, name):
    table = character_table(TRUNCATED_ORBIT_GROUPS[name]())
    real = chars._twist

    def truncated(characters, *power_maps):
        # the first 2-element orbit {i, j} loses j: no twist of i reaches it
        twists = real(characters, *power_maps)
        i = next(i for i in range(len(characters)) if len({t[i] for t in twists}) == 2)
        return tuple(t[:i] + (i,) + t[i + 1:] for t in twists)

    monkeypatch.setattr(chars, "_twist", truncated)
    with pytest.raises(InternalInconsistency, match="orbit sum must be integral"):
        rational_characters.__wrapped__(table)


class _Descending(tuple):
    """A tuple equal to the same plain tuple that sorts in reverse order."""

    def __lt__(self, other):
        return tuple.__gt__(self, other)

    def __gt__(self, other):
        return tuple.__lt__(self, other)


TRIVIAL_PLANT_GROUPS = {
    "S3": lambda: catalog_group("S3"),
    "Q8": lambda: catalog_group("Q8"),
    # a 3-cycle on 7 points
    "C3deg7": lambda: group_from_generators([parse_permutation("(5,6,7)", 7)]),
}


@planted
@pytest.mark.parametrize("name", TRIVIAL_PLANT_GROUPS)
def test_planted_trivial_character_fault_is_internal_inconsistency(monkeypatch, name):
    # an order that sorts a nontrivial linear character before the trivial one:
    # the multisets of one degree compare in reverse
    real = chars.ClassFunction

    def descending(group, values):
        return real(group, tuple(_Descending(v) for v in values))

    monkeypatch.setattr(chars, "ClassFunction", descending)
    with pytest.raises(InternalInconsistency, match="not the trivial one"):
        build_table(TRIVIAL_PLANT_GROUPS[name]())


@planted
def test_planted_schur_index_fault_is_internal_inconsistency(monkeypatch):
    table = character_table(catalog_group("C4"))
    monkeypatch.setattr(chars, "frobenius_schur", lambda t, i: -1)
    with pytest.raises(InternalInconsistency, match="Schur index must divide"):
        rational_characters.__wrapped__(table)


@planted
def test_planted_dual_map_fault_is_internal_inconsistency():
    s3 = character_table(catalog_group("S3"))
    c4 = catalog_group("C4")
    table = character_table(c4)
    # every class read at the identity: the degree-2 character of S3 reads
    # as twice the trivial one, which is not in the table
    with pytest.raises(InternalInconsistency, match="not in the table"):
        chars._dual_map(s3.irreducibles, s3.degrees, (0,) * 3)
    # the linear characters of C4 read at the identity all become trivial
    with pytest.raises(InternalInconsistency, match="involution"):
        chars._dual_map(table.irreducibles, table.degrees, (0,) * 4)
    # i and -i swapped by conjugation, but given different degrees
    with pytest.raises(InternalInconsistency, match="degree-preserving"):
        chars._dual_map(table.irreducibles, (1, 1, 1, 2), power_map(c4, -1))


def _trace_shift_flipped(e, terms, k):
    weights = chars._galois_weights(e)[1]
    return sum(c * weights[(a + k) % e] for a, c in terms)


def _trace_unshifted(e, terms, k):
    weights = chars._galois_weights(e)[1]
    return sum(c * weights[a] for a, c in terms)


# Column orthogonality adds up m_b Tr(chi(c) zeta_e^-b) over the eigenvalues
# zeta_e^b of chi(c), which gives Tr(|chi(c)|^2).  An unshifted trace gives
# the trace of chi(1) chi(c), whose sum over chi is 0 off the identity.  A
# flipped shift gives Tr(chi(c)^2), whose sum over chi is 0 at a class that
# is not real, so only a table with such a class shows it: C4 and A4 have
# one, S3 and Q8 have none.
TRACE_PLANTS = [
    ("S3", _trace_unshifted),
    ("Q8", _trace_unshifted),
    ("C4", _trace_shift_flipped),
    ("A4", _trace_shift_flipped),
]


@planted
@pytest.mark.parametrize(
    "name, plant", TRACE_PLANTS, ids=[f"{n}-{p.__name__[7:]}" for n, p in TRACE_PLANTS]
)
def test_planted_trace_fault_fails_the_field_comparison(monkeypatch, name, plant):
    # the certificate compares sum_chi |chi(c)|^2, read through the traces of
    # Q(zeta_e), with |G|/|c|
    monkeypatch.setattr(chars, "_trace", plant)
    with pytest.raises(InternalInconsistency, match="column orthogonality"):
        build_table(catalog_group(name))


def test_planted_faults_raise_under_python_O():
    """Every test registered with ``@planted``, in any test module, passes
    under ``python -O``.  A test named for a plant must be registered."""
    named = {
        f"tests/{Path(module.__file__).name}::{name}"
        for module in all_test_modules()
        for name in vars(module)
        if name.startswith("test_") and "planted" in name and "python_O" not in name
    }
    assert named <= PLANTED, named - PLANTED
    env = dict(os.environ)
    # src for pqsurf, tests for the reference arithmetic the tests import
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), str(REPO / "tests"), env.get("PYTHONPATH")) if p
    )

    def pytest_O(*args):
        return subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *sorted(PLANTED), *args],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
        )

    collected = pytest_O("--collect-only")
    assert collected.returncode == 0, collected.stdout + collected.stderr
    ids = [line for line in collected.stdout.splitlines() if "::" in line]
    assert {i.split("[")[0] for i in ids} == PLANTED
    proc = pytest_O()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(ids)} passed" in proc.stdout
