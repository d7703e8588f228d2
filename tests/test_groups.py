import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf.covering import GeneratingVector
from pqsurf.errors import NotInGroup, SizeLimit, UnknownName
from pqsurf.groups import (
    CATALOG_NAMES,
    catalog_group,
    cyclic_subgroup,
    group_from_generators,
    permutation_character,
    power_map,
)
from pqsurf.perms import Permutation, parse_permutation


def centralizer_order(G, g):
    """|G| / |g^G| as ``permutation_character`` computes it: g's class
    counted once, over h = 1, gives |G| / |g^G| at that class."""
    k = G.class_index(g)
    return permutation_character(G, (k,), 1)[k]


def test_identity_generator_gives_trivial_group():
    G = group_from_generators([Permutation.identity(4)])
    assert G.order == 1
    assert len(G.classes) == 1


def test_v4_from_generators():
    gens = [parse_permutation("(1,2)(3,4)", 4), parse_permutation("(1,3)(2,4)", 4)]
    G = group_from_generators(gens)
    assert G.order == 4
    assert len(G.classes) == 4  # abelian: singleton classes
    assert G.exponent == 2


def test_a4_from_generators():
    # brute-force closure and conjugacy enumeration
    gens = [parse_permutation("(1,2)(3,4)", 4), parse_permutation("(1,2,3)", 4)]
    G = group_from_generators(gens)
    assert G.order == 12
    assert len(G.classes) == 4
    assert sorted(G.class_sizes) == [1, 3, 4, 4]


def test_size_limit():
    with pytest.raises(SizeLimit):
        group_from_generators([parse_permutation("(1,2,3,4,5,6,7)", 7)], max_order=5)


def test_catalog_basics():
    v4 = catalog_group("V4")
    assert v4.order == 4 and v4.exponent == 2
    q8 = catalog_group("Q8")
    assert q8.order == 8 and len(q8.classes) == 5 and q8.degree == 8
    g16 = catalog_group("C4xC2semiC2")
    assert g16.order == 16
    with pytest.raises(UnknownName):
        catalog_group("M11")


# name -> (order, class sizes in class order, exponent), from the standard
# character tables of these groups
CATALOG_INVARIANTS = {
    "C2": (2, (1, 1), 2),
    "C4": (4, (1, 1, 1, 1), 4),
    "C6": (6, (1,) * 6, 6),
    "V4": (4, (1, 1, 1, 1), 2),
    "S3": (6, (1, 3, 2), 6),
    "D4": (8, (1, 2, 2, 1, 2), 4),
    "Q8": (8, (1, 1, 2, 2, 2), 4),
    "A4": (12, (1, 3, 4, 4), 6),
    "C4xC2semiC2": (16, (1, 2, 2, 2, 1, 2, 1, 2, 2, 1), 4),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_invariants(name):
    G = catalog_group(name)
    assert (G.order, G.class_sizes, G.exponent) == CATALOG_INVARIANTS[name]


def _acts_regularly(G):
    orbit = {g(1) for g in G.elements}
    return G.order == G.degree and orbit == set(range(1, G.degree + 1))


def test_quaternion_generators_satisfy_the_presentation():
    G = catalog_group("Q8")
    one = G.identity
    x, y = G.generators
    assert x ** 4 == one and x ** 2 != one
    assert y * y == x * x
    assert y * x * y.inverse() == x.inverse()
    assert _acts_regularly(G)


def test_central_product_generators_satisfy_the_presentation():
    G = catalog_group("C4xC2semiC2")
    one = G.identity
    w, x, z = G.generators
    assert w.order() == 4 and all(w * g == g * w for g in G.elements)
    assert x * x == one != x and z * z == one != z
    assert z * x == w ** 2 * x * z
    assert _acts_regularly(G)


def test_catalog_is_deterministic():
    a = catalog_group("D4")
    catalog_group.cache_clear()
    b = catalog_group("D4")
    assert a.elements == b.elements
    assert a.classes == b.classes


def test_element_order_and_cyclic_subgroup():
    G = catalog_group("V4")
    assert G.identity.order() == 1
    t = parse_permutation("(1,2)(3,4)", 4)
    assert t.order() == 2
    assert cyclic_subgroup(G, t) == frozenset({G.identity, t})
    assert cyclic_subgroup(G, G.identity) == frozenset({G.identity})

    s3 = catalog_group("S3")
    rot = parse_permutation("(1,2,3)", 3)
    sub = cyclic_subgroup(s3, rot)
    assert len(sub) == 3
    assert all(x.inverse() in sub for x in sub)

    q8 = catalog_group("Q8")
    order4 = [g for g in q8.elements if g.order() == 4]
    assert len(order4) == 6  # +-i, +-j, +-k in the regular realization
    assert order4[0].order() == 4

    with pytest.raises(NotInGroup):
        cyclic_subgroup(G, parse_permutation("(1,2)", 4))


def test_a_plain_tuple_is_not_an_element():
    # an element equals the tuple of its images, but membership asks for a
    # permutation
    G = catalog_group("C2")
    assert (2, 1) == G.elements[1]
    assert (2, 1) not in G and G.elements[1] in G
    with pytest.raises(NotInGroup):
        G.require((2, 1))
    with pytest.raises(NotInGroup):
        GeneratingVector(G, 0, (), ((2, 1), G.elements[1]), (2, 2))


def test_centralizer_order():
    G = catalog_group("V4")
    for g in G.elements:
        assert centralizer_order(G, g) == 4  # abelian
    s3 = catalog_group("S3")
    assert centralizer_order(s3, parse_permutation("(1,2)", 3)) == 2
    q8 = catalog_group("Q8")
    assert centralizer_order(q8, q8.identity) == 8


def test_centralizer_times_class_size():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        for cls in G.classes:
            assert centralizer_order(G, cls[0]) * len(cls) == G.order


def test_class_equation():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        assert sum(G.class_sizes) == G.order
        assert all(G.order % s == 0 for s in G.class_sizes)
        assert G.class_reps[0].is_identity()


def test_power_map_basics():
    q8 = catalog_group("Q8")
    k = len(q8.classes)
    assert power_map(q8, 1) == tuple(range(k))
    assert power_map(q8, 0) == (0,) * k
    # squares of the order-4 classes all land in the class of the central involution
    pm2 = power_map(q8, 2)
    central = next(
        i for i, rep in enumerate(q8.class_reps) if rep.order() == 2
    )
    for i, rep in enumerate(q8.class_reps):
        if rep.order() == 4:
            assert pm2[i] == central


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(CATALOG_NAMES),
    k=st.integers(min_value=-6, max_value=6),
    m=st.integers(min_value=-6, max_value=6),
)
def test_power_map_composition(name, k, m):
    G = catalog_group(name)
    pk, pm, pkm = power_map(G, k), power_map(G, m), power_map(G, k * m)
    assert tuple(pk[pm[c]] for c in range(len(G.classes))) == pkm


def test_closure_under_products():
    rng = random.Random(7)
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        for _ in range(30):
            a = rng.choice(G.elements)
            b = rng.choice(G.elements)
            assert a * b in G
            assert a.inverse() in G


def conjugation_test_groups():
    groups = [catalog_group(name) for name in CATALOG_NAMES]
    for degree, gens in ((4, ("(1,2)", "(1,2,3,4)")), (5, ("(1,2)", "(1,2,3,4,5)"))):
        groups.append(group_from_generators([parse_permutation(g, degree) for g in gens]))
    return groups


@pytest.mark.parametrize("G", conjugation_test_groups(), ids=repr)
def test_recorded_conjugator_reaches_class_representative(G):
    for g in G.elements:
        y = G._to_rep[g]
        assert y in G
        assert y * g * y.inverse() == G.class_reps[G.class_index(g)]


@pytest.mark.parametrize("G", conjugation_test_groups(), ids=repr)
def test_centralizers_match_brute_force(G):
    centre = {z for z in G.elements if all(z * g == g * z for g in G.elements)}
    assert set(G.centre) == centre and len(G.centre) == len(centre)
    for idx, rep in enumerate(G.class_reps):
        pairs = G._centralizer(idx)
        assert all(ci == c.inverse() for c, ci in pairs)
        # one c per coset c Z(G): the cosets are pairwise disjoint and
        # cover exactly the centralizer
        cosets = [{c * z for z in centre} for c, _ in pairs]
        covered = set().union(*cosets)
        assert sum(len(coset) for coset in cosets) == len(covered)
        assert covered == {c for c in G.elements if c * rep == rep * c}
        assert G._centralizer(idx) is pairs


@pytest.mark.parametrize("G", conjugation_test_groups(), ids=repr)
def test_centralizer_order_matches_counting(G):
    for g in G.elements:
        assert centralizer_order(G, g) == sum(1 for x in G.elements if x * g == g * x)


def test_group_hash_is_kept_and_agrees_with_equality():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        assert hash(G) == hash((G.degree, G.elements))
        again = group_from_generators(G.generators)
        assert again is not G and again == G and hash(again) == hash(G)
    s5 = group_from_generators([parse_permutation(g, 5) for g in ("(1,2)", "(1,2,3,4,5)")])
    other = group_from_generators([parse_permutation(g, 5) for g in ("(1,2,3,4,5)", "(4,5)")])
    assert s5 == other and hash(s5) == hash(other) == hash((5, s5.elements))
