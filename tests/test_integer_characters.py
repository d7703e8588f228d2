"""The integer character stages against the cyclotomic and rational paths
they replace.

``surface.geometric_genus`` sums a1[i] * a2[dual[i]] over the Chevalley-Weil
multiplicities, ``surface._chevalley_weil`` sums the stored exponents of
zeta_e in integers scaled by e, and ``chars.inner_product`` sums
rational-valued class functions in integers.  The references below are the
earlier paths: p_g as the average over the classes of the product of the
two holomorphic characters in Q(zeta_e), Chevalley-Weil in Fractions and in
integers scaled by the lcm of the branching orders, both on the exponents
relabelled modulo the order of each monodromy, and the inner product in
Q(zeta_e).  They must agree on the basket-formula pairs, the catalog rows,
sampled vectors over the benchmark's permutation groups and random class
functions.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from pqsurf import chars
from pqsurf.catalog import ROWS, row_witnesses
from pqsurf.chars import (
    ClassFunction,
    character_table,
    inner_product,
    rational_characters,
)
from pqsurf.covering import GeneratingVector, hurwitz_character, search_generating_vectors, validate
from pqsurf.errors import NotGenerating
from pqsurf.groups import CATALOG_NAMES, catalog_group, group_from_generators
from pqsurf.jacobian import _rank_z2, isotypical_dimensions
from pqsurf.perms import parse_permutation
from pqsurf.surface import _chevalley_weil, geometric_genus

from cyclotomic_reference import Cyclotomic, value_cyc
from test_consistency import _basket_pairs


# -- the replaced paths ---------------------------------------------------------

def eigenvalue_exponents(table, i, c):
    """The eigenvalues zeta_m^alpha, m = ord(c), of the i-th irreducible at c,
    as a dict alpha -> multiplicity: the stored exponents a of zeta_e
    relabelled modulo m, alpha = a / (e/m)."""
    m = c.order()
    step = table.group.exponent // m
    out = {}
    for a, count in table.irreducibles[i].at(c).multiplicities:
        assert a % step == 0  # an eigenvalue of c is an m-th root of unity
        out[a // step] = out.get(a // step, 0) + count
    return out


def reference_chevalley_weil(gv):
    table = character_table(gv.group)
    out = []
    for i, d in enumerate(table.degrees):
        total = Fraction(d * (gv.base_genus - 1)) + (i == 0)
        for c, m in zip(gv.monodromies, gv.orders):
            for alpha, count in eigenvalue_exponents(table, i, c).items():
                total += Fraction(count * alpha, m)
        assert total.denominator == 1 and total >= 0
        out.append(int(total))
    return tuple(out)


def lcm_chevalley_weil(gv):
    """The multiplicities summed in integers scaled by L = lcm(m_i)."""
    table = character_table(gv.group)
    big = lcm(*gv.orders)
    out = []
    for i, d in enumerate(table.degrees):
        total = (d * (gv.base_genus - 1) + (i == 0)) * big
        for c, m in zip(gv.monodromies, gv.orders):
            for alpha, count in eigenvalue_exponents(table, i, c).items():
                total += count * alpha * (big // m)
        n, rest = divmod(total, big)
        assert rest == 0 and n >= 0
        out.append(n)
    return tuple(out)


def reference_holomorphic_values(gv):
    table = character_table(gv.group)
    values = []
    for c in range(len(gv.group.classes)):
        total = Cyclotomic.zero(gv.group.exponent)
        for i, n in enumerate(reference_chevalley_weil(gv)):
            if n:
                total = total + value_cyc(table.irreducibles[i], c).scale(n)
        values.append(total)
    return values


def reference_geometric_genus(gv1, gv2):
    group = gv1.group
    v1, v2 = reference_holomorphic_values(gv1), reference_holomorphic_values(gv2)
    total = Cyclotomic.zero(group.exponent)
    for c, size in enumerate(group.class_sizes):
        total = total + (v1[c] * v2[c]).scale(size)
    q = total.scale(Fraction(1, group.order)).as_rational()
    assert q is not None and q.denominator == 1
    return int(q)


def reference_inner_product(a, b):
    group = a.group
    total = Cyclotomic.zero(group.exponent)
    for c, size in enumerate(group.class_sizes):
        total = total + (value_cyc(a, c) * value_cyc(b, c).conjugate()).scale(size)
    q = total.scale(Fraction(1, group.order)).as_rational()
    assert q is not None
    return q


def assert_pair_matches(gv1, gv2):
    for gv in (gv1, gv2):
        assert _chevalley_weil(gv) == reference_chevalley_weil(gv) == lcm_chevalley_weil(gv)
    p_g = geometric_genus(gv1, gv2)
    assert p_g == reference_geometric_genus(gv1, gv2)
    return p_g


def assert_inner_products_match(gv):
    chi_v = hurwitz_character(gv)
    for rc in rational_characters(character_table(gv.group)):
        value = inner_product(rc.psi, chi_v)
        assert type(value) is Fraction and value == reference_inner_product(rc.psi, chi_v)


# -- pairs --------------------------------------------------------------------------

def test_basket_pairs_match_the_cyclotomic_sum():
    values = set()
    for count, (gv1, gv2) in enumerate(_basket_pairs(), 1):
        values.add(assert_pair_matches(gv1, gv2))
    assert count == 243
    assert len(values) > 2  # the pairs do not all share one p_g


def test_basket_vectors_match_the_cyclotomic_inner_products():
    seen = set()
    for gv1, gv2 in _basket_pairs():
        for gv in (gv1, gv2):
            if gv not in seen:
                seen.add(gv)
                assert_inner_products_match(gv)
    assert len(seen) > 30


@pytest.mark.parametrize("name", [row.name for row in ROWS])
def test_catalog_rows_match_the_cyclotomic_sum(name):
    gv1, gv2 = row_witnesses(name)
    assert assert_pair_matches(gv1, gv2) == 2
    assert_inner_products_match(gv1)
    assert_inner_products_match(gv2)


# the scaling by L = lcm(m_i) and the relabelling modulo m_i only show on
# curves with mixed branching orders
MIXED = [("S3", 0, (2, 2, 3)), ("D4", 0, (2, 2, 4)), ("A4", 0, (2, 3, 3)), ("C6", 0, (2, 3, 6)),
         ("C4xC2semiC2", 0, (2, 2, 2, 4))]


@pytest.mark.parametrize(
    "name, g0, orders", MIXED, ids=[f"{n}-{','.join(map(str, o))}" for n, _, o in MIXED]
)
def test_mixed_branching_orders_match_the_fraction_chevalley_weil(name, g0, orders):
    vectors = search_generating_vectors(catalog_group(name), g0, orders)[:4]
    assert vectors
    for gv1 in vectors:
        for gv2 in vectors:
            assert_pair_matches(gv1, gv2)


# -- sampled vectors over the benchmark's permutation groups ------------------------

# degree and generators of the groups the benchmark analyzes, and one class
# representative per monodromy of each sampled curve
GENERATED = {
    "S4": (4, ("(1,2)", "(1,2,3,4)")),
    "D16": (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)")),
    "C2xD8": (10, ("(1,2)", "(3,4,5,6,7,8,9,10)", "(4,10)(5,9)(6,8)")),
    "S5": (5, ("(1,2)", "(1,2,3,4,5)")),
    "A5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
}
SAMPLED = [
    ("S4", 1, ("(1,2)", "(1,2)")),
    ("D16", 1, ("(2,8)(3,7)(4,6)", "(2,8)(3,7)(4,6)")),
    ("C2xD8", 1, ("(4,10)(5,9)(6,8)", "(4,10)(5,9)(6,8)")),
    ("S5", 1, ("(1,2)(3,4)",)),
    ("S5", 0, ("(1,2)", "(1,2,3,4)", "(1,2,3,4,5)")),
    ("A5", 0, ("(1,2)(3,4)", "(1,2,3,4,5)", "(1,3,5,2,4)")),
]


@lru_cache(maxsize=None)
def generated_group(name):
    degree, gens = GENERATED[name]
    return group_from_generators([parse_permutation(g, degree) for g in gens])


def sample_vectors(name, g0, reps, count, seed):
    """``count`` generating vectors with monodromies in the classes of
    ``reps``: random handles and monodromies, the last monodromy closing the
    long relation, kept when it lies in its class and the vector generates."""
    group = generated_group(name)
    rng = random.Random(seed)
    reps = [parse_permutation(r, group.degree) for r in reps]
    classes = [group.classes[group.class_index(r)] for r in reps]
    orders = tuple(r.order() for r in reps)
    out = []
    while len(out) < count:
        handles = tuple((rng.choice(group.elements), rng.choice(group.elements)) for _ in range(g0))
        monos = [rng.choice(cls) for cls in classes[:-1]]
        word = group.identity
        for a, b in handles:
            word = word * a * b * a.inverse() * b.inverse()
        for c in monos:
            word = word * c
        last = word.inverse()
        if last not in classes[-1]:
            continue
        gv = GeneratingVector(group, g0, handles, tuple(monos) + (last,), orders)
        try:
            validate(gv)
        except NotGenerating:
            continue
        out.append(gv)
    return out


@pytest.mark.parametrize("name, g0, reps", SAMPLED, ids=[f"{n}-g{g}" for n, g, _ in SAMPLED])
def test_sampled_pairs_match_the_cyclotomic_sum(name, g0, reps):
    vectors = sample_vectors(name, g0, reps, 3, seed=len(name) + g0)
    for gv1 in vectors:
        for gv2 in vectors:
            assert_pair_matches(gv1, gv2)
        assert_inner_products_match(gv1)


# -- inner products of random class functions ------------------------------------------

def random_rational_function(group, rng):
    values = []
    for _ in group.classes:
        if rng.random() < 0.5:
            values.append(rng.randint(-6, 6))
        else:
            values.append(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    return ClassFunction(group, tuple(values))


def test_random_rational_class_functions_match_the_cyclotomic_inner_product():
    rng = random.Random(20190)
    groups = [catalog_group(name) for name in CATALOG_NAMES]
    groups += [generated_group(name) for name in ("S4", "S5", "A5")]
    for group in groups:
        for _ in range(25):
            a = random_rational_function(group, rng)
            b = random_rational_function(group, rng)
            expected = reference_inner_product(a, b)
            assert inner_product(a, b) == expected
            assert inner_product(b, a) == expected
        ints = ClassFunction(group, tuple(rng.randint(-9, 9) for _ in group.classes))
        assert inner_product(ints, ints) == reference_inner_product(ints, ints)


def test_isotypical_and_rank_z2_build_no_cyclotomic(monkeypatch):
    # fresh vectors over a group built anew, so nothing is kept from other tests
    group = group_from_generators(catalog_group("A4").generators)
    gv1, gv2 = search_generating_vectors(group, 1, (2,))[:2]
    for gv in (gv1, gv2):
        hurwitz_character(gv)
    rational_characters(character_table(group))
    expected = (_rank_z2(gv1, gv2), isotypical_dimensions(gv1))
    del gv1._memo[isotypical_dimensions.__wrapped__]

    def refuse(*args):
        raise AssertionError("a trace-coordinate vector was built")

    monkeypatch.setattr(chars, "_traces", refuse)
    assert (_rank_z2(gv1, gv2), isotypical_dimensions(gv1)) == expected
