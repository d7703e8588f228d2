"""Character values compared by trace coordinates against Q(zeta_e).

``CyclotomicValue`` decides ``==``, ``hash`` and ``as_rational`` from its
integer trace coordinates t_k = Tr(x zeta_e^-k) (``chars._traces``), and
``inner_product`` reads a sum of values that are not all rational off the
same coordinates.  The reference is arithmetic in Q(zeta_e)
(``cyclotomic_reference``).  Every stored value of the tables below is
compared with every other, each also as a rebuilt copy, and its
coordinates with traces taken in the field.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from pqsurf.chars import ClassFunction, CyclotomicValue, character_table, inner_product
from pqsurf.groups import CATALOG_NAMES, catalog_group, group_from_generators
from pqsurf.perms import parse_permutation

from cyclotomic_reference import Cyclotomic, _root_power, as_cyclotomic, value_cyc
from test_galois_sums import group as galois_group

# degree and generators, beside the groups of test_galois_sums
EXTRA = {
    "S6": (6, ("(1,2)", "(1,2,3,4,5,6)")),
    "C12": (7, ("(1,2,3)(4,5,6,7)",)),
}
NAMES = CATALOG_NAMES + ("S5", "C7semiC3", "C4xC4", "C3xC5") + tuple(EXTRA)


@lru_cache(maxsize=None)
def group(name):
    if name in EXTRA:
        degree, gens = EXTRA[name]
        return group_from_generators([parse_permutation(g, degree) for g in gens])
    return galois_group(name)


def stored_values(name):
    return [v for cf in character_table(group(name)).irreducibles for v in cf.values]


# -- the reference ------------------------------------------------------------------

@lru_cache(maxsize=None)
def field_traces(e):
    """Tr(zeta_e^j) for j mod e: the sum of the conjugates zeta_e^(u j),
    u a unit mod e, added up in Q(zeta_e)."""
    out = []
    for j in range(e):
        coords = [0] * len(_root_power(e, 0))
        for u in range(1, e + 1):
            if gcd(u, e) == 1:
                for i, c in enumerate(_root_power(e, u * j)):
                    coords[i] += c
        q = Cyclotomic(e, coords).as_rational()
        assert q is not None and q.denominator == 1
        out.append(int(q))
    return tuple(out)


def field_inner_product(a, b):
    """<a, b> summed in Q(zeta_e); None when it is not rational."""
    G = a.group
    total = Cyclotomic.zero(G.exponent)
    for c, size in enumerate(G.class_sizes):
        total = total + (value_cyc(a, c) * value_cyc(b, c).conjugate()).scale(size)
    return total.scale(Fraction(1, G.order)).as_rational()


def check_trace_values(values):
    """Raise AssertionError where the trace path disagrees with Q(zeta_e) on
    values of one order: their coordinates, ``as_rational``, ``==`` between
    rebuilt copies and the stored values, ``==`` and one hash bucket with
    the rational each rational value equals, and hash bucketing.  The
    checks raise explicitly, so they hold under ``python -O``."""
    e = values[0].order
    # rebuilt copies: nothing is kept from an earlier comparison
    fresh = [CyclotomicValue(v.order, v.multiplicities) for v in values]
    field = [as_cyclotomic(v, e) for v in values]
    tr = field_traces(e)
    problems = []
    for v, x in zip(fresh, field):
        # Tr(x zeta^-k) = sum of m_a Tr(zeta^(a - k)), the trace being linear
        expected = tuple(sum(m * tr[(a - k) % e] for a, m in v.multiplicities) for k in range(e))
        q = x.as_rational()
        if v._t != expected:
            problems.append(f"{v}: coordinates {v._t}, not {expected}")
        elif v.as_rational() != q:
            problems.append(f"{v}: as_rational {v.as_rational()}, not {q}")
        elif q is not None and (v != q or len({v, q}) != 1):
            problems.append(f"{v}: not one with the rational {q}")
    for v, x in zip(fresh, field):
        for w, y in zip(values, field):
            if (v == w) != (x == y) or (v == w and hash(v) != hash(w)):
                problems.append(f"{v} against {w}: == or hash")
                break
    if len(set(fresh)) != len(set(field)):
        problems.append(f"{len(set(fresh))} hash buckets for {len(set(field))} numbers")
    if problems:
        raise AssertionError("trace coordinates disagree with Q(zeta_e): " + "; ".join(problems[:3]))


# -- values ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_stored_values_match_the_field(name):
    check_trace_values(stored_values(name))


def test_extra_groups_have_their_orders():
    assert (group("S6").order, group("C12").order, group("C12").exponent) == (720, 12, 12)


def test_field_identities():
    # 1 + zeta_3 + zeta_3^2 = 0
    value = CyclotomicValue.from_dict(3, {0: 1, 1: 1, 2: 1})
    assert value == 0 and value.as_rational() == 0 and len({value, 0}) == 1
    total = Cyclotomic.from_rational(3, 1) + Cyclotomic.root(3, 1) + Cyclotomic.root(3, 2)
    assert total.is_zero()
    # the primitive 15th roots of unity sum to mu(15) = 1
    primitive = {a: 1 for a in range(15) if gcd(a, 15) == 1}
    assert CyclotomicValue.from_dict(15, primitive) == 1
    assert as_cyclotomic(CyclotomicValue.from_dict(15, primitive), 15) == 1
    # zeta_15 alone is not rational
    assert CyclotomicValue.from_dict(15, {1: 1}).as_rational() is None
    check_trace_values([CyclotomicValue.from_dict(15, primitive), CyclotomicValue.from_dict(15, {1: 1})])


@pytest.mark.parametrize("e", (1, 2, 4, 12))
def test_a_rational_value_and_its_int_are_one_set_member(e):
    two = CyclotomicValue.from_dict(e, {0: 2})
    assert two == 2 and hash(two) == hash(2) and len({two, 2}) == 1
    rational = [two, CyclotomicValue.from_dict(e, {0: 1, e // 2: 1})]
    if e % 2 == 0:
        # 1 + (-1) = 0
        assert rational[1] == 0 and len({rational[1], 0}) == 1
    if e == 12:
        # zeta_3 + zeta_3^2 = -1, and i + (-i) = 0
        assert len({CyclotomicValue.from_dict(12, {4: 1, 8: 1}), -1}) == 1
        assert len({CyclotomicValue.from_dict(12, {3: 1, 9: 1}), 0}) == 1
    check_trace_values(rational)


# -- inner products that are not rational-valued -----------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_inner_products_of_irreducibles_match_the_field(name):
    irreducibles = character_table(group(name)).irreducibles
    for i, a in enumerate(irreducibles):
        for j, b in enumerate(irreducibles):
            assert inner_product(a, b) == field_inner_product(a, b) == int(i == j), (name, i, j)


@pytest.mark.parametrize("name", ("C4", "C6", "A4", "Q8", "C7semiC3", "C3xC5", "C12"))
def test_random_class_functions_match_the_field(name):
    # seeded random multisets, and multisets closed under the Galois group
    # (rational values), against each other, integer class functions and
    # the irreducibles
    G = group(name)
    e = G.exponent
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    rng = random.Random(f"trace {name}")
    table = character_table(G)

    def random_value():
        return CyclotomicValue.from_dict(e, {rng.randrange(e): rng.randint(1, 3) for _ in range(3)})

    def rational_value():
        a, m = rng.randrange(e), rng.randint(1, 3)
        return CyclotomicValue.from_dict(e, {u * a % e: m for u in units})

    checked = rational = 0
    for _ in range(20):
        a = ClassFunction(G, tuple(random_value() for _ in G.classes))
        r = ClassFunction(G, tuple(rational_value() for _ in G.classes))
        assert all(v.as_rational() is not None for v in r.values)
        ints = ClassFunction(G, tuple(rng.randint(-5, 5) for _ in G.classes))
        chi = rng.choice(table.irreducibles)
        for x, y in ((a, ints), (a, chi), (a, a), (r, ints), (r, a), (r, chi)):
            q = field_inner_product(x, y)
            if q is None:
                with pytest.raises(ValueError, match="inner product is not rational"):
                    inner_product(x, y)
            else:
                assert inner_product(x, y) == q
                rational += 1
            checked += 1
    # both branches are reached
    assert checked == 120 and 0 < rational < checked


def test_inner_product_with_a_root_of_unity_is_not_rational():
    G = catalog_group("C4")
    i = ClassFunction(G, (CyclotomicValue.from_dict(4, {1: 1}),) * 4)
    one = ClassFunction(G, (1,) * 4)
    # <zeta_4, 1> = zeta_4
    assert field_inner_product(i, one) is None
    with pytest.raises(ValueError, match="inner product is not rational"):
        inner_product(i, one)
    assert inner_product(i, i) == 1
    # -1 as a value of order 2 is not read as a value of Q(zeta_4)
    minus_one = ClassFunction(G, (CyclotomicValue.from_dict(2, {1: 1}),) * 4)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        inner_product(minus_one, one)
