"""Character values read through their traces, against Q(zeta_e).

A character value is its eigenvalue multiset, the (a, count) pairs of its
eigenvalues zeta_e^a, and pqsurf reads it as a number only through traces:
``chars._trace`` is Tr(x zeta_e^-k), which the column-orthogonality
certificate adds up, and at k = 0 Tr(x), which the orbit sums and the
Frobenius-Schur indicators add up.  ``inner_product`` takes only int and
Fraction values.  The reference is arithmetic in Q(zeta_e)
(``cyclotomic_reference``): every stored value of the tables below has its
traces checked, the rows of every table are checked orthogonal in the
field, and the inner products of the rational characters are checked
against the same sums.  Every stored value is checked to be in the one
form a table keeps, so that equal multisets are equal values.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from pqsurf import chars
from pqsurf.chars import (
    ClassFunction,
    character_table,
    inner_product,
    rational_characters,
)
from pqsurf.groups import CATALOG_NAMES, catalog_group, group_from_generators
from pqsurf.perms import parse_permutation

from cyclotomic_reference import Cyclotomic, _root_power, as_cyclotomic, field_inner_product
from test_galois_sums import NAMES as GALOIS_NAMES, group as galois_group

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


def multiset(e, mapping):
    """The value with mapping[a] eigenvalues zeta_e^a, in the form a table
    stores: residues reduced mod e and ascending, each count positive."""
    return tuple(sorted((a % e, m) for a, m in mapping.items() if m))


def is_canonical(value, e):
    """Whether a value is in the form a table stores: (a, count) pairs with
    residues strictly ascending in [0, e) and every count positive."""
    residues = [a for a, _ in value]
    return all(0 <= a < e and count > 0 for a, count in value) and all(
        a < b for a, b in zip(residues, residues[1:])
    )


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


def check_trace_values(values, e):
    """Raise AssertionError where a trace that pqsurf reads disagrees with
    Q(zeta_e) on values of a table of exponent e: ``chars._trace`` at every
    shift k.  A value whose field element is rational must have the trace
    Tr(x) = phi(e) x.  The checks raise explicitly, so they hold under
    ``python -O``."""
    tr = field_traces(e)
    phi_e = tr[0]
    problems = []
    for v in values:
        # Tr(x zeta^-k) = sum of m_a Tr(zeta^(a - k)), the trace being linear
        expected = tuple(sum(m * tr[(a - k) % e] for a, m in v) for k in range(e))
        read = tuple(chars._trace(e, v, k) for k in range(e))
        q = as_cyclotomic(v, e).as_rational()
        if read != expected:
            problems.append(f"{v}: traces {read}, not {expected}")
        elif q is not None and read[0] != phi_e * q:
            problems.append(f"{v}: trace {read[0]}, not phi(e) * {q}")
    if problems:
        raise AssertionError("traces disagree with Q(zeta_e): " + "; ".join(problems[:3]))


# -- values ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_stored_values_match_the_field(name):
    check_trace_values(stored_values(name), group(name).exponent)


def test_extra_groups_have_their_orders():
    assert (group("S6").order, group("C12").order, group("C12").exponent) == (720, 12, 12)


def test_field_identities():
    # 1 + zeta_3 + zeta_3^2 = 0
    value = multiset(3, {0: 1, 1: 1, 2: 1})
    assert as_cyclotomic(value, 3).is_zero() and chars._trace(3, value, 0) == 0
    total = Cyclotomic.from_rational(3, 1) + Cyclotomic.root(3, 1) + Cyclotomic.root(3, 2)
    assert total.is_zero()
    # the primitive 15th roots of unity sum to mu(15) = 1, phi(15) = 8 times
    primitive = multiset(15, {a: 1 for a in range(15) if gcd(a, 15) == 1})
    assert as_cyclotomic(primitive, 15) == 1 and chars._trace(15, primitive, 0) == 8
    # zeta_15 alone is not rational; its conjugates average to mu(15)/phi(15)
    root = multiset(15, {1: 1})
    assert as_cyclotomic(root, 15).as_rational() is None and chars._trace(15, root, 0) == 1
    check_trace_values([primitive, root], 15)


@pytest.mark.parametrize("e", (2, 4, 12))
def test_a_value_is_its_eigenvalue_multiset(e):
    # 1 + 1 and (-1) + (-1) are values of one degree, told apart by their
    # multisets; a value is never one of the numbers it sums to
    two, copy = multiset(e, {0: 2, 1: 0}), multiset(e, {e: 2})
    assert two != 2 and two == copy == ((0, 2),) and len({two, copy}) == 1
    assert two != multiset(e, {e // 2: 2})
    zeros = [multiset(e, {0: 1, e // 2: 1})]
    if e % 4 == 0:
        # i + (-i) and 1 + (-1) are both 0 in Q(zeta_e)
        zeros.append(multiset(e, {e // 4: 1, 3 * e // 4: 1}))
        assert zeros[0] != zeros[1] and len(set(zeros)) == 2
    assert all(as_cyclotomic(z, e).is_zero() and chars._trace(e, z, 0) == 0 for z in zeros)
    check_trace_values([two] + zeros, e)


@pytest.mark.parametrize("name", GALOIS_NAMES)
def test_stored_values_are_in_canonical_form(name):
    # one form per multiset, so that equal multisets are equal values: the
    # twists and the sort of the table compare values as tuples
    G = galois_group(name)
    table = character_table(G)
    for cf, d in zip(table.irreducibles, table.degrees):
        for v in cf.values:
            if type(v) is not tuple or not is_canonical(v, G.exponent):
                raise AssertionError(f"{name}: {v!r} is not in canonical form")
            if sum(m for _, m in v) != d:
                raise AssertionError(f"{name}: the counts of {v} do not sum to {d}")


@pytest.mark.parametrize("multiplicities", [
    ((2, 1), (0, 1)),  # not ascending
    ((0, 1), (0, 1)),  # a repeated residue
    ((4, 1),),  # not reduced mod 4
    ((-1, 1),),
    ((1, 0),),  # an empty count
    ((1, -1),),
])
def test_a_multiset_in_another_form_is_refused(multiplicities):
    # each would compare unequal to the stored value of the same multiset,
    # so the canonical-form check above must refuse it
    assert not is_canonical(multiplicities, 4)


# -- inner products ------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_inner_products_of_irreducibles_match_the_field(name):
    # row orthogonality, summed in Q(zeta_e); the rational characters, which
    # inner_product reads, against the same sums
    table = character_table(group(name))
    irreducibles = table.irreducibles
    for i, a in enumerate(irreducibles):
        for j, b in enumerate(irreducibles):
            assert field_inner_product(a, b) == int(i == j), (name, i, j)
    rationals = rational_characters(table)
    for r in rationals:
        for s in rationals:
            expected = r.schur_index ** 2 * len(r.orbit) if r is s else 0
            assert inner_product(r.psi, s.psi) == field_inner_product(r.psi, s.psi) == expected


@pytest.mark.parametrize("name", ("C4", "C6", "A4", "Q8", "C7semiC3", "C3xC5", "C12"))
def test_random_class_functions_match_the_field(name):
    # seeded random multisets, and multisets closed under the Galois group
    # (rational values), read through their traces; int and Fraction class
    # functions against each other and the rational characters
    G = group(name)
    e = G.exponent
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    rng = random.Random(f"trace {name}")
    rationals = rational_characters(character_table(G))

    def random_value():
        return multiset(e, {rng.randrange(e): rng.randint(1, 3) for _ in range(3)})

    def rational_value():
        a, m = rng.randrange(e), rng.randint(1, 3)
        return multiset(e, {u * a % e: m for u in units})

    def number():
        if rng.random() < 0.5:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    checked = 0
    for _ in range(20):
        rational = [rational_value() for _ in G.classes]
        assert all(as_cyclotomic(v, e).as_rational() is not None for v in rational)
        check_trace_values([random_value() for _ in G.classes] + rational, e)
        a = ClassFunction(G, tuple(number() for _ in G.classes))
        b = ClassFunction(G, tuple(number() for _ in G.classes))
        psi = rng.choice(rationals).psi
        for x, y in ((a, b), (a, a), (a, psi), (psi, b)):
            assert inner_product(x, y) == field_inner_product(x, y)
            checked += 1
    assert checked == 80


def test_inner_product_with_a_root_of_unity_is_not_rational():
    G = catalog_group("C4")
    i = ClassFunction(G, (((1, 1),),) * 4)
    one = ClassFunction(G, (1,) * 4)
    # <zeta_4, 1> = zeta_4
    assert field_inner_product(i, one) is None and field_inner_product(i, i) == 1
    # inner_product reads no character value, whether the sum is rational or not
    for a, b in ((i, one), (one, i), (i, i)):
        with pytest.raises(ValueError, match="int or Fraction"):
            inner_product(a, b)
