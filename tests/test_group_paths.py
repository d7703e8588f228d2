"""Element powers, closure and Galois twists against the paths they replace.

``Permutation.powers`` now serves ``__pow__``, ``cyclic_subgroup``,
``rotation_exponent`` and Dixon's power classes; ``groups._closure`` serves
``group_from_generators`` and ``Group.generated_by``; ``chars._twist`` finds
the complex duals and the Galois orbits.  The references below are the
earlier implementations: a walk g, g^2, ... for the cyclic subgroup and the
discrete log, square-and-multiply powers, a closure that counts until it
holds |G| elements, and an orbit search keyed by tuples of ``Cyclotomic``
values.  They are compared on the catalog groups and on the permutation
groups the benchmark analyses.
"""

import random
from functools import lru_cache
from math import gcd

import pytest

from pqsurf import groups
from pqsurf.chars import character_table, rational_characters
from pqsurf.covering import rotation_exponent
from pqsurf.errors import SizeLimit
from pqsurf.groups import CATALOG_NAMES, catalog_group, cyclic_subgroup, group_from_generators
from pqsurf.perms import Permutation, parse_permutation

from cyclotomic_reference import value_cyc

# degree and generators of the benchmark's scale-analyze groups
GENERATED = {
    "S4": (4, ("(1,2)", "(1,2,3,4)")),
    "D16": (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)")),
    "C2xD8": (10, ("(1,2)", "(3,4,5,6,7,8,9,10)", "(4,10)(5,9)(6,8)")),
    "S5": (5, ("(1,2)", "(1,2,3,4,5)")),
    "A5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
}

NAMES = CATALOG_NAMES + tuple(GENERATED)


@lru_cache(maxsize=None)
def group(name):
    if name in GENERATED:
        degree, gens = GENERATED[name]
        return group_from_generators([parse_permutation(g, degree) for g in gens])
    return catalog_group(name)


# -- the replaced paths ---------------------------------------------------------

def reference_pow(g, k):
    """Square-and-multiply, the exponent reduced mod the order."""
    k %= g.order()
    result = Permutation.identity(g.degree)
    base = g
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def reference_cyclic_subgroup(G, g):
    out = set()
    x = Permutation.identity(G.degree)
    while True:
        out.add(x)
        x = x * g
        if x in out:
            break
    return frozenset(out)


def reference_rotation_exponent(generator, m, t):
    x = Permutation.identity(generator.degree)
    for s in range(m):
        if x == t:
            return s // gcd(s, m)
        x = x * generator
    raise ValueError("element does not stabilize the point")


def reference_closure_size(elements, G):
    """Size of the closure, counted until it holds |G| elements."""
    identity = Permutation.identity(G.degree)
    seen = {identity}
    frontier = [identity]
    gens = [g for g in elements if not g.is_identity()]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = s * x
            if y not in seen:
                seen.add(y)
                frontier.append(y)
                if len(seen) == G.order:
                    return G.order
    return len(seen)


def reference_power_map(G, k):
    return tuple(G.class_index(reference_pow(rep, k)) for rep in G.class_reps)


def reference_orbits(table):
    """Galois orbits found by keying each irreducible by its tuple of
    Cyclotomic values and looking up its twist by every unit mod e."""
    G = table.group
    e = G.exponent
    k = len(G.classes)
    key_to_index = {
        tuple(value_cyc(cf, c) for c in range(k)): i for i, cf in enumerate(table.irreducibles)
    }
    power_maps = [reference_power_map(G, u) for u in range(1, e + 1) if gcd(u, e) == 1]
    orbits = []
    seen = set()
    for i, cf in enumerate(table.irreducibles):
        if i in seen:
            continue
        orbit = {key_to_index[tuple(value_cyc(cf, pm[c]) for c in range(k))] for pm in power_maps}
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def reference_dual(table):
    k = len(table.group.classes)
    key_to_index = {
        tuple(value_cyc(cf, c) for c in range(k)): i for i, cf in enumerate(table.irreducibles)
    }
    return tuple(
        key_to_index[tuple(value_cyc(cf, c).conjugate() for c in range(k))]
        for cf in table.irreducibles
    )


# -- powers -------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_powers_match_square_and_multiply(name):
    for g in group(name).elements:
        m = g.order()
        powers = g.powers()
        assert len(powers) == m and powers[0].is_identity()
        for k in range(-m, m + 1):
            assert g ** k == reference_pow(g, k), (g, k)
            assert powers[k % m] == reference_pow(g, k)


@pytest.mark.parametrize("name", NAMES)
def test_cyclic_subgroups_match_the_walk(name):
    G = group(name)
    for g in G.elements:
        assert cyclic_subgroup(G, g) == reference_cyclic_subgroup(G, g)


@pytest.mark.parametrize("name", NAMES)
def test_rotation_exponents_match_the_walk(name):
    G = group(name)
    for c in G.elements:
        if c.is_identity():
            continue
        m = c.order()
        sub = reference_cyclic_subgroup(G, c)
        for t in G.elements:
            if t in sub:
                assert rotation_exponent(c, m, t) == reference_rotation_exponent(c, m, t)
            else:
                with pytest.raises(ValueError, match="does not stabilize the point"):
                    rotation_exponent(c, m, t)


# -- closure ----------------------------------------------------------------------

def subsets(G, rng, count=40):
    """Seeded random subsets of G, and of proper subgroups of G: a
    centralizer and a cyclic subgroup of a random element."""
    out = [(), (G.identity,)]
    for _ in range(count):
        out.append(tuple(rng.choice(G.elements) for _ in range(rng.randint(1, 3))))
        g = rng.choice(G.elements)
        centralizer = [x for x in G.elements if x * g == g * x]
        out.append(tuple(rng.choice(centralizer) for _ in range(rng.randint(1, 3))))
        out.append(tuple(rng.sample(sorted(cyclic_subgroup(G, g)), 1)))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_generated_by_matches_counting_closure(name):
    G = group(name)
    rng = random.Random(sum(map(ord, name)))
    outcomes = set()
    for elements in subsets(G, rng):
        n = reference_closure_size(elements, G)
        outcomes.add(n == G.order)
        assert G.generated_by(elements) == (n == G.order), elements
        # the closure stops as soon as it holds ``limit`` elements
        for limit in (n - 1, n, n + 1):
            if limit > 1:
                size = len(groups._closure(elements, G.identity, limit))
                assert size == min(limit, n), (elements, limit)
    if G.order > 2:
        assert outcomes == {True, False}


@pytest.mark.parametrize("name", NAMES)
def test_order_cap_is_exact(name):
    G = group(name)
    assert group_from_generators(G.generators, max_order=G.order) == G
    with pytest.raises(SizeLimit):
        group_from_generators(G.generators, max_order=G.order - 1)


# -- Galois twists ------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_orbits_and_duals_match_cyclotomic_lookup(name):
    table = character_table(group(name))
    assert table.dual == reference_dual(table)
    orbits = tuple(rc.orbit for rc in rational_characters(table))
    assert orbits == reference_orbits(table)
