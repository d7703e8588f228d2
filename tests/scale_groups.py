"""The permutation groups the benchmark builds from generators, and the
element walks that tests compare the package against.

``GENERATED`` holds the degree and generators of each group the benchmark
builds (``bench/workloads.py``), and ``group`` builds one of them or looks
up a catalog group.  A4 is both; its generators are the catalog's, so
``NAMES`` lists it once.  The references are the paths the package no
longer takes: square-and-multiply powers, the cyclic subgroup and the
discrete log by the walk 1, g, g^2, ..., and the fixed points of an element
found by building each coset of <c_j> as a set of products.
"""

from functools import lru_cache
from math import gcd

from pqsurf.covering import FixedPoint
from pqsurf.groups import CATALOG_NAMES, catalog_group, group_from_generators
from pqsurf.perms import Permutation, parse_permutation

# name -> (degree, generators)
GENERATED = {
    "S4": (4, ("(1,2)", "(1,2,3,4)")),
    "D16": (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)")),
    "C4xC4": (8, ("(1,2,3,4)", "(5,6,7,8)")),
    "C2xD4": (6, ("(1,2)", "(3,4,5,6)", "(4,6)")),
    "C2xD8": (10, ("(1,2)", "(3,4,5,6,7,8,9,10)", "(4,10)(5,9)(6,8)")),
    "S5": (5, ("(1,2)", "(1,2,3,4,5)")),
    "A5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
    "A4": (4, ("(1,2)(3,4)", "(1,2,3)")),
}

NAMES = CATALOG_NAMES + tuple(name for name in GENERATED if name not in CATALOG_NAMES)


@lru_cache(maxsize=None)
def from_generators(degree, gens):
    return group_from_generators([parse_permutation(g, degree) for g in gens])


def group(name):
    if name in GENERATED:
        return from_generators(*GENERATED[name])
    return catalog_group(name)


# -- the walks -------------------------------------------------------------------

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


def reference_fixed_point_data(gv, g):
    """The fixed points of g: every coset x<c_j> built as a set of products,
    met in the order of its smallest element x, and kept when
    x^-1 g x lies in <c_j>."""
    G = gv.group
    out = []
    for j, (c, m) in enumerate(zip(gv.monodromies, gv.orders), start=1):
        sub = reference_cyclic_subgroup(G, c)
        seen = set()
        for x in G.elements:
            coset = frozenset(x * h for h in sub)
            if coset in seen:
                continue
            seen.add(coset)
            x = min(coset)
            conj = x.inverse() * g * x
            if conj in sub:
                out.append(FixedPoint(j, x, reference_rotation_exponent(c, m, conj)))
    return tuple(out)
