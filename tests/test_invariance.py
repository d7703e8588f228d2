"""Moves that give an isomorphic surface leave its invariants unchanged.

Bauer-Catanese-Grunewald-Pignatelli (Quotients of products of curves, new
surfaces with p_g = 0 and their fundamental groups) identify (C1 x C2)/G
under, among others, three moves on a pair of generating vectors:

* conjugating the second vector alone, by x: (p, q) -> (p, x q) carries
  the diagonal action twisted by x on the second factor to the original;
* swapping the curves: the singularity 1/n(1,q) then reads 1/n(1,q'), with
  q q' = 1 mod n, since the stabilizer generator rotating C2 by zeta_n
  rotates C1 by zeta_n^q';
* a braid move on the second curve's monodromies, which keeps the curve
  and the action and renumbers the branch points.

K^2, e, p_g, eta and the basket must come out the same.  The pairs are
sampled with a fixed seed from the scale-set groups and A4.
"""

import random

import pytest

from pqsurf.covering import GeneratingVector, search_generating_vectors
from pqsurf.groups import catalog_group, group_from_generators
from pqsurf.perms import parse_permutation
from pqsurf.surface import invariants

# name -> degree, generators (None for the catalog group), base genus, orders
SAMPLES = {
    "S4": (4, ("(1,2)", "(1,2,3,4)"), 1, (2, 2)),
    "D16": (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)"), 1, (2, 2)),
    "A4": (None, None, 1, (2, 2)),
    "S5": (5, ("(1,2)", "(1,2,3,4,5)"), 0, (2, 4, 5)),
    "A5": (5, ("(1,2,3)", "(1,2,3,4,5)"), 0, (2, 5, 5)),
}
PAIRS = 15


def conjugated(gv, x):
    xi = x.inverse()
    return GeneratingVector(
        gv.group,
        gv.base_genus,
        tuple((x * a * xi, x * b * xi) for a, b in gv.handles),
        tuple(x * c * xi for c in gv.monodromies),
        gv.orders,
    )


def braided(gv, i):
    """The braid move (c_i, c_i+1) -> (c_i c_i+1 c_i^-1, c_i), which keeps
    the product c_i c_i+1."""
    monos, orders = list(gv.monodromies), list(gv.orders)
    c, d = monos[i], monos[i + 1]
    monos[i : i + 2] = [c * d * c.inverse(), c]
    orders[i : i + 2] = [orders[i + 1], orders[i]]
    return GeneratingVector(gv.group, gv.base_genus, gv.handles, tuple(monos), tuple(orders))


def summary(report, swapped=False):
    basket = sorted(
        (s.n, pow(s.q, -1, s.n) if swapped else s.q) for s in report.singularities
    )
    return report.k2, report.e, report.p_g, report.eta, basket


@pytest.mark.parametrize("name", list(SAMPLES))
def test_invariants_survive_isomorphism_moves(name):
    degree, gens, g0, orders = SAMPLES[name]
    if gens is None:
        group = group_from_generators(catalog_group(name).generators)
    else:
        group = group_from_generators([parse_permutation(g, degree) for g in gens])
    vectors = search_generating_vectors(group, g0, orders)
    rng = random.Random(f"invariance-{name}")
    for _ in range(PAIRS):
        # conjugating the second vector makes distinct pairs also where the
        # search finds a single vector
        gv1 = rng.choice(vectors)
        gv2 = conjugated(rng.choice(vectors), rng.choice(group.elements))
        expected = summary(invariants(gv1, gv2))
        x = rng.choice(group.elements)
        i = rng.randrange(len(orders) - 1)
        assert summary(invariants(gv1, conjugated(gv2, x))) == expected
        assert summary(invariants(gv2, gv1), swapped=True) == expected
        assert summary(invariants(gv1, braided(gv2, i))) == expected
