"""Element powers, fixed points, closure, class walks and Galois twists
against the paths they replace.

``groups.power_map`` reads the group's power-class table;
``covering.fixed_point_data`` walks the powers of each c_j once for both
the cosets of <c_j> and the discrete log; ``groups._closure`` serves
``group_from_generators``, ``Group.generated_by`` and
``chars.induced_trivial``; ``chars._twist``
finds the complex duals and the Galois orbits.  The closures, the conjugacy
classes, the centralizers and the power classes compose image tuples, so
each element is constructed, and checked to be a bijection, once, by the
closure that builds the group.  The
references are the earlier implementations: square-and-multiply powers,
the cyclic subgroup and the discrete log by a walk g, g^2, ..., the cosets
built as sets of products (``scale_groups``), a closure that counts until
it holds |G| elements, class walks on ``Permutation`` products, and an
orbit search keyed by tuples of ``Cyclotomic`` values.  They are compared on
the catalog groups and on the permutation groups the benchmark builds from
generators.
"""

import random
from math import gcd
from pathlib import Path

import pytest

from pqsurf import groups
from pqsurf.chars import character_table, rational_characters
from pqsurf.cli import main
from pqsurf.covering import fixed_point_data, search_generating_vectors
from pqsurf.errors import InternalInconsistency, SizeLimit
from pqsurf.groups import group_from_generators, power_map
from pqsurf.perms import Permutation, parse_permutation

from conveniences import class_index
from cyclotomic_reference import value_cyc
from planted import planted
from scale_groups import (
    NAMES,
    group,
    reference_cyclic_subgroup,
    reference_fixed_point_data,
    reference_pow,
)

REPO = Path(__file__).resolve().parents[1]

# one signature per group whose first vectors the fixed-point tests walk
FIXED_POINT_SIGNATURES = {
    "C2": (1, (2, 2)),
    "C4": (0, (2, 4, 4)),
    "C6": (0, (2, 3, 6)),
    "V4": (1, (2, 2)),
    "S3": (1, (2, 2)),
    "D4": (1, (2, 2)),
    "Q8": (1, (2,)),
    "A4": (1, (2,)),
    "C4xC2semiC2": (0, (2, 2, 2, 4)),
    "S4": (1, (2, 2)),
    "D16": (1, (2, 2)),
    "C4xC4": (1, (2, 2)),
    "C2xD4": (1, (2, 2)),
    "C2xD8": (0, (2, 2, 2, 8)),
    "S5": (0, (2, 4, 5)),
    "A5": (0, (2, 5, 5)),
}


def fixed_point_vectors(name):
    g0, orders = FIXED_POINT_SIGNATURES[name]
    vectors = search_generating_vectors(group(name), g0, orders)[:4]
    assert vectors, name
    return vectors


# -- the replaced paths ---------------------------------------------------------

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


def reference_conjugacy_classes(elements, generators):
    """Classes and conjugators from ``Permutation`` products, each product
    looked up in a table of the group's own elements."""
    own = {g: g for g in elements}
    identity = elements[0]
    inverses = [(s, s.inverse()) for s in generators]
    classes = []
    to_rep = {}
    for x in elements:
        if x in to_rep:
            continue
        to_rep[x] = identity
        orbit = [x]
        frontier = [x]
        while frontier:
            w = frontier.pop()
            yw = to_rep[w]
            for s, si in inverses:
                z = own[s * w * si]
                if z not in to_rep:
                    to_rep[z] = own[yw * si]
                    orbit.append(z)
                    frontier.append(z)
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (c[0].order(), c[0]))
    return tuple(classes), to_rep


def reference_centralizer(G, idx):
    rep = G.class_reps[idx]
    covered = set()
    pairs = []
    for c in G.elements:
        if c not in covered and c * rep == rep * c:
            covered.update(c * z for z in G.centre)
            pairs.append((c, c.inverse()))
    return tuple(pairs)


def reference_power_classes(G):
    return tuple(
        tuple(G._class_of[reference_pow(rep, t)] for t in range(rep.order())) for rep in G.class_reps
    )


def reference_power_map(G, k):
    return tuple(class_index(G, reference_pow(rep, k)) for rep in G.class_reps)


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


# -- powers and fixed points --------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_powers_match_square_and_multiply(name):
    G = group(name)
    for c, rep in enumerate(G.class_reps):
        m = rep.order()
        for k in range(-m, m + 1):
            assert power_map(G, k)[c] == class_index(G, reference_pow(rep, k)), (rep, k)


@pytest.mark.parametrize("name", NAMES)
def test_cyclic_subgroups_match_the_walk(name):
    """The elements that fix the point x<c_j>, with the identity, are its
    stabilizer x<c_j>x^-1, the cyclic subgroup walked from x c_j x^-1."""
    G = group(name)
    for gv in fixed_point_vectors(name):
        stabilizers = {}
        for g in G.elements[1:]:
            for fp in fixed_point_data(gv, g):
                stabilizers.setdefault((fp.branch_index, fp.coset_rep), {G.identity}).add(g)
        points = 0
        for j, (c, m) in enumerate(zip(gv.monodromies, gv.orders), start=1):
            reps = sorted(x for i, x in stabilizers if i == j)
            assert len(reps) == G.order // m
            for x in reps:
                walked = reference_cyclic_subgroup(G, x * c * x.inverse())
                assert stabilizers[j, x] == walked, (j, x)
            points += len(reps)
        assert len(stabilizers) == points


@pytest.mark.parametrize("name", NAMES)
def test_rotation_exponents_match_the_walk(name):
    """``fixed_point_data`` against the coset walk it replaced, on every
    nontrivial element: the same points, in the same order, with the same
    rotation exponents."""
    G = group(name)
    for gv in fixed_point_vectors(name):
        for g in G.elements[1:]:
            assert fixed_point_data(gv, g) == reference_fixed_point_data(gv, g), (gv, g)


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
        out.append(tuple(rng.sample(sorted(reference_cyclic_subgroup(G, g)), 1)))
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
        # the closure stops as soon as it holds ``limit`` elements; inside
        # the group it holds the group's own element objects
        for limit in (n - 1, n, n + 1):
            if limit > 1:
                built = groups._closure(elements, G.identity, limit)
                read = groups._closure(elements, G.identity, limit, G._element)
                assert len(built) == len(read) == min(limit, n), (elements, limit)
                assert all(G._element[x] is x for x in read)
    if G.order > 2:
        assert outcomes == {True, False}


@pytest.mark.parametrize("name", NAMES)
def test_order_cap_is_exact(monkeypatch, name):
    G = group(name)
    monkeypatch.setattr(groups, "ORDER_CAP", G.order)
    assert group_from_generators(G.generators) == G
    monkeypatch.setattr(groups, "ORDER_CAP", G.order - 1)
    with pytest.raises(SizeLimit):
        group_from_generators(G.generators)


# -- class walks ------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_class_walks_match_permutation_products(name):
    G = group(name)
    classes, to_rep = reference_conjugacy_classes(G.elements, G.generators)
    assert G.classes == classes
    assert G._to_rep == to_rep
    assert G.centre == tuple(c[0] for c in classes if len(c) == 1)
    centralizers = [G._centralizer(idx) for idx in range(len(classes))]
    assert centralizers == [reference_centralizer(G, idx) for idx in range(len(classes))]
    assert G._power_classes == reference_power_classes(G)
    # every stored element is a Permutation, as ``Group.__contains__``
    # requires, and is the group's own element object
    stored = [
        *G.elements, *(g for c in G.classes for g in c), *G.class_reps, *G.centre,
        *G._to_rep, *G._to_rep.values(), *(x for pairs in centralizers for pair in pairs for x in pair),
    ]
    assert all(type(x) is Permutation for x in stored)
    assert all(G._element[x] is x for x in stored)


@pytest.fixture
def constructions(monkeypatch):
    """The number of ``Permutation.__new__`` calls made so far."""
    count = [0]
    real = Permutation.__new__

    def counting(cls, images):
        count[0] += 1
        return real(cls, images)

    monkeypatch.setattr(Permutation, "__new__", counting)
    return count


def constructions_of(count, fn, *args):
    """The value of fn(*args) and the constructions it made."""
    before = count[0]
    value = fn(*args)
    return value, count[0] - before


# one construction per product would make 240 in the closure of S5 alone
@pytest.mark.parametrize("degree, gens", [(5, ("(1,2)", "(1,2,3,4,5)")), (6, ("(1,2)", "(1,2,3,4,5,6)"))])
def test_each_element_is_constructed_once(constructions, degree, gens):
    gens = [parse_permutation(g, degree) for g in gens]
    built = [constructions_of(constructions, group_from_generators, gens) for _ in range(3)]
    G, count = built[0]
    assert count <= G.order + len(gens) + 1
    # the identity and one per other element; the generators' inverses are
    # read from the element table
    assert count == G.order
    assert [c for _, c in built] == [count] * 3
    # a closure inside the group reads each product from its element table
    for elements in (G.generators, G.class_reps[1:3]):
        assert [constructions_of(constructions, G.generated_by, elements)[1] for _ in range(3)] == [0] * 3


# -- a product missing from the element table ----------------------------------------

def lacking(monkeypatch):
    """Patch ``groups._closure`` to drop the largest element, a non-central
    element of every group used below, from each closure it returns."""
    real = groups._closure

    def closure(gens, identity, limit, table=None):
        elements = real(gens, identity, limit, table)
        return elements - {max(elements)}

    monkeypatch.setattr(groups, "_closure", closure)


@planted
def test_planted_missing_element_stops_the_class_walk(monkeypatch, capsys, tmp_path):
    A4 = group("A4")
    assert max(A4.elements) not in A4.centre
    lacking(monkeypatch)
    with pytest.raises(InternalInconsistency, match="conjugacy classes: the product .* is not in"):
        group_from_generators(A4.generators)
    # the same group named by its generators reaches the walk through the CLI
    path = tmp_path / "a4.surface"
    path.write_text(
        (REPO / "surfaces" / "a4.surface").read_text().replace("name = A4", "generators = (1,2)(3,4) ; (1,2,3)")
    )
    assert main(["analyze", str(path)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InternalInconsistency: conjugacy classes: the product ")


@planted
def test_planted_missing_element_stops_the_closure_inside_the_group(monkeypatch):
    G = group_from_generators(group("S4").generators)
    g = max(G.elements)
    assert g not in G.centre
    monkeypatch.delitem(G._element, g)
    with pytest.raises(InternalInconsistency, match="closure: the product .* is not in"):
        G.generated_by(G.generators)


@planted
def test_planted_missing_element_stops_centralizers_and_power_classes(monkeypatch):
    G = group_from_generators(group("S4").generators)
    # a 4-cycle: its centralizer is the cyclic group it generates
    idx = len(G.classes) - 1
    c = G.class_reps[idx]
    assert c.order() == 4
    monkeypatch.delitem(G._element, c.inverse())
    with pytest.raises(InternalInconsistency, match="centralizer: the product"):
        G._centralizer(idx)
    monkeypatch.delitem(G._class_of, c * c)
    with pytest.raises(InternalInconsistency, match="power classes: the product"):
        G._power_classes


# -- Galois twists ------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_orbits_and_duals_match_cyclotomic_lookup(name):
    table = character_table(group(name))
    assert table.dual == reference_dual(table)
    orbits = tuple(rc.orbit for rc in rational_characters(table))
    assert orbits == reference_orbits(table)
