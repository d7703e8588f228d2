"""The canonical form of the generating-vector search against its definition.

``covering._canonical`` computes the lexicographically smallest simultaneous
conjugate over one centralizer coset; the reference below takes the minimum
over all of G, as the definition reads.  Both must give the same key on every
searched vector and on every conjugate of it, and a search keyed by the
reference must return the same vectors.
"""

from functools import lru_cache

import pytest

from pqsurf import covering
from pqsurf.catalog import ROWS
from pqsurf.cli import EXIT_INTERNAL, main
from pqsurf.covering import _canonical, search_generating_vectors
from pqsurf.errors import InternalInconsistency
from pqsurf.groups import catalog_group, group_from_generators
from pqsurf.perms import parse_permutation

# degree and generators of the permutation groups the benchmark searches
GENERATED = {
    "S4": (4, ("(1,2)", "(1,2,3,4)")),
    "D16": (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)")),
    "C4xC4": (8, ("(1,2,3,4)", "(5,6,7,8)")),
    "C2xD4": (6, ("(1,2)", "(3,4,5,6)", "(4,6)")),
    "S5": (5, ("(1,2)", "(1,2,3,4,5)")),
    "A5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
    "A4": (4, ("(1,2)(3,4)", "(1,2,3)")),
}

SIGNATURES = [
    ("S4", 1, (2, 2)),
    ("D16", 1, (2, 2)),
    ("C2xD4", 1, (2, 2)),
    ("C4xC4", 1, (2, 2)),
    ("S5", 0, (2, 4, 5)),
    ("A5", 0, (2, 5, 5)),
    ("A4", 2, ()),
] + sorted({(row.group_name, 1, branch) for row in ROWS for branch in (row.branch1, row.branch2)})


@lru_cache(maxsize=None)
def group(name):
    if name in GENERATED:
        degree, gens = GENERATED[name]
        return group_from_generators([parse_permutation(g, degree) for g in gens])
    return catalog_group(name)


@lru_cache(maxsize=None)
def search(name, g0, orders):
    return search_generating_vectors(group(name), g0, orders)


def reference_canonical(G, vec):
    return min(tuple((x * g * x.inverse()).images for g in vec) for x in G.elements)


def flat(gv):
    return tuple(h for pair in gv.handles for h in pair) + gv.monodromies


def signature_id(sig):
    name, g0, orders = sig
    return f"{name}-g{g0}-{','.join(map(str, orders)) or 'none'}"


@pytest.mark.parametrize("sig", SIGNATURES, ids=signature_id)
def test_canonical_matches_minimum_over_group(sig):
    G = group(sig[0])
    vectors = search(*sig)
    assert vectors
    for gv in vectors:
        vec = flat(gv)
        key = reference_canonical(G, vec)
        assert _canonical(G, vec) == key
        for x in G.elements:
            xi = x.inverse()
            assert _canonical(G, tuple(x * g * xi for g in vec)) == key


def fresh_group(G):
    """An equal group built anew, so that no earlier search is kept on it
    and a patched search really scans."""
    return group_from_generators(G.generators)


@pytest.mark.parametrize("sig", SIGNATURES, ids=signature_id)
def test_search_matches_reference_search(sig, monkeypatch):
    expected = search(*sig)
    monkeypatch.setattr(covering, "_canonical", reference_canonical)
    found = search_generating_vectors(fresh_group(group(sig[0])), sig[1], sig[2])
    assert found is not expected
    assert found == expected


def test_canonical_of_empty_tuple():
    assert _canonical(group("A4"), ()) == ()


def test_orbit_count_certificate(monkeypatch, capsys):
    # a key that separates conjugate tuples counts every tuple as its own
    # orbit, which the certificate must reject
    monkeypatch.setattr(covering, "_canonical", lambda G, vec: tuple(g.images for g in vec))
    with pytest.raises(InternalInconsistency, match="orbits"):
        search_generating_vectors(fresh_group(catalog_group("S3")), 1, (3,))
    # the command searches the catalog group itself; drop what earlier
    # searches kept on it for the length of this test
    monkeypatch.setattr(catalog_group("S3"), "_searches", {})
    assert main(["search", "S3", "1", "3"]) == EXIT_INTERNAL == 7
    err = capsys.readouterr().err
    assert err.startswith("InternalInconsistency:")
