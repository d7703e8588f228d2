"""The canonical form of the generating-vector search against its definition,
and the key-first search against the closure-first scan it replaced.

``covering._canonical`` computes the lexicographically smallest simultaneous
conjugate over C(rep)/Z(G), one element per centre coset of the centralizer
of the first entry's class representative; the reference below takes the
minimum over all of G, as the definition reads.  Both must give the same key
on every searched vector and on every conjugate of it, and a search keyed by
the reference must return the same vectors.

The search computes the key of each candidate tuple first and runs one
closure per key; ``closure_first_search`` keeps the earlier scan, a closure
for every candidate and a key for every generating one.  Both must keep the
same tuples in the same order, from the same number of generating tuples.
"""

import itertools
from functools import lru_cache

import pytest

from pqsurf import covering
from pqsurf.catalog import ROWS
from pqsurf.cli import EXIT_INTERNAL, main
from pqsurf.covering import _canonical, search_generating_vectors
from pqsurf.errors import InternalInconsistency
from pqsurf.groups import catalog_group, group_from_generators

from scale_groups import group

# the searches of the benchmark's scale-search workload (bench/workloads.py)
SCALE_SEARCHES = [
    ("S4", 1, (2, 2)),
    ("D16", 1, (2, 2)),
    ("C4xC4", 1, (2, 2)),
    ("C2xD4", 1, (2, 2)),
    ("S5", 1, (2,)),
    ("S5", 0, (2, 4, 5)),
    ("A5", 0, (2, 5, 5)),
]

CATALOG_SIGNATURES = sorted(
    {(row.group_name, 1, branch) for row in ROWS for branch in (row.branch1, row.branch2)}
)

# S5 (2,) is left out: the minimum over all of S5 for each of its 3720
# candidate tuples would make the reference-keyed search too slow
SIGNATURES = (
    [sig for sig in SCALE_SEARCHES if sig != ("S5", 1, (2,))]
    + [("A4", 2, ())]
    + CATALOG_SIGNATURES
)

# S3 over a genus-2 base with no branch points: the scan's closing check
# with no monodromies, where the handle commutators alone must close up
DIFFERENTIAL = SCALE_SEARCHES + CATALOG_SIGNATURES + [("S3", 2, ())]


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


def closure_first_search(G, base_genus, orders):
    """The scan before the key came first: every tuple that passes the
    relation and the order checks is closed, and each generating one is
    keyed.  Returns the first tuple met per key, sorted by key, and the
    number of generating tuples."""
    by_order = {m: [g for g in G.elements if g.order() == m] for m in orders}
    found = {}
    accepted = 0
    for handle_vals in itertools.product(G.elements, repeat=2 * base_genus):
        word = G.identity
        for a, b in zip(handle_vals[::2], handle_vals[1::2]):
            word = word * a * b * a.inverse() * b.inverse()
        if not orders:
            candidates = [()] if word.is_identity() else []
        else:
            candidates = itertools.product(*(by_order[m] for m in orders[:-1]))
        for head in candidates:
            monos = ()
            if orders:
                prefix = word
                for c in head:
                    prefix = prefix * c
                last = prefix.inverse()
                if last.is_identity() or last.order() != orders[-1]:
                    continue
                monos = head + (last,)
            listed = handle_vals + monos
            if not G.generated_by(listed):
                continue
            accepted += 1
            found.setdefault(_canonical(G, listed), listed)
    return [found[key] for key in sorted(found)], accepted


@pytest.mark.parametrize("sig", DIFFERENTIAL, ids=signature_id)
def test_search_matches_closure_first_search(sig):
    G = group(sig[0])
    expected, accepted = closure_first_search(G, sig[1], sig[2])
    found = search_generating_vectors(fresh_group(G), sig[1], sig[2])
    assert [flat(gv) for gv in found] == expected
    # the key-first search's own certificate holds its count of generating
    # tuples to len(found) * |G|/|Z(G)|; the centre here is counted anew
    centre = sum(1 for z in G.elements if all(z * g == g * z for g in G.generators))
    assert accepted == len(found) * G.order // centre


def test_orbit_count_certificate(monkeypatch, capsys):
    # a key that separates conjugate tuples counts every tuple as its own
    # orbit, which the certificate must reject
    monkeypatch.setattr(covering, "_canonical", lambda G, vec: tuple(g.images for g in vec))
    with pytest.raises(InternalInconsistency, match="orbits"):
        search_generating_vectors(fresh_group(catalog_group("S3")), 1, (3,))
    # the command searches the catalog group itself; drop what earlier
    # tests kept on it for the length of this test
    monkeypatch.setattr(catalog_group("S3"), "_memo", {})
    assert main(["search", "S3", "1", "3"]) == EXIT_INTERNAL == 7
    err = capsys.readouterr().err
    assert err.startswith("InternalInconsistency:")


def test_orbit_count_certificate_rejects_a_too_coarse_key(monkeypatch):
    # a key that merges orbits, here the class of the first entry, gives
    # every tuple of a merged orbit the verdict of the first one met: the
    # tuples it counts as generating outnumber |G|/|Z(G)| per kept orbit
    monkeypatch.setattr(covering, "_canonical", lambda G, vec: G._class_of[vec[0]])
    with pytest.raises(InternalInconsistency, match="orbits"):
        search_generating_vectors(fresh_group(catalog_group("S3")), 1, (3,))
