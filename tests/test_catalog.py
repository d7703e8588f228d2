import pytest

import pqsurf.cli as cli
from pqsurf import catalog
from pqsurf.chars import character_table, rational_characters
from pqsurf.cli import EXIT_MISMATCH, main
from pqsurf.covering import search_generating_vectors
from pqsurf.errors import NoWitness
from pqsurf.groups import catalog_group
from pqsurf.jacobian import k3_pairing
from pqsurf.surface import geometric_genus


@pytest.mark.parametrize("row", catalog.ROWS, ids=lambda row: row.name)
def test_row_n_m_pins_the_paired_character(row):
    # the row's (d, n, m) names one nontrivial rational character of its
    # group: the witness's match, or on V4 any of the three linear
    # characters, which Aut(V4) permutes
    rats = rational_characters(character_table(catalog_group(row.group_name)))
    _, n, m = row.paired
    same_n_m = [
        i for i, rc in enumerate(rats)
        if i != 0 and (rc.multiplicity_n, rc.schur_index) == (n, m)
    ]
    match = k3_pairing(*catalog.row_witnesses(row.name)).matches[0]
    if row.group_name == "V4":
        assert same_n_m == [1, 2, 3]
        assert match.rational_index in same_n_m
    else:
        assert same_n_m == [match.rational_index]


def test_wrong_schur_index_is_a_mismatch(monkeypatch, capsys):
    q8 = catalog.row_by_name("Q8")
    perturbed = catalog.TableRow(
        q8.name, q8.group_name, q8.genera, q8.branch1, q8.branch2, q8.k2, q8.singularities,
        q8.eta, q8.family_dim, q8.jac1, q8.jac2, paired=(2, 1, 1),  # Q8's match has m = 2
    )
    monkeypatch.setattr(cli, "ROWS", (perturbed,))
    assert main(["reproduce-tables"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "    paired [d,n,m] on curve1: computed (2, 1, 2), expected (2, 1, 1)\n" in out
    assert "    paired [d,n,m] on curve2: computed (2, 1, 2), expected (2, 1, 1)\n" in out
    assert "0/1 rows matched" in out


def reference_select_pair(vectors1, vectors2):
    """The witness rule as one loop: the first pair in search order with a
    base genus other than 1 or with p_g = 2, else the first pair seen."""
    first_valid = None
    for gv1 in vectors1:
        for gv2 in vectors2:
            if first_valid is None:
                first_valid = (gv1, gv2)
            if gv1.base_genus != 1 or gv2.base_genus != 1 or geometric_genus(gv1, gv2) == 2:
                return gv1, gv2
    if first_valid is not None:
        return first_valid
    raise NoWitness("search produced no generating vector pair")


@pytest.mark.parametrize("row", catalog.ROWS, ids=lambda row: row.name)
def test_select_pair_matches_the_reference_on_each_row(row):
    group = catalog_group(row.group_name)
    vectors1 = search_generating_vectors(group, 1, row.branch1)
    vectors2 = search_generating_vectors(group, 1, row.branch2)
    expected = reference_select_pair(vectors1, vectors2)
    assert catalog.select_pair(vectors1, vectors2) == expected
    assert catalog.row_witnesses(row.name) == expected
    assert geometric_genus(*expected) == 2


def test_select_pair_falls_back_to_the_first_pair():
    # no pair of A4 vectors over (1; 2, 2) has p_g = 2
    vectors = search_generating_vectors(catalog_group("A4"), 1, (2, 2))
    assert all(geometric_genus(a, b) != 2 for a in vectors for b in vectors)
    assert catalog.select_pair(vectors, vectors) == (vectors[0], vectors[0])
    assert reference_select_pair(vectors, vectors) == (vectors[0], vectors[0])


def test_select_pair_matches_the_reference_on_mixed_base_genera():
    v4 = catalog_group("V4")
    elliptic = search_generating_vectors(v4, 1, (2, 2))
    rational = search_generating_vectors(v4, 0, (2, 2, 2, 2))
    assert elliptic and rational
    mixed = (elliptic[:2] + rational[:2], rational[:1] + elliptic, elliptic[3:] + rational)
    for vectors1 in mixed:
        for vectors2 in mixed + (elliptic,):
            expected = reference_select_pair(vectors1, vectors2)
            assert catalog.select_pair(vectors1, vectors2) == expected


def test_select_pair_refuses_an_empty_side():
    vectors = search_generating_vectors(catalog_group("V4"), 1, (2, 2))
    for sides in [((), vectors), (vectors, ()), ((), ())]:
        with pytest.raises(NoWitness, match="^search directive produced no generating vector$"):
            catalog.select_pair(*sides)
