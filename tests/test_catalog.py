import dataclasses

import pytest

import pqsurf.cli as cli
from pqsurf import catalog
from pqsurf.chars import character_table, rational_characters
from pqsurf.cli import EXIT_MISMATCH, main
from pqsurf.groups import catalog_group
from pqsurf.jacobian import k3_pairing


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
    perturbed = dataclasses.replace(q8, paired=(2, 1, 1))  # Q8's match has m = 2
    monkeypatch.setattr(cli, "ROWS", (perturbed,))
    assert main(["reproduce-tables"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "    paired [d,n,m] on curve1: computed (2, 1, 2), expected (2, 1, 1)\n" in out
    assert "    paired [d,n,m] on curve2: computed (2, 1, 2), expected (2, 1, 1)\n" in out
    assert "0/1 rows matched" in out
