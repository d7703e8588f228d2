"""Error paths and report flags not covered by the main module tests."""

import pytest

from pqsurf.chars import character_table
from pqsurf.covering import GeneratingVector, fixed_point_data, search_generating_vectors
from pqsurf.errors import GroupMismatch, NotInGroup
from pqsurf.groups import catalog_group
from pqsurf.jacobian import k3_pairing
from pqsurf.perms import parse_permutation
from pqsurf.surface import euler_characteristic, invariants, quotient_singularities
from test_covering import v4_example_pair


def test_not_in_group_errors():
    G = catalog_group("V4")
    ct = character_table(G)
    stranger = parse_permutation("(1,2)", 4)
    with pytest.raises(NotInGroup):
        ct.irreducibles[0].at(stranger)
    gv1, _ = v4_example_pair()
    with pytest.raises(NotInGroup):
        fixed_point_data(gv1, stranger)


def test_group_mismatch_between_curves():
    gv1, _ = v4_example_pair()
    q8 = catalog_group("Q8")
    other = search_generating_vectors(q8, 1, (2,))[0]
    with pytest.raises(GroupMismatch):
        quotient_singularities(gv1, other)
    with pytest.raises(GroupMismatch):
        euler_characteristic(gv1, other)


def test_pairing_none_status():
    # an unbranched second curve has no nontrivial isotypical factors
    gv1, _ = v4_example_pair()
    G = gv1.group
    etale = GeneratingVector(
        G, 1,
        ((parse_permutation("(1,2)(3,4)", 4), parse_permutation("(1,3)(2,4)", 4)),),
        (), (),
    )
    report = k3_pairing(gv1, etale)
    assert report.status == "none"
    assert report.matches == ()
    assert any("NoMatch" in note for note in report.notes)


def test_not_pg_q2_flag_still_produces_report():
    # same branch involution on both V4-curves: p_g = 3, report carries the flag
    G = catalog_group("V4")
    t = parse_permutation("(1,2)(3,4)", 4)
    vectors = [
        gv for gv in search_generating_vectors(G, 1, (2, 2)) if gv.monodromies[0] == t
    ]
    rep = invariants(vectors[0], vectors[0])
    assert rep.p_g == 3
    assert "NotPgQ2" in rep.warnings
    assert rep.e + rep.k2 == 12 * rep.chi


def test_description_with_custom_generators(tmp_path, capsys):
    from pqsurf.cli import main

    desc = tmp_path / "custom.surface"
    desc.write_text(
        "[group]\n"
        "generators = (1,2)(3,4) ; (1,3)(2,4)\n"
        "[curve1]\n"
        "genus0 = 1\n"
        "search = 2, 2\n"
        "[curve2]\n"
        "genus0 = 1\n"
        "search = 2, 2\n"
    )
    code = main(["analyze", str(desc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "K^2=8" in out


def test_search_cli_exit_6(capsys):
    from pqsurf.cli import EXIT_SEARCH_SPACE, main

    code = main(["search", "C4xC2semiC2", "3", "2,2,2,2,2"])
    err = capsys.readouterr().err
    assert code == EXIT_SEARCH_SPACE
    assert "SearchSpaceTooLarge" in err
