"""Error paths and report flags not covered by the main module tests."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsurf.analysis import analyze_pair
from pqsurf.covering import GeneratingVector, fixed_point_data, search_generating_vectors
from pqsurf.descfile import parse_description, resolve_group
from pqsurf.errors import GroupMismatch, NotInGroup, PqsurfError
from pqsurf.groups import catalog_group
from pqsurf.jacobian import k3_pairing
from pqsurf.perms import parse_permutation
from pqsurf.surface import euler_characteristic, invariants, quotient_singularities
from test_covering import v4_example_pair


def test_not_in_group_errors():
    G = catalog_group("V4")
    stranger = parse_permutation("(1,2)", 4)
    with pytest.raises(NotInGroup):
        G.require(stranger)
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
        G,
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
    assert rep["p_g"] == 3
    assert "NotPgQ2" in analyze_pair(vectors[0], vectors[0])["warnings"]
    assert rep["e"] + rep["K2"] == 12 * rep["chi"]


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


# description grammar: the sections and the keys each one takes
SECTION_KEYS = {
    "group": ("name", "generators"),
    "curve1": ("genus0", "handles", "monodromies", "orders", "search"),
    "curve2": ("genus0", "handles", "monodromies", "orders", "search"),
    "options": ("format",),
    "aux": ("name", "generators", "genus0", "handles", "monodromies", "orders", "search"),
}

# a point is one digit from 1 to 6 followed by a non-digit, so that no
# generated group acts on more than 6 points
_point = st.builds(lambda d, c: d + c, st.sampled_from("123456"), st.sampled_from(",)] ;%"))
_value_text = st.lists(
    st.one_of(_point, st.sampled_from(list("%([;,)] 0-") + ["%(genus0)s", "%%", "V4", "S3"])),
    max_size=10,
).map("".join)


def _section(keys):
    return st.dictionaries(st.sampled_from(keys), _value_text, max_size=4)


_sections = st.fixed_dictionaries(
    {},
    optional={name: _section(keys) for name, keys in SECTION_KEYS.items()},
)
_json_value = st.one_of(
    _value_text,
    st.integers(-2, 3),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(_value_text, st.integers(-2, 3)), max_size=3),
)
_json_sections = st.fixed_dictionaries(
    {},
    optional={
        name: st.dictionaries(st.sampled_from(keys), _json_value, max_size=4)
        for name, keys in SECTION_KEYS.items()
    },
)


def _ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in sections.items()
    )


def _parse_and_resolve(path):
    try:
        desc = parse_description(path)
        resolve_group(desc.group)
        if desc.aux is not None:
            resolve_group(desc.aux[0])
    except PqsurfError:
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_sections.map(_ini), _json_sections.map(json.dumps)))
def test_a_description_fails_only_with_a_domain_error(tmp_path, text):
    # anything but a PqsurfError (an interpolation error of an INI "%",
    # a TypeError on a JSON value) escapes to the CLI as a traceback
    path = tmp_path / "fuzz.surface"
    path.write_text(text, encoding="utf-8")
    _parse_and_resolve(path)
