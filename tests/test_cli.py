import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pqsurf import catalog, cli, jacobian, surface
from pqsurf.catalog import ROWS, TableRow
from pqsurf.cli import (
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_NO_WITNESS,
    EXIT_PARSE,
    EXIT_SEARCH_SPACE,
    EXIT_VALIDATION,
    main,
    reproduce_tables,
)
from pqsurf.chars import ClassFunction
from pqsurf.covering import search_generating_vectors
from pqsurf.descfile import GroupSpec, build_explicit_vector, parse_description, resolve_group
from pqsurf.errors import InternalInconsistency, SizeLimit
from pqsurf.groups import catalog_group
from pqsurf.jacobian import isotypical_dimensions

from planted import planted

REPO = Path(__file__).resolve().parents[1]
SURFACES = REPO / "surfaces"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def analyze_in_subprocess(path):
    """``pqsurf analyze path`` in a fresh interpreter, so that an uncaught
    exception shows as exit 1 and a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "pqsurf.cli", "analyze", str(path)],
        cwd=REPO, env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )


def test_analyze_v4_example(capsys):
    code, out, err = run(capsys, "analyze", str(SURFACES / "v4.surface"))
    assert code == 0, err
    assert "K^2=8" in out
    assert "hurwitz character: (6, -2, 2, 2)" in out
    assert "E x L x L'" in out
    assert "Km(L1 x L2)" in out
    assert "rank_new_convention" in out


def test_analyze_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", str(SURFACES / "v4.surface"), "--format", "json")
    code2, out2, _ = run(capsys, "analyze", str(SURFACES / "v4.surface"), "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_text_and_json_agree_on_the_numbers(capsys):
    _, text_out, _ = run(capsys, "analyze", str(SURFACES / "v4.surface"))
    _, json_out, _ = run(capsys, "analyze", str(SURFACES / "v4.surface"), "--format", "json")
    payload = json.loads(json_out)
    surf = payload["surface"]
    assert f"K^2={surf['K2']}" in text_out
    assert f"p_g={surf['p_g']} q={surf['q']}" in text_out
    assert f"eta={surf['eta']}" in text_out
    assert f"family dimension: {surf['family_dim']}" in text_out
    chi = payload["curves"][0]["hurwitz_character"]
    assert f"hurwitz character: ({', '.join(str(v) for v in chi)})" in text_out


def test_json_description_file(capsys):
    code, out, _ = run(capsys, "analyze", str(SURFACES / "v4.json"))
    # the file itself selects json output
    payload = json.loads(out)
    assert code == 0
    assert payload["surface"]["K2"] == 8
    assert [f["d"] for f in payload["curves"][0]["isotypical_factors"]] == [1, 0, 1, 1]
    assert payload["pairing"]["status"] == "unique"


def test_a4_search_directive(capsys):
    code, out, _ = run(capsys, "analyze", str(SURFACES / "a4.surface"))
    assert code == 0
    assert "K^2=6" in out
    assert "1/2(1,1), 1/2(1,1)" in out
    assert "eta=2" in out


def test_q8_aux_decomposition(capsys):
    code, out, _ = run(capsys, "analyze", str(SURFACES / "q8.surface"))
    assert code == 0
    assert "quaternionic" in out
    assert "Km(A)" in out
    assert "aux decomposition" in out
    assert "[1,2,m=1]" in out  # the order-16 group splits the factor as L^2
    assert "schur_index_unverified" in out


def test_exit_3_trivial_monodromy(tmp_path, capsys):
    bad = tmp_path / "bad.surface"
    bad.write_text(
        "[group]\nname = V4\n"
        "[curve1]\ngenus0 = 1\nhandles = (1,3)(2,4) ; ()\n"
        "monodromies = () ; ()\norders = 2, 2\n"
        "[curve2]\ngenus0 = 1\nsearch = 2, 2\n"
    )
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_VALIDATION
    assert "TrivialMonodromy" in err


def test_exit_2_parse_errors(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.surface"))
    assert code == EXIT_PARSE

    both = tmp_path / "both.surface"
    both.write_text(
        "[group]\nname = V4\n"
        "[curve1]\ngenus0 = 1\nsearch = 2, 2\nmonodromies = ()\norders = 2\n"
        "[curve2]\ngenus0 = 1\nsearch = 2, 2\n"
    )
    code, _, err = run(capsys, "analyze", str(both))
    assert code == EXIT_PARSE
    assert "exactly one" in err

    retired = tmp_path / "retired.surface"
    retired.write_text(
        "[group]\nname = V4\n"
        "[curve1]\ngenus0 = 1\nsearch = 2, 2\n"
        "[curve2]\ngenus0 = 1\nsearch = 2, 2\n"
        "[options]\nparallel = 2\n"
    )
    code, _, err = run(capsys, "analyze", str(retired))
    assert code == EXIT_PARSE
    assert "unknown keys: parallel" in err

    garbage = tmp_path / "garbage.surface"
    garbage.write_text("this is not a description\n")
    code, _, _ = run(capsys, "analyze", str(garbage))
    assert code == EXIT_PARSE


V4_SEARCH = "[group]\nname = V4\n[curve2]\ngenus0 = 1\nsearch = 2, 2\n"

# file name -> (contents, the ParseError message)
MALFORMED_INTEGERS = {
    "genus0.surface": (
        V4_SEARCH + "[curve1]\ngenus0 = x\nsearch = 2, 2\n",
        "[curve1] genus0 must be an integer, not 'x'",
    ),
    "search.surface": (
        V4_SEARCH + "[curve1]\ngenus0 = 1\nsearch = 3, y\n",
        "[curve1] search must be an integer, not 'y'",
    ),
    "orders.surface": (
        V4_SEARCH + "[curve1]\ngenus0 = 1\nhandles = () ; ()\n"
        "monodromies = (1,2)(3,4) ; (1,2)(3,4)\norders = 2, y\n",
        "[curve1] orders must be an integer, not 'y'",
    ),
    "negative.surface": (
        V4_SEARCH + "[curve1]\ngenus0 = -2\nsearch = 2, 2\n",
        "[curve1] genus0 must be nonnegative, not -2",
    ),
    "negative.json": (
        json.dumps({
            "group": {"name": "V4"},
            "curve1": {"genus0": -2, "search": [2, 2]},
            "curve2": {"genus0": 1, "search": [2, 2]},
        }),
        "[curve1] genus0 must be nonnegative, not -2",
    ),
    "fraction.json": (
        json.dumps({
            "group": {"name": "V4"},
            "curve1": {"genus0": 1, "search": [2.7, 2]},
            "curve2": {"genus0": 1, "search": [2, 2]},
        }),
        "[curve1] search must be an integer, not 2.7",
    ),
    "boolean.json": (
        json.dumps({
            "group": {"name": "V4"},
            "curve1": {"genus0": True, "search": [2, 2]},
            "curve2": {"genus0": 1, "search": [2, 2]},
        }),
        "[curve1] genus0 must be an integer, not True",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INTEGERS))
def test_exit_2_malformed_integer_fields(tmp_path, capsys, name):
    text, message = MALFORMED_INTEGERS[name]
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"ParseError: {message}\n"


# a section -> a value that is not a JSON object
NOT_OBJECTS = [
    ("curve1", [1, 2]),
    ("curve1", "x"),
    ("options", "json"),
    ("aux", "S3"),
    ("group", [["name", "S3"]]),
]


@pytest.mark.parametrize(
    "section, value", NOT_OBJECTS, ids=[f"{s}-{type(v).__name__}" for s, v in NOT_OBJECTS]
)
def test_exit_2_a_section_that_is_not_an_object(tmp_path, capsys, section, value):
    payload = json.loads((SURFACES / "v4.json").read_text(encoding="utf-8"))
    payload[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"ParseError: [{section}] must be a mapping, not {type(value).__name__}\n"


def test_exit_2_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.surface"
    path.write_bytes((SURFACES / "v4.surface").read_bytes() + b"# caf\xe9 \xff\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"ParseError: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


# a JSON permutation field -> a value that is neither a string nor a list of
# strings
NOT_PERMUTATION_LISTS = [
    ("curve1", "monodromies", 5),
    ("curve1", "monodromies", None),
    ("curve1", "monodromies", True),
    ("curve1", "monodromies", {}),
    ("curve1", "monodromies", ["(1,2)(3,4)", 2]),
    ("curve2", "handles", 5),
    ("curve2", "handles", [[2, 1, 4, 3], "()"]),
    ("group", "generators", 7),
    ("group", "generators", ["(1,2)(3,4)", None]),
]


@pytest.mark.parametrize(
    "section, field, value", NOT_PERMUTATION_LISTS,
    ids=[f"{s}-{f}-{type(v).__name__}" for s, f, v in NOT_PERMUTATION_LISTS],
)
def test_exit_2_a_permutation_field_that_is_not_a_list_of_strings(tmp_path, section, field, value):
    payload = json.loads((SURFACES / "v4.json").read_text(encoding="utf-8"))
    if section == "group":
        payload["group"] = {field: value}
    else:
        payload[section][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = analyze_in_subprocess(path)
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr == (
        f"ParseError: [{section}] {field} must be a list of permutation strings "
        f"or a ';'-separated string, not {value!r}\n"
    )
    assert "Traceback" not in proc.stderr


def test_exit_2_an_aux_section_without_a_group_names_aux(tmp_path, capsys):
    path = tmp_path / "aux.surface"
    path.write_text(
        (SURFACES / "q8.surface").read_text(encoding="utf-8").replace("name = C4xC2semiC2\n", ""),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "ParseError: [aux] requires exactly one of name or generators\n"


@pytest.mark.parametrize("section", ["group", "aux"])
@pytest.mark.parametrize("name", [True, 4, ["V4"]], ids=lambda v: type(v).__name__)
def test_exit_2_a_group_name_that_is_not_a_string(tmp_path, section, name):
    payload = json.loads((SURFACES / "v4.json").read_text(encoding="utf-8"))
    if section == "group":
        payload["group"] = {"name": name}
    else:
        payload["aux"] = {"name": name, "genus0": 0, "search": [2, 2, 2]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = analyze_in_subprocess(path)
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr == f"ParseError: [{section}] name must be a string, not {name!r}\n"
    assert "Traceback" not in proc.stderr


def test_exit_3_a_generator_point_above_the_order_cap(tmp_path, capsys):
    path = tmp_path / "wide.surface"
    path.write_text(
        "[group]\ngenerators = (1,10001)\n"
        "[curve1]\ngenus0 = 1\nsearch = 2\n[curve2]\ngenus0 = 1\nsearch = 2\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "SizeLimit: point 10001 in the generators exceeds the limit 10000\n"


def test_the_largest_generator_point_is_the_order_cap():
    assert resolve_group(GroupSpec(None, ("(1,10000)",))).degree == 10000
    with pytest.raises(SizeLimit, match="point 10001"):
        resolve_group(GroupSpec(None, ("(1,2)", "(3,10001)")))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("S3", "1", "3,x"), "orders must be an integer, not 'x'"),
        (("S3", "-1", "3"), "genus0 must be nonnegative, not -1"),
    ],
)
def test_exit_2_malformed_search_arguments(capsys, argv, message):
    code, out, err = run(capsys, "search", *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"ParseError: {message}\n"


def test_search_refuses_a_negative_base_genus():
    with pytest.raises(ValueError, match="base genus must be nonnegative"):
        search_generating_vectors(catalog_group("S3"), -1, (3,))


def test_exit_4_no_witness(tmp_path, capsys):
    impossible = tmp_path / "impossible.surface"
    impossible.write_text(
        "[group]\nname = S3\n"
        "[curve1]\ngenus0 = 0\nsearch = 2, 2\n"
        "[curve2]\ngenus0 = 0\nsearch = 2, 2\n"
    )
    code, _, err = run(capsys, "analyze", str(impossible))
    assert code == EXIT_NO_WITNESS


def test_exit_6_search_space(tmp_path, capsys):
    huge = tmp_path / "huge.surface"
    huge.write_text(
        "[group]\nname = C4xC2semiC2\n"
        "[curve1]\ngenus0 = 3\nsearch = 2, 2, 2, 2, 2, 2\n"
        "[curve2]\ngenus0 = 1\nsearch = 2\n"
    )
    code, _, err = run(capsys, "analyze", str(huge))
    assert code == EXIT_SEARCH_SPACE


def test_reproduce_tables_cli(capsys):
    code, out, _ = run(capsys, "reproduce-tables")
    assert code == 0
    assert "8/8 rows matched" in out


def test_reproduce_tables_row_filter(capsys):
    code, out, _ = run(capsys, "reproduce-tables", "--row", "Q8")
    assert code == 0
    assert "quaternionic" in out
    assert "1/1 rows matched" in out


def test_reproduce_tables_json(capsys):
    code, out, _ = run(capsys, "reproduce-tables", "--format", "json")
    assert code == 0
    results = json.loads(out)
    assert [r["row"] for r in results] == [r.name for r in ROWS]
    assert all(r["ok"] for r in results)


def test_reproduce_tables_detects_perturbed_expectations():
    perturbed = TableRow(
        name="V4", group_name="V4", genera=(3, 3),
        branch1=(2, 2), branch2=(2, 2), k2=7,  # wrong on purpose
        singularities=(), eta=0, family_dim=4,
        jac1=((1, 1), (1, 1)), jac2=((1, 1), (1, 1)),
        paired=(1, 1), paired_ref=4, moduli_component=3,
    )
    results = reproduce_tables([perturbed])
    assert not results[0]["ok"]
    assert any("K2" in line for line in results[0]["mismatches"])


def test_reproduce_tables_exit_5(monkeypatch, capsys):
    import pqsurf.cli as cli

    perturbed = TableRow(
        name="C2", group_name="C2", genera=(2, 2),
        branch1=(2, 2), branch2=(2, 2), k2=4,
        singularities=((2, 1),) * 4, eta=5,  # wrong eta
        family_dim=4, jac1=((1, 1),), jac2=((1, 1),),
        paired=(1, 1), paired_ref=2, moduli_component=9,
    )
    monkeypatch.setattr(cli, "ROWS", (perturbed,))
    code, out, _ = run(capsys, "reproduce-tables")
    assert code == EXIT_MISMATCH
    assert "eta" in out


def test_reproduce_tables_exit_5_on_a_genera_mismatch(monkeypatch, capsys):
    # the witnesses of row V4 have genera (3, 3)
    perturbed = dataclasses.replace(ROWS[0], genera=(3, 4))
    monkeypatch.setattr(catalog, "ROWS", (perturbed,))
    monkeypatch.setattr(cli, "ROWS", (perturbed,))
    code, out, err = run(capsys, "reproduce-tables")
    assert (code, err) == (EXIT_MISMATCH, "")
    assert "    genera: computed (3, 3), expected (3, 4)\n" in out


def test_search_cli(capsys):
    code, out, _ = run(capsys, "search", "V4", "1", "2,2")
    assert code == 0
    assert out.startswith("count 36")

    code, out, _ = run(capsys, "search", "S3", "0", "2,2")
    assert code == 0
    assert out.strip() == "count 0"

    code, out, _ = run(capsys, "search", "Q8", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert all("monodromies" in line for line in lines[1:])

    code, _, err = run(capsys, "search", "Nope", "1", "2")
    assert code == EXIT_VALIDATION
    assert "UnknownName" in err


@planted
def test_exit_7_internal_inconsistency(monkeypatch, capsys):
    # fixed-point counts that break the integrality of the Lefschetz average
    monkeypatch.setattr(surface, "fixed_point_counts", lambda gv: (0, 1, 0, 0))
    code, out, err = run(capsys, "analyze", str(SURFACES / "v4.surface"))
    assert code == EXIT_INTERNAL == 7
    assert out == ""
    assert err.startswith("InternalInconsistency: Lefschetz average")


@planted
def test_exit_7_from_the_rank_z2_certificate(monkeypatch, capsys):
    # a4.surface searches A4; search anew so that no earlier pairing is
    # kept, and keep the isotypical dimensions before the patch below, so
    # that only the rank of Z2 sees it
    group = catalog_group("A4")
    monkeypatch.setattr(group, "_memo", {})
    for gv in search_generating_vectors(group, 1, (2,)):
        isotypical_dimensions(gv)
    # adding the trivial character to both Hurwitz characters adds
    # 2 g0 + 2 g0' + 1 = 5 to the rank of Z, so the rank of Z2 turns odd
    real = jacobian.hurwitz_character
    monkeypatch.setattr(
        jacobian,
        "hurwitz_character",
        lambda gv: ClassFunction(gv.group, tuple(v + 1 for v in real(gv).values)),
    )
    code, out, err = run(capsys, "analyze", str(SURFACES / "a4.surface"))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("InternalInconsistency: rank of Z2 must be even")


TRIVIAL_GROUP_SURFACE = """\
[group]
generators = (1)(2)

[curve1]
genus0 = 1
handles = () ; ()
monodromies =
orders =

[curve2]
genus0 = 1
handles = () ; ()
monodromies =
orders =
"""


def test_analyze_the_trivial_group_terminates(tmp_path):
    # the Dixon prime for exponent 1 was once searched for without end
    path = tmp_path / "trivial.surface"
    path.write_text(TRIVIAL_GROUP_SURFACE, encoding="utf-8")
    proc = analyze_in_subprocess(path)
    assert proc.returncode == 0, proc.stderr
    assert "group: custom group (order 1, degree 2, 1 classes, exponent 1)" in proc.stdout


@pytest.mark.parametrize("edit", [
    ("name = V4", "generators = [2,1,x]"),
    ("monodromies = (1,2)(3,4) ; (1,2)(3,4)", "monodromies = (1,a) ; (1,2)(3,4)"),
], ids=["generators", "monodromies"])
def test_a_point_that_is_not_an_integer_is_exit_3(tmp_path, edit):
    path = tmp_path / "bad.surface"
    path.write_text((SURFACES / "v4.surface").read_text(encoding="utf-8").replace(*edit),
                    encoding="utf-8")
    proc = analyze_in_subprocess(path)
    assert proc.returncode == EXIT_VALIDATION == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("NonPermutation: point ")
    assert "is not an integer" in proc.stderr and "Traceback" not in proc.stderr


def test_acceptance_suite_passes_under_python_O():
    env = subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "tests" / "test_acceptance.py"), str(REPO / "tests" / "test_golden.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout


@planted
def test_explicit_vector_of_a_search_curve_is_exit_7(monkeypatch, capsys):
    desc = parse_description(SURFACES / "a4.surface")
    assert desc.curve1.is_search
    with pytest.raises(InternalInconsistency, match="search curve"):
        build_explicit_vector(desc.curve1, resolve_group(desc.group))
    # a dispatcher that forgets the search directive
    monkeypatch.setattr(
        cli, "_curve_vectors", lambda curve, group: (build_explicit_vector(curve, group),)
    )
    code, out, err = run(capsys, "analyze", str(SURFACES / "a4.surface"))
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("InternalInconsistency: an explicit vector was asked of a search curve")


def test_explicit_vector_of_a_search_curve_raises_under_python_O():
    script = (
        "from pqsurf.descfile import build_explicit_vector, parse_description, resolve_group\n"
        "from pqsurf.errors import InternalInconsistency\n"
        "desc = parse_description('surfaces/a4.surface')\n"
        "try:\n"
        "    build_explicit_vector(desc.curve1, resolve_group(desc.group))\n"
        "except InternalInconsistency as exc:\n"
        "    print('raised', exc)\n"
    )
    env = subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised an explicit vector was asked of a search curve")
