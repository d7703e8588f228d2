"""Byte-for-byte reports.

The files under ``tests/golden/`` are the CLI's output for the surfaces in
``surfaces/``, for the inputs in ``tests/golden/inputs/`` and for
``reproduce-tables``, in text and JSON, and for two ``search`` commands.  Refactors must leave every byte of
them unchanged; a deliberate change to a report updates the file in the
same commit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pqsurf.analysis import render_text, to_json
from pqsurf.cli import _analysis_from_description, main
from pqsurf.covering import GeneratingVector
from pqsurf.descfile import parse_description, resolve_group
from pqsurf.jacobian import motive_h2_decomposition
from pqsurf.perms import parse_permutation
from pqsurf.surface import hirzebruch_jung, invariants, quotient_singularities
from test_cli import subprocess_env

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

# the inputs in tests/golden/inputs/ pin renderer branches that no shipped
# surface reaches: q = 0, a group given by generators, a multiple pairing
INPUTS = [
    REPO / "surfaces" / name for name in ("v4.surface", "a4.surface", "q8.surface", "v4.json")
] + [GOLDEN / "inputs" / "c4-rational.surface"]

CASES = [
    (f"{path.name}.{fmt}", ["analyze", str(path), "--format", fmt])
    for path in INPUTS
    for fmt in ("text", "json")
] + [
    ("reproduce-tables.text", ["reproduce-tables"]),
    ("reproduce-tables.json", ["reproduce-tables", "--format", "json"]),
    ("search-v4.text", ["search", "V4", "1", "2,2"]),
    ("search-q8.text", ["search", "Q8", "1", "2"]),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[golden for golden, _ in CASES])
def test_output_matches_golden_file(golden, argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# every case in one interpreter: stdout bytes, empty stderr and exit 0, with
# the program's own assert statements stripped
UNDER_O = """
import contextlib, io, json, sys
from pathlib import Path
from pqsurf.cli import main
assert sys.flags.optimize == 1
golden_dir, cases = Path(sys.argv[1]), json.loads(sys.argv[2])
for golden, argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if (code, err.getvalue()) != (0, "") or out.getvalue().encode() != (golden_dir / golden).read_bytes():
        print(golden)
print("ran", len(cases))
"""


def test_output_matches_golden_files_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", UNDER_O, str(GOLDEN), json.dumps(CASES)],
        cwd=REPO, env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"ran {len(CASES)}\n"


def _leaf_types(node):
    if type(node) is dict:
        assert all(type(key) is str for key in node)
        return set().union(*map(_leaf_types, node.values()))
    if type(node) is list:
        return set().union(*map(_leaf_types, node))
    return {type(node)}


def report(path):
    """``analyze_pair``'s document for a description file, with its input
    echoed as ``cmd_analyze`` does."""
    doc = _analysis_from_description(parse_description(path))
    doc["input"] = path.read_text(encoding="utf-8")
    return doc


@pytest.mark.parametrize("path", INPUTS, ids=[path.name for path in INPUTS])
def test_json_report_holds_only_json_types(path):
    # json.dumps prints a permutation, a tuple, as a list and raises on a
    # Fraction; the report must hold neither
    assert _leaf_types(report(path)) <= {str, int, bool, type(None)}


@pytest.mark.parametrize("path", INPUTS, ids=[path.name for path in INPUTS])
def test_text_report_is_a_rendering_of_the_json_document(path):
    doc = report(path)
    text = render_text(doc)
    assert render_text(json.loads(to_json(doc))) == text
    assert text.encode("utf-8") == (GOLDEN / f"{path.name}.text").read_bytes()


@pytest.mark.parametrize("path", INPUTS, ids=[path.name for path in INPUTS])
def test_golden_n_and_m_are_the_rational_characters(path):
    # every [d, n, m] over the report's group carries the n and Schur index
    # m of its rational character, and a match is quaternionic when m = 2
    doc = json.loads((GOLDEN / f"{path.name}.json").read_text(encoding="utf-8"))
    rats = doc["group"]["rational_characters"]

    def pins(factor, index):
        rc = rats[index]
        assert (factor["n"], factor["m"]) == (rc["multiplicity_n"], rc["schur_index"])

    for curve in doc["curves"]:
        assert [f["rational_char"] for f in curve["isotypical_factors"]] == list(range(len(rats)))
        for factor in curve["isotypical_factors"]:
            pins(factor, factor["rational_char"])
    for match in doc["pairing"]["matches"]:
        pins(match["curve1"], match["rational_char"])
        pins(match["curve2"], match["rational_char"])
        assert match["quaternionic"] == (match["curve1"]["m"] == 2)


def golden_pair(path, doc):
    """The pair of generating vectors a JSON golden reports, rebuilt from
    its curves over the group its input names."""
    group = resolve_group(parse_description(path).group)

    def perm(text):
        return parse_permutation(text, group.degree)

    return tuple(
        GeneratingVector(
            group,
            tuple((perm(a), perm(b)) for a, b in curve["handles"]),
            tuple(perm(c) for c in curve["monodromies"]),
            tuple(curve["orders"]),
        )
        for curve in doc["curves"]
    )


@pytest.mark.parametrize("path", INPUTS, ids=[path.name for path in INPUTS])
def test_golden_motive_is_the_motive_stage_on_its_pair(path):
    # the report copies the stage's block as it is, null off elliptic bases
    doc = json.loads((GOLDEN / f"{path.name}.json").read_text(encoding="utf-8"))
    gv1, gv2 = golden_pair(path, doc)
    assert doc["motive"] == motive_h2_decomposition(gv1, gv2)
    assert (doc["motive"] is None) == (gv1.base_genus != 1 or gv2.base_genus != 1)


@pytest.mark.parametrize("path", INPUTS, ids=[path.name for path in INPUTS])
def test_golden_surface_is_the_surface_stage_on_its_pair(path):
    # the report's surface block is invariants' dict as it is; each entry is
    # one (n, q) of the singularity stage, with its Hirzebruch-Jung chain
    doc = json.loads((GOLDEN / f"{path.name}.json").read_text(encoding="utf-8"))
    gv1, gv2 = golden_pair(path, doc)
    assert doc["surface"] == invariants(gv1, gv2)
    sing = doc["surface"]["singularities"]
    assert [(s["n"], s["q"]) for s in sing] == list(quotient_singularities(gv1, gv2))
    assert all(s["chain"] == list(hirzebruch_jung(s["n"], s["q"])) for s in sing)


def test_each_call_of_invariants_builds_its_own_block():
    path = GOLDEN / "inputs" / "c4-rational.surface"
    gv1, gv2 = golden_pair(path, json.loads((GOLDEN / f"{path.name}.json").read_text(encoding="utf-8")))
    first, second = invariants(gv1, gv2), invariants(gv1, gv2)
    assert first == second and first is not second
    assert first["singularities"] is not second["singularities"]
