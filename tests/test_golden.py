"""Byte-for-byte reports.

The files under ``tests/golden/`` are the CLI's output for the surfaces in
``surfaces/``, for the inputs in ``tests/golden/inputs/`` and for
``reproduce-tables``, in text and JSON.  Refactors must leave every byte of
them unchanged; a deliberate change to a report updates the file in the
same commit.
"""

import json
from pathlib import Path

import pytest

from pqsurf.analysis import render_text, to_json
from pqsurf.cli import _analysis_from_description, main
from pqsurf.descfile import parse_description

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
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[golden for golden, _ in CASES])
def test_output_matches_golden_file(golden, argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


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
