"""Byte-for-byte reports.

The files under ``tests/golden/`` are the CLI's output for the surfaces in
``surfaces/`` and for ``reproduce-tables``, in text and JSON.  Refactors must
leave every byte of them unchanged; a deliberate change to a report updates
the file in the same commit.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from pqsurf.analysis import to_json_dict
from pqsurf.cli import _analysis_from_description, main
from pqsurf.descfile import parse_description

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

CASES = [
    (f"{name}.{fmt}", ["analyze", str(REPO / "surfaces" / name), "--format", fmt])
    for name in ("v4.surface", "a4.surface", "q8.surface", "v4.json")
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


@pytest.mark.parametrize("name", ("v4.surface", "a4.surface", "q8.surface", "v4.json"))
def test_json_report_holds_only_json_types(name):
    # json.dumps prints a permutation, a tuple, as a list and raises on a
    # Fraction; the report must hold neither
    path = REPO / "surfaces" / name
    analysis = _analysis_from_description(parse_description(path))
    payload = to_json_dict(replace(analysis, input_echo=path.read_text(encoding="utf-8")))
    assert _leaf_types(payload) <= {str, int, bool, type(None)}
