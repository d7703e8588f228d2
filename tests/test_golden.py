"""Byte-for-byte reports.

The files under ``tests/golden/`` are the CLI's output for the surfaces in
``surfaces/`` and for ``reproduce-tables``, in text and JSON.  Refactors must
leave every byte of them unchanged; a deliberate change to a report updates
the file in the same commit.
"""

from pathlib import Path

import pytest

from pqsurf.cli import main

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
