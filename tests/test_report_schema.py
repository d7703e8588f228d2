"""The JSON report's keys and the benchmark's reading of the reports.

The benchmark checks every report it times with the oracles in
``bench/oracles.py``.  Running those oracles here on the golden reports
makes a report change that an oracle would reject (a dropped key, a moved
line) fail the test suite rather than a benchmark run.  ``oracles.py``
imports its helpers with ``from perm import ...``, so ``bench/`` goes on
``sys.path`` first, and the module is loaded by path.

The README's "Report keys" table names one stage per key path; the golden
documents must carry exactly those key paths.
"""

import json
import re
from pathlib import Path

import pytest

from test_golden import GOLDEN, INPUTS, REPO
from test_trace_layers import BENCH, load


@pytest.fixture
def oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return load("oracles")


def expect(oracles, path: Path) -> dict:
    """What the benchmark expects of ``analyze`` on a file: the values a
    ``.surface`` file in surfaces/ states in its header, which a JSON
    description shares with the ``.surface`` file of the same name."""
    header_src = path.with_suffix(".surface")
    if header_src.parent != REPO / "surfaces":
        return {}
    return {"header": oracles.header_values(header_src.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("path", INPUTS, ids=[path.name for path in INPUTS])
def test_oracles_accept_the_golden_reports(oracles, path):
    want = expect(oracles, path)
    doc = json.loads((GOLDEN / f"{path.name}.json").read_text(encoding="utf-8"))
    assert oracles.check_analysis_json(doc, want) == []
    text = (GOLDEN / f"{path.name}.text").read_text(encoding="utf-8")
    assert oracles.check_analysis_text(text, want) == []


def test_oracles_accept_every_golden_table_row(oracles):
    rows = json.loads((GOLDEN / "reproduce-tables.json").read_text(encoding="utf-8"))
    assert [row["row"] for row in rows] == list(oracles.PAPER_ROWS)
    for row in rows:
        assert oracles.check_table_row([row], row["row"]) == []


# each entry of a character's values is a map from exponents to
# multiplicities: its keys are data, not key paths
VALUE_MAP = "group.character_table.values[][]"


def key_paths(node, path="") -> set[str]:
    if path == VALUE_MAP:
        return set()
    if type(node) is list:
        return set().union(*(key_paths(v, path + "[]") for v in node))
    if type(node) is not dict:
        return set()
    out = set()
    for key, value in node.items():
        child = f"{path}.{key}" if path else key
        out |= {child} | key_paths(value, child)
    return out


def test_golden_documents_have_exactly_the_readme_keys():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `([^`]+)` \|", readme, re.M)
    assert len(table) == len(set(table))
    found = set()
    for path in INPUTS:
        found |= key_paths(json.loads((GOLDEN / f"{path.name}.json").read_text(encoding="utf-8")))
    assert found == set(table)
