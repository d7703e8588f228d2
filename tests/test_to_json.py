"""``analysis.to_json`` against the encoder it replaces.

``to_json`` writes a document in one walk; the reference is
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, which ``indent``
sends to ``json``'s pure-Python encoder.  They are compared on every golden
JSON document, on the list ``reproduce-tables`` writes, and on generated
documents.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsurf.analysis import to_json
from pqsurf.cli import reproduce_tables

from test_golden import GOLDEN


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


GOLDEN_JSON = sorted(GOLDEN.glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_JSON, ids=[path.name for path in GOLDEN_JSON])
def test_golden_documents(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert to_json(doc) == reference(doc) == text


def test_reproduce_tables_list():
    results = reproduce_tables()
    assert to_json(results) == reference(results)


# quotes, backslashes, control characters, a line separator, non-ASCII and
# astral characters, besides whatever ``st.characters`` draws
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7fé €\U0001d11e\U0010ffff'
strings = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=12)
leaves = st.none() | st.booleans() | st.integers() | strings
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(documents)
@example([])
@example({})
@example({"": [{}, [], [[]], {"a": {}}], "b": [True, False, None, 0, -1, -(10**40)]})
def test_generated_documents(doc):
    assert to_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, Fraction(1, 2), (1, 2), {1: "a"}, {None: 1}, {("a",): 1}, {"a": [1, {"b": 0.0}]}, [Fraction(3)]],
    ids=repr,
)
def test_other_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        to_json(doc)
