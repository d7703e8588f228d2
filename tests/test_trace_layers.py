"""The benchmark's traced pass wraps pqsurf functions by name.

``bench/spans.py`` lists in ``LAYERS`` the ``(module, function)`` pairs it
times, and binds the arguments of ``search_generating_vectors`` by name to
record the scan size.  A renamed or deleted function would break
``bench/run.py --trace 1`` only when that command runs; these checks catch
it in the test suite.  ``spans.py`` imports only the standard library, so it
is loaded by path, and so is ``child.py``, whose JSON form of a search
result reads each permutation's images.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from pqsurf import covering
from pqsurf.groups import catalog_group

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


def test_every_layer_names_a_pqsurf_callable():
    spans = load_spans()
    pairs = [pair for layer in spans.LAYERS.values() for pair in layer]
    assert pairs
    for module_name, func_name in pairs:
        module = importlib.import_module(f"pqsurf.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    assert tuple(spans.SEARCH.split(".")) in pairs


def test_search_span_binds_its_arguments():
    spans = load_spans()
    recorder = spans.Recorder("test")
    traced = recorder.wrap(covering.search_generating_vectors, spans.SEARCH)
    G = catalog_group("A4")
    vectors = traced(G, 1, (2,))
    (attrs,) = recorder.attrs.values()
    # the scan: |G|^2 handle pairs, the one monodromy forced by the relation
    assert attrs == {"orbits": len(vectors), "scan": G.order ** 2}
    assert vectors == covering.search_generating_vectors(G, 1, (2,))


def test_child_writes_search_results_as_json_lists():
    child = load("child")
    G = catalog_group("A4")
    vectors = covering.search_generating_vectors(G, 1, (2,))
    out = child._search_output(vectors)
    assert len(out) == len(vectors) > 0
    for gv, flat in zip(vectors, out):
        assert len(flat) == 3  # one handle pair and one monodromy
        for images in flat:
            assert type(images) is list and all(type(x) is int for x in images)
        points = range(1, G.degree + 1)
        assert flat == [[p(i) for i in points] for p in gv.listed_elements()]
    assert json.loads(json.dumps(out)) == out
