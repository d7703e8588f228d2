"""The benchmark's traced pass wraps pqsurf functions by name.

``bench/spans.py`` lists in ``LAYERS`` the ``(module, function)`` pairs it
times, and binds the arguments of ``search_generating_vectors`` by name to
record the scan size.  A renamed or deleted function would break
``bench/run.py --trace 1`` only when that command runs; these checks catch
it in the test suite.  ``spans.py`` imports only the standard library, so it
is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

from pqsurf import covering
from pqsurf.groups import catalog_group

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
