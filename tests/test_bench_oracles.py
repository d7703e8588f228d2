"""The benchmark's oracle self-tests, run in the test suite.

``bench/test_oracles.py`` checks that each oracle in ``bench/oracles.py``
accepts a known-good value and rejects a planted wrong one.  It imports
``oracles`` and ``perm`` as top-level modules, so ``bench/`` goes on
``sys.path`` first, and the file is loaded by path; its unittest cases run
here, and any failure or error fails this test.
"""

import io
import unittest

from test_trace_layers import BENCH, load


def test_bench_oracle_self_tests_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    suite = unittest.defaultTestLoader.loadTestsFromModule(load("test_oracles"))
    stream = io.StringIO()
    result = unittest.TextTestRunner(stream=stream, verbosity=2).run(suite)
    assert result.testsRun >= 14, stream.getvalue()
    assert result.wasSuccessful(), stream.getvalue()
