"""The registry of planted-fault tests.

A planted-fault test breaks one step of the program on purpose and checks
that a certificate after it raises.  Such tests check through
``pytest.raises`` or pytest's rewritten asserts, so they keep their meaning
under ``python -O``, which strips the program's own ``assert`` statements;
``test_chars.py::test_planted_faults_raise_under_python_O`` reruns every
registered test under ``python -O``.  Register a test with ``@planted``
above its other decorators.
"""

import importlib
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# "tests/<file>::<test name>" of each registered test
PLANTED: set[str] = set()


def planted(test):
    PLANTED.add(f"tests/{Path(test.__code__.co_filename).name}::{test.__name__}")
    return test


def all_test_modules():
    """Every test module under tests/, imported, so that every ``@planted``
    decorator has run."""
    return [importlib.import_module(path.stem) for path in sorted(TESTS.glob("test_*.py"))]
