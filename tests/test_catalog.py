import os
import subprocess
import sys
from pathlib import Path

import pytest

from pqsurf import catalog
from pqsurf.errors import InternalInconsistency

REPO = Path(__file__).resolve().parents[1]

# each criterion matches no character or more than one
AMBIGUOUS = [
    (("D4", 5), ("unique_degree", 1)),
    (("V4", 2), ("kernel", "()")),
    (("V4", 1), ("degree_not_self_dual", 1)),
]


@pytest.mark.parametrize("key,criterion", AMBIGUOUS)
def test_ambiguous_alias_is_internal_inconsistency(monkeypatch, key, criterion):
    monkeypatch.setitem(catalog.CHARACTER_ALIASES, key, criterion)
    with pytest.raises(InternalInconsistency):
        catalog.resolve_reference_character(*key)


def test_ambiguous_alias_raises_under_python_O():
    script = (
        "from pqsurf import catalog\n"
        "from pqsurf.errors import InternalInconsistency\n"
        "catalog.CHARACTER_ALIASES[('D4', 5)] = ('unique_degree', 1)\n"
        "try:\n"
        "    catalog.resolve_reference_character('D4', 5)\n"
        "except InternalInconsistency as exc:\n"
        "    print('raised', exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised degree 1 is not unique in D4")
