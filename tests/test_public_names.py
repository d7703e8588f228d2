"""The package's public surface: ``pqsurf.__all__``.

Every listed name resolves, none is listed twice, ``from pqsurf import *``
binds exactly the listed names, and every other public name the package
binds is a submodule.  The count is pinned, so a change to the public
surface is a change to this test.  The README's Python examples run as
written, so a documented import of a name that has left the surface fails.
"""

import inspect
import re
from pathlib import Path

import pqsurf

PUBLIC_NAMES = 32
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_listed_name_resolves_once():
    names = pqsurf.__all__
    assert len(names) == len(set(names)) == PUBLIC_NAMES
    missing = [name for name in names if not hasattr(pqsurf, name)]
    assert missing == []


def test_star_import_binds_exactly_the_listed_names():
    namespace = {}
    exec("from pqsurf import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(pqsurf.__all__)
    assert all(namespace[name] is getattr(pqsurf, name) for name in namespace)


def test_every_other_public_name_is_a_submodule():
    unlisted = {
        name
        for name, value in vars(pqsurf).items()
        if not name.startswith("_") and name not in pqsurf.__all__
    }
    assert all(inspect.ismodule(getattr(pqsurf, name)) for name in unlisted), unlisted


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(block, namespace)
