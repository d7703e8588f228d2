"""Every function of the package is reached by its commands, or pinned here.

A subprocess turns on a profiler before ``import pqsurf``, so the
decorators that run at import time count, and then sends the commands'
traffic through the package: ``analyze`` in text and JSON on each file of
``surfaces/`` and ``tests/golden/inputs/``, ``reproduce-tables`` in text and
JSON, ``search V4 1 2,2``, and the K3 lattice, Lambda_1 and U + U each
through ``signature``, ``discriminant_group`` and ``k3_embeddable``.  The
functions and methods defined in ``src/pqsurf`` that were never called must
be exactly the pinned ones, each kept for the reason given.  A function
that no command calls and no reason keeps belongs in the tests, or nowhere.
Every function in ``pqsurf.__all__`` must be called by the commands alone,
before the lattice batch: the public surface is what the commands reach.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

UNREACHED = {
    # named by the benchmark's traced layers (bench/spans.py)
    "chars.induced_trivial": "the chars.induced layer",
    "covering.fixed_point_data": "the covering.fixed_points layer",
    "lattice.nikulin_embeds": "the lattice.embed layer",
    # read by the benchmark's JSON form of a search result (bench/child.py)
    "perms.Permutation.images": "bench/child.py",
    # the traffic is valid input, and only an error message quotes the input
    "errors._quoted": "error messages",
    "errors._clipped": "error messages",
    "descfile._names": "error messages",
    # for a reader at the prompt
    "groups.Group.__repr__": "repr",
    "groups.Record.__repr__": "repr",
    "perms.Permutation.__repr__": "repr",
    # the records' value semantics: a record is a dict key (a pair stage is
    # kept under its partner vector), so equal records must compare equal,
    # and fields that are hashed must not change
    "groups.Record.__eq__": "value equality",
    "groups.Record.__setattr__": "immutability",
    "groups.Record.__delattr__": "immutability",
    "groups.Record.__reduce__": "copy and pickle",
}

TRAFFIC = r"""
import contextlib, functools, glob, importlib, inspect, io, json, pkgutil, sys

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import pqsurf
from pqsurf import cli, lattice

files = sorted(glob.glob("surfaces/*")) + sorted(glob.glob("tests/golden/inputs/*"))
commands = [["analyze", "--format", fmt, f] for f in files for fmt in ("text", "json")]
commands += [["reproduce-tables", "--format", fmt] for fmt in ("text", "json")]
commands += [["search", "V4", "1", "2,2"]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert cli.main(argv) == 0, argv
by_commands = set(called)
u = lattice.hyperbolic_plane()
for lat in (lattice.k3_lattice(), lattice.lambda_d(1), lattice.direct_sum(u, u)):
    lattice.signature(lat)
    lattice.discriminant_group(lat)
    lattice.k3_embeddable(lat)
sys.setprofile(None)

src = pqsurf.__path__[0]

def code_of(obj):
    obj = inspect.unwrap(obj)
    return obj.__code__ if inspect.isfunction(obj) and obj.__code__.co_filename.startswith(src) else None

defined = {}
for info in pkgutil.iter_modules(pqsurf.__path__):
    module = importlib.import_module("pqsurf." + info.name)
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, member in members:
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            elif isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            code = code_of(member)
            if code is not None:
                defined[".".join(filter(None, (info.name, name, attr)))] = code

public = {name: code_of(getattr(pqsurf, name)) for name in pqsurf.__all__}
print(json.dumps({
    "unreached": sorted(name for name, code in defined.items() if code not in called),
    "public_unreached": sorted(
        name for name, code in public.items() if code is not None and code not in by_commands
    ),
}))
"""


@functools.cache
def traffic():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", TRAFFIC],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_unreached_functions_are_the_pinned_ones():
    assert set(traffic()["unreached"]) == set(UNREACHED)


def test_every_public_function_is_reached_by_the_commands():
    assert traffic()["public_unreached"] == []
