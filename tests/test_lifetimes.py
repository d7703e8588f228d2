"""Derived data lives and dies with the object it came from.

A character table is kept on its group, rational characters on their
table, and searches, per-curve and pair stages on the group or the vector
they were computed for.  So once the caller drops a group built from
generators, a garbage collection frees it with its table and its vectors.
The only process-wide caches are keyed by a catalog name or an int; the
guard below fails on any other ``functools`` cache in the package.
"""

import ast
import gc
import weakref
from pathlib import Path

from pqsurf.analysis import analyze_pair
from pqsurf.chars import character_table, rational_characters
from pqsurf.covering import search_generating_vectors
from pqsurf.groups import catalog_group, group_from_generators

SRC = Path(__file__).resolve().parents[1] / "src" / "pqsurf"

# the functions a process-wide cache may decorate: a catalog group is keyed
# by its name, the Galois weights by an int
ALLOWED = {"catalog_group", "_galois_weights"}
CACHES = {"lru_cache", "cache"}


def derive_everything():
    """Weak references to a group built from generators, its table, a
    rational character and the two vectors of a pair analyzed over it."""
    group = group_from_generators(catalog_group("A4").generators)
    table = character_table(group)
    rats = rational_characters(table)
    gv1, gv2 = search_generating_vectors(group, 1, (2,))[:2]
    doc = analyze_pair(gv1, gv2)
    assert doc["surface"]["eta"] == 2
    return [weakref.ref(obj) for obj in (group, table, rats[0], gv1, gv2)]


def test_a_dropped_group_frees_its_table_and_its_vectors():
    refs = derive_everything()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def stray_caches(tree: ast.Module) -> list[int]:
    """The lines of each use of ``functools.lru_cache`` or
    ``functools.cache`` that is not a decorator of an allowed function."""
    names = set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ALLOWED:
            allowed |= {id(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
    )


def test_process_wide_caches_only_on_catalog_names_and_ints():
    for path in sorted(SRC.glob("*.py")):
        assert stray_caches(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_the_cache_guard_sees_each_spelling():
    stray = """
import functools
import functools as ft
from functools import cache, lru_cache as memo

@functools.lru_cache(maxsize=None)
def character_table(group): ...

@ft.cache
def rational_characters(table): ...

@memo
def one(): ...

@cache
def two(): ...

three = functools.lru_cache(None)(len)

@functools.lru_cache(maxsize=None)
def catalog_group(name): ...
"""
    assert stray_caches(ast.parse(stray)) == [6, 9, 12, 15, 18]
