"""Rational characters from Galois averages against sums in Q(zeta_e).

``rational_characters`` and ``frobenius_schur`` sum Galois averages of the
eigenvalue multisets in integers scaled by phi(e), ``power_map`` reads the
group's power-class table, and ``chars._class_matrix`` builds one class
matrix when Dixon's split reaches it, composing image tuples of the
elements of the inverse class.  The references below are the paths they
replace: orbit sums and indicators added up in Q(zeta_e), a power map from
``rep ** k`` and class constants with one inverse per class representative
and element.  They are compared on the catalog groups and on thirteen
permutation groups built from generators.  A last test checks that the CLI
builds no trace-coordinate vector (``chars._traces``) on the report paths.
"""

import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from pqsurf import chars
from pqsurf.chars import (
    ClassFunction,
    RationalCharacter,
    character_table,
    frobenius_schur,
    rational_characters,
)
from pqsurf.groups import CATALOG_NAMES, catalog_group, group_from_generators, power_map
from pqsurf.perms import Permutation, parse_permutation

from cyclotomic_reference import Cyclotomic, as_cyclotomic, value_cyc

REPO = Path(__file__).resolve().parents[1]

# degree and generators
GENERATED = {
    "S4": (4, ("(1,2)", "(1,2,3,4)")),
    "S5": (5, ("(1,2)", "(1,2,3,4,5)")),
    "A5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
    "D16": (8, ("(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)")),
    "C2xD8": (10, ("(1,2)", "(3,4,5,6,7,8,9,10)", "(4,10)(5,9)(6,8)")),
    "C4xC4": (8, ("(1,2,3,4)", "(5,6,7,8)")),
    "C2xD4": (6, ("(1,2)", "(3,4,5,6)", "(4,6)")),
    # x -> x + 1 and x -> 2x on Z/7
    "C7semiC3": (7, ("(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)")),
    "C8": (8, ("(1,2,3,4,5,6,7,8)",)),
    "C3xC5": (8, ("(1,2,3)", "(4,5,6,7,8)")),
    # C3 inverted by an element of order 4
    "Dic12": (7, ("(1,2,3)", "(2,3)(4,5,6,7)")),
    # x -> x + 1 and x -> 2x on Z/5
    "C5semiC4": (5, ("(1,2,3,4,5)", "(2,3,5,4)")),
    # x -> x + 1 and x -> 4x on Z/9
    "C9semiC3": (9, ("(1,2,3,4,5,6,7,8,9)", "(2,5,8)(3,9,6)")),
}

ORDERS = {"S4": 24, "S5": 120, "A5": 60, "D16": 16, "C2xD8": 32, "C4xC4": 16, "C2xD4": 16,
          "C7semiC3": 21, "C8": 8, "C3xC5": 15, "Dic12": 12, "C5semiC4": 20, "C9semiC3": 27}

NAMES = CATALOG_NAMES + tuple(GENERATED)


@lru_cache(maxsize=None)
def group(name):
    if name in GENERATED:
        degree, gens = GENERATED[name]
        return group_from_generators([parse_permutation(g, degree) for g in gens])
    return catalog_group(name)


# -- the replaced paths ---------------------------------------------------------

def reference_power_map(G, k):
    return tuple(G.class_index(rep ** k) for rep in G.class_reps)


def reference_frobenius_schur(table, index):
    """(1/|G|) sum over classes of |c| chi(rep_c^2), summed in Q(zeta_e)."""
    G = table.group
    squares = reference_power_map(G, 2)
    total = Cyclotomic.zero(G.exponent)
    chi = table.irreducibles[index]
    for c in range(len(G.classes)):
        total = total + value_cyc(chi, squares[c]).scale(G.class_sizes[c])
    q = total.scale(Fraction(1, G.order)).as_rational()
    assert q is not None and q in (-1, 0, 1)
    return int(q)


def reference_rational_characters(table):
    """Orbits from the twists by the units mod e, each orbit summed member
    by member in Q(zeta_e)."""
    G = table.group
    e = G.exponent
    k = len(G.classes)
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    twists = chars._twist(table.irreducibles, *(reference_power_map(G, u) for u in units))
    seen = set()
    out = []
    for i in range(k):
        if i in seen:
            continue
        orbit = tuple(sorted({twist[i] for twist in twists}))
        seen.update(orbit)
        fs = reference_frobenius_schur(table, i)
        schur = 2 if fs == -1 else 1
        degree = table.degrees[i]
        values = []
        for c in range(k):
            total = Cyclotomic.zero(e)
            for j in orbit:
                total = total + value_cyc(table.irreducibles[j], c)
            q = total.scale(schur).as_rational()
            assert q is not None and q.denominator == 1
            values.append(int(q))
        out.append(RationalCharacter(
            psi=ClassFunction(G, tuple(values)),
            orbit=orbit,
            schur_index=schur,
            multiplicity_n=degree // schur,
            schur_index_unverified=fs == 0 and degree > 1,
        ))
    out.sort(key=lambda rc: rc.orbit[0])
    return tuple(out)


def reference_class_constants(G):
    k = len(G.classes)
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(G.class_reps):
        for i in range(k):
            for x in G.classes[i]:
                mats[i][G.class_index(x.inverse() * z)][l] += 1
    return mats


# -- differential tests -----------------------------------------------------------

def test_generated_groups_have_their_orders():
    assert {name: group(name).order for name in GENERATED} == ORDERS


@pytest.mark.parametrize("name", NAMES)
def test_rational_characters_match_cyclotomic_sums(name):
    table = character_table(group(name))
    new = rational_characters(table)
    old = reference_rational_characters(table)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        for field in fields(RationalCharacter):
            assert getattr(a, field.name) == getattr(b, field.name), (name, field.name, b.orbit)
    for i in range(len(table.irreducibles)):
        assert frobenius_schur(table, i) == reference_frobenius_schur(table, i), (name, i)


@pytest.mark.parametrize("name", NAMES)
def test_power_map_matches_element_powers(name):
    G = group(name)
    e = G.exponent
    for k in range(-e, 2 * e + 1):
        assert power_map(G, k) == reference_power_map(G, k), (name, k)


def test_galois_average_of_roots_of_unity():
    # the mean of zeta_n^a over its conjugates: 1, -1, 0, -1/2, 1/2, -1/4 ...
    expected = {1: 1, 2: -1, 3: Fraction(-1, 2), 4: 0, 5: Fraction(-1, 4), 6: Fraction(1, 2),
                8: 0, 9: 0, 10: Fraction(1, 4), 12: 0, 15: Fraction(1, 8), 30: Fraction(-1, 8)}
    for n, mean in expected.items():
        for e in (n, 2 * n, 60 * n):
            for a in range(e):
                if gcd(a, e) == e // n:
                    value = chars.CyclotomicValue(e, ((a, 1),))
                    assert value.galois_average() == mean, (e, a)
    # an average is the average of the Cyclotomic number over its Galois conjugates
    e = 12
    value = chars.CyclotomicValue(e, ((1, 2), (4, 1), (6, 3)))
    units = [u for u in range(1, e) if gcd(u, e) == 1]
    total = Cyclotomic.zero(e)
    for u in units:
        total = total + as_cyclotomic(value, e).galois(u)
    assert total.scale(Fraction(1, len(units))).as_rational() == value.galois_average()


# -- table kernel -----------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_class_constants_match_per_representative_inverses(name):
    G = group(name)
    mats = [chars._class_matrix(G, i) for i in range(len(G.classes))]
    assert mats == reference_class_constants(G)


def test_power_class_table_is_built_once(monkeypatch):
    G = group_from_generators([parse_permutation("(1,2,3,4,5,6)(7,8)", 8)])
    table = G._power_classes
    assert G._power_classes is table
    assert [len(row) for row in table] == [G.class_reps[c].order() for c in range(len(G.classes))]

    def refuse(self):
        raise AssertionError("an element's powers were recomputed")

    # power maps and a fresh Dixon table read the stored table
    monkeypatch.setattr(Permutation, "powers", refuse)
    for k in (-1, 2, 5, 13):
        power_map(G, k)
    character_table.__wrapped__(G)
    assert G._power_classes is table


# -- no trace-coordinate vectors on the report paths -----------------------------

COUNT_SCRIPT = """
import contextlib, io, sys
from pqsurf import chars
from pqsurf.cli import main

built = [0]
traces = chars._traces

def counting(*args):
    built[0] += 1
    return traces(*args)

chars._traces = counting
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(built[0])
"""


def test_reports_build_no_cyclotomic():
    # the field arithmetic is not shipped at all
    assert importlib.util.find_spec("pqsurf.cyclo") is None
    argvs = [["reproduce-tables", "--format", "json"]] + [
        ["analyze", str(REPO / "surfaces" / name), "--format", fmt]
        for name in sorted(os.listdir(REPO / "surfaces"))
        for fmt in ("text", "json")
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_SCRIPT.format(argvs=argvs)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * len(argvs)
