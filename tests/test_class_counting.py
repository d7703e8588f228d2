"""The basket and the fixed-point counts are read off class data.

``surface.quotient_singularities`` counts the double cosets <c> g <d> of
each type 1/n(1,q) from the power-class table, and
``covering.fixed_point_counts`` reads Ind_<c>^G 1 off the same table.  The
element walks they replace stay here as references: the double cosets
enumerated one element of G at a time, and the induced characters of the
cyclic subgroups built element by element.
"""

import os
import subprocess
import sys
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from pqsurf import surface
from pqsurf.chars import induced_trivial
from pqsurf.covering import fixed_point_counts, search_generating_vectors, validate
from pqsurf.errors import InternalInconsistency
from pqsurf.groups import catalog_group, group_from_generators

from planted import planted
from scale_groups import (
    NAMES,
    group as build,
    reference_cyclic_subgroup,
    reference_pow,
    reference_rotation_exponent,
)

REPO = Path(__file__).resolve().parents[1]

# group -> the signatures whose vectors are paired: for the catalog groups,
# elliptic bases and small signatures over the line (the order-16 group's
# is the one q8.surface's [aux] section searches); for S5 and A5, triangle
# signatures with mixed orders
SIGNATURES = {
    "C2": ((1, (2, 2)),),
    "C4": ((1, (2, 2)), (1, (4, 4)), (0, (2, 4, 4))),
    "C6": ((1, (2, 2)), (1, (3, 3)), (1, (6, 6)), (0, (2, 3, 6)), (0, (3, 6, 6))),
    "V4": ((1, (2, 2)), (0, (2, 2, 2))),
    "S3": ((1, (3,)), (1, (2, 2)), (1, (3, 3)), (0, (2, 2, 3))),
    "D4": ((1, (2,)), (1, (2, 2)), (1, (4, 4)), (0, (2, 2, 4))),
    "Q8": ((1, (2,)), (1, (4, 4)), (0, (4, 4, 4))),
    "A4": ((1, (2,)), (1, (2, 2)), (0, (2, 3, 3)), (0, (3, 3, 3))),
    "C4xC2semiC2": ((0, (2, 2, 2, 4)),),
    "S4": ((1, (3,)), (0, (2, 3, 4)), (0, (3, 4, 4))),
    "D16": ((1, (4,)), (1, (8, 8)), (0, (2, 2, 8))),
    "S5": ((0, (2, 4, 5)), (0, (2, 5, 6)), (0, (4, 4, 5)), (0, (3, 6, 6))),
    "A5": ((0, (2, 5, 5)), (0, (3, 3, 5)), (0, (2, 3, 5))),
}
PER_SIGNATURE = 3


def sampled_vectors(group, name):
    """Up to PER_SIGNATURE vectors of each signature, spread over the search
    order."""
    out = []
    for g0, orders in SIGNATURES[name]:
        found = search_generating_vectors(group, g0, orders)
        assert found, (name, g0, orders)
        step = max(1, len(found) // PER_SIGNATURE)
        out.extend(found[::step][:PER_SIGNATURE])
    return out


def reference_singularities(gv1, gv2):
    """The double cosets <c_i> g <d_j> walked one element of G at a time:
    n = m_i m_j / |<c_i> g <d_j>|, and q the exponent of c_i^(m_i/n) against
    g d_j g^-1."""
    group = gv1.group
    validate(gv1)
    validate(gv2)
    out = []
    for c, m1 in zip(gv1.monodromies, gv1.orders):
        sub1 = reference_cyclic_subgroup(group, c)
        for d, m2 in zip(gv2.monodromies, gv2.orders):
            sub2 = reference_cyclic_subgroup(group, d)
            seen = set()
            for g in group.elements:
                if g in seen:
                    continue
                double_coset = {h * g * k for h in sub1 for k in sub2}
                seen |= double_coset
                n = m1 * m2 // len(double_coset)
                if n <= 1:
                    continue
                t0 = reference_pow(c, m1 // n)
                out.append((n, reference_rotation_exponent(g * d * g.inverse(), m2, t0)))
    return sorted(out)


def reference_fixed_point_counts(gv):
    """sum_j Ind_{<c_j>}^G 1 from the cyclic subgroups' elements."""
    validate(gv)
    group = gv.group
    counts = [0] * len(group.classes)
    for c in gv.monodromies:
        ind = induced_trivial(group, reference_cyclic_subgroup(group, c)).values
        counts = [a + b for a, b in zip(counts, ind)]
    return tuple(counts)


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_basket_and_fixed_points_match_the_element_walk(name):
    group = build(name)
    vectors = sampled_vectors(group, name)
    for gv in vectors:
        assert fixed_point_counts(gv) == reference_fixed_point_counts(gv)
    for gv1, gv2 in product(vectors, repeat=2):
        computed = surface.quotient_singularities(gv1, gv2)
        assert [(s.n, s.q) for s in computed] == reference_singularities(gv1, gv2)


@pytest.mark.parametrize("name", NAMES)
def test_exponent_from_class_representatives(name):
    group = build(name)
    assert group.exponent == lcm(*(g.order() for g in group.elements))


# -- planted faults ---------------------------------------------------------------

def a4_pair():
    """A fresh A4 with two vectors of signature (1; 2): the pair has two
    singular points 1/2(1,1)."""
    group = group_from_generators(catalog_group("A4").generators)
    gv1, gv2 = search_generating_vectors(group, 1, (2,))[:2]
    return group, gv1, gv2


def s3_vector():
    """A fresh S3 with a vector of signature (1; 2, 2)."""
    group = group_from_generators(catalog_group("S3").generators)
    return group, search_generating_vectors(group, 1, (2, 2))[0]


def rotated_row(group, c):
    """The power-class table with the row of c's class rotated by one."""
    rows = list(group._power_classes)
    k = group._class_of[c]
    rows[k] = rows[k][1:] + rows[k][:1]
    return tuple(rows)


def doubled_size(group, c):
    """The class sizes with the size of c's class doubled."""
    sizes = list(group.class_sizes)
    sizes[group._class_of[c]] *= 2
    return tuple(sizes)


@planted
def test_planted_rotated_power_row_breaks_the_partition(monkeypatch):
    group, gv1, gv2 = a4_pair()
    assert [str(s) for s in surface.quotient_singularities(gv1, gv2)] == ["1/2(1,1)"] * 2
    group, gv1, gv2 = a4_pair()
    monkeypatch.setattr(group, "_power_classes", rotated_row(group, gv1.monodromies[0]))
    with pytest.raises(InternalInconsistency, match="double cosets"):
        surface.quotient_singularities(gv1, gv2)


@planted
def test_planted_doubled_class_size_breaks_both_counts(monkeypatch):
    group, gv = s3_vector()
    monkeypatch.setattr(group, "class_sizes", doubled_size(group, gv.monodromies[0]))
    with pytest.raises(InternalInconsistency, match="induced character"):
        fixed_point_counts(gv)
    with pytest.raises(InternalInconsistency, match="double cosets"):
        surface.quotient_singularities(gv, gv)


def test_planted_faults_raise_under_python_O():
    script = (
        "from pqsurf import surface\n"
        "from pqsurf.covering import fixed_point_counts\n"
        "from pqsurf.errors import InternalInconsistency\n"
        "import test_class_counting as t\n"
        "group, gv1, gv2 = t.a4_pair()\n"
        "group._power_classes = t.rotated_row(group, gv1.monodromies[0])\n"
        "group2, gv = t.s3_vector()\n"
        "group2.class_sizes = t.doubled_size(group2, gv.monodromies[0])\n"
        "for stage, args in ((surface.quotient_singularities, (gv1, gv2)),\n"
        "                    (fixed_point_counts, (gv,)),\n"
        "                    (surface.quotient_singularities, (gv, gv))):\n"
        "    try:\n"
        "        stage(*args)\n"
        "    except InternalInconsistency as exc:\n"
        "        print('raised', exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), str(REPO / "tests"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all(line.startswith("raised") for line in lines), lines
