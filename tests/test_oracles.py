"""Independent oracles for the two exact-linear-algebra kernels:
Descartes' rule on the characteristic polynomial (exact for symmetric
matrices, whose eigenvalues are all real) against the congruent
diagonalisation, and Dixon tables for groups outside the catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf.chars import character_table, rational_characters
from pqsurf.groups import group_from_generators
from pqsurf.lattice import IntegralLattice, determinant, signature
from pqsurf.perms import parse_permutation

from cyclotomic_reference import field_inner_product


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(st.integers(min_value=-7, max_value=7))
    gram = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    return IntegralLattice(tuple(tuple(row) for row in gram))


@settings(max_examples=120, deadline=None)
@given(symmetric_matrices())
def test_signature_against_descartes_rule(lat):
    sympy = pytest.importorskip("sympy")

    if determinant(lat) == 0:
        return
    poly = sympy.Matrix(lat.gram).charpoly()
    coeffs = [int(c) for c in poly.all_coeffs()]

    def sign_changes(seq):
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    positive = sign_changes(coeffs)
    negated = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    negative = sign_changes(negated)
    # all eigenvalues of a symmetric matrix are real, so Descartes is exact
    assert signature(lat) == (positive, negative)


def test_dixon_on_s4():
    gens = [parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)]
    s4 = group_from_generators(gens)
    assert s4.order == 24 and len(s4.classes) == 5 and s4.exponent == 12
    ct = character_table(s4)
    assert ct.degrees == (1, 1, 2, 3, 3)
    for i in range(5):
        for j in range(5):
            assert field_inner_product(ct.irreducibles[i], ct.irreducibles[j]) == (i == j)
    # every character of a symmetric group is rational
    rats = rational_characters(ct)
    assert all(len(rc.orbit) == 1 and rc.schur_index == 1 for rc in rats)
    assert all(all(isinstance(v, int) for v in rc.psi.values) for rc in rats)


def test_dixon_on_c3_squared():
    a = parse_permutation("(1,2,3)", 6)
    b = parse_permutation("(4,5,6)", 6)
    g9 = group_from_generators([a, b])
    assert g9.order == 9 and g9.exponent == 3
    ct = character_table(g9)
    assert ct.degrees == (1,) * 9
    # Galois orbits pair each nontrivial character with its conjugate
    rats = rational_characters(ct)
    orbit_sizes = sorted(len(rc.orbit) for rc in rats)
    assert orbit_sizes == [1, 2, 2, 2, 2]
