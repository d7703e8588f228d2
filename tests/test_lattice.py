import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf import lattice
from pqsurf.errors import (
    Degenerate,
    InternalInconsistency,
    InvalidParameter,
    NotEven,
    NotUnimodular,
)
from pqsurf.lattice import (
    CRITERION_NOT_SATISFIED,
    GUARANTEED,
    IntegralLattice,
    determinant,
    direct_sum,
    discriminant_group,
    e8_minus,
    hyperbolic_plane,
    is_even,
    k3_embeddable,
    k3_lattice,
    lambda_d,
    make_lattice,
    nikulin_embeds,
    rank1,
    rescale,
    signature,
)


def test_hyperbolic_plane():
    u = hyperbolic_plane()
    assert u.rank == 2
    assert determinant(u) == -1
    assert signature(u) == (1, 1)
    assert is_even(u)


def test_e8_minus():
    e8 = e8_minus()
    assert e8.rank == 8
    assert determinant(e8) == 1
    assert signature(e8) == (0, 8)
    assert is_even(e8)


def test_k3_lattice_facts():
    lam = k3_lattice()
    assert lam.rank == 22
    assert abs(determinant(lam)) == 1
    assert signature(lam) == (3, 19)
    assert is_even(lam)
    assert discriminant_group(lam).ell == 0


def test_lambda_d_facts():
    for d in (1, 2, 3, 7):
        ld = lambda_d(d)
        assert ld.rank == 21
        assert signature(ld) == (2, 19)
        disc = discriminant_group(ld)
        assert disc.invariant_factors == (2 * d,)
        assert disc.ell == 1
        assert abs(determinant(ld)) == 2 * d


def test_rank1_and_rescale():
    for d in (1, 2, 5):
        l = rank1(d)
        assert determinant(l) == -2 * d
        assert signature(l) == (0, 1)
        assert is_even(l)
        assert discriminant_group(l).invariant_factors == (2 * d,)
        flipped = rescale(l, -1)
        assert signature(flipped) == (1, 0)
        assert determinant(flipped) == 2 * d
    with pytest.raises(InvalidParameter):
        rank1(0)
    with pytest.raises(InvalidParameter):
        rescale(rank1(1), 0)


def test_is_even_examples():
    assert is_even(rank1(3))
    assert not is_even(IntegralLattice(((1,),)))
    assert is_even(k3_lattice())


def test_signature_additivity():
    a = direct_sum(hyperbolic_plane(), rank1(2))
    b = direct_sum(e8_minus(), rescale(rank1(1), -1))
    sa, sb = signature(a), signature(b)
    combined = signature(direct_sum(a, b))
    assert combined == (sa[0] + sb[0], sa[1] + sb[1])


def test_degenerate_is_rejected():
    degenerate = IntegralLattice(((0, 0), (0, 2)))
    with pytest.raises(Degenerate):
        signature(degenerate)
    with pytest.raises(Degenerate):
        discriminant_group(degenerate)


def test_nikulin_examples():
    k3 = k3_lattice()
    m = direct_sum(hyperbolic_plane(), rank1(1))  # signature (1,2), ell = 1
    assert signature(m) == (1, 2)
    assert nikulin_embeds(m, k3) == GUARANTEED

    assert nikulin_embeds(lambda_d(1), k3) == CRITERION_NOT_SATISFIED  # t_- = 19
    assert nikulin_embeds(k3, k3) == CRITERION_NOT_SATISFIED

    with pytest.raises(NotEven):
        nikulin_embeds(IntegralLattice(((1,),)), k3)
    with pytest.raises(NotUnimodular):
        nikulin_embeds(rank1(1), lambda_d(1))


def test_k3_embeddable_examples():
    # any even lattice of signature (2, 8): corollary route
    m = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(1), rank1(2), rank1(3), rank1(1), rank1(2), rank1(3))
    assert signature(m) == (2, 8)
    assert k3_embeddable(m) == GUARANTEED

    # signature (2,12), rank 14, ell small: full-criterion route
    m2 = direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8_minus(), rank1(1), rank1(5))
    assert signature(m2) == (2, 12)
    assert discriminant_group(m2).ell <= 6
    assert k3_embeddable(m2) == GUARANTEED

    assert k3_embeddable(k3_lattice()) == CRITERION_NOT_SATISFIED
    with pytest.raises(NotEven):
        k3_embeddable(IntegralLattice(((2, 0), (0, 3))))


def test_make_lattice_strings():
    assert make_lattice("U").gram == hyperbolic_plane().gram
    assert make_lattice("K3_Lambda").rank == 22
    assert make_lattice("Lambda_d(3)").gram == lambda_d(3).gram
    assert make_lattice("rank1(2)").gram == ((-4,),)
    assert make_lattice("sum(U,U,E8_minus)").rank == 12
    with pytest.raises(InvalidParameter):
        make_lattice("Leech")


@st.composite
def small_symmetric_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(st.integers(min_value=-6, max_value=6))
    gram = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    return IntegralLattice(tuple(tuple(row) for row in gram))


@settings(max_examples=150, deadline=None)
@given(small_symmetric_matrices())
def test_invariant_factors_multiply_to_determinant(lat):
    det = determinant(lat)
    if det == 0:
        with pytest.raises(Degenerate):
            discriminant_group(lat)
        return
    disc = discriminant_group(lat)
    product = 1
    for d in disc.invariant_factors:
        product *= d
    assert product == abs(det)
    for a, b in zip(disc.invariant_factors, disc.invariant_factors[1:]):
        assert b % a == 0


@settings(max_examples=80, deadline=None)
@given(small_symmetric_matrices())
def test_smith_form_matches_sympy(lat):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    if determinant(lat) == 0:
        return
    ours = discriminant_group(lat).invariant_factors
    theirs = tuple(
        int(abs(d)) for d in sympy_factors(sympy.Matrix(lat.gram)) if abs(d) > 1
    )
    assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(small_symmetric_matrices(), st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0))
def test_rescale_determinant_and_signature(lat, c):
    det = determinant(lat)
    scaled = rescale(lat, c)
    assert determinant(scaled) == det * c ** lat.rank
    if det != 0:
        a, b = signature(lat)
        expected = (a, b) if c > 0 else (b, a)
        assert signature(scaled) == expected


@settings(max_examples=100, deadline=None)
@given(small_symmetric_matrices())
def test_signature_counts_match_rank(lat):
    if determinant(lat) == 0:
        return
    plus, minus = signature(lat)
    assert plus + minus == lat.rank
    # cross-check the sign of the determinant: (-1)^minus
    det = determinant(lat)
    assert (det > 0) == (minus % 2 == 0)


# -- the integer signature against the rational diagonalisation ---------------

REPO = Path(__file__).resolve().parents[1]


def fraction_signature(lat):
    """Reference: symmetric congruent diagonalisation over Q, as signature
    computed it before the integer elimination."""
    n = lat.rank
    if determinant(lat) == 0:
        raise Degenerate("lattice is degenerate")
    m = [[Fraction(x) for x in row] for row in lat.gram]
    plus = minus = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next(j for j in range(k + 1, n) if m[k][j] != 0)
                for col in range(n):
                    m[k][col] += m[j][col]
                for row in m:
                    row[k] += row[j]
        pivot = m[k][k]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor:
                for j in range(n):
                    m[i][j] -= factor * m[k][j]
                for row in m:
                    row[i] -= factor * row[k]
    return (plus, minus)


def random_gram(rng):
    """A symmetric integer matrix of rank 1-9: plain, with a zero diagonal
    (every pivot then starts with a fold), or made degenerate by repeating a
    row and column or by a Gram matrix B^T D B of lower rank."""
    n = rng.randint(1, 9)
    kind = rng.choice(("plain", "zero_diagonal", "repeated", "low_rank"))
    if kind == "low_rank":
        k = rng.randint(0, n - 1)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]
        return [
            [sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)
        ]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.randint(-4, 4)
    if kind == "zero_diagonal":
        for i in range(n):
            gram[i][i] = 0
    if kind == "repeated" and n > 1:
        i, j = rng.sample(range(n), 2)
        for row in gram:
            row[j] = row[i]
        gram[j] = list(gram[i])
    return gram


def assert_same_signature(lat):
    try:
        expected = fraction_signature(lat)
    except Degenerate:
        with pytest.raises(Degenerate):
            signature(lat)
        return "degenerate"
    assert signature(lat) == expected
    return "regular"


def test_integer_signature_matches_the_rational_one_on_random_matrices():
    rng = random.Random(20191)
    outcomes = {"degenerate": 0, "regular": 0}
    for _ in range(1500):
        lat = IntegralLattice(tuple(map(tuple, random_gram(rng))))
        outcomes[assert_same_signature(lat)] += 1
    assert outcomes["degenerate"] >= 300 and outcomes["regular"] >= 600


def test_integer_signature_matches_the_rational_one_on_named_lattices():
    u = hyperbolic_plane()
    lattices = [k3_lattice(), e8_minus(), direct_sum(e8_minus(), e8_minus())]
    lattices += [lambda_d(d) for d in range(1, 13)]
    lattices += [direct_sum(*[u] * k) for k in range(1, 5)]
    lattices += [rescale(lat, -1) for lat in lattices[:3]]
    for lat in lattices:
        assert assert_same_signature(lat) == "regular"


# -- certificates of the discriminant group ---------------------------------------

def test_broken_smith_form_is_internal_inconsistency(monkeypatch):
    lat = direct_sum(rank1(1), rank1(3))  # |det| = 12, invariant factors 2, 6
    assert discriminant_group(lat).invariant_factors == (2, 6)
    monkeypatch.setattr(lattice, "_smith_normal_form", lambda m: [3, 4])
    with pytest.raises(InternalInconsistency, match="divisibility chain"):
        discriminant_group(lat)
    monkeypatch.setattr(lattice, "_smith_normal_form", lambda m: [2, 2])
    with pytest.raises(InternalInconsistency, match="multiply"):
        discriminant_group(lat)


def test_broken_smith_form_raises_under_python_O():
    script = (
        "from pqsurf import lattice\n"
        "from pqsurf.errors import InternalInconsistency\n"
        "lat = lattice.direct_sum(lattice.rank1(1), lattice.rank1(3))\n"
        "for diag in ([3, 4], [2, 2]):\n"
        "    lattice._smith_normal_form = lambda m, diag=diag: diag\n"
        "    try:\n"
        "        lattice.discriminant_group(lat)\n"
        "    except InternalInconsistency as exc:\n"
        "        print('raised', exc)\n"
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
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("raised") and "divisibility chain" in lines[0]
    assert lines[1].startswith("raised") and "multiply" in lines[1]
