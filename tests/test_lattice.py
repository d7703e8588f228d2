import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conveniences import rescale
from planted import planted
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
    K3_RANK,
    K3_SIGNATURE,
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
    nikulin_embeds,
    rank1,
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
    # the constants k3_embeddable tests against are the built lattice's
    assert lam.rank == K3_RANK == 22
    assert abs(determinant(lam)) == 1
    assert signature(lam) == K3_SIGNATURE == (3, 19)
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
    for _ in range(3):
        with pytest.raises(Degenerate):
            signature(degenerate)
        with pytest.raises(Degenerate):
            discriminant_group(degenerate)
    # on every call: the congruence pass, with det = 0, is kept, and what
    # raised is not
    assert degenerate._memo == {lattice._congruence.__wrapped__: (1, 0, 0)}
    assert determinant(degenerate) == 0


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


@st.composite
def small_symmetric_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(st.integers(min_value=-6, max_value=6))
    gram = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    return IntegralLattice(tuple(tuple(row) for row in gram))


@st.composite
def zero_diagonal_lattices(draw):
    """Direct sums of U(c) and the degenerate <0>, with the basis permuted
    and then scrambled by moves b_i += c b_j with b_j isotropic and
    orthogonal to b_i: the diagonal stays zero, so the first pivot, and
    often later ones, is found by a fold."""
    # c = 0 stands for the summand <0>
    scales = draw(st.lists(st.sampled_from((1, -1, 2, 3, 0)), min_size=1, max_size=4))
    parts = [rescale(hyperbolic_plane(), c) if c else IntegralLattice(((0,),)) for c in scales]
    gram = [list(row) for row in direct_sum(*parts).gram]
    n = len(gram)
    order = draw(st.permutations(range(n)))
    gram = [[gram[i][j] for j in order] for i in order]
    if n > 1:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
            i, j = draw(st.sampled_from(pairs))
            c = draw(st.integers(min_value=-2, max_value=2))
            if gram[i][j] == 0 and gram[j][j] == 0:
                gram[i] = [a + c * b for a, b in zip(gram[i], gram[j])]
                for row in gram:
                    row[i] += c * row[j]
    assert all(gram[i][i] == 0 for i in range(n))
    return IntegralLattice(tuple(map(tuple, gram)))


@st.composite
def rank_deficient_matrices(draw):
    """B^T D B with B of k < n rows: a Gram matrix of rank at most k."""
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    b = [[draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)] for _ in range(k)]
    d = [draw(st.sampled_from((-3, -1, 1, 2))) for _ in range(k)]
    return IntegralLattice(tuple(
        tuple(sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n))
        for i in range(n)
    ))


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


# -- the congruence pass against Bareiss and the rational diagonalisation -------

REPO = Path(__file__).resolve().parents[1]


def bareiss_determinant(lat):
    """Reference: fraction-free Bareiss elimination with row swaps, as
    determinant computed it before the symmetric congruence pass."""
    n = lat.rank
    if n == 0:
        return 1
    m = [list(row) for row in lat.gram]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_signature(lat):
    """Reference: symmetric congruent diagonalisation over Q, as signature
    computed it before the integer elimination."""
    n = lat.rank
    if bareiss_determinant(lat) == 0:
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


def assert_matches_the_references(lat):
    """determinant against Bareiss and signature against the rational
    diagonalisation; a degenerate lattice has no signature and no
    discriminant group."""
    assert determinant(lat) == bareiss_determinant(lat)
    try:
        expected = fraction_signature(lat)
    except Degenerate:
        for invariant in (signature, discriminant_group):
            with pytest.raises(Degenerate):
                invariant(lat)
        return "degenerate"
    assert signature(lat) == expected
    return "regular"


def test_integer_signature_matches_the_rational_one_on_random_matrices():
    rng = random.Random(20191)
    outcomes = {"degenerate": 0, "regular": 0}
    for _ in range(1500):
        lat = IntegralLattice(tuple(map(tuple, random_gram(rng))))
        outcomes[assert_matches_the_references(lat)] += 1
    assert outcomes["degenerate"] >= 300 and outcomes["regular"] >= 600


def test_integer_signature_matches_the_rational_one_on_named_lattices():
    u = hyperbolic_plane()
    lattices = [k3_lattice(), e8_minus(), direct_sum(e8_minus(), e8_minus())]
    lattices += [lambda_d(d) for d in range(1, 13)]
    lattices += [direct_sum(*[u] * k) for k in range(1, 5)]
    lattices += [rescale(lat, -1) for lat in lattices[:3]]
    lattices.append(IntegralLattice(()))  # rank 0: det 1, signature (0, 0)
    # k3_lattice(), lambda_d(1..12) and 74 seeded even lattices
    embedding = differential_lattices()
    assert len(embedding) == 87
    for lat in lattices + embedding:
        assert assert_matches_the_references(lat) == "regular"


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_symmetric_matrices(), zero_diagonal_lattices(), rank_deficient_matrices()))
def test_congruence_matches_the_references_on_drawn_matrices(lat):
    assert_matches_the_references(lat)


@pytest.mark.parametrize("gram", [
    ((Fraction(1, 2),),),
    ((0.5,),),
    ((2.0,),),
    ((2, 1.5), (1.5, 2)),
    (("2",),),
    ((True,),),
    ((2, False), (False, 2)),
])
def test_non_integer_entries_are_invalid(gram):
    with pytest.raises(InvalidParameter, match="not an integer"):
        IntegralLattice(gram)


@pytest.mark.parametrize("gram", [(1,), [[2]], ([2],), [(2,)], "2"])
def test_gram_matrices_that_are_not_tuples_of_tuples_are_invalid(gram):
    # a list would be accepted and then fail to hash
    with pytest.raises(InvalidParameter, match="tuple of tuples"):
        IntegralLattice(gram)


# -- certificates of the discriminant group ---------------------------------------

def test_broken_smith_form_is_internal_inconsistency(monkeypatch):
    def build():
        return direct_sum(rank1(1), rank1(3))  # |det| = 12, invariant factors 2, 6

    assert discriminant_group(build()).invariant_factors == (2, 6)
    # each plant runs on a freshly built equal lattice: on the one above,
    # the kept discriminant group would be returned without a computation
    monkeypatch.setattr(lattice, "_smith_normal_form", lambda m: [3, 4])
    with pytest.raises(InternalInconsistency, match="divisibility chain"):
        discriminant_group(build())
    monkeypatch.setattr(lattice, "_smith_normal_form", lambda m: [2, 2])
    with pytest.raises(InternalInconsistency, match="multiply"):
        discriminant_group(build())


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


@planted
def test_planted_congruence_faults_are_internal_inconsistency(monkeypatch):
    def build():
        return direct_sum(rank1(1), rank1(3))  # det = 12, signature (0, 2)

    congruence = lattice._congruence
    # each plant runs on a freshly built lattice, whose memo is empty
    monkeypatch.setattr(lattice, "_congruence", lambda lat: (lambda p, m, d: (p, m, 2 * d))(*congruence(lat)))
    with pytest.raises(InternalInconsistency, match="multiply"):
        discriminant_group(build())
    monkeypatch.setattr(lattice, "_congruence", lambda lat: (lambda p, m, d: (p, m - 1, d))(*congruence(lat)))
    with pytest.raises(InternalInconsistency, match="add up to rank"):
        signature(build())


# -- invariants kept on their lattice -----------------------------------------------

# the stages kept on a lattice, and the invariants read from them
STORED = (lattice._congruence, discriminant_group)
INVARIANTS = (determinant, signature, discriminant_group)


def test_each_invariant_runs_once_per_lattice_and_shares_its_value():
    lat = lambda_d(2)
    values = [invariant(lat) for invariant in INVARIANTS]
    first = [stage(lat) for stage in STORED]
    assert {stage.__wrapped__ for stage in STORED} == set(lat._memo)
    again = [stage(lat) for stage in STORED]
    assert all(a is b for a, b in zip(first, again))
    # determinant and signature read the one congruence pass
    plus, minus, det = first[0]
    assert values[:2] == [det, (plus, minus)]
    assert [invariant(lat) for invariant in INVARIANTS] == values
    # an equal lattice built separately computes them again
    other = lambda_d(2)
    assert other == lat and other._memo == {}
    assert [stage(other) for stage in STORED] == first


def test_lattice_memo_is_not_part_of_equality_hash_or_repr():
    fresh, used = lambda_d(3), lambda_d(3)
    k3_embeddable(used)
    assert lattice._congruence.__wrapped__ in used._memo and fresh._memo == {}
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_memo" not in repr(used)


def test_lattice_replace_starts_with_an_empty_memo():
    lat = direct_sum(rank1(1), rank1(3))
    disc = discriminant_group(lat)
    copy = IntegralLattice(lat.gram)
    assert copy == lat and copy._memo == {}
    assert discriminant_group(copy) == disc
    assert discriminant_group(copy) is not disc


def test_a_dropped_lattice_is_freed_with_its_memo():
    def derive():
        lat = lambda_d(1)
        disc = discriminant_group(lat)
        k3_embeddable(lat)
        return weakref.ref(lat), weakref.ref(disc)

    refs = derive()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# -- k3_embeddable against the criterion on a built K3 lattice ------------------------

def seeded_even_lattice(rng, plus, minus):
    """An even lattice of signature (plus, minus), plus in {2, 3}: hyperbolic
    planes, <2d> and <-2d> summands and E8(-1), with its basis scrambled by
    unimodular row and column operations."""
    parts = [hyperbolic_plane()] * (plus - 1)
    negatives = minus - (plus - 1)
    parts.append(rescale(rank1(rng.randint(1, 6)), -1))
    while negatives >= 8 and rng.random() < 0.5:
        parts.append(e8_minus())
        negatives -= 8
    parts += [rank1(rng.randint(1, 6)) for _ in range(negatives)]
    gram = [list(row) for row in direct_sum(*parts).gram]
    n = len(gram)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        # b_i += c b_j: row and column, which keeps the lattice and evenness
        gram[i] = [a + c * b for a, b in zip(gram[i], gram[j])]
        for row in gram:
            row[i] += c * row[j]
    return IntegralLattice(tuple(map(tuple, gram)))


def differential_lattices():
    rng = random.Random(2019)
    lattices = [k3_lattice()] + [lambda_d(d) for d in range(1, 13)]
    for plus in (2, 3):
        for minus in range(plus - 1, 20):
            lattices += [seeded_even_lattice(rng, plus, minus) for _ in range(2)]
    return lattices


def test_k3_embeddable_matches_nikulin_embeds_into_the_built_k3_lattice():
    verdicts = {GUARANTEED: 0, CRITERION_NOT_SATISFIED: 0}
    for m in differential_lattices():
        assert is_even(m)
        verdict = k3_embeddable(m)
        # a separately built M, so that neither side reads the other's memo
        assert verdict == nikulin_embeds(IntegralLattice(m.gram), k3_lattice()), m.gram
        verdicts[verdict] += 1
    assert verdicts[GUARANTEED] >= 20 and verdicts[CRITERION_NOT_SATISFIED] >= 20


def test_nikulin_rank_slack_boundary():
    # into U + E8(-1), of signature (1, 9) and rank 10: A2(-1) has ell = 1
    # (discriminant Z3), so each M below is negative definite of rank 10 - slack
    target = direct_sum(hyperbolic_plane(), e8_minus())
    a2 = IntegralLattice(((-2, 1), (1, -2)))
    exact = direct_sum(a2, rank1(1), rank1(1), rank1(1))  # ell 3, slack 5 = ell + 2
    short = direct_sum(a2, a2, a2)  # ell 3, slack 4 = ell + 1
    assert [discriminant_group(m).ell for m in (exact, short)] == [3, 3]
    assert nikulin_embeds(exact, target) == GUARANTEED
    assert nikulin_embeds(short, target) == CRITERION_NOT_SATISFIED


@pytest.mark.parametrize("gram, error", [
    (((1,),), NotEven),
    (((2, 1), (1, 3)), NotEven),
    (((0, 0), (0, 2)), Degenerate),
    (((2, 2), (2, 2)), Degenerate),
])
def test_k3_embeddable_and_nikulin_embeds_raise_alike(gram, error):
    with pytest.raises(error):
        k3_embeddable(IntegralLattice(gram))
    with pytest.raises(error):
        nikulin_embeds(IntegralLattice(gram), k3_lattice())
