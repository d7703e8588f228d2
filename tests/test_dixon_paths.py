"""Dixon's method and the rational characters against the paths they replace.

``chars._central_characters`` builds a class matrix (``_class_matrix``) only
when the split reaches it, composing its products on image tuples, keeps
each eigenspace as a reduced echelon basis and reads the restriction of a
class matrix off its pivot rows, and takes each eigenspace's eigenvalues
from one characteristic polynomial (``_charpoly``, read off a Hessenberg
form mod p).  ``character_table`` lifts the values with a table of the
powers of zeta mod p, and ``rational_characters`` and ``frobenius_schur``
add up Galois averages in integers scaled by phi(e).  The references below
are the earlier paths: all k class matrices built up front from
``Permutation`` products, the restriction solved for in the coordinates of
each basis vector's image, eigenvalues from m + 1 determinants and Lagrange
interpolation, a lift that calls ``pow`` for every term, and Galois sums in
Fractions.  They are compared on the 22 groups of ``test_galois_sums`` (the
central characters also on S6 and C4 x C4 x C2), and the characteristic
polynomial on seeded random matrices mod p.
"""

import random
from dataclasses import fields
from fractions import Fraction
from math import gcd, isqrt

import pytest

from pqsurf import chars
from pqsurf.chars import (
    RationalCharacter,
    character_table,
    frobenius_schur,
    rational_characters,
)
from pqsurf.groups import group_from_generators, power_map
from pqsurf.perms import parse_permutation
from test_galois_sums import NAMES, group


# -- the replaced paths ---------------------------------------------------------

def reference_class_constants(G):
    """All k class matrices, from one Permutation product per element and
    class representative."""
    k = len(G.classes)
    inverses = [[x.inverse() for x in cls] for cls in G.classes]
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(G.class_reps):
        for row, cls_inverses in zip(mats, inverses):
            for x_inv in cls_inverses:
                row[G._class_of[x_inv * z]][l] += 1
    return mats


def reference_det(mat, p):
    m = [list(r) for r in mat]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det % p


def reference_charpoly(mat, p):
    """det(c I - mat) at c = 0..m, interpolated; lowest degree first."""
    m = len(mat)
    xs = list(range(m + 1))
    ys = [
        reference_det([[(c * (i == j) - mat[i][j]) % p for j in range(m)] for i in range(m)], p)
        for c in xs
    ]
    coeffs = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num, denom = [1], 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [0] * (len(num) + 1)
            for d, a in enumerate(num):
                new[d] = (new[d] - xj * a) % p
                new[d + 1] = (new[d + 1] + a) % p
            num = new
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p) % p
        for d, a in enumerate(num):
            coeffs[d] = (coeffs[d] + scale * a) % p
    return coeffs


def reference_eigenvalues(mat, p):
    poly = reference_charpoly(mat, p)
    roots = []
    for lam in range(p):
        acc = 0
        for a in reversed(poly):
            acc = (acc * lam + a) % p
        if acc == 0:
            roots.append(lam)
    return roots


def reference_matvec(mat, vec, p):
    return [sum(a * b for a, b in zip(row, vec)) % p for row in mat]


def reference_coords_in_basis(basis, targets, p):
    """Coordinates of each target vector in the span of ``basis``, by row
    reducing the k x (m + targets) matrix of basis and target columns."""
    k, m = len(basis[0]), len(basis)
    rows = [[basis[s][i] for s in range(m)] + [t[i] for t in targets] for i in range(k)]
    red, pivots = chars._rref(rows, p)
    assert pivots[:m] == list(range(m)), "eigenspace basis vectors are dependent"
    return [[red[r][m + t] for r in range(m)] for t in range(len(targets))]


def reference_central_characters(G, p):
    """The central characters, and how many class matrices the split used."""
    k = len(G.classes)
    mats = reference_class_constants(G)
    spaces = [[[int(i == j) for j in range(k)] for i in range(k)]]
    used = 0
    for A in mats[1:]:
        if all(len(s) == 1 for s in spaces):
            break
        used += 1
        refined = []
        for basis in spaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            coords = reference_coords_in_basis(basis, [reference_matvec(A, v, p) for v in basis], p)
            m = len(basis)
            R = [[coords[t][s] for t in range(m)] for s in range(m)]
            for lam in reference_eigenvalues(R, p):
                shifted = [[(R[i][j] - lam * (i == j)) % p for j in range(m)] for i in range(m)]
                refined.append([
                    [sum(c * basis[t][idx] for t, c in enumerate(coeffs)) % p for idx in range(k)]
                    for coeffs in chars._kernel(shifted, p)
                ])
        spaces = [s for s in refined if s]
    assert all(len(s) == 1 for s in spaces)
    return [[x * pow(v[0], -1, p) % p for x in v] for (v,) in spaces], used


def reference_character_table(G):
    """Sorted rows of eigenvalue multisets, each lifted with one ``pow`` per
    term of the Fourier inversion."""
    k, e, n_g = len(G.classes), G.exponent, G.order
    p = chars._dixon_prime(n_g, e)
    omegas, _ = reference_central_characters(G, p)
    inverse_class = power_map(G, -1)
    size_inv = [pow(s, -1, p) for s in G.class_sizes]
    z = pow(chars._primitive_root(p), (p - 1) // e, p)
    rows = []
    for omega in omegas:
        s = sum(omega[i] * omega[inverse_class[i]] % p * size_inv[i] for i in range(k)) % p
        d = isqrt(n_g * pow(s, -1, p) % p)
        chibar = [d * omega[i] % p * size_inv[i] % p for i in range(k)]
        values = []
        for c in range(k):
            powers = G._power_classes[c]
            n = len(powers)
            zn = pow(z, e // n, p)
            mult = {}
            for alpha in range(n):
                total = sum(chibar[powers[t]] * pow(zn, (-alpha * t) % n, p) for t in range(n))
                m_alpha = total % p * pow(n, -1, p) % p
                if m_alpha:
                    mult[alpha * (e // n) % e] = m_alpha
            values.append(tuple(sorted(mult.items())))
        rows.append(tuple(values))
    return sorted(rows, key=lambda r: (sum(m for _, m in r[0]), r))


def reference_galois_average(value):
    """sum of m_a mu(n_a)/phi(n_a), n_a = e/gcd(a, e), in Fractions."""
    e = value.order
    total = Fraction(0)
    for a, m in value.multiplicities:
        n = e // gcd(a, e)
        units = sum(1 for u in range(1, n + 1) if gcd(u, n) == 1)
        # mu(n) is the sum of the primitive n-th roots of unity: for n
        # square-free (-1)^(number of primes), else 0
        primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
        mu = 0 if any(n % (q * q) == 0 for q in primes) else (-1) ** len(primes)
        total += m * Fraction(mu, units)
    return total


def reference_frobenius_schur(table, index):
    G = table.group
    squares = power_map(G, 2)
    values = table.irreducibles[index].values
    q = sum(
        size * reference_galois_average(values[squares[c]])
        for c, size in enumerate(G.class_sizes)
    ) / G.order
    assert q in (-1, 0, 1)
    return int(q)


def reference_rational_characters(table):
    G = table.group
    e = G.exponent
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    twists = chars._twist(table.irreducibles, *(power_map(G, u) for u in units))
    seen, out = set(), []
    for i in range(len(G.classes)):
        if i in seen:
            continue
        orbit = tuple(sorted({twist[i] for twist in twists}))
        seen.update(orbit)
        fs = reference_frobenius_schur(table, i)
        schur = 2 if fs == -1 else 1
        sums = [len(orbit) * schur * reference_galois_average(v)
                for v in table.irreducibles[i].values]
        assert all(q.denominator == 1 for q in sums)
        degree = table.degrees[i]
        out.append(RationalCharacter(
            psi=chars.ClassFunction(G, tuple(q.numerator for q in sums)),
            orbit=orbit,
            schur_index=schur,
            multiplicity_n=degree // schur,
            schur_index_unverified=fs == 0 and degree > 1,
        ))
    out.sort(key=lambda rc: rc.orbit[0])
    return tuple(out)


# -- differential tests -----------------------------------------------------------

# groups with more classes, for the central characters alone: S6 (k = 11)
# and C4 x C4 x C2 (k = 32)
LARGER = {
    "S6": (6, ("(1,2)", "(1,2,3,4,5,6)")),
    "C4xC4xC2": (10, ("(1,2,3,4)", "(5,6,7,8)", "(9,10)")),
}


@pytest.mark.parametrize("name", NAMES + tuple(LARGER))
def test_central_characters_match_all_matrices_and_interpolation(name):
    if name in LARGER:
        degree, gens = LARGER[name]
        G = group_from_generators([parse_permutation(g, degree) for g in gens])
    else:
        G = group(name)
    p = chars._dixon_prime(G.order, G.exponent)
    assert chars._central_characters(G, p) == reference_central_characters(G, p)[0]


@pytest.mark.parametrize("name", NAMES)
def test_tables_match_the_pow_lift(name):
    table = character_table(group(name))
    rows = [tuple(v.multiplicities for v in cf.values) for cf in table.irreducibles]
    assert rows == reference_character_table(group(name))
    assert table.degrees == tuple(sum(m for _, m in row[0]) for row in rows)


@pytest.mark.parametrize("name", NAMES)
def test_rational_characters_match_fraction_sums(name):
    table = character_table(group(name))
    new = rational_characters(table)
    old = reference_rational_characters(table)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        for field in fields(RationalCharacter):
            assert getattr(a, field.name) == getattr(b, field.name), (name, field.name, b.orbit)
    for i in range(len(table.irreducibles)):
        assert frobenius_schur(table, i) == reference_frobenius_schur(table, i), (name, i)
        for v in table.irreducibles[i].values:
            assert v.galois_average() == reference_galois_average(v)


# -- the characteristic polynomial ------------------------------------------------

def _similar(rng, mat, p):
    """P mat P^-1 for a random invertible P, with P^-1 found by elimination."""
    n = len(mat)
    while True:
        P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if reference_det(P, p):
            break
    red, _ = chars._rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(P)], p)
    P_inv = [row[n:] for row in red]
    prod = lambda X, Y: [[sum(X[i][t] * Y[t][j] for t in range(n)) % p for j in range(n)]
                         for i in range(n)]
    return prod(prod(P, mat), P_inv)


def _random_matrices(seed, p):
    rng = random.Random(seed)
    out = [[[rng.randrange(p)]], [[0]]]
    for n in range(2, 8):
        upper = [[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)]
        out.append(upper)
        out.append([list(col) for col in zip(*upper)])  # lower triangular
        # eigenvalues repeated: a diagonal with two distinct entries, moved
        # off the diagonal by a similarity
        diag = [rng.choice((1, 2)) for _ in range(n)]
        out.append(_similar(rng, [[diag[i] * (i == j) for j in range(n)] for i in range(n)], p))
        # nilpotent: strictly upper triangular, then conjugated
        strict = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
        out.append(strict)
        out.append(_similar(rng, strict, p))
        out.append([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        out.append([[0] * n for _ in range(n)])
    return out


@pytest.mark.parametrize("p", (13, 97, 241))
@pytest.mark.parametrize("seed", range(3))
def test_charpoly_matches_determinants_and_interpolation(seed, p):
    for mat in _random_matrices(seed, p):
        poly = chars._charpoly(mat, p)
        assert poly == reference_charpoly(mat, p), mat
        assert len(poly) == len(mat) + 1 and poly[-1] == 1
        assert chars._eigenvalues(mat, p) == reference_eigenvalues(mat, p), mat


def test_charpoly_of_a_nilpotent_matrix_is_a_power_of_x():
    rng = random.Random(5)
    for n in range(1, 8):
        strict = [[rng.randrange(1, 97) if j > i else 0 for j in range(n)] for i in range(n)]
        assert chars._charpoly(_similar(rng, strict, 97), 97) == [0] * n + [1]
        assert chars._eigenvalues(strict, 97) == [0]


# -- laziness: a class matrix only when the split needs it -------------------------

@pytest.fixture
def built(monkeypatch):
    """The classes whose matrices were built, in order."""
    classes = []
    real = chars._class_matrix

    def recording(G, i):
        classes.append(i)
        return real(G, i)

    monkeypatch.setattr(chars, "_class_matrix", recording)
    return classes


# the transposition class alone separates the characters of S4 and S5; the
# identity class's matrix is the identity and is never built
@pytest.mark.parametrize("name, expected", [("S5", [1]), ("S4", [1]), ("C4xC4", [1, 2, 3, 4, 5, 6])])
def test_class_matrices_built_on_demand(built, name, expected):
    character_table.__wrapped__(group(name))  # not kept on the group
    assert built == expected


@pytest.mark.parametrize("name", NAMES)
def test_no_more_matrices_than_the_split_consumes(built, name):
    G = group(name)
    p = chars._dixon_prime(G.order, G.exponent)
    chars._central_characters(G, p)
    assert built == list(range(1, 1 + reference_central_characters(G, p)[1]))
