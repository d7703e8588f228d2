"""Exact complex character tables and class-function arithmetic.

Tables are computed by Dixon's method: the class-algebra structure constants
are simultaneously diagonalised over a prime field F_p with p = 1 (mod e),
e the group exponent and p > 2|G|, and the mod-p character values are lifted
to exact eigenvalue multisets of e-th roots of unity by a discrete Fourier
inversion over F_p, read from a table of the powers of zeta_e mod p.  No
floating point is involved anywhere.  A class matrix is built only when
the split reaches it, which stops once every common eigenspace has
dimension 1, and its products are composed on image tuples, since only
their classes are read.  Each eigenspace is kept as a reduced echelon
basis, so a vector's coordinates in it are its entries at the pivot
columns, and a class matrix restricts to the space through its pivot rows
alone.  The eigenvalues on each eigenspace are the roots of one
characteristic polynomial, taken from a Hessenberg form mod p.

Character values stay eigenvalue multisets.  Galois orbits are found by
reading the multisets at power classes (``_twist``), and every rational
quantity built from the values (orbit sums, Frobenius-Schur indicators) is
a sum of Galois averages, added up in integers scaled by phi(e): a rational
sum of roots of unity equals its Galois average, and zeta_e^a averages to
mu(n)/phi(n) with n = e/gcd(a, e), so phi(e) mu(n)/phi(n) is an integer.
Elements of Q(zeta_e) (``Cyclotomic``) are built only on demand, for
equality, hashing and class functions that are not rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import itemgetter, mul

from .cyclo import Cyclotomic, _root_power
from .errors import GroupMismatch, InternalInconsistency, NotASubgroup
from .groups import Group, power_map
from .perms import Permutation


# -- values ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CyclotomicValue:
    """A character value stored as the eigenvalue multiset of a group element:
    ``multiplicities`` records, for each residue a mod ``order``, how many
    eigenvalues zeta_order^a occur.

    Rational quantities are read off the multiset by ``galois_average``.
    The element of Q(zeta_order) is built on first use by ``as_cyclotomic``,
    equality or hashing, and then kept.  Two values compare equal when they
    agree as cyclotomic numbers (i.e. after reduction by the cyclotomic
    relations).
    """

    order: int
    multiplicities: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(count < 0 for _, count in self.multiplicities):
            raise ValueError("negative eigenvalue multiplicity")

    @cached_property
    def _number(self) -> Cyclotomic:
        coords = [0] * len(_root_power(self.order, 0))
        for exp, count in self.multiplicities:
            for i, c in enumerate(_root_power(self.order, exp)):
                coords[i] += count * c
        return Cyclotomic(self.order, coords)

    @classmethod
    def from_dict(cls, order: int, mapping) -> "CyclotomicValue":
        items = tuple(sorted((int(a) % order, int(m)) for a, m in mapping.items() if m))
        return cls(order, items)

    def as_cyclotomic(self) -> Cyclotomic:
        return self._number

    def as_rational(self) -> Fraction | None:
        return self._number.as_rational()

    def degree(self) -> int:
        return sum(m for _, m in self.multiplicities)

    def galois_sum(self) -> int:
        """phi(order) times the mean of the value's Galois conjugates, an
        integer: sum of m_a phi(order) mu(n_a)/phi(n_a) with
        n_a = order/gcd(a, order).  A sum of values that is rational equals
        the sum of their averages."""
        weights = _galois_weights(self.order)[1]
        return sum(m * weights[a] for a, m in self.multiplicities)

    def galois_average(self) -> Fraction:
        """The mean of the value's Galois conjugates, a rational number."""
        return Fraction(self.galois_sum(), _galois_weights(self.order)[0])

    def sort_key(self):
        return self.multiplicities

    def restricted(self, n: int) -> dict[int, int]:
        """Relabel the eigenvalue exponents modulo n for an element of order n."""
        step = self.order // n
        if self.order % n:
            raise ValueError("n must divide the ambient order")
        out: dict[int, int] = {}
        for exp, count in self.multiplicities:
            if exp % step:
                raise ValueError("value is not supported on n-th roots of unity")
            out[exp // step] = out.get(exp // step, 0) + count
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicValue):
            return self._number == other._number
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self._number == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._number)

    def __repr__(self) -> str:
        body = ",".join(f"{a}:{m}" for a, m in self.multiplicities)
        return f"CyclotomicValue(e={self.order}, {{{body}}})"


def _mobius_phi(n: int) -> tuple[int, int]:
    """mu(n) and phi(n)."""
    mu, phi, rest, q = 1, 1, n, 2
    while q * q <= rest:
        if rest % q == 0:
            power = 1
            while rest % q == 0:
                rest //= q
                power *= q
            mu = 0 if power > q else -mu
            phi *= power - power // q
        q += 1
    if rest > 1:
        mu, phi = -mu, phi * (rest - 1)
    return mu, phi


@lru_cache(maxsize=None)
def _galois_weights(e: int) -> tuple[int, tuple[int, ...]]:
    """phi(e), and for each a mod e the mean of the Galois conjugates of
    zeta_e^a scaled by phi(e): phi(e) mu(n)/phi(n) with n = e/gcd(a, e),
    an integer because phi(n) divides phi(e) for n | e."""
    phi_e = _mobius_phi(e)[1]
    weights = []
    for a in range(e):
        # math.gcd, not the module's gcd: that name picks the units of an
        # orbit, and a planted fault may replace it
        mu, phi = _mobius_phi(e // math.gcd(a, e))
        weights.append(phi_e // phi * mu)
    return phi_e, tuple(weights)


def _rational_valued(cf) -> bool:
    """Whether every value of the class function is an int or a Fraction."""
    return all(isinstance(v, (int, Fraction)) for v in cf.values)


def _as_cyclotomic(value, order: int) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, CyclotomicValue):
        return value.as_cyclotomic()
    return Cyclotomic.from_rational(order, value)


# -- class functions -----------------------------------------------------------

@dataclass(frozen=True)
class ClassFunction:
    """Values indexed by conjugacy class, in the group's canonical class order.

    Values may be ints, Fractions, Cyclotomic numbers, or CyclotomicValue
    eigenvalue multisets; arithmetic promotes as needed.
    """

    group: Group
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.group.classes):
            raise ValueError("one value per conjugacy class required")

    def value_cyc(self, class_index: int) -> Cyclotomic:
        return _as_cyclotomic(self.values[class_index], self.group.exponent)

    def at(self, g: Permutation):
        return self.values[self.group.class_index(g)]


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Compared and hashed by identity: ``character_table`` builds one per
    group, so a cache keyed on a table never hashes its values."""

    group: Group
    irreducibles: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    # dual[i] is the index of the complex conjugate of irreducible i
    dual: tuple[int, ...]


@dataclass(frozen=True)
class RationalCharacter:
    """A Galois orbit of complex irreducibles: psi = m * (sum of the orbit)."""

    psi: ClassFunction
    orbit: tuple[int, ...]
    schur_index: int
    multiplicity_n: int
    schur_index_unverified: bool = False

    @property
    def constituent_degree(self) -> int:
        return self.schur_index * self.multiplicity_n


# -- linear algebra over F_p ------------------------------------------------

def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced echelon basis of the rows' span (its nonzero rows, each
    with a leading 1) and the column of each leading 1."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _kernel(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat[0])
    red, pivots = _rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][f]) % p
        basis.append(v)
    return basis


def _charpoly(mat: list[list[int]], p: int) -> list[int]:
    """det(x I - mat) mod p, coefficients lowest degree first.

    The matrix is first brought to upper Hessenberg form H by similarity
    (row operations below the subdiagonal, each undone on the columns), and
    the polynomials of H's leading blocks then follow by the recurrence
    P_m = (x - H[m-1][m-1]) P_(m-1)
          - sum over i < m of H[i-1][m-1] (H[i][i-1] ... H[m-1][m-2]) P_(i-1)."""
    h = [list(row) for row in mat]
    n = len(h)
    for c in range(n - 2):
        pivot = next((i for i in range(c + 1, n) if h[i][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = pow(h[c + 1][c], -1, p)
        for r in range(c + 2, n):
            u = h[r][c] * inv % p
            if u:
                h[r] = [(a - u * b) % p for a, b in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + u * row[r]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        diag = h[m - 1][m - 1]
        prev = polys[-1]
        poly = [0] + prev
        for d, a in enumerate(prev):
            poly[d] = (poly[d] - diag * a) % p
        chain = 1
        for i in range(m - 1, 0, -1):
            chain = chain * h[i][i - 1] % p
            if not chain:
                break
            f = h[i - 1][m - 1] * chain % p
            for d, a in enumerate(polys[i - 1]):
                poly[d] = (poly[d] - f * a) % p
        polys.append(poly)
    return polys[-1]


def _eigenvalues(mat: list[list[int]], p: int) -> list[int]:
    """The distinct eigenvalues in F_p of a square matrix, ascending: the
    roots of its characteristic polynomial."""
    poly = _charpoly(mat, p)[::-1]
    roots = []
    for lam in range(p):
        acc = 0
        for a in poly:
            acc = (acc * lam + a) % p
        if acc == 0:
            roots.append(lam)
    return roots


# -- Dixon's method ------------------------------------------------------------

def _dixon_prime(order: int, exponent: int) -> int:
    """The least prime p > 2|G| with p = 1 (mod e)."""
    p = 2 * order + 1
    while True:
        if (p - 1) % exponent == 0 and _is_prime(p):
            return p
        p += 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _primitive_root(p: int) -> int:
    factors = set()
    m = p - 1
    q = 2
    while q * q <= m:
        while m % q == 0:
            factors.add(q)
            m //= q
        q += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError("no primitive root found")  # pragma: no cover


def _class_matrix(group: Group, i: int, class_of_images: dict) -> list[list[int]]:
    """mat[j][l] = #{x in class i : x^-1 z in class j}, z the representative
    of class l.

    The inverses x^-1 make up the class inverse to class i, and only the
    class of each product is read, so the products are composed on image
    tuples and looked up in ``class_of_images`` (image tuple -> class)."""
    k = len(group.classes)
    inverses = group.classes[power_map(group, -1)[i]]
    mat = [[0] * k for _ in range(k)]
    for l, z in enumerate(group.class_reps):
        # y -> the images of y * z; a group with two classes has degree >= 2,
        # so itemgetter returns a tuple
        compose = itemgetter(*(t - 1 for t in z.images))
        for y in inverses:
            mat[class_of_images[compose(y.images)]][l] += 1
    return mat


def _central_characters(group: Group, p: int) -> list[list[int]]:
    """Common eigenvectors of the class-algebra matrices, normalised so the
    identity-class coordinate is 1; these are the central characters mod p.

    The class matrices split the common eigenspaces in class order, and
    each is built only when a space of dimension > 1 is left to split.
    Every space is kept as its reduced echelon basis and pivot columns
    (``_rref``), so the coordinates of a vector in the space are its
    entries at the pivots: the restriction of A to the space is
    R[s][t] = A[pivots[s]] . basis[t], with no elimination."""
    k = len(group.classes)
    class_of_images = {g.images: c for g, c in group._class_of.items()}
    spaces = [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))]
    for i in range(1, k):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        A = _class_matrix(group, i, class_of_images)
        refined = []
        for basis, pivots in spaces:
            m = len(basis)
            if m == 1:
                refined.append((basis, pivots))
                continue
            R = [[sum(map(mul, A[c], v)) % p for v in basis] for c in pivots]
            columns = list(zip(*basis))
            covered = 0
            for lam in _eigenvalues(R, p):
                shifted = [[(x - lam * (r == c)) % p for c, x in enumerate(row)]
                           for r, row in enumerate(R)]
                coeffs = _kernel(shifted, p)
                if not coeffs:
                    continue
                # the eigenvectors: each coefficient vector applied to the basis
                space = _rref([[sum(map(mul, cs, col)) % p for col in columns] for cs in coeffs], p)
                # count pivots, not vectors: a repeated vector adds no dimension
                covered += len(space[1])
                refined.append(space)
            if covered != m:
                raise InternalInconsistency("Dixon: a class matrix failed to diagonalise")
        spaces = refined
    if not all(len(basis) == 1 for basis, _ in spaces):
        raise InternalInconsistency("Dixon: the central characters are not separated")
    # a one-row echelon basis has its leading 1 at the identity class unless
    # the eigenvector vanishes there
    if any(pivots != [0] for _, pivots in spaces):
        raise InternalInconsistency("Dixon: an eigenvector vanishes on the identity class")
    return [basis[0] for basis, _ in spaces]


@lru_cache(maxsize=None)
def character_table(group: Group) -> CharacterTable:
    """Complete exact character table, canonically ordered.

    Rows are sorted by degree, then lexicographically by the eigenvalue
    multisets of their values under the canonical class order.
    """
    k = len(group.classes)
    e = group.exponent
    n_g = group.order
    p = _dixon_prime(n_g, e)
    omegas = _central_characters(group, p)
    inverse_class = power_map(group, -1)
    size_inv = [pow(s, -1, p) for s in group.class_sizes]

    rows = []
    for omega in omegas:
        s = sum(omega[i] * omega[inverse_class[i]] % p * size_inv[i] for i in range(k)) % p
        d_sq = n_g * pow(s, -1, p) % p
        d = isqrt(d_sq)
        if d * d != d_sq or not 1 <= d <= isqrt(n_g):
            raise InternalInconsistency("Dixon: degree recovery failed")
        chibar = [d * omega[i] % p * size_inv[i] % p for i in range(k)]
        rows.append((d, chibar))

    if sum(d * d for d, _ in rows) != n_g:
        raise InternalInconsistency("Dixon: the degrees violate the sum of squares")

    z = pow(_primitive_root(p), (p - 1) // e, p)
    zeta = [1] * e
    for j in range(1, e):
        zeta[j] = zeta[j - 1] * z % p
    power_classes = group._power_classes
    # for an element order n: 1/n mod p, and row alpha of the inverse
    # Fourier matrix, zeta_n^(-alpha t) for t < n, read from the power table
    fourier = {}
    for row in power_classes:
        n = len(row)
        if n not in fourier:
            step = e // n
            fourier[n] = (
                pow(n, -1, p),
                [[zeta[-alpha * t * step % e] for t in range(n)] for alpha in range(n)],
            )

    characters = []
    for d, chibar in rows:
        values = []
        for row in power_classes:
            n = len(row)
            n_inv, inverse_fourier = fourier[n]
            step = e // n
            at_powers = [chibar[c] for c in row]
            mult: dict[int, int] = {}
            for alpha, roots in enumerate(inverse_fourier):
                m_alpha = sum(map(mul, at_powers, roots)) % p * n_inv % p
                if m_alpha > d:
                    raise InternalInconsistency("Dixon: an eigenvalue multiplicity failed to lift")
                if m_alpha:
                    mult[alpha * step] = m_alpha
            if sum(mult.values()) != d:
                raise InternalInconsistency(
                    "Dixon: the eigenvalue multiplicities do not sum to the degree"
                )
            values.append(CyclotomicValue.from_dict(e, mult))
        characters.append(ClassFunction(group, tuple(values)))

    characters.sort(key=lambda cf: (cf.values[0].degree(), tuple(v.sort_key() for v in cf.values)))
    # the trivial character, eigenvalue 1 on every class, sorts first
    if any(v.multiplicities != ((0, 1),) for v in characters[0].values):
        raise InternalInconsistency("the first character of the table is not the trivial one")
    degrees = tuple(cf.values[0].degree() for cf in characters)
    dual = _dual_map(characters, degrees, inverse_class)
    return CharacterTable(group, tuple(characters), degrees, dual)


def _twist(characters, *power_maps) -> tuple[tuple[int, ...], ...]:
    """For each power map k (class c -> the class of rep_c^k, ``power_map``),
    the index of every irreducible's Galois twist chi^(k)(g) = chi(g^k).

    The eigenvalue multisets of chi^(k) are chi's read at the k-th power
    classes, so the multisets are the lookup keys, indexed once per call.
    The twist by -1 is complex conjugation, and the twists by the units
    mod e make up a Galois orbit, so a rational character and its dual are
    the same orbit."""
    index = {tuple(v.multiplicities for v in cf.values): i for i, cf in enumerate(characters)}
    try:
        return tuple(
            tuple(index[tuple(cf.values[c].multiplicities for c in classes)] for cf in characters)
            for classes in power_maps
        )
    except KeyError:
        raise InternalInconsistency(
            "the twist of an irreducible character is not in the table"
        ) from None


def _dual_map(characters, degrees, inverse_class) -> tuple[int, ...]:
    """Index of the complex conjugate of each irreducible: the twist by -1.
    Complex conjugation must be a degree-preserving involution that fixes
    the trivial character."""
    (dual,) = _twist(characters, inverse_class)
    if dual[0] != 0 or any(
        dual[j] != i or degrees[j] != degrees[i] for i, j in enumerate(dual)
    ):
        raise InternalInconsistency(
            "complex conjugation must be a degree-preserving involution "
            "fixing the trivial character"
        )
    return dual


# -- operations on class functions ---------------------------------------------

def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """<a, b> = (1/|G|) sum over classes of size * a * conj(b); exact rational.

    When both arguments are rational-valued (every value an int or a
    Fraction) the values are scaled to integers by the least common
    denominator of each argument and summed in integers; otherwise the sum
    runs in the cyclotomic field."""
    if a.group != b.group:
        raise GroupMismatch("class functions live over different groups")
    group = a.group
    if _rational_valued(a) and _rational_valued(b):
        den_a = lcm(*(x.denominator for x in a.values))
        den_b = lcm(*(y.denominator for y in b.values))
        total = sum(
            size * x.numerator * (den_a // x.denominator) * y.numerator * (den_b // y.denominator)
            for size, x, y in zip(group.class_sizes, a.values, b.values)
        )
        return Fraction(total, group.order * den_a * den_b)
    total = Cyclotomic.zero(group.exponent)
    for c in range(len(group.classes)):
        term = a.value_cyc(c) * b.value_cyc(c).conjugate()
        total = total + term.scale(group.class_sizes[c])
    q = total.scale(Fraction(1, group.order)).as_rational()
    if q is None:
        raise ValueError("inner product is not rational")
    return q


def induced_trivial(group: Group, subgroup) -> ClassFunction:
    """Character of G induced from the trivial character of a subgroup.

    At g it is |C_G(g)| |g^G & H| / |H|, so only the class of each element of
    H is needed: #{x : x^-1 g x in H} = |C_G(g)| |g^G & H| with
    |C_G(g)| = |G| / |g^G|."""
    sub = frozenset(subgroup)
    if not sub or any(h not in group for h in sub):
        raise NotASubgroup("subgroup elements must belong to the group")
    for a in sub:
        if a.inverse() not in sub:
            raise NotASubgroup("set is not closed under inversion")
        for b in sub:
            if a * b not in sub:
                raise NotASubgroup("set is not closed under composition")
    h = len(sub)
    hits = [0] * len(group.classes)
    for x in sub:
        hits[group.class_index(x)] += 1
    values = []
    for c, size in enumerate(group.class_sizes):
        count, rest = divmod(group.order * hits[c], size)
        if rest or count % h:
            raise InternalInconsistency("induced character value must be an integer")
        values.append(count // h)
    return ClassFunction(group, tuple(values))


def frobenius_schur(table: CharacterTable, index: int) -> int:
    """(1/|G|) sum of chi(g^2); -1, 0 or 1.

    The sum is rational, so it is summed as (1/|G|) sum over classes c of
    |c| times the Galois average of chi at the class of rep_c^2, in integers
    scaled by phi(e) (``galois_sum``)."""
    group = table.group
    squares = power_map(group, 2)
    values = table.irreducibles[index].values
    total = sum(
        size * values[squares[c]].galois_sum() for c, size in enumerate(group.class_sizes)
    )
    scale = _galois_weights(group.exponent)[0] * group.order
    if total not in (-scale, 0, scale):
        q = Fraction(total, scale)
        raise InternalInconsistency(f"Frobenius-Schur indicator must be -1, 0 or 1, not {q}")
    return total // scale


@lru_cache(maxsize=None)
def rational_characters(table: CharacterTable) -> tuple[RationalCharacter, ...]:
    """Galois orbits of the complex irreducibles, one rational character each.

    The orbit of chi is its twists by the units mod e (``_twist``).  The
    Schur index is set to 2 exactly for real-valued orbits with
    Frobenius-Schur indicator -1 (the quaternionic case); non-real orbits of
    degree > 1 are flagged ``schur_index_unverified`` since the heuristic does
    not certify their index.

    The orbit members are Galois conjugates with equal Galois averages, so
    psi(c) = |orbit| * m * (the average of chi(c)), summed in integers
    scaled by phi(e) (``galois_sum``).  Two certificates check it: every
    value is an integer, and sum |c| psi(c)^2 = |G| m^2 |orbit|, which
    fails for a sum over part of an orbit.
    """
    group = table.group
    e = group.exponent
    k = len(group.classes)
    phi_e = _galois_weights(e)[0]
    units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
    twists = _twist(table.irreducibles, *(power_map(group, u) for u in units))

    seen: set[int] = set()
    out = []
    for i in range(k):
        if i in seen:
            continue
        orbit_t = tuple(sorted({twist[i] for twist in twists}))
        seen.update(orbit_t)
        fs = frobenius_schur(table, i)
        schur = 2 if fs == -1 else 1
        degree = table.degrees[i]
        unverified = fs == 0 and degree > 1
        scale = len(orbit_t) * schur
        sums = [scale * v.galois_sum() for v in table.irreducibles[i].values]
        values = [s // phi_e for s in sums]
        norm = sum(size * q * q for size, q in zip(group.class_sizes, values))
        if any(s % phi_e for s in sums) or norm != group.order * schur * scale:
            raise InternalInconsistency(
                "a Galois orbit sum must be integral, of norm |G| m^2 |orbit|"
            )
        if degree % schur:
            raise InternalInconsistency("the Schur index must divide the degree")
        out.append(
            RationalCharacter(
                psi=ClassFunction(group, tuple(values)),
                orbit=orbit_t,
                schur_index=schur,
                multiplicity_n=degree // schur,
                schur_index_unverified=unverified,
            )
        )
    out.sort(key=lambda rc: rc.orbit[0])
    return tuple(out)


def eigenvalue_multiplicities(table: CharacterTable, index: int, g: Permutation) -> dict[int, int]:
    """Multiplicities of the eigenvalues zeta_n^a of the index-th irreducible
    at g, n = ord(g); recovered exactly from the stored eigenvalue multisets."""
    group = table.group
    c = group.class_index(g)
    value = table.irreducibles[index].values[c]
    return value.restricted(g.order())
