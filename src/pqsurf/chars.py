"""Exact complex character tables and class-function arithmetic.

Tables are computed by Dixon's method: the class-algebra structure constants
are simultaneously diagonalised over a prime field F_p with p = 1 (mod e),
e the group exponent and p > 2|G|, and the mod-p character values are lifted
to exact eigenvalue multisets of e-th roots of unity by a discrete Fourier
inversion over F_p.  No floating point is involved anywhere.

Character values stay eigenvalue multisets.  Galois orbits are found by
reading the multisets at power classes (``_twist``), and every rational
quantity built from the values (orbit sums, Frobenius-Schur indicators) is
a sum of Galois averages in Fractions: a rational sum of roots of unity
equals its Galois average, and zeta_e^a averages to mu(n)/phi(n) with
n = e/gcd(a, e).  Elements of Q(zeta_e) (``Cyclotomic``) are built only on
demand, for equality, hashing and class functions that are not rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm

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

    def galois_average(self) -> Fraction:
        """The mean of the value's Galois conjugates, a rational number:
        sum of m_a mu(n_a)/phi(n_a) with n_a = order/gcd(a, order).  A sum
        of values that is rational equals the sum of their averages."""
        e = self.order
        # math.gcd, not the module's gcd: that name picks the units of an
        # orbit, and a planted fault may replace it
        return sum(
            (m * _mobius_over_phi(e // math.gcd(a, e)) for a, m in self.multiplicities),
            Fraction(0),
        )

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


@lru_cache(maxsize=None)
def _mobius_over_phi(n: int) -> Fraction:
    """mu(n)/phi(n), the mean of the primitive n-th roots of unity."""
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
    return Fraction(mu, phi)


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

    def rational_values(self) -> tuple[Fraction, ...]:
        if _rational_valued(self):
            return tuple(Fraction(v) for v in self.values)
        out = []
        for i in range(len(self.values)):
            q = self.value_cyc(i).as_rational()
            if q is None:
                raise ValueError("class function is not rational-valued")
            out.append(q)
        return tuple(out)

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
    return rows, pivots


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


def _det(mat: list[list[int]], p: int) -> int:
    m = [list(r) for r in mat]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c] % p:
                pivot = i
                break
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


def _poly_from_points(xs: list[int], ys: list[int], p: int) -> list[int]:
    """Lagrange interpolation; coefficients lowest degree first."""
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        num = [1]  # prod_{j != i} (x - x_j)
        denom = 1
        for j in range(n):
            if j == i:
                continue
            new = [0] * (len(num) + 1)
            for k, a in enumerate(num):
                new[k] = (new[k] - xs[j] * a) % p
                new[k + 1] = (new[k + 1] + a) % p
            num = new
            denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(denom, -1, p) % p
        for k, a in enumerate(num):
            coeffs[k] = (coeffs[k] + scale * a) % p
    return coeffs


def _eigenvalues(mat: list[list[int]], p: int) -> list[int]:
    """All eigenvalues in F_p of a square matrix, ascending."""
    m = len(mat)
    xs = list(range(m + 1))
    ys = []
    for c in xs:
        shifted = [[(c * (i == j) - mat[i][j]) % p for j in range(m)] for i in range(m)]
        ys.append(_det(shifted, p))
    poly = _poly_from_points(xs, ys, p)
    roots = []
    for lam in range(p):
        acc = 0
        for a in reversed(poly):
            acc = (acc * lam + a) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _matvec(mat: list[list[int]], vec, p: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) % p for row in mat]


def _coords_in_basis(basis: list, targets: list, p: int) -> list[list[int]]:
    """Coordinates of each target vector in the span of ``basis``."""
    k = len(basis[0])
    m = len(basis)
    rows = [[basis[s][i] for s in range(m)] + [t[i] for t in targets] for i in range(k)]
    red, pivots = _rref(rows, p)
    if pivots[:m] != list(range(m)):
        raise InternalInconsistency("Dixon: eigenspace basis vectors are dependent")
    coords = []
    for t in range(len(targets)):
        coords.append([red[r][m + t] for r in range(m)])
    return coords


# -- Dixon's method ------------------------------------------------------------

def _dixon_prime(order: int, exponent: int) -> int:
    p = 2 * order + 1
    while True:
        if p % exponent == 1 and _is_prime(p):
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


def _class_constants(group: Group) -> list[list[list[int]]]:
    """mats[i][j][l] = #{x in class i : x^-1 z in class j}, z the
    representative of class l."""
    k = len(group.classes)
    class_of = group._class_of
    inverses = [[x.inverse() for x in cls] for cls in group.classes]
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l, z in enumerate(group.class_reps):
        for row, cls_inverses in zip(mats, inverses):
            for x_inv in cls_inverses:
                row[class_of[x_inv * z]][l] += 1
    return mats


def _central_characters(group: Group, p: int) -> list[list[int]]:
    """Common eigenvectors of the class-algebra matrices, normalised so the
    identity-class coordinate is 1; these are the central characters mod p."""
    k = len(group.classes)
    mats = _class_constants(group)
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for A in mats[1:]:
        if all(len(s) == 1 for s in spaces):
            break
        Amod = [[v % p for v in row] for row in A]
        refined: list[list[list[int]]] = []
        for basis in spaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            images = [_matvec(Amod, v, p) for v in basis]
            coords = _coords_in_basis(basis, images, p)
            m = len(basis)
            # restriction matrix: column t = coords of A * basis[t]
            R = [[coords[t][s] for t in range(m)] for s in range(m)]
            lams = _eigenvalues(R, p)
            covered = 0
            for lam in lams:
                shifted = [[(R[i][j] - (lam if i == j else 0)) % p for j in range(m)] for i in range(m)]
                kern_basis = _kernel(shifted, p)
                if not kern_basis:
                    continue
                covered += len(kern_basis)
                ambient = []
                for coeffs in kern_basis:
                    v = [0] * k
                    for t, c in enumerate(coeffs):
                        if c:
                            for idx in range(k):
                                v[idx] = (v[idx] + c * basis[t][idx]) % p
                    ambient.append(v)
                refined.append(ambient)
            if covered != m:
                raise InternalInconsistency("Dixon: a class matrix failed to diagonalise")
        spaces = refined
    if not all(len(s) == 1 for s in spaces):
        raise InternalInconsistency("Dixon: the central characters are not separated")
    omegas = []
    for basis in spaces:
        v = basis[0]
        if not v[0] % p:
            raise InternalInconsistency("Dixon: an eigenvector vanishes on the identity class")
        inv = pow(v[0], -1, p)
        omegas.append([x * inv % p for x in v])
    return omegas


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
    power_classes = group._power_classes

    characters = []
    for d, chibar in rows:
        values = []
        for c in range(k):
            n = len(power_classes[c])
            zn = pow(z, e // n, p)
            n_inv = pow(n, -1, p)
            mult: dict[int, int] = {}
            for alpha in range(n):
                total = 0
                for t in range(n):
                    total += chibar[power_classes[c][t]] * pow(zn, (-alpha * t) % n, p)
                m_alpha = total % p * n_inv % p
                if m_alpha > d:
                    raise InternalInconsistency("Dixon: an eigenvalue multiplicity failed to lift")
                if m_alpha:
                    mult[alpha * (e // n) % e] = m_alpha
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
    |c| times the Galois average of chi at the class of rep_c^2."""
    group = table.group
    squares = power_map(group, 2)
    values = table.irreducibles[index].values
    q = sum(
        size * values[squares[c]].galois_average() for c, size in enumerate(group.class_sizes)
    ) / group.order
    if q not in (-1, 0, 1):
        raise InternalInconsistency(f"Frobenius-Schur indicator must be -1, 0 or 1, not {q}")
    return int(q)


@lru_cache(maxsize=None)
def rational_characters(table: CharacterTable) -> tuple[RationalCharacter, ...]:
    """Galois orbits of the complex irreducibles, one rational character each.

    The orbit of chi is its twists by the units mod e (``_twist``).  The
    Schur index is set to 2 exactly for real-valued orbits with
    Frobenius-Schur indicator -1 (the quaternionic case); non-real orbits of
    degree > 1 are flagged ``schur_index_unverified`` since the heuristic does
    not certify their index.

    The orbit members are Galois conjugates with equal Galois averages, so
    psi(c) = |orbit| * m * (the average of chi(c)), in integers.  Two
    certificates check it: every value is an integer, and
    sum |c| psi(c)^2 = |G| m^2 |orbit|, which fails for a sum over part of
    an orbit.
    """
    group = table.group
    e = group.exponent
    k = len(group.classes)
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
        sums = [scale * v.galois_average() for v in table.irreducibles[i].values]
        norm = sum(size * q * q for size, q in zip(group.class_sizes, sums))
        if any(q.denominator != 1 for q in sums) or norm != group.order * schur * scale:
            raise InternalInconsistency(
                "a Galois orbit sum must be integral, of norm |G| m^2 |orbit|"
            )
        values = [q.numerator for q in sums]
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
