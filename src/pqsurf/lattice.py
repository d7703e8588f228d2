"""Integral quadratic lattices: signatures, discriminant groups, and the
sufficient criterion for a unique primitive embedding into an even
unimodular lattice.

All arithmetic is exact and in integers: signatures come from symmetric
integer elimination (each trailing block scaled by its pivot and divided by
the gcd of its entries, a congruence up to a positive scalar), determinants
from fraction-free (Bareiss) elimination, and discriminant groups from an
integer Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    Degenerate,
    InternalInconsistency,
    InvalidParameter,
    NotEven,
    NotUnimodular,
)

GUARANTEED = "guaranteed"
CRITERION_NOT_SATISFIED = "criterion_not_satisfied"

# Gram matrix of the E8 root lattice (Bourbaki node numbering: the chain
# 1-3-4-5-6-7-8 with node 2 attached to node 4).
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


@dataclass(frozen=True)
class IntegralLattice:
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise InvalidParameter("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InvalidParameter("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class DiscriminantGroup:
    invariant_factors: tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def _as_lattice(gram) -> IntegralLattice:
    return IntegralLattice(tuple(tuple(int(x) for x in row) for row in gram))


def hyperbolic_plane() -> IntegralLattice:
    return _as_lattice([[0, 1], [1, 0]])


def e8_minus() -> IntegralLattice:
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for a, b in _E8_EDGES:
        gram[a - 1][b - 1] = 1
        gram[b - 1][a - 1] = 1
    return _as_lattice(gram)


def rank1(d: int) -> IntegralLattice:
    """The rank-one even lattice <-2d>, d >= 1."""
    if d < 1:
        raise InvalidParameter("d must be at least 1")
    return _as_lattice([[-2 * d]])


def direct_sum(*lattices: IntegralLattice) -> IntegralLattice:
    if not lattices:
        raise InvalidParameter("direct sum of no lattices")
    total = sum(l.rank for l in lattices)
    gram = [[0] * total for _ in range(total)]
    offset = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                gram[offset + i][offset + j] = lat.gram[i][j]
        offset += lat.rank
    return _as_lattice(gram)


def rescale(lattice: IntegralLattice, c: int) -> IntegralLattice:
    if c == 0:
        raise InvalidParameter("rescaling by zero")
    return _as_lattice([[c * x for x in row] for row in lattice.gram])


def k3_lattice() -> IntegralLattice:
    """The even unimodular lattice of signature (3,19)."""
    u = hyperbolic_plane()
    return direct_sum(e8_minus(), e8_minus(), u, u, u)


def lambda_d(d: int) -> IntegralLattice:
    """The degree-2d polarised complement: E8(-1)^2 + U^2 + <-2d>."""
    if d < 1:
        raise InvalidParameter("d must be at least 1")
    u = hyperbolic_plane()
    return direct_sum(e8_minus(), e8_minus(), u, u, rank1(d))


def make_lattice(spec: str) -> IntegralLattice:
    """Named constructors addressable by string, e.g. "U", "E8_minus",
    "K3_Lambda", "Lambda_d(3)", "rank1(2)", "sum(U,U,E8_minus)"."""
    s = spec.strip()
    if s == "U":
        return hyperbolic_plane()
    if s == "E8_minus":
        return e8_minus()
    if s == "K3_Lambda":
        return k3_lattice()
    if s.startswith("Lambda_d(") and s.endswith(")"):
        return lambda_d(int(s[9:-1]))
    if s.startswith("rank1(") and s.endswith(")"):
        return rank1(int(s[6:-1]))
    if s.startswith("sum(") and s.endswith(")"):
        parts = [p for p in s[4:-1].split(",") if p.strip()]
        return direct_sum(*(make_lattice(p) for p in parts))
    raise InvalidParameter(f"unknown lattice spec {spec!r}")


# -- exact linear algebra -----------------------------------------------------

def determinant(lattice: IntegralLattice) -> int:
    """Fraction-free Bareiss elimination; exact integer determinant."""
    n = lattice.rank
    if n == 0:
        return 1
    m = [list(row) for row in lattice.gram]
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


def signature(lattice: IntegralLattice) -> tuple[int, int]:
    """(s_+, s_-) by symmetric elimination in integers.

    A pivot p with column a below it leaves the block p*A22 - a a^T, divided
    by the gcd of its entries and negated when p < 0: a positive multiple of
    the Schur complement A22 - a a^T / p, so congruent to it up to a
    positive scalar, and the signature is unchanged.  A zero diagonal is
    swapped with a nonzero one, or else folded with a nonzero off-diagonal
    entry; a block with neither is degenerate."""
    n = lattice.rank
    m = [list(row) for row in lattice.gram]
    plus = minus = 0
    while m:
        size = len(m)
        if m[0][0] == 0:
            swap = next((j for j in range(1, size) if m[j][j] != 0), None)
            if swap is not None:
                m[0], m[swap] = m[swap], m[0]
                for row in m:
                    row[0], row[swap] = row[swap], row[0]
            else:
                # all diagonal entries vanish; fold a nonzero off-diagonal
                # entry onto the diagonal
                j = next((j for j in range(1, size) if m[0][j] != 0), None)
                if j is None:
                    raise Degenerate("lattice is degenerate")
                for col in range(size):
                    m[0][col] += m[j][col]
                for row in m:
                    row[0] += row[j]
        pivot = m[0][0]
        if pivot > 0:
            plus, sign = plus + 1, 1
        else:
            minus, sign = minus + 1, -1
        column = [row[0] for row in m[1:]]
        m = [
            [sign * (pivot * x - ai * aj) for x, aj in zip(row[1:], column)]
            for row, ai in zip(m[1:], column)
        ]
        common = 0
        for row in m:
            for x in row:
                common = gcd(common, x)
        if common > 1:
            m = [[x // common for x in row] for row in m]
    if plus + minus != n:
        raise InternalInconsistency(f"signature ({plus}, {minus}) does not add up to rank {n}")
    return (plus, minus)


def is_even(lattice: IntegralLattice) -> bool:
    return all(lattice.gram[i][i] % 2 == 0 for i in range(lattice.rank))


def _smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, via repeated gcd reduction."""
    m = [list(row) for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # locate a nonzero entry of minimal absolute value in the submatrix
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // pivot
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // pivot
            if q:
                for i in range(rows):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the submatrix
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        diag.append(abs(pivot))
        top += 1
    return diag


def discriminant_group(lattice: IntegralLattice) -> DiscriminantGroup:
    """Invariant factors > 1 of the Gram matrix (the group M^dual / M)."""
    det = determinant(lattice)
    if det == 0:
        raise Degenerate("lattice is degenerate")
    diag = _smith_normal_form([list(row) for row in lattice.gram])
    for a, b in zip(diag, diag[1:]):
        if b % a:
            raise InternalInconsistency(
                f"invariant factors {a} and {b} do not form a divisibility chain"
            )
    factors = tuple(d for d in diag if d > 1)
    order = 1
    for d in factors:
        order *= d
    if order != abs(det):
        raise InternalInconsistency(
            f"invariant factors multiply to {order}, not |det| = {abs(det)}"
        )
    return DiscriminantGroup(factors)


# -- embedding criteria ---------------------------------------------------------

def nikulin_embeds(m_lattice: IntegralLattice, l_lattice: IntegralLattice) -> str:
    """Sufficient criterion for a unique primitive embedding M -> L with L
    even unimodular: strict signature inequalities plus rank slack of at
    least ell(A_M) + 2.  "criterion_not_satisfied" is not a disproof."""
    if not is_even(m_lattice) or not is_even(l_lattice):
        raise NotEven("both lattices must be even")
    if abs(determinant(l_lattice)) != 1:
        raise NotUnimodular("embedding target must be unimodular")
    t_plus, t_minus = signature(m_lattice)
    s_plus, s_minus = signature(l_lattice)
    ell = discriminant_group(m_lattice).ell
    if (
        t_plus < s_plus
        and t_minus < s_minus
        and l_lattice.rank - m_lattice.rank >= ell + 2
    ):
        return GUARANTEED
    return CRITERION_NOT_SATISFIED


def k3_embeddable(m_lattice: IntegralLattice) -> str:
    """Unique primitive embedding into the K3 lattice: guaranteed outright
    for even lattices of signature (2, n) with 0 <= n <= 8, otherwise the
    full criterion is evaluated."""
    if not is_even(m_lattice):
        raise NotEven("lattice must be even")
    sig = signature(m_lattice)
    if sig[0] == 2 and 0 <= sig[1] <= 8:
        return GUARANTEED
    return nikulin_embeds(m_lattice, k3_lattice())
