"""Integral quadratic lattices: signatures, discriminant groups, and the
sufficient criterion for a unique primitive embedding into an even
unimodular lattice.

All arithmetic is exact and in integers, and two eliminations serve every
invariant: one fraction-free (Bareiss) symmetric congruence, whose pivots
are leading principal minors, gives both the signature and the
determinant, and an integer Smith normal form gives the discriminant
group, whose order is checked against that determinant.  A Gram matrix
is a tuple of tuples of ints, so a lattice hashes.

Each elimination runs once per lattice object and is kept on it, as
group data is kept on its group; an equal lattice built separately
computes it again.  The K3 lattice enters the embedding test only through
its constants ``K3_SIGNATURE`` and ``K3_RANK``, so ``k3_embeddable`` builds
no rank-22 lattice.
"""

from __future__ import annotations

from .errors import (
    Degenerate,
    InternalInconsistency,
    InvalidParameter,
    NotEven,
    NotUnimodular,
)
from .groups import Record, stored

GUARANTEED = "guaranteed"
CRITERION_NOT_SATISFIED = "criterion_not_satisfied"

# the even unimodular K3 lattice E8(-1)^2 + U^3 that ``k3_lattice`` builds
K3_SIGNATURE = (3, 19)
K3_RANK = 22

# Gram matrix of the E8 root lattice (Bourbaki node numbering: the chain
# 1-3-4-5-6-7-8 with node 2 attached to node 4).
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


class IntegralLattice(Record):
    # _memo holds what ``stored`` functions derive from the lattice
    __slots__ = ("gram", "_memo")

    def _check(self) -> None:
        gram = self.gram
        if not isinstance(gram, tuple) or not all(isinstance(r, tuple) for r in gram):
            raise InvalidParameter("Gram matrix must be a tuple of tuples")
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise InvalidParameter("Gram matrix must be square")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidParameter(f"Gram matrix entry {x!r} is not an integer")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise InvalidParameter("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)


class DiscriminantGroup(Record):
    __slots__ = ("invariant_factors",)

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


# -- exact linear algebra -----------------------------------------------------

@stored
def _congruence(lattice: IntegralLattice) -> tuple[int, int, int]:
    """(s_+, s_-, det) by one fraction-free symmetric elimination.

    Each step leaves the block (p*A22 - a a^T) // prev, where p is the
    pivot, a the column below it and prev the pivot before; by Sylvester's
    identity the division is exact, and the k-th pivot is the leading
    principal minor D_k of a matrix congruent to the Gram matrix by a
    unimodular change of basis.  D_k / D_(k-1) has the sign of the k-th
    diagonal entry of a congruent diagonal form, and the last pivot is the
    determinant.  A zero diagonal is swapped with a nonzero one, or else
    folded with a nonzero off-diagonal entry; a block with neither is
    degenerate, and det is 0."""
    m = [list(row) for row in lattice.gram]
    plus = minus = 0
    prev = 1
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
                    return plus, minus, 0
                for col in range(size):
                    m[0][col] += m[j][col]
                for row in m:
                    row[0] += row[j]
        pivot = m[0][0]
        if (pivot > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        column = [row[0] for row in m[1:]]
        m = [
            [(pivot * x - ai * aj) // prev for x, aj in zip(row[1:], column)]
            for row, ai in zip(m[1:], column)
        ]
        prev = pivot
    return plus, minus, prev


def determinant(lattice: IntegralLattice) -> int:
    """The exact determinant: the last pivot of ``_congruence``."""
    return _congruence(lattice)[2]


def signature(lattice: IntegralLattice) -> tuple[int, int]:
    """(s_+, s_-), from the pivots of ``_congruence``."""
    plus, minus, det = _congruence(lattice)
    if det == 0:
        raise Degenerate("lattice is degenerate")
    n = lattice.rank
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


@stored
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
    group = DiscriminantGroup(tuple(d for d in diag if d > 1))
    if group.order != abs(det):
        raise InternalInconsistency(
            f"invariant factors multiply to {group.order}, not |det| = {abs(det)}"
        )
    return group


# -- embedding criteria ---------------------------------------------------------

def _criterion(
    m_lattice: IntegralLattice, target_signature: tuple[int, int], target_rank: int
) -> str:
    """Nikulin's sufficient criterion against an even unimodular target of
    the given signature and rank: strict signature inequalities plus rank
    slack of at least ell(A_M) + 2."""
    t_plus, t_minus = signature(m_lattice)
    s_plus, s_minus = target_signature
    ell = discriminant_group(m_lattice).ell
    if t_plus < s_plus and t_minus < s_minus and target_rank - m_lattice.rank >= ell + 2:
        return GUARANTEED
    return CRITERION_NOT_SATISFIED


def nikulin_embeds(m_lattice: IntegralLattice, l_lattice: IntegralLattice) -> str:
    """Sufficient criterion for a unique primitive embedding M -> L with L
    even unimodular.  "criterion_not_satisfied" is not a disproof."""
    if not is_even(m_lattice) or not is_even(l_lattice):
        raise NotEven("both lattices must be even")
    if abs(determinant(l_lattice)) != 1:
        raise NotUnimodular("embedding target must be unimodular")
    return _criterion(m_lattice, signature(l_lattice), l_lattice.rank)


def k3_signature_guaranteed(sig) -> bool:
    """Whether ``sig`` is (2, n) with 0 <= n <= 8, on which alone an even
    lattice embeds uniquely and primitively into the K3 lattice."""
    return sig[0] == 2 and 0 <= sig[1] <= 8


def k3_embeddable(m_lattice: IntegralLattice) -> str:
    """Unique primitive embedding into the K3 lattice: the criterion against
    ``K3_SIGNATURE`` and ``K3_RANK``.  On every signature that
    ``k3_signature_guaranteed`` accepts, (2, n) with n <= 8, it holds, since
    ell <= rank = n + 2 <= 18 - n."""
    if not is_even(m_lattice):
        raise NotEven("lattice must be even")
    return _criterion(m_lattice, K3_SIGNATURE, K3_RANK)
