"""Invariants of the minimal resolution of (C1 x C2)/G for a diagonal action.

The quotient has cyclic singularities 1/n(1,q) at orbits of point pairs with
common stabilizer.  A point of C1 over branch point i is a coset x<c_i> and
a point of C2 over branch point j a coset y<d_j>, so the G-orbits of such
pairs are the double cosets <c_i> g <d_j> with g = x^-1 y, and the pair at g
has stabilizer <c_i> & g<d_j>g^-1, of order n = |<c_i>| |<d_j>| / |<c_i> g <d_j>|.
Its generator c_i^(m_i/n) rotates C1 by zeta_n and C2 by zeta_n^q, where
c_i^(m_i/n) = g d_j^((m'_j/n) q) g^-1.  The basket is counted from class
data alone: for n | gcd(m_i, m'_j) and a unit q mod n (q = 0 when n = 1),

    A(n, q) = #{g : g d_j^((m'_j/n) q) g^-1 = c_i^(m_i/n)}
            = |G| / |class of c_i^(m_i/n)|  when the two powers are conjugate, else 0,

read off the rows of the two monodromy classes in the group's power-class
table (``covering.monodromy_classes``).  A g counted in A(n, q) has a
stabilizer of order N with n | N and exponent q' = q mod n, so going down
the divisors, E(n, q) = A(n, q) - sum E(N, q') over N > n, n | N, q' = q
mod n counts the g whose stabilizer has order exactly n and exponent q.
Each double coset holds m_i m'_j / n such g, so 1/n(1,q) occurs
E(n, q) n / (m_i m'_j) times.  Each singularity is resolved by a
Hirzebruch-Jung chain, and eta counts the exceptional curves.  The
holomorphic invariants come from the Chevalley-Weil decomposition of
H^0(C, Omega^1): with a_i(chi) the multiplicity of the irreducible chi in
H^0(C_i, Omega^1),

    p_g = dim (H^0(Omega^1_{C1}) (x) H^0(Omega^1_{C2}))^G = sum_chi a1(chi) a2(chi-bar),

an integer sum over the character table.  Each a_i(chi) is read off the
eigenvalue multisets that the table stores at the monodromy classes, as
powers of zeta_e, and summed in integers scaled by e.  The Euler
characteristic comes from the Lefschetz average over the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .chars import character_table
from .covering import (
    GeneratingVector,
    fixed_point_counts,
    genus,
    monodromy_classes,
    require_same_group,
)
from .errors import InternalInconsistency, NotCoprime, OutOfRange
from .groups import Group, stored


def hirzebruch_jung(n: int, q: int) -> tuple[int, ...]:
    """Continued-fraction expansion n/q = b1 - 1/(b2 - 1/(...)), all b_i >= 2."""
    if n < 2:
        raise OutOfRange("n must be at least 2")
    if not 1 <= q < n:
        raise OutOfRange("q must satisfy 1 <= q < n")
    if gcd(n, q) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    chain = []
    a, b = n, q
    while b > 0:
        step = -(-a // b)
        chain.append(step)
        a, b = b, step * b - a
    if not chain or any(s < 2 for s in chain):
        raise InternalInconsistency(f"Hirzebruch-Jung chain of {n}/{q} has an entry below 2")
    return tuple(chain)


@dataclass(frozen=True)
class QuotientSingularity:
    """Cyclic quotient singularity of type 1/n(1,q)."""

    n: int
    q: int
    hj_chain: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hj_chain", hirzebruch_jung(self.n, self.q))

    def __str__(self) -> str:
        return f"1/{self.n}(1,{self.q})"


def _basket(group: Group, k1: int, k2: int) -> dict[tuple[int, int], int]:
    """(n, q) -> the number of double cosets <c> g <d> whose point pair has
    a stabilizer of order n > 1 acting by (zeta_n, zeta_n^q), for c in class
    k1 and d in class k2, counted from the classes' power-class rows (see
    the module docstring).

    Certificate: every level, n = 1 included, must count a nonnegative
    whole number of double cosets, or InternalInconsistency is raised."""
    row1, row2 = group._power_classes[k1], group._power_classes[k2]
    m1, m2 = len(row1), len(row2)
    top = gcd(m1, m2)
    exact: dict[tuple[int, int], int] = {}
    basket = {}
    for n in range(top, 0, -1):
        if top % n:
            continue
        k = row1[m1 // n % m1]
        for q in range(n):
            if gcd(q, n) != 1:  # the units mod n; q = 0 when n = 1
                continue
            e = group.order // group.class_sizes[k] if row2[m2 // n * q % m2] == k else 0
            e -= sum(v for (big, u), v in exact.items() if big % n == 0 and u % n == q)
            exact[n, q] = e
            count, rest = divmod(e * n, m1 * m2)
            if rest or count < 0:
                raise InternalInconsistency(
                    f"{e} elements of exact stabilizer order {n} do not fill whole "
                    f"double cosets of size {m1 * m2 // n}"
                )
            if count and n > 1:
                basket[n, q] = count
    return basket


@stored
def quotient_singularities(gv1: GeneratingVector, gv2: GeneratingVector) -> tuple[QuotientSingularity, ...]:
    """Singularity types of (C1 x C2)/G: one per G-orbit of point pairs with
    nontrivial common stabilizer, normalised so the generator acting by
    zeta_n on the first factor acts by zeta_n^q on the second.

    For each pair of monodromies c_i, d_j, the type 1/n(1,q) occurs
    E(n, q) n / (m_i m'_j) times, E(n, q) being the number of g in G with
    <c_i> & g<d_j>g^-1 of order exactly n and c_i^(m_i/n) = g d_j^((m'_j/n) q) g^-1,
    counted from the power classes of c_i and d_j; no element of G is
    visited."""
    group = require_same_group(gv1, gv2)
    out = []
    for k1 in monodromy_classes(gv1):
        for k2 in monodromy_classes(gv2):
            for (n, q), count in _basket(group, k1, k2).items():
                out += [QuotientSingularity(n, q)] * count
    return tuple(sorted(out, key=lambda s: (s.n, s.q)))


def eta_of(singularities) -> int:
    return sum(len(s.hj_chain) for s in singularities)


@stored
def chevalley_weil(gv: GeneratingVector) -> tuple[int, ...]:
    """Multiplicity of each complex irreducible in H^0(C, Omega^1), in the
    order of the character table.

    With the stabilizer generator of a branch fiber rotating the tangent
    line by zeta_m, the multiplicity of the character chi of degree d is
    d*(g0 - 1) + [chi trivial] + sum over branch points i and eigenvalue
    exponents a of N_{i,a} * a/m_i.
    """
    # the multiplicity times e, summed in integers: the table stores chi(c) as
    # its eigenvalues zeta_e^a, and zeta_e^a = zeta_m^alpha with alpha/m = a/e
    group = gv.group
    table = character_table(group)
    e = group.exponent
    classes = monodromy_classes(gv)
    out = []
    for i, (cf, d) in enumerate(zip(table.irreducibles, table.degrees)):
        total = e * (d * (gv.base_genus - 1) + (i == 0))  # i == 0: the trivial character
        for k in classes:
            total += sum(a * count for a, count in cf.values[k])
        n, rest = divmod(total, e)
        if rest:
            raise InternalInconsistency("Chevalley-Weil multiplicity must be an integer")
        if n < 0:
            raise InternalInconsistency("Chevalley-Weil multiplicity must be nonnegative")
        out.append(n)
    if sum(n * d for n, d in zip(out, table.degrees)) != genus(gv):
        raise InternalInconsistency("Chevalley-Weil dimensions must sum to the genus")
    return tuple(out)


def _dual_pairing(a1: tuple[int, ...], a2: tuple[int, ...], dual: tuple[int, ...]) -> int:
    """sum_i a1[i] * a2[dual[i]]."""
    return sum(n * a2[j] for n, j in zip(a1, dual))


@stored
def geometric_genus(gv1: GeneratingVector, gv2: GeneratingVector) -> int:
    """p_g of the quotient surface: dim of the G-invariants of
    H^0(Omega^1_{C1}) (x) H^0(Omega^1_{C2}), that is
    p_g = sum_chi a1(chi) a2(chi-bar) over the Chevalley-Weil multiplicities
    a1, a2 of the two curves, since <chi psi, 1> = [psi = chi-bar]."""
    group = require_same_group(gv1, gv2)
    dual = character_table(group).dual
    return _dual_pairing(chevalley_weil(gv1), chevalley_weil(gv2), dual)


def euler_characteristic(gv1: GeneratingVector, gv2: GeneratingVector) -> tuple[int, int]:
    """(e of the quotient, e of the minimal resolution).

    The quotient value is the Lefschetz average
    (1/|G|) sum_g e(Fix_{C1}(g)) * e(Fix_{C2}(g)); resolving each cyclic
    singularity adds one per exceptional curve, i.e. eta in total.  A
    nontrivial g fixes finitely many points, counted by ``fixed_point_counts``.
    """
    group = require_same_group(gv1, gv2)
    g1, g2 = genus(gv1), genus(gv2)
    total = (2 - 2 * g1) * (2 - 2 * g2)
    fixed1, fixed2 = fixed_point_counts(gv1), fixed_point_counts(gv2)
    for c in range(1, len(group.classes)):  # class 0 is the identity
        total += group.class_sizes[c] * fixed1[c] * fixed2[c]
    if total % group.order:
        raise InternalInconsistency("Lefschetz average must be an integer")
    e_quot = total // group.order
    eta = eta_of(quotient_singularities(gv1, gv2))
    return e_quot, e_quot + eta


@dataclass(frozen=True)
class SurfaceReport:
    p_g: int
    q: int
    chi: int
    e_quotient: int
    e: int
    k2: int
    b2: int
    singularities: tuple[QuotientSingularity, ...]
    eta: int
    family_dim: int


def _basket_formulas(order: int, g1: int, g2: int, singularities) -> tuple[Fraction, Fraction]:
    """(K^2, e) of the minimal resolution by the basket formulas of
    Bauer-Catanese-Grunewald-Pignatelli, from |G|, the genera and the
    singularities alone:

        K^2 = 8(g1-1)(g2-1)/|G| + sum k_x,  k_x = 2 - (2 + q + q')/n - sum_i (b_i - 2),
        e   = 4(g1-1)(g2-1)/|G| + sum e_x,  e_x = l_x + 1 - 1/n,

    with q q' = 1 mod n and b_1..b_l the Hirzebruch-Jung chain of 1/n(1,q)."""
    base = Fraction((g1 - 1) * (g2 - 1), order)
    k2, e = 8 * base, 4 * base
    for s in singularities:
        chain = s.hj_chain
        k2 += 2 - Fraction(2 + s.q + pow(s.q, -1, s.n), s.n) - sum(b - 2 for b in chain)
        e += len(chain) + 1 - Fraction(1, s.n)
    return k2, e


def _family_dimension(gv: GeneratingVector) -> int:
    """dim M_{g0,r}: a P^1 base with at most two branch points has no
    moduli, and an unramified elliptic base has one."""
    g0, r = gv.base_genus, gv.num_branch_points
    return 3 * g0 - 3 + r if 2 * g0 - 2 + r > 0 else g0


def invariants(gv1: GeneratingVector, gv2: GeneratingVector) -> SurfaceReport:
    """Full numerical invariant set of the resolved quotient surface.

    Certificates: K^2 = 12 chi - e, with chi from the Chevalley-Weil p_g and
    e from the Lefschetz average, must equal the basket formulas' K^2 and e;
    and b2 = e - 2 + 4q must equal 2 + D + eta, where
    D = dim (H^1(C1) (x) H^1(C2))^G = sum_chi h1(chi) h2(chi-bar) and
    h_i(chi) = a_i(chi) + a_i(chi-bar) is the multiplicity of chi in
    H^1(C_i), read from the Chevalley-Weil multiplicities and the dual map.
    One InternalInconsistency names every certificate that fails."""
    group = require_same_group(gv1, gv2)
    q = gv1.base_genus + gv2.base_genus
    p_g = geometric_genus(gv1, gv2)
    chi = 1 - q + p_g
    sing = quotient_singularities(gv1, gv2)
    eta = eta_of(sing)
    e_quot, e_res = euler_characteristic(gv1, gv2)
    k2 = 12 * chi - e_res
    b2 = e_res - 2 + 4 * q
    dual = character_table(group).dual
    h1, h2 = ([n + a[j] for n, j in zip(a, dual)] for a in (chevalley_weil(gv1), chevalley_weil(gv2)))
    b2_from_h1 = 2 + _dual_pairing(h1, h2, dual) + eta
    basket = _basket_formulas(group.order, genus(gv1), genus(gv2), sing)
    failed = []
    if basket != (k2, e_res):
        failed.append(
            f"the basket formulas give (K^2, e) = ({basket[0]}, {basket[1]}), "
            f"not ({k2}, {e_res})"
        )
    if b2_from_h1 != b2:
        failed.append(f"the H^1 characters give b2 = 2 + D + eta = {b2_from_h1}, not {b2}")
    if failed:
        raise InternalInconsistency("; ".join(failed))
    family_dim = _family_dimension(gv1) + _family_dimension(gv2)
    return SurfaceReport(
        p_g=p_g,
        q=q,
        chi=chi,
        e_quotient=e_quot,
        e=e_res,
        k2=k2,
        b2=b2,
        singularities=sing,
        eta=eta,
        family_dim=family_dim,
    )
