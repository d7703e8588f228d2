"""Exact arithmetic in cyclotomic fields Q(zeta_e), the tests' reference.

Elements are stored as rational coordinate vectors on the power basis
1, zeta, ..., zeta^(phi(e)-1) of Z[x]/(Phi_e), so equality of coordinate
tuples is equality of field elements.  pqsurf compares character values by
their trace coordinates instead; the tests check those comparisons, and
the sums they replace, against arithmetic in the field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from pqsurf.chars import CyclotomicValue
from pqsurf.errors import InternalInconsistency


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first, monic."""
    if n < 1:
        raise ValueError("n must be positive")
    # divide x^n - 1 by Phi_d for every proper divisor d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # long division of integer polynomials; remainder must vanish
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coef = num[shift + len(den) - 1] // den[-1]
        out[shift] = coef
        for i, c in enumerate(den):
            num[shift + i] -= coef * c
    if any(num):
        raise InternalInconsistency("cyclotomic polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def _root_power(e: int, k: int) -> tuple[int, ...]:
    """Coordinates of zeta_e^k on the reduced power basis; integers, since
    Phi_e is monic with integer coefficients."""
    k %= e
    dim = len(cyclotomic_polynomial(e)) - 1
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return tuple(int(c) for c in _reduce(coeffs, e, dim))


def _reduce(coeffs: list[Fraction], e: int, dim: int) -> list[Fraction]:
    phi = cyclotomic_polynomial(e)
    coeffs = list(coeffs)
    for top in range(len(coeffs) - 1, dim - 1, -1):
        lead = coeffs[top]
        if lead:
            for i, c in enumerate(phi):
                coeffs[top - len(phi) + 1 + i] -= lead * c
    del coeffs[dim:]
    while len(coeffs) < dim:
        coeffs.append(Fraction(0))
    return coeffs


class Cyclotomic:
    """An element of Q(zeta_e)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        dim = len(cyclotomic_polynomial(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > dim:
            cs = _reduce(cs, order, dim)
        while len(cs) < dim:
            cs.append(Fraction(0))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, ())

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        return cls(order, (Fraction(value),))

    @classmethod
    def root(cls, order: int, k: int) -> "Cyclotomic":
        return cls(order, _root_power(order, k))

    def _check(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return Cyclotomic(self.order, prod)

    def scale(self, q) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic(self.order, tuple(a * q for a in self.coeffs))

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta |-> zeta^k (k coprime to the order for an automorphism)."""
        total = Cyclotomic.zero(self.order)
        for i, a in enumerate(self.coeffs):
            if a:
                total = total + Cyclotomic.root(self.order, i * k).scale(a)
        return total

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1 % self.order if self.order > 1 else 0)

    def as_rational(self) -> Fraction | None:
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == Fraction(other)
        return (
            isinstance(other, Cyclotomic)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic(e={self.order}, {list(self.coeffs)})"


def as_cyclotomic(value, order: int) -> Cyclotomic:
    """A class-function value as an element of Q(zeta_order): an int or a
    Fraction as itself, a ``CyclotomicValue`` as the sum of its eigenvalue
    multiset."""
    if not isinstance(value, CyclotomicValue):
        return Cyclotomic.from_rational(order, value)
    coords = [0] * len(_root_power(value.order, 0))
    for exp, count in value.multiplicities:
        for i, c in enumerate(_root_power(value.order, exp)):
            coords[i] += count * c
    return Cyclotomic(value.order, coords)


def value_cyc(cf, class_index: int) -> Cyclotomic:
    """The value of a class function at a class, in Q(zeta_e), e the
    group's exponent."""
    return as_cyclotomic(cf.values[class_index], cf.group.exponent)
