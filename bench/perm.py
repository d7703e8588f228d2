"""The benchmark's own permutation-group arithmetic.

Independent of pqsurf on purpose: the oracles and the input generators use
this module only, so a change inside pqsurf cannot change what the benchmark
feeds in or what it accepts.  Permutations are 1-based image tuples, as
pqsurf prints them, composed functionally: (a * b)(x) = a(b(x)).  Group
elements are indexed by position in ``FiniteGroup.elements`` and all products
go through one multiplication table.
"""

from __future__ import annotations

import re
from math import lcm

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Image tuple of a permutation in cycle notation, e.g. "(1,2)(3,4)"."""
    images = list(range(1, degree + 1))
    for body in _CYCLE.findall(text):
        pts = [int(tok) for tok in body.replace(" ", "").split(",") if tok]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    if sorted(images) != list(range(1, degree + 1)):
        raise ValueError(f"not a permutation of 1..{degree}: {text!r}")
    return tuple(images)


def cycles(images) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its smallest point."""
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = images[nxt - 1]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def cycle_string(images) -> str:
    cycs = cycles(images)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)


def compose(a, b) -> tuple[int, ...]:
    return tuple(a[i - 1] for i in b)


def perm_order(images) -> int:
    return lcm(1, *(len(c) for c in cycles(images)))


def relabel(images, sigma) -> tuple[int, ...]:
    """sigma * p * sigma^-1: the same permutation with point i renamed sigma(i)."""
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma, start=1):
        inv[s - 1] = i
    return compose(sigma, compose(images, tuple(inv)))


class FiniteGroup:
    """Closure of a list of generators, with an index-based product table."""

    def __init__(self, generators) -> None:
        gens = [tuple(g) for g in generators]
        degree = len(gens[0])
        identity = tuple(range(1, degree + 1))
        elements = {identity}
        frontier = [identity]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = compose(s, x)
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
        self.elements = sorted(elements)
        self.order = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = self.index[identity]
        els = self.elements
        self.mul = [[self.index[compose(a, b)] for b in els] for a in els]
        self.inv = [row.index(self.identity) for row in self.mul]
        self.orders = [perm_order(g) for g in els]
        self.generators = [self.index[g] for g in gens]

    def product(self, word) -> int:
        x = self.identity
        mul = self.mul
        for g in word:
            x = mul[x][g]
        return x

    def commutator(self, a: int, b: int) -> int:
        return self.product((a, b, self.inv[a], self.inv[b]))

    def conjugate(self, x: int, g: int) -> int:
        """x g x^-1."""
        return self.mul[self.mul[x][g]][self.inv[x]]

    def generates(self, word) -> bool:
        """Whether the listed elements generate the whole group."""
        gens = [g for g in set(word) if g != self.identity]
        seen = {self.identity}
        frontier = [self.identity]
        mul = self.mul
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = mul[s][x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.order

    def conjugacy_class(self, g: int) -> frozenset[int]:
        return frozenset(self.conjugate(x, g) for x in range(self.order))

    def center_order(self) -> int:
        mul = self.mul
        return sum(
            1 for z in range(self.order) if all(mul[z][g] == mul[g][z] for g in self.generators)
        )

    def canonical(self, word) -> tuple[int, ...]:
        """Smallest simultaneous conjugate of a tuple, in index order."""
        return min(tuple(self.conjugate(x, g) for g in word) for x in range(self.order))

    def relation_word(self, g0: int, word) -> int:
        """prod_j [a_j, b_j] * prod_i c_i for (a_1, b_1, ..., c_1, ...)."""
        x = self.identity
        for j in range(g0):
            x = self.mul[x][self.commutator(word[2 * j], word[2 * j + 1])]
        for c in word[2 * g0:]:
            x = self.mul[x][c]
        return x

    def closes_up(self, g0: int, word) -> bool:
        """The long relation holds."""
        return self.relation_word(g0, word) == self.identity
