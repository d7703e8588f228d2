"""Permutations on {1..n} as immutable image tuples."""

from __future__ import annotations

import re
from math import lcm

from .errors import NonPermutation

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection of {1..n}, stored as the tuple (p(1), ..., p(n)).

    Composition is functional: ``(a * b)(x) = a(b(x))``.
    """

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise NonPermutation(f"not a permutation of 1..{len(imgs)}: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise NonPermutation("degree mismatch in composition")
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def powers(self) -> tuple["Permutation", ...]:
        """(1, g, g^2, ..., g^(m-1)) for g = self of order m: g^k is the
        entry k mod m, and the index of an element is its discrete log."""
        one = Permutation.identity(self.degree)
        out = [one]
        x = self
        while x != one:
            out.append(x)
            x = x * self
        return tuple(out)

    def __pow__(self, k: int) -> "Permutation":
        powers = self.powers()
        return powers[k % len(powers)]

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images


def _point(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise NonPermutation(f"point {token.strip()!r} is not an integer in {text!r}") from None


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(1,2)(3,4)" or an image array like "[2,1,4,3]".

    Cycles must be disjoint; points must lie in 1..degree.
    """
    s = text.strip()
    if s in ("()", "id", "e", ""):
        return Permutation.identity(degree)
    if s.startswith("["):
        body = s.strip("[]")
        imgs = [_point(tok, text) for tok in body.split(",") if tok.strip()]
        if len(imgs) != degree:
            raise NonPermutation(f"image array has length {len(imgs)}, expected {degree}")
        return Permutation(imgs)
    stripped = _CYCLE_RE.sub("", s)
    if stripped.strip():
        raise NonPermutation(f"cannot parse permutation: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(s):
        if not body.strip():
            continue
        pts = [_point(tok, text) for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if any(p < 1 or p > degree for p in pts):
            raise NonPermutation(f"point out of range 1..{degree} in {text!r}")
        if len(set(pts)) != len(pts) or seen & set(pts):
            raise NonPermutation(f"cycles are not disjoint in {text!r}")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Permutation(images)
