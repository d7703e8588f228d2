"""Permutations on {1..n}: a permutation is its image tuple."""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter

from .errors import NonPermutation, _quoted

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
# the two notations, each matched against the whole stripped text: cycles
# separated by optional blanks, or one bracketed list of images
_CYCLES_RE = re.compile(rf"(?:\s*{_CYCLE_RE.pattern})*")
_IMAGES_RE = re.compile(r"\[([^\[\]]*)\]")


class Permutation(tuple):
    """A bijection of {1..n}: the tuple (p(1), ..., p(n)) of its images.

    Equality, hashing and ordering are the image tuple's, so a permutation
    is a key of any table indexed by image tuples.  Every construction
    checks that the images are a bijection, so ``*`` and ``inverse`` check
    their results too.  A group checks each of its elements once, when its
    closure first builds it: closures and class walks compose plain image
    tuples (``_times``) and read each product back from a table of checked
    elements.  Composition is functional: ``(a * b)(x) = a(b(x))``.
    """

    __slots__ = ()

    def __new__(cls, images) -> "Permutation":
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise NonPermutation(f"not a permutation of 1..{len(imgs)}: {_quoted(imgs)}")
        return super().__new__(cls, imgs)

    @property
    def images(self) -> tuple[int, ...]:
        """The images as a plain tuple."""
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    def __call__(self, point: int) -> int:
        return self[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            raise TypeError(f"cannot compose a Permutation with {type(other).__name__}")
        if len(self) != len(other):
            raise NonPermutation("degree mismatch in composition")
        return Permutation([self[i - 1] for i in other])

    def inverse(self) -> "Permutation":
        return Permutation(_inverse_images(self))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self, start=1))

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


def _times(x):
    """The map y -> y * x on image tuples of x's degree.  It returns the
    product's images as a plain tuple, with no bijection check."""
    if len(x) == 1:
        # itemgetter of one index returns the entry, not a 1-tuple
        return tuple
    return itemgetter(*[t - 1 for t in x])


def _inverse_images(x) -> tuple[int, ...]:
    """The images of x^-1, as a plain tuple."""
    inv = [0] * len(x)
    for i, img in enumerate(x, start=1):
        inv[img - 1] = i
    return tuple(inv)


def _point(token: str, text: str, degree: int) -> int:
    if not token.strip():
        raise NonPermutation(f"empty entry in {_quoted(text)}")
    # a longer number is out of range, and int() refuses one of over 4300
    # digits; neither message echoes such a point, or the text around it
    digits = token.strip().lstrip("0")
    if digits.isdecimal() and len(digits) > len(str(degree)):
        raise NonPermutation(f"point of {len(digits)} digits is out of range 1..{degree}")
    try:
        return int(token)
    except ValueError:
        raise NonPermutation(f"point {_quoted(token.strip())} is not an integer in {_quoted(text)}") from None


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(1,2)(3,4)" or an image array like "[2,1,4,3]".

    The identity is also written "()", "id", "e" or as the empty string.
    An image array is one pair of brackets around comma-separated points;
    in a cycle, points are separated by a comma or by blanks.  Any other
    text, such as "[2,1", "[2,1]]" or "((1,2))", is refused, and so is an
    empty entry, as in "(1,,2)" or "[2,1,4,3,]".  Cycles must be disjoint;
    points must lie in 1..degree, and a point with more digits than the
    degree, leading zeros aside, is refused before it is read.
    """
    s = text.strip()
    if s in ("id", "e"):
        return Permutation.identity(degree)
    array = _IMAGES_RE.fullmatch(s)
    if array:
        imgs = [_point(tok, text, degree) for tok in array[1].split(",")]
        if len(imgs) != degree:
            raise NonPermutation(f"image array has length {len(imgs)}, expected {degree}")
        return Permutation(imgs)
    if not _CYCLES_RE.fullmatch(s):
        raise NonPermutation(f"cannot parse permutation: {_quoted(text)}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(s):
        if not body.strip():
            continue
        pts = [_point(tok, text, degree) for tok in re.split(r"\s*,\s*|\s+", body.strip())]
        if any(p < 1 or p > degree for p in pts):
            raise NonPermutation(f"point out of range 1..{degree} in {_quoted(text)}")
        if len(set(pts)) != len(pts) or seen & set(pts):
            raise NonPermutation(f"cycles are not disjoint in {_quoted(text)}")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Permutation(images)
