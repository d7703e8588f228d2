"""Finite permutation groups: closure, conjugacy classes, and the built-in catalog.

Conjugacy classes are ordered canonically (identity class first, then by
element order and lexicographically smallest representative) so that every
derived table and report is stable across runs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, wraps
from math import lcm

from .errors import InternalInconsistency, NonPermutation, NotInGroup, SizeLimit, UnknownName
from .perms import Permutation, parse_permutation

DEFAULT_ORDER_CAP = 10_000
_UNSET = object()


def stored(fn):
    """Run ``fn(obj, *args)`` once per object and arguments, and keep its
    value in ``obj._memo``, so it lives as long as the object.  A call
    without arguments is keyed by ``fn``, one with arguments by
    ``(fn, *args)``: a pair stage ``fn(gv1, gv2)`` is kept on the first
    vector, so (gv1, gv2) and (gv2, gv1) are separate entries.  A call that
    raises stores nothing.  Every caller shares the stored value, so it
    must be immutable."""

    @wraps(fn)
    def once(obj, *args):
        memo = obj._memo
        key = (fn, *args) if args else fn
        value = memo.get(key, _UNSET)
        if value is _UNSET:
            value = memo[key] = fn(obj, *args)
        return value

    return once


class Group:
    """A finite permutation group with precomputed conjugacy data."""

    def __init__(self, generators, elements) -> None:
        self.generators: tuple[Permutation, ...] = tuple(generators)
        self.elements: tuple[Permutation, ...] = tuple(sorted(elements))
        # the identity is the smallest image tuple
        self.identity: Permutation = self.elements[0]
        self.degree: int = self.identity.degree
        self.order: int = len(self.elements)
        classes, to_rep = _conjugacy_classes(self.elements, self.generators)
        self.classes: tuple[tuple[Permutation, ...], ...] = classes
        # g -> y with y g y^-1 the representative of g's class
        self._to_rep: dict[Permutation, Permutation] = to_rep
        # what ``stored`` functions derive from the group
        self._memo: dict = {}
        self.class_reps: tuple[Permutation, ...] = tuple(c[0] for c in self.classes)
        self.class_sizes: tuple[int, ...] = tuple(len(c) for c in self.classes)
        self._class_of = {}
        for idx, cls in enumerate(self.classes):
            for g in cls:
                self._class_of[g] = idx
        # Z(G): the elements alone in their class
        self.centre: tuple[Permutation, ...] = tuple(c[0] for c in self.classes if len(c) == 1)
        # element order is a class function
        self.exponent: int = lcm(*(g.order() for g in self.class_reps))
        # every pair-stage memo lookup hashes the group
        self._hash = hash((self.degree, self.elements))

    # Groups compare by their underlying element set; all derived data is
    # a function of it.
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Group)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Group(order={self.order}, degree={self.degree}, classes={len(self.classes)})"

    def __contains__(self, g) -> bool:
        """Whether g is a Permutation in the group.  An element equals the
        plain tuple of its images, but such a tuple is not a member: nothing
        checked that it is a bijection, and it has no product, inverse or
        order, so it would fail only later, in the code it was passed to."""
        return isinstance(g, Permutation) and g in self._class_of

    def __iter__(self):
        return iter(self.elements)

    def require(self, g: Permutation) -> Permutation:
        if g not in self:
            raise NotInGroup(f"{g!r} is not an element of this group")
        return g

    def class_index(self, g: Permutation) -> int:
        self.require(g)
        return self._class_of[g]

    def generated_by(self, elements) -> bool:
        """Whether the elements generate the whole group; the closure stops
        as soon as it holds |G| elements."""
        return len(_closure(elements, self.identity, self.order)) == self.order

    @cached_property
    def _power_classes(self) -> tuple[tuple[int, ...], ...]:
        """For each class c, the class index of rep_c^t for t < ord(rep_c);
        built on first use."""
        return tuple(tuple(self._class_of[x] for x in rep.powers()) for rep in self.class_reps)

    @stored
    def _centralizer(self, idx: int) -> tuple[tuple[Permutation, Permutation], ...]:
        """The pairs (c, c^-1) for one c per coset c Z(G) of the centre in
        the centralizer of class ``idx``'s representative, each c the
        smallest of its coset.  Central elements conjugate trivially, so
        these c give every conjugate by the whole centralizer."""
        rep = self.class_reps[idx]
        covered = set()
        pairs = []
        for c in self.elements:
            if c not in covered and c * rep == rep * c:
                covered.update(c * z for z in self.centre)
                pairs.append((c, c.inverse()))
        return tuple(pairs)


def _conjugacy_classes(elements, generators):
    """Orbits of the conjugation action, enumerated deterministically, and
    for each element g a conjugator y with y g y^-1 the smallest element of
    g's class.

    Each orbit's search starts at its smallest element, since ``elements``
    is sorted; an element reached as z = s w s^-1 gets y_z = y_w s^-1.
    Classes and conjugators hold the group's own element objects."""
    own = {g: g for g in elements}
    identity = elements[0]
    inverses = [(s, s.inverse()) for s in generators]
    classes = []
    to_rep = {}
    for x in elements:
        if x in to_rep:
            continue
        to_rep[x] = identity
        orbit = [x]
        frontier = [x]
        while frontier:
            w = frontier.pop()
            yw = to_rep[w]
            for s, si in inverses:
                z = own[s * w * si]
                if z not in to_rep:
                    to_rep[z] = own[yw * si]
                    orbit.append(z)
                    frontier.append(z)
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (c[0].order(), c[0]))
    return tuple(classes), to_rep


def _closure(gens, identity: Permutation, limit: int) -> set[Permutation]:
    """The elements generated by ``gens``, or the first ``limit`` > 1 of
    them met, whichever is fewer."""
    gens = [s for s in gens if s != identity]
    elements = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = s * x
            if y not in elements:
                elements.add(y)
                if len(elements) >= limit:
                    return elements
                frontier.append(y)
    return elements


def group_from_generators(gens, max_order: int = DEFAULT_ORDER_CAP) -> Group:
    """Close a generator list under composition and inverse.

    Raises SizeLimit if the closure exceeds ``max_order`` elements.
    """
    gens = tuple(gens)
    if not gens:
        raise NonPermutation("at least one generator is required")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise NotInGroup("generators have mixed degrees")
    elements = _closure(gens, Permutation.identity(degree), max_order + 1)
    if len(elements) > max_order:
        raise SizeLimit(f"closure exceeds {max_order} elements")
    return Group(gens, elements)


def cyclic_subgroup(group: Group, g: Permutation) -> frozenset[Permutation]:
    group.require(g)
    return frozenset(g.powers())


def permutation_character(group: Group, classes, h: int) -> tuple[int, ...]:
    """Ind_H^G 1 on each class of G, for a subgroup H of order h given by the
    class index of each of its elements (repeats allowed).

    At an element g of class c it is #{x : x^-1 g x in H} / h
    = |C_G(g)| |c & H| / h with |C_G(g)| = |G| / |c|, so it needs only the
    number of elements of H in each class.  A division that is not exact
    raises InternalInconsistency."""
    hits = [0] * len(group.classes)
    for c in classes:
        hits[c] += 1
    values = []
    for count, size in zip(hits, group.class_sizes):
        value, rest = divmod(group.order * count, size * h)
        if rest:
            raise InternalInconsistency("induced character value must be an integer")
        values.append(value)
    return tuple(values)


def power_map(group: Group, k: int) -> tuple[int, ...]:
    """Class index of rep**k for each class; well defined on classes.  Read
    off the group's power-class table at k mod ord(rep)."""
    return tuple(row[k % len(row)] for row in group._power_classes)


# -- catalog ----------------------------------------------------------------

# name -> (degree, generators).  Q8 and C4xC2semiC2 act regularly, by left
# multiplication on their elements sorted as exponent tuples, so that the
# identity sits at point 1:
#   Q8: x^a y^b with x^4 = 1, y^2 = x^2, y x y^-1 = x^-1; generators x, y;
#   C4xC2semiC2, the central product of a dihedral group of order 8 with C4:
#   w^a x^b z^c with w central of order 4, x^2 = z^2 = 1, z x = w^2 x z;
#   generators w, x, z.
_CATALOG = {
    "C2": (2, ["(1,2)"]),
    "C4": (4, ["(1,2,3,4)"]),
    "C6": (6, ["(1,2,3,4,5,6)"]),
    "V4": (4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
    "S3": (3, ["(1,2)", "(1,2,3)"]),
    "D4": (4, ["(1,2,3,4)", "(1,3)"]),
    "Q8": (8, ["(1,3,5,7)(2,4,6,8)", "(1,2,5,6)(3,8,7,4)"]),
    "A4": (4, ["(1,2)(3,4)", "(1,2,3)"]),
    "C4xC2semiC2": (16, [
        "(1,5,9,13)(2,6,10,14)(3,7,11,15)(4,8,12,16)",
        "(1,3)(2,4)(5,7)(6,8)(9,11)(10,12)(13,15)(14,16)",
        "(1,2)(3,12)(4,11)(5,6)(7,16)(8,15)(9,10)(13,14)",
    ]),
}

CATALOG_NAMES = tuple(_CATALOG)


@lru_cache(maxsize=None)
def catalog_group(name: str) -> Group:
    """Fixed permutation realization of a named group; stable across runs."""
    if name not in _CATALOG:
        raise UnknownName(f"unknown catalog group {name!r}; known: {', '.join(CATALOG_NAMES)}")
    degree, gens = _CATALOG[name]
    return group_from_generators([parse_permutation(g, degree) for g in gens])
