"""Finite permutation groups: closure, conjugacy classes, and the built-in catalog.

Conjugacy classes are ordered canonically (identity class first, then by
element order and lexicographically smallest representative) so that every
derived table and report is stable across runs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm

from .errors import NonPermutation, NotInGroup, SizeLimit, UnknownName
from .perms import Permutation

DEFAULT_ORDER_CAP = 10_000

CATALOG_NAMES = ("C2", "C4", "C6", "V4", "S3", "D4", "Q8", "A4", "C4xC2semiC2")


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
        self._centralizers: dict[int, tuple[tuple[Permutation, Permutation], ...]] = {}
        # (base genus, orders) -> the vectors of a completed search
        self._searches: dict[tuple, tuple] = {}
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

    def _centralizer(self, idx: int) -> tuple[tuple[Permutation, Permutation], ...]:
        """The pairs (c, c^-1) for one c per coset c Z(G) of the centre in
        the centralizer of class ``idx``'s representative, each c the
        smallest of its coset; built on first use.  Central elements
        conjugate trivially, so these c give every conjugate by the whole
        centralizer."""
        pairs = self._centralizers.get(idx)
        if pairs is None:
            rep = self.class_reps[idx]
            covered = set()
            pairs = []
            for c in self.elements:
                if c not in covered and c * rep == rep * c:
                    covered.update(c * z for z in self.centre)
                    pairs.append((c, c.inverse()))
            pairs = self._centralizers[idx] = tuple(pairs)
        return pairs


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
    classes.sort(key=lambda c: (c[0].order(), c[0].images))
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


def centralizer_order(group: Group, g: Permutation) -> int:
    """|C_G(g)| = |G| / |g^G| (orbit-stabilizer)."""
    return group.order // group.class_sizes[group.class_index(g)]


def power_map(group: Group, k: int) -> tuple[int, ...]:
    """Class index of rep**k for each class; well defined on classes.  Read
    off the group's power-class table at k mod ord(rep)."""
    return tuple(row[k % len(row)] for row in group._power_classes)


# -- catalog ----------------------------------------------------------------

def _regular_generators(elements, mul, gens):
    """Left-multiplication permutations of abstractly given generators.

    ``elements`` must be sorted; positions are 1-based so that the identity
    (smallest element) sits at point 1.
    """
    index = {x: i + 1 for i, x in enumerate(elements)}
    perms = []
    for s in gens:
        images = [0] * len(elements)
        for x in elements:
            images[index[x] - 1] = index[mul(s, x)]
        perms.append(Permutation(images))
    return perms


def _quaternion_generators():
    # Elements x^a y^b with x^4 = 1, y^2 = x^2, y x y^-1 = x^-1.
    els = sorted((a, b) for a in range(4) for b in range(2))

    def mul(u, v):
        a, b = u
        c, d = v
        a2 = (a + (c if b == 0 else -c) + (2 if b and d else 0)) % 4
        return (a2, (b + d) % 2)

    return _regular_generators(els, mul, [(1, 0), (0, 1)])


def _pauli_generators():
    # Central product of a dihedral group of order 8 with C4: elements
    # w^a x^b z^c with w central of order 4, x^2 = z^2 = 1, z x = w^2 x z.
    els = sorted((a, b, c) for a in range(4) for b in range(2) for c in range(2))

    def mul(u, v):
        a1, b1, c1 = u
        a2, b2, c2 = v
        return ((a1 + a2 + 2 * c1 * b2) % 4, (b1 + b2) % 2, (c1 + c2) % 2)

    return _regular_generators(els, mul, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _catalog_generators(name: str):
    if name == "C2":
        return [Permutation((2, 1))]
    if name == "C4":
        return [Permutation((2, 3, 4, 1))]
    if name == "C6":
        return [Permutation((2, 3, 4, 5, 6, 1))]
    if name == "V4":
        return [Permutation((2, 1, 4, 3)), Permutation((3, 4, 1, 2))]
    if name == "S3":
        return [Permutation((2, 1, 3)), Permutation((2, 3, 1))]
    if name == "D4":
        return [Permutation((2, 3, 4, 1)), Permutation((3, 2, 1, 4))]
    if name == "A4":
        return [Permutation((2, 1, 4, 3)), Permutation((2, 3, 1, 4))]
    if name == "Q8":
        return _quaternion_generators()
    if name == "C4xC2semiC2":
        return _pauli_generators()
    raise UnknownName(f"unknown catalog group {name!r}; known: {', '.join(CATALOG_NAMES)}")


@lru_cache(maxsize=None)
def catalog_group(name: str) -> Group:
    """Fixed permutation realization of a named group; stable across runs."""
    return group_from_generators(_catalog_generators(name))
