"""Generating vectors for group actions on curves.

A generating vector (a_1, b_1, ..., a_g0, b_g0; c_1, ..., c_r) encodes a
branched G-cover of a genus-g0 curve with r branch points: the handles map
to the a/b generators of the base surface group, the c_i are the local
monodromies, and the long relation prod [a_j, b_j] * prod c_i = 1 holds.

A ``GeneratingVector`` is checked by ``validate`` when it is built, so
every stage can take one as valid, and is read through its monodromy
classes: the row of c_i's class in the group's power-class table holds the
classes of its powers, and its length is the order of c_i.  The per-curve
stages here and in ``surface`` and ``jacobian`` (the monodromy classes,
genus, fixed-point counts, the Hurwitz and Chevalley-Weil characters, the
isotypical dimensions) are decorated with
``groups.stored``: each runs once per vector and keeps its value on the
vector.  So are the pair stages (the singularities, the geometric genus and
the K3 pairing): each runs once per ordered pair and keeps its value on the
first vector, keyed by the partner.  A completed search is kept the same
way on its group.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

from .chars import ClassFunction
from .errors import (
    GroupMismatch,
    IdentityElement,
    InternalInconsistency,
    InvalidParameter,
    NotGenerating,
    OrderMismatch,
    RelationFails,
    SearchSpaceTooLarge,
    TrivialMonodromy,
)
from .groups import Group, Record, permutation_character, stored
from .perms import Permutation

# largest scan ``search_generating_vectors`` runs, in tuples, not time: the
# work per tuple depends on the group, from about 1,600 to 55,000 tuples a
# second (see the README)
SEARCH_SPACE_LIMIT = 10 ** 6


class GeneratingVector(Record):
    __slots__ = ("group", "handles", "monodromies", "orders", "_memo")

    def _check(self) -> None:
        validate(self)

    @property
    def base_genus(self) -> int:
        return len(self.handles)

    @property
    def num_branch_points(self) -> int:
        return len(self.monodromies)

    def listed_elements(self) -> tuple[Permutation, ...]:
        flat = []
        for a, b in self.handles:
            flat.extend((a, b))
        flat.extend(self.monodromies)
        return tuple(flat)


def _commutator(a: Permutation, b: Permutation) -> Permutation:
    return a * b * a.inverse() * b.inverse()


@stored
def monodromy_classes(gv: GeneratingVector) -> tuple[int, ...]:
    """The class index of each local monodromy."""
    class_of = gv.group._class_of
    return tuple(class_of[c] for c in gv.monodromies)


def validate(gv: GeneratingVector) -> None:
    """Check the invariants of a generating vector, in this order, and
    raise the first one violated: tuple fields with a pair per handle (so
    the vector hashes), one declared order per monodromy, every listed
    element in the group, no identity monodromy (class 0), the declared
    orders (the length of each class's power-class row), the long relation,
    generation.  Runs when the vector is built."""
    if not all(isinstance(f, tuple) for f in (gv.handles, gv.monodromies, gv.orders)) or any(
        not isinstance(h, tuple) or len(h) != 2 for h in gv.handles
    ):
        raise InvalidParameter("a generating vector's fields must be tuples, its handles pairs")
    group = gv.group
    if len(gv.monodromies) != len(gv.orders):
        raise OrderMismatch("one declared order per monodromy required")
    for g in gv.listed_elements():
        group.require(g)
    classes = monodromy_classes(gv)
    if 0 in classes:
        raise TrivialMonodromy("a local monodromy is the identity")
    for k, m in zip(classes, gv.orders):
        order = len(group._power_classes[k])
        if m < 2 or order != m:
            raise OrderMismatch(f"monodromy has order {order}, declared {m}")
    word = group.identity
    for a, b in gv.handles:
        word = word * _commutator(a, b)
    for c in gv.monodromies:
        word = word * c
    if not word.is_identity():
        raise RelationFails("long relation does not close up")
    if not group.generated_by(gv.listed_elements()):
        raise NotGenerating("listed elements generate a proper subgroup")


@stored
def genus(gv: GeneratingVector) -> int:
    """Genus of the covering curve by Riemann-Hurwitz."""
    n = gv.group.order
    rhs = n * (2 * gv.base_genus - 2) + sum(
        (n // m) * (m - 1) for m in gv.orders
    )
    if rhs % 2:
        raise InternalInconsistency("Riemann-Hurwitz gives an odd 2g - 2")
    g = (rhs + 2) // 2
    if g < 0:
        raise InternalInconsistency("Riemann-Hurwitz gives a negative genus")
    return g


@stored
def fixed_point_counts(gv: GeneratingVector) -> tuple[int, ...]:
    """sum_j Ind_{<c_j>}^G 1 on each class: the number of points over the
    branch points fixed by the class's elements.  All fixed points of a
    nontrivial element lie there, so off the identity class this is the
    number of points of the covering curve it fixes.

    The elements of <c> are the powers c^t, t < m, whose classes are the
    row of c's class in the group's power-class table, so each term is the
    ``permutation_character`` of that row."""
    group = gv.group
    counts = [0] * len(group.classes)
    for k in monodromy_classes(gv):
        row = group._power_classes[k]
        induced = permutation_character(group, row)
        counts = [a + b for a, b in zip(counts, induced)]
    return tuple(counts)


@stored
def hurwitz_character(gv: GeneratingVector) -> ClassFunction:
    """Character of the group action on H^1 of the covering curve:
    2*triv + 2(g0-1)*regular + sum_i (regular - induced from <c_i>), that is
    2*triv + (2g0 - 2 + r)*regular minus the fixed-point counts.  The
    regular character is the ``permutation_character`` of the trivial
    subgroup, whose one element lies in the identity class."""
    group = gv.group
    regular = permutation_character(group, (0,))
    weight = 2 * gv.base_genus - 2 + gv.num_branch_points
    values = tuple(
        2 + weight * reg - fixed
        for reg, fixed in zip(regular, fixed_point_counts(gv))
    )
    cf = ClassFunction(group, values)
    if cf.values[0] != 2 * genus(gv):
        raise InternalInconsistency("Hurwitz character degree must be 2g")
    return cf


# -- fixed points ----------------------------------------------------------

class FixedPoint(Record):
    """A point of the covering curve fixed by a queried element: the coset
    x<c_j> above branch point j, with the local rotation exponent of the
    element (the distinguished stabilizer generator x c_j x^-1 rotates by
    the primitive root of unity of order m_j)."""

    __slots__ = ("branch_index", "coset_rep", "rotation_exponent")


def fixed_point_data(gv: GeneratingVector, g: Permutation) -> tuple[FixedPoint, ...]:
    """All fixed points of g on the covering curve, organised by branch fiber:
    the cosets x<c_j>, each listed by its smallest element x, with
    x^-1 g x = c_j^s.  One walk of the powers of c_j gives the cosets and the
    exponent s, and g rotates the point by zeta_m^s = zeta_n^u, m = m_j,
    n = ord(g), u = s / gcd(s, m)."""
    group = gv.group
    group.require(g)
    if g.is_identity():
        raise IdentityElement("fixed points are only reported for nontrivial elements")
    out = []
    for j, (c, m) in enumerate(zip(gv.monodromies, gv.orders), start=1):
        # c^s -> s for s < m
        log = {}
        power = group.identity
        for s in range(m):
            log[power] = s
            power = power * c
        covered = set()
        for x in group.elements:
            if x in covered:
                continue
            covered.update(x * h for h in log)
            s = log.get(x.inverse() * g * x)
            if s is not None:
                out.append(FixedPoint(branch_index=j, coset_rep=x, rotation_exponent=s // gcd(s, m)))
    return tuple(out)


# -- exhaustive search -------------------------------------------------------

def _canonical(group: Group, vec: tuple[Permutation, ...]) -> tuple:
    """The lexicographically smallest simultaneous conjugate x vec x^-1
    over x in G, as a tuple of permutations (compared as image tuples).

    Its first entry is the smallest element of vec[0]'s class, the class
    representative rep, and the x that move vec[0] there form the coset
    C(rep) y for the recorded y with y vec[0] y^-1 = rep; so the minimum
    runs over the centralizer only, and every candidate starts with rep.
    Central elements conjugate trivially, so it runs over one element of
    each coset of Z(G) in C(rep), that is over C(rep)/Z(G)."""
    if not vec:
        return ()
    idx = group._class_of[vec[0]]
    y = group._to_rep[vec[0]]
    yi = y.inverse()
    rest = [y * g * yi for g in vec[1:]]
    return (group.class_reps[idx],) + min(
        tuple(c * g * ci for g in rest) for c, ci in group._centralizer(idx)
    )


def search_generating_vectors(
    group: Group,
    base_genus: int,
    orders,
) -> tuple[GeneratingVector, ...]:
    """All generating vectors with the given signature, up to simultaneous
    conjugation, in a deterministic order.  The handles range over G and the
    free monodromies over the elements of their order; the final monodromy is
    forced by the long relation.  So the scan runs over
    |G|^(2*g0) * prod_{i<r} #{g : ord g = m_i} tuples, and SearchSpaceTooLarge
    is raised when that exceeds ``SEARCH_SPACE_LIMIT``.

    Each tuple that passes the relation and the order checks is keyed by
    its smallest simultaneous conjugate (``_canonical``, a minimum over
    C(rep)/Z(G) for the class representative rep of its first entry), and
    the key is computed before any closure.  Generation is invariant under
    conjugation, so one verdict is kept per key: the closure runs only for
    a key not met before, and the first tuple met in each generating orbit
    is kept.  The vectors come out sorted by their key.  An orbit-count
    certificate checks the result: the number of tuples with a generating
    key must be |G|/|Z(G)| times the number of orbits, or
    InternalInconsistency is raised.

    The argument and space checks run on every call; the scan itself
    (``_search``) is kept on the group object, so it lives as long as the
    group: a repeated call with the same base genus and orders returns the
    same vectors, with their per-vector stages.  An equal group built
    separately searches again, and a search that raises keeps nothing."""
    if base_genus < 0:
        raise ValueError("base genus must be nonnegative")
    orders = tuple(int(m) for m in orders)
    for m in orders:
        if m < 2:
            raise OrderMismatch("branching orders must be at least 2")

    if not all(_of_order(group, m) for m in orders):
        return ()
    # past this genus the handles alone exceed the bound, and the count may
    # be too long to build or to print
    if group.order > 1 and 2 * base_genus > SEARCH_SPACE_LIMIT.bit_length():
        raise SearchSpaceTooLarge(
            f"|G|^(2g0) = {group.order}^{2 * base_genus} tuples exceeds {SEARCH_SPACE_LIMIT}"
        )
    space = group.order ** (2 * base_genus) * prod(len(_of_order(group, m)) for m in orders[:-1])
    if space > SEARCH_SPACE_LIMIT:
        raise SearchSpaceTooLarge(
            f"|G|^(2g0) * prod_(i<r) #{{g : ord g = m_i}} = {space} tuples "
            f"exceeds {SEARCH_SPACE_LIMIT}"
        )
    return _search(group, base_genus, orders)


@stored
def _of_order(group: Group, m: int) -> tuple[Permutation, ...]:
    """The elements of order m, in ``group.elements`` order: those whose
    class's power-class row has length m."""
    rows, class_of = group._power_classes, group._class_of
    return tuple(g for g in group.elements if len(rows[class_of[g]]) == m)


@stored
def _search(group: Group, base_genus: int, orders: tuple) -> tuple[GeneratingVector, ...]:
    """The scan of ``search_generating_vectors``, for orders whose elements
    exist and a space that passed its bound.  The closing monodromy is the
    inverse of the product of the handle commutators and the free ones, so
    that product must have the closing order, read off its class: 1 if r = 0."""
    r = len(orders)
    # canonical key -> whether its tuples generate G
    verdicts: dict[tuple, bool] = {}
    # generating key -> the first tuple met with it
    found: dict[tuple, tuple[Permutation, ...]] = {}
    accepted = 0
    handle_pool = [group.elements] * (2 * base_genus)
    free_monos = [_of_order(group, m) for m in orders[:-1]]
    class_order = [len(row) for row in group._power_classes]
    class_of = group._class_of
    closing = orders[-1] if r else 1

    for handle_vals in itertools.product(*handle_pool):
        word = group.identity
        for i in range(0, len(handle_vals), 2):
            word = word * _commutator(handle_vals[i], handle_vals[i + 1])
        for mono_head in itertools.product(*free_monos):
            prefix = word
            for c in mono_head:
                prefix = prefix * c
            if class_order[class_of[prefix]] != closing:
                continue
            monos = mono_head + (prefix.inverse(),) if r else ()
            listed = handle_vals + monos
            key = _canonical(group, listed)
            generating = verdicts.get(key)
            if generating is None:
                generating = verdicts[key] = group.generated_by(listed)
                if generating:
                    found[key] = listed
            if generating:
                accepted += 1
    # The accepted tuples are closed under simultaneous conjugation, and a
    # generating tuple's stabilizer is the centre, so every orbit has
    # |G| / |Z(G)| members.
    centre = len(group.centre)
    if accepted != len(found) * group.order // centre:
        raise InternalInconsistency(
            f"{accepted} generating tuples do not form {len(found)} conjugation "
            f"orbits of size |G|/|Z(G)| = {group.order // centre}"
        )
    vectors = []
    for key in sorted(found):
        flat = found[key]
        handles = tuple(
            (flat[2 * i], flat[2 * i + 1]) for i in range(base_genus)
        )
        monos = flat[2 * base_genus:]
        vectors.append(GeneratingVector(group, handles, monos, orders))
    return tuple(vectors)


def require_same_group(gv1: GeneratingVector, gv2: GeneratingVector) -> Group:
    if gv1.group != gv2.group:
        raise GroupMismatch("generating vectors live over different groups")
    return gv1.group
