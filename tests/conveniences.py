"""Conveniences the tests use and no command needs: the class index of an
element, a class function's value at an element, a rebuilt generating
vector and a rescaled lattice.  Powers of an element are
``scale_groups.reference_pow``.
"""

from pqsurf.covering import GeneratingVector
from pqsurf.errors import InvalidParameter
from pqsurf.lattice import IntegralLattice


def class_index(group, g) -> int:
    """The index of g's conjugacy class in the group's class order; raises
    NotInGroup for an element outside the group."""
    return group._class_of[group.require(g)]


def value_at(cf, g):
    """The value of the class function cf at the element g."""
    return cf.values[class_index(cf.group, g)]


def rebuilt(gv: GeneratingVector) -> GeneratingVector:
    """An equal vector built anew through the constructor, which validates
    it, so nothing but its monodromy classes is kept on it yet."""
    return GeneratingVector(gv.group, gv.handles, gv.monodromies, gv.orders)


def rescale(lattice: IntegralLattice, c: int) -> IntegralLattice:
    """The lattice with its Gram matrix multiplied by c != 0."""
    if c == 0:
        raise InvalidParameter("rescaling by zero")
    return IntegralLattice(tuple(tuple(c * x for x in row) for row in lattice.gram))
