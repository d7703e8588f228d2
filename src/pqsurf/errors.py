"""Exception types.  Class names carry the name of the violated invariant,
so error messages and CLI diagnostics can quote them directly.  An error
marks bad input or a failed certificate; a value that valid input leaves
undefined, such as a Jacobian label off an elliptic base, is None.
A message quotes the user's text through ``_quoted``, or names it through
``_clipped``, so its length is bounded whatever the input."""


def _clipped(text: str, width: int = 60) -> str:
    """``text`` whole up to ``width`` characters, else its first
    ``width - 15`` and its length."""
    if len(text) <= width:
        return text
    return f"{text[:width - 15]}... ({len(text)} characters)"


def _quoted(value) -> str:
    """The repr of ``value``: whole up to 60 characters, else its first 45
    and its length."""
    return _clipped(repr(value))


class PqsurfError(Exception):
    """Base class for all domain errors raised by this package."""


class InternalInconsistency(PqsurfError):
    """An internal certificate failed: a value that exact arithmetic proves
    integral, nonnegative or equal to another came out otherwise."""


# -- permutation groups -------------------------------------------------

class NonPermutation(PqsurfError):
    """An image sequence is not a bijection of {1..n}."""


class SizeLimit(PqsurfError):
    """Group closure exceeded the configured order cap."""


class UnknownName(PqsurfError):
    """No catalog group with the requested name."""


class NotInGroup(PqsurfError):
    """Element does not belong to the group."""


# -- character theory ----------------------------------------------------

class GroupMismatch(PqsurfError):
    """Class functions or generating vectors live over different groups."""


class NotASubgroup(PqsurfError):
    """The given element set is not closed under the group operations."""


# -- coverings ------------------------------------------------------------

class RelationFails(PqsurfError):
    """The surface-group long relation does not evaluate to the identity."""


class TrivialMonodromy(PqsurfError):
    """A local monodromy equals the identity."""


class NotGenerating(PqsurfError):
    """The listed elements generate a proper subgroup."""


class OrderMismatch(PqsurfError):
    """A declared branching order disagrees with the element order."""


class SearchSpaceTooLarge(PqsurfError):
    """Enumeration would exceed the configured search bound."""


class IdentityElement(PqsurfError):
    """Operation requires a nontrivial group element."""


class NoWitness(PqsurfError):
    """A search directive produced no valid generating vector."""


# -- singularities ----------------------------------------------------------

class NotCoprime(PqsurfError):
    """Singularity type 1/n(1,q) requires gcd(q, n) = 1."""


class OutOfRange(PqsurfError):
    """Residue parameter outside the admissible range."""


# -- lattices ----------------------------------------------------------------

class InvalidParameter(PqsurfError):
    """Bad parameter to a constructor: a Gram matrix that is not a tuple of
    tuples of ints, or a generating vector whose fields are not tuples."""


class Degenerate(PqsurfError):
    """The Gram matrix is singular."""


class NotEven(PqsurfError):
    """Lattice has an odd diagonal entry."""


class NotUnimodular(PqsurfError):
    """Embedding target must have determinant of absolute value 1."""


# -- input files ----------------------------------------------------------------

class ParseError(PqsurfError):
    """A surface description file could not be parsed."""
