"""pqsurf: exact-arithmetic invariants of product-quotient surfaces with
p_g = q = 2.

The toolkit computes, from a finite group and branched-covering data for two
curves: exact character tables, the group-algebra decomposition of the
Jacobians, the cyclic quotient singularities of the diagonal quotient with
their Hirzebruch-Jung resolutions, the numerical invariants of the resolved
surface, and lattice-theoretic embedding certificates for the K3 partner of
its transcendental cohomology.
"""

__version__ = "0.1.0"

from .chars import (
    CharacterTable,
    ClassFunction,
    RationalCharacter,
    character_table,
    frobenius_schur,
    inner_product,
    rational_characters,
)
from .covering import (
    GeneratingVector,
    genus,
    hurwitz_character,
    search_generating_vectors,
    validate,
)
from .groups import (
    Group,
    catalog_group,
    group_from_generators,
    power_map,
)
from .jacobian import (
    PairingReport,
    decomposition_label,
    isotypical_dimensions,
    k3_pairing,
    motive_h2_decomposition,
)
from .lattice import CRITERION_NOT_SATISFIED, GUARANTEED
from .perms import Permutation, parse_permutation
from .surface import (
    QuotientSingularity,
    SurfaceReport,
    chevalley_weil,
    euler_characteristic,
    geometric_genus,
    hirzebruch_jung,
    invariants,
    quotient_singularities,
)

__all__ = [
    "__version__",
    "CharacterTable",
    "ClassFunction",
    "RationalCharacter",
    "character_table",
    "frobenius_schur",
    "inner_product",
    "rational_characters",
    "GeneratingVector",
    "genus",
    "hurwitz_character",
    "search_generating_vectors",
    "validate",
    "Group",
    "catalog_group",
    "group_from_generators",
    "power_map",
    "PairingReport",
    "decomposition_label",
    "isotypical_dimensions",
    "k3_pairing",
    "motive_h2_decomposition",
    "CRITERION_NOT_SATISFIED",
    "GUARANTEED",
    "Permutation",
    "parse_permutation",
    "QuotientSingularity",
    "SurfaceReport",
    "chevalley_weil",
    "euler_characteristic",
    "geometric_genus",
    "hirzebruch_jung",
    "invariants",
    "quotient_singularities",
]
