"""Exact Minkowski sums of convex polytopes via the Cayley embedding.

Face lattices, face-count bounds, certified tight lower-bound families, and
block-determinant leading terms with a halving threshold tau0, all in exact
rational arithmetic.  tau0 is the first 2^-h at which Delta(2^-h) and
Delta(2^-(h+1)) are both positive; it is not a proof that Delta > 0 on
(0, tau0] (see ``detasym.certify_positivity``).
"""

from .bounds import (
    VertexProfile,
    many_summand_f0_bounds,
    phi,
    three_polytope_bounds,
    trivial_upper_bound,
    two_polytope_bound,
    zonotope_bound,
)
from .cayley import (
    PartitionedPointSet,
    cayley_embed,
    minksum_direct,
    minksum_via_cayley,
    spanning_face_counts,
)
from .construction import (
    ConstructionParams,
    find_tau_star,
    find_zeta_diamond,
    generate_family,
    verify_neighborly,
    verify_tightness,
)
from .detasym import (
    DeltaSpec,
    certify_positivity,
    delta_value,
    gvd,
    laplace_expand,
    leading_term,
)
from .exact import affine_rank, determinant, rat, rat_to_str
from .hull import FaceLattice, PointSet, convex_hull, is_face, neighborliness

__all__ = [
    "ConstructionParams",
    "DeltaSpec",
    "FaceLattice",
    "PartitionedPointSet",
    "PointSet",
    "VertexProfile",
    "affine_rank",
    "cayley_embed",
    "certify_positivity",
    "convex_hull",
    "delta_value",
    "determinant",
    "find_tau_star",
    "find_zeta_diamond",
    "generate_family",
    "gvd",
    "is_face",
    "laplace_expand",
    "leading_term",
    "many_summand_f0_bounds",
    "minksum_direct",
    "minksum_via_cayley",
    "neighborliness",
    "phi",
    "rat",
    "rat_to_str",
    "spanning_face_counts",
    "three_polytope_bounds",
    "trivial_upper_bound",
    "two_polytope_bound",
    "verify_neighborly",
    "verify_tightness",
    "zonotope_bound",
]

__version__ = "0.1.0"
