"""Exact injectivity analysis for coset-sum transforms on finite groups.

Build a group, enumerate its geodesics (cosets of cyclic subgroups), form
the summation system, and decide injectivity by exact linear algebra. The
spectral module cross-checks verdicts through characters and matrix
representations; the flows module generalizes the geometry to successor
functions on bare sets; the verify module packages the theory as runnable
regression suites.
"""

from .errors import CosetRadonError, SizeLimitError
from .flows import constant_flow, flow_orbits, flow_radon_system, group_flow
from .geodesics import (
    cyclic_subgroups,
    homomorphisms_cn,
    maximal_cyclic_subgroups,
    maximal_geodesics,
    prime_geodesics,
)
from .groups import (
    GroupTable,
    from_cayley_table,
    from_name,
    invariant_factors,
    is_abelian,
    is_cyclic,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_direct_product,
    make_semidirect,
    make_symmetric,
)
from .radon import (
    build_system,
    dimension_bound_check,
    is_injective,
    kernel,
    kernel_witness_cyclic,
    kernel_witness_product,
    reconstruct_all,
)
from .spectral import characters, faithful_characters, quaternion_rep_set
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "CosetRadonError",
    "GroupTable",
    "SUITES",
    "SizeLimitError",
    "build_system",
    "characters",
    "constant_flow",
    "cyclic_subgroups",
    "dimension_bound_check",
    "faithful_characters",
    "flow_orbits",
    "flow_radon_system",
    "from_cayley_table",
    "from_name",
    "group_flow",
    "homomorphisms_cn",
    "invariant_factors",
    "is_abelian",
    "is_cyclic",
    "is_injective",
    "kernel",
    "kernel_witness_cyclic",
    "kernel_witness_product",
    "make_alternating",
    "make_cyclic",
    "make_dicyclic",
    "make_dihedral",
    "make_direct_product",
    "make_semidirect",
    "make_symmetric",
    "maximal_cyclic_subgroups",
    "maximal_geodesics",
    "prime_geodesics",
    "quaternion_rep_set",
    "reconstruct_all",
    "run_suite",
    "__version__",
]
