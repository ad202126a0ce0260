"""ellhom: exact computations with Grothendieck-group classes of
Harish-Chandra modules on the character lattice of a compact Cartan
subgroup, and verification that the elliptic pairing agrees there with the
Euler-Poincare pairing, which in the compact case is the multiplicity
pairing dim Hom_G.
"""

from .characters import (
    InternalConsistencyError,
    freudenthal_character,
    weyl_character,
    weyl_dimension,
)
from .charring import (
    CharElement,
    divide_exact,
    half_denominator,
    root_product,
    torus_integral,
    torus_pairing,
    weyl_act,
    weyl_denominator_full,
)
from .koszul import (
    GradedHomology,
    euler_class,
    euler_class_closed_form,
    koszul_n_homology,
    kostant_homology,
)
from .pairings import (
    PairContext,
    antisym_transport,
    check_antisym_i,
    check_denominator_symmetry,
    compact_context,
    dual_class,
    elliptic_pairing,
    ext_abelian_graded,
    gram,
    homological_pairing,
)
from .rootsystem import (
    CapExceededError,
    RootSystem,
    UnsupportedTypeError,
    Weight,
    WeylElement,
    WeylSubgroup,
    build_root_system,
    dominant_box,
    enumerate_weyl_group,
    parse_type,
    rho_shift,
    subgroup_from_generators,
    trivial_subgroup,
)
from .zoo import (
    Catalog,
    VirtualModule,
    compact_catalog,
    compact_irreducible,
    dual_standard_class,
    sl2_catalog,
    standard_module_class,
)

__version__ = "0.1.0"
