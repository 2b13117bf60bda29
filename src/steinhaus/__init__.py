"""Balanced binary triangles under the Pascal rule mod 2.

Construct Steinhaus and generalized Pascal triangles, enumerate the
p-tuples whose orbits are fully p-periodic (the kernel of the binomial
circulant over GF(2), a cyclic code read off one polynomial gcd), reduce
them under the order-6p^2 symmetry group, and search the reduced classes
for infinite families of balanced triangles.
"""

from .core import (
    BalanceResult,
    MultiplicityTable,
    Orientation,
    ResidueTuple,
    Triangle,
    build_pascal,
    build_steinhaus,
    embed_pascal_in_steinhaus,
    extract_center_pascal,
    is_balanced,
    multiplicity,
)
from .census import (
    average_census,
    extremal_ones_scan,
    pascal_max_ones,
    steinhaus_max_ones,
)
from .errors import (
    EmptyTuple,
    InvalidSpec,
    MismatchedSides,
    NotPeriodic,
    PeriodNotDivisibleBy4,
    SteinhausError,
    TooLarge,
    UnbalancedPeriod,
    WindowTooLarge,
)
from .orbits import (
    Gf2Matrix,
    PeriodGrid,
    PreperiodReport,
    build_period_grid,
    derive_tuple,
    detect_preperiod,
    enumerate_periodic_tuples,
    gf2_kernel_basis,
    is_periodic_tuple,
    orbit_cell,
    wendt_matrix,
)
from .search import (
    ClassFamilySearch,
    FamilyCertificate,
    RemainderSet,
    SearchReport,
    balanced_period_classes,
    balanced_triangle_of_size,
    check_family,
    check_pascal_family,
    check_steinhaus_family,
    dual_position,
    extract_pascal_block,
    extract_steinhaus_block,
    full_search,
    generator_tuple,
    oracle_verify_family,
    pascal_generator_tuples,
    remainder_set,
    steinhaus_dual_position,
)
from .symmetry import (
    GroupElement,
    OrbitClass,
    apply,
    burnside_class_count,
    compose,
    group_orbit,
    inverse,
    partition_classes,
    reflect_i,
    rotate_r,
    translate,
)
from .modm import (
    ApFamilySpec,
    ap_balanced_scan,
    interlaced_scan,
    interlaced_sequence_check,
    interlaced_tuple,
    multiplicative_order,
    orbit_period_check_mod_m,
)
from .render import RenderSpec, render_family, render_orbit

__version__ = "0.1.0"
