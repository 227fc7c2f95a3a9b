"""curvesplit: splitting types of rational plane curves over F_p.

The package determines the splitting (a, b) of the pulled-back twisted
cotangent bundle of a rational plane curve by exact computation: divisor
classes on blow-ups of the plane, explicit parameterization through random
points via Cremona reduction, three independent splitting algorithms, and
fat-point interpolation for the cohomological certificates.
"""

from .binform import ParamTriple, div_exact, gcd_many
from .exactla import MODULUS, MatFp
from .fatpoints import (
    FatScheme,
    MuReport,
    alpha_degree,
    check_nongeneric_resolution,
    class_cohomology,
    h0_class,
    ideal_dim,
    mu_rank,
)
from .lattice import (
    DivClass,
    NumType,
    Quad,
    Swap,
    ascenzi_classify,
    ascenzi_degree_bound,
    canonical_class,
    derive_unbalanced_exceptional,
    enum_exceptional,
    intersect,
    is_ascenzi,
    is_exceptional_class,
    line_class,
    orbit_closure,
    point_class,
    reduce_to_base,
    reflect,
    semi_adjoint,
    smooth_rational_numerics_ok,
)
from .param import (
    CremonaStep,
    Parameterization,
    PointSet,
    cremona_apply,
    multiplicity_at,
    parameterize,
    random_points,
)
from .splitting import (
    SplitType,
    Syzygy,
    min_syzygy,
    moving_line_matrix,
    splitting_moving_lines,
    splitting_saturation,
)

__version__ = "0.1.0"
