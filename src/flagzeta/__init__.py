"""Exact K-theory weight tables, Euler characteristics, and L-functions
of schemes with cell decompositions over rings of integers.

The package computes three things for a scheme assembled from cells over
number-field or finite-field bases, all in exact arithmetic:

* the weight-graded ranks of its rational K-theory (``weight_table_of``),
* the Euler characteristic of each weight (``chi``),
* the factorization of its L-function into shifted Dedekind zeta
  functions (``lfactorization_of``) and the exact vanishing order of that
  product at any integer.

``check_soule`` confronts the last two: for every cellular scheme here
the Euler characteristic at weight k equals the vanishing order of the
L-function at s = k, integer by integer.
"""

from .cells import (
    Affine,
    BasePoint,
    CellDecomposition,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
    SchemeExpr,
    Stratum,
    brute_force_flag_count,
    cells_of,
    flag_as_grassmannian_tower,
    gaussian_binomial,
    gaussian_multinomial,
    point_count,
)
from .fields import (
    FiniteField,
    NumberField,
    SpecialValue,
    UnsupportedFieldError,
    euler_factor,
    finite_field,
    make_number_field,
    ord_at_integer,
    quadratic_field,
    rationals,
    special_value_even,
    special_value_rational,
    zeta_partial_eval,
)
from .lfuncs import (
    LFactorization,
    RationalZeta,
    lfactorization_of,
    lfun_partial_eval,
    special_value_product,
    weil_zeta_rational,
    weil_zeta_series,
)
from .parse import SchemeSyntaxError, load_field_registry, parse_scheme
from .series import TruncSeries, bernoulli
from .verify import (
    SweepReport,
    VerificationReport,
    affine_family,
    check_soule,
    flag_family,
    proj_family,
    sweep,
)
from .weights import (
    ChiFunction,
    WeightTable,
    borel_weight_table,
    chi,
    finite_field_weight_table,
    weight_table_of,
)

__version__ = "0.1.0"
