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

# The root re-exports each library module's public names, and only those:
# one list per module, its ``__all__``.
from . import cells, fields, lfuncs, parse, series, verify, weights
from .cells import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .lfuncs import *  # noqa: F401,F403
from .parse import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .weights import *  # noqa: F401,F403

__all__ = [
    name
    for module in (cells, fields, lfuncs, parse, series, verify, weights)
    for name in module.__all__
]

__version__ = "0.1.0"
