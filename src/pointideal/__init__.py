"""Exact Gröbner bases of vanishing ideals of finite point sets.

The package computes, over the rationals or a prime field, the reduced
Gröbner basis G and the quotient monomial basis B of the ideal of
polynomials vanishing on a given finite point set, under any admissible
term order.  The candidate-list bookkeeping uses sorted tuple lists with
memoized first-difference indices, which makes the repeated merges cheap;
an essential-variable projection shrinks the ring first when the points
allow it.
"""

from types import ModuleType as _Module

from .bm import (
    DuplicatePoints,
    EmptyPointSet,
    GroebnerResult,
    PointSet,
    PointSetError,
    RunStats,
    bm,
    normal_form,
)
from .deltamerge import BACKEND, ArityMismatch, DeltaList, delta
from .fields import (
    FieldError,
    NotPrime,
    PrimeField,
    QQ,
    RationalField,
    field_from_descriptor,
)
from .fileio import (
    ParseError,
    load_merge_list,
    load_points,
    parse_merge_list,
    parse_order,
    parse_points,
    parse_result,
    serialize_points,
    serialize_result,
)
from .orders import (
    NonAdmissibleColumn,
    OrderError,
    OrderSpec,
    SingularMatrix,
    deglex,
    degrevlex,
    lex,
    matrix_order,
    standard_matrix,
    varord,
)
from .poly import Polynomial
from .projection import (
    EssentialSet,
    bm_projected,
    essential_variables,
    lift,
    project,
)

__version__ = "1.0.0"

# the names imported above, and no submodule
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
