"""Exact truncated deformation quantization of polynomial symplectic spaces.

The package computes with exact rational arithmetic throughout: sparse
multivariate polynomials, truncated series in a central deformation
parameter, the term-by-term deformed product on a symplectic vector
space, normal forms in the deformed enveloping algebra of a Lie algebra,
invariants and centers degree by degree, order-by-order central lifts of
integral elements, and the specialization of the deformation parameter.
"""

from .action import (
    HamiltonianAction,
    check_classical_limit_triangle,
    check_quantum_moment_condition,
)
from .centers import (
    CenterReport,
    CenterRow,
    QuantumCenterSlice,
    compare_centers,
    invariant_generators,
    invariants_up_to,
    moment_image_basis,
)
from .envelope import (
    UEnvElement,
    adjoint_invariant_check,
    central_section,
    normalize_word,
    symmetrize,
)
from .errors import (
    DimensionError,
    InvalidActionError,
    LiftObstructionError,
    NonSimpleRootError,
    ParseError,
    QCenterError,
    RelationViolationError,
    TruncationError,
    ValidationError,
)
from .liealg import InvariantGenerator, LieAlgebraData
from .lifting import (
    IsoReport,
    LiftReport,
    MonicRelation,
    build_center_iso,
    hensel_lift,
    minimality_holds,
    star_evaluate,
    verify_lift,
)
from .linalg import (
    EchelonAccumulator,
    GradedSubspace,
    in_span,
    reduce_poly_span,
    rref,
)
from .parsing import parse_poly
from .poly import Poly, monomials_of_degree
from .series import HSeries
from .space import SymplecticSpace
from .star import StarProduct, check_axioms, check_homogeneity
from .weyl import (
    WeylReport,
    algebraically_independent,
    weyl_commutator,
    weyl_report,
    weyl_specialize,
)

__version__ = "0.1.0"
