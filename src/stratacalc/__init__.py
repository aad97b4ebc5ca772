"""stratacalc: piecewise-polynomial nonsmooth calculus over hyperplane
arrangements, numerical verifiers for first-order approximation properties
of generalized directional derivatives, and the solvers they power."""

from .conditions import (
    ConditionReport,
    MatrixEntry,
    VerifierConfig,
    check_conservative,
    check_semismooth_I,
    check_semismooth_II,
    check_stratified_derivative,
    check_stratified_subdifferential,
    equivalence_matrix,
)
from .corpus import Corpus, default_corpus, load_corpus, save_corpus
from .geometry import (
    MatrixPolytope,
    Polytope,
    Subspace,
    dist_point_polytope,
    hausdorff,
    linear_image,
    linear_range_over_polytope,
    project,
    subset_mod_subspace,
)
from .oracles import (
    GeneralizedDerivative,
    check_assumption,
    oracle_branch_selection,
    oracle_clarke_linear,
    oracle_exact_directional,
    parse_oracle,
)
from .piecewise import (
    Arrangement,
    Curve,
    Hyperplane,
    PiecewiseFunction,
    Polynomial,
    compose_exact,
    refine,
    validate_continuity,
)
from .solvers import (
    NewtonTrace,
    SubgradientTrace,
    newton_rate_estimate,
    semismooth_newton,
    subgradient_descent,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "ConditionReport", "Corpus", "Curve",
    "GeneralizedDerivative", "Hyperplane", "MatrixEntry", "MatrixPolytope",
    "NewtonTrace", "PiecewiseFunction", "Polynomial", "Polytope",
    "SubgradientTrace", "Subspace", "VerifierConfig",
    "check_assumption", "check_conservative", "check_semismooth_I",
    "check_semismooth_II", "check_stratified_derivative",
    "check_stratified_subdifferential",
    "compose_exact", "default_corpus", "dist_point_polytope",
    "equivalence_matrix", "hausdorff", "linear_image",
    "linear_range_over_polytope", "load_corpus", "newton_rate_estimate",
    "oracle_branch_selection", "oracle_clarke_linear",
    "oracle_exact_directional", "parse_oracle",
    "project", "refine", "save_corpus", "semismooth_newton",
    "subgradient_descent", "subset_mod_subspace", "validate_continuity",
]
