"""liequad: integration of invariant systems on matrix Lie groups by quadratures.

The package builds complete-solution charts for first-integral fibrations on
cotangent bundles of matrix groups, evaluates one-parameter subgroups through
a quadrature formula that never calls the matrix exponential, and reconstructs
invariant trajectories from reduced dynamics.
"""

__version__ = "0.1.0"

from .liealg import (
    CasimirForm,
    LieAlgebra,
    algebra_from_file,
    casimir_check,
    casimir_through_point,
    central_casimir,
    killing_casimir,
    make_algebra,
)
from .liegroup import (
    CayleyChart,
    GroupElement,
    MatrixGroup,
    forbid_exp_oracle,
    make_group,
    matrix_exp_oracle,
)

__all__ = [
    "CasimirForm",
    "LieAlgebra",
    "algebra_from_file",
    "casimir_check",
    "casimir_through_point",
    "central_casimir",
    "killing_casimir",
    "make_algebra",
    "CayleyChart",
    "GroupElement",
    "MatrixGroup",
    "forbid_exp_oracle",
    "make_group",
    "matrix_exp_oracle",
    "__version__",
]
