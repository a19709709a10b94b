"""Source-term reconstruction for time-fractional diffusion equations.

Forward and adjoint L1 solvers for d_t^alpha u + (-Laplace + 1) u = f(x) mu(t)
on the unit interval/square with Neumann boundary, an iterative thresholding
reconstruction of f from partial interior observations, and eigen-expansion
oracles for verification.
"""

from .discretization import (
    Field,
    ObservationMask,
    SpaceGrid,
    SpaceTimeField,
    TimeGrid,
    inner_product,
    masked_inner_product,
    norm_l2,
)
from .fraccalc import (
    FractionalOrder,
    caputo_l1,
    l1_scale,
    l1_weights,
    linear_convolution,
    mittag_leffler,
    rl_integral,
)
from .forward import ProblemSpec, solve_adjoint, solve_forward, solve_homogeneous
from .inversion import (
    ReconstructionConfig,
    ReconstructionResult,
    estimate_m,
    gradient,
    iterate,
    objective,
)
from .oracle import (
    EigenMode,
    PolynomialMu,
    duhamel_check,
    duhamel_theta,
    eigen_forward,
    modes_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "FractionalOrder",
    "mittag_leffler",
    "linear_convolution",
    "rl_integral",
    "caputo_l1",
    "l1_weights",
    "l1_scale",
    "TimeGrid",
    "SpaceGrid",
    "Field",
    "SpaceTimeField",
    "ObservationMask",
    "inner_product",
    "norm_l2",
    "masked_inner_product",
    "ProblemSpec",
    "solve_forward",
    "solve_homogeneous",
    "solve_adjoint",
    "ReconstructionConfig",
    "ReconstructionResult",
    "objective",
    "gradient",
    "iterate",
    "estimate_m",
    "EigenMode",
    "PolynomialMu",
    "modes_up_to",
    "eigen_forward",
    "duhamel_theta",
    "duhamel_check",
    "__version__",
]
