"""Operator-splitting cosine-spectral integrators for the Allen-Cahn equation.

The equation ``dphi/dt = (phi - phi^3)/eps^2 + laplacian(phi)`` with zero-flux
boundaries is split into a reaction flow solved in closed form per cell and a
diffusion flow solved exactly in cosine space.  First- through fourth-order
compositions of the two flows are provided, together with the full
coefficient algebra (order conditions, one-parameter families, distinguished
parameter points, symmetric fourth-order compositions) and experiment
harnesses for convergence and stability studies.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as kernel_backend  # noqa: F401
from .coeffs import (  # noqa: F401
    BranchSolution,
    InvalidOmega,
    SplitCoefficients,
    discriminant,
    first_order,
    fourth_order_u,
    fourth_order_v,
    named_scheme,
    order_residuals,
    second_order_family,
    special_omegas,
    third_order_family,
)
from .grid import Field, GridSpec, SpectralField  # noqa: F401
from .operators import (  # noqa: F401
    CutoffPolicy,
    DivergenceError,
    ModelParams,
    energy,
    free_energy_evolve,
    heat_evolve,
)
from .problems import (  # noqa: F401
    SpinodalSpec,
    TravelingWaveSpec,
    spinodal_initial,
    traveling_wave,
    traveling_wave_field,
)
from .solver import RunConfig, Trajectory, relative_l2_error, run, run_ensemble, step  # noqa: F401
from .spectral import dct_forward, dct_inverse, laplacian_eigenvalues  # noqa: F401
