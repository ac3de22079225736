"""The two exact sub-flows of the Allen-Cahn splitting.

``free_energy_evolve`` solves ``dphi/dt = (phi - phi^3) / eps^2`` in closed
form per cell; ``heat_evolve`` solves ``dphi/dt = laplacian(phi)`` exactly in
cosine space, with a clamp ``min(exp(A_k * tau), K_tol)`` on the spectral
multiplier that limits the exponential amplification of high modes during
backward (tau < 0) substeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from . import _kernels
from .grid import Field, GridSpec
from .spectral import eigenvalue_table

__all__ = [
    "CutoffPolicy",
    "DivergenceError",
    "ModelParams",
    "energy",
    "free_energy_evolve",
    "heat_evolve",
]


@dataclass(frozen=True)
class ModelParams:
    """Interface-width parameter of the double-well model ``F(phi) = (phi^2-1)^2 / 4``."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def epsilon2(self) -> float:
        return self.epsilon * self.epsilon


@dataclass(frozen=True)
class CutoffPolicy:
    """Clamp value for the spectral heat multiplier.

    ``k_tol >= 1`` is required so that forward steps (multiplier <= 1) are
    never clamped; ``math.inf`` disables the clamp.  The default is the
    strongest finite value exercised by the validation suite; a practical
    rule of thumb is to set ``k_tol`` near the inverse of the accuracy you
    are after.
    """

    k_tol: float = 1e9

    def __post_init__(self):
        if not self.k_tol >= 1.0:
            raise ValueError(f"k_tol must be >= 1 (or inf), got {self.k_tol}")


class DivergenceError(ArithmeticError):
    """Pointwise blow-up of a backward reaction substep, or a guard trip.

    Carries the flat index and multi-index of the first offending cell.
    """

    def __init__(self, message: str, flat_index: int, grid: GridSpec):
        self.flat_index = flat_index
        self.cell = tuple(int(i) for i in np.unravel_index(flat_index, grid.shape))
        super().__init__(f"{message} at cell {self.cell}")


def _decay_factor(tau: float, model: ModelParams) -> float:
    # exp(-2*tau/eps^2); overflow for strongly backward steps is capped in the kernel
    with np.errstate(over="ignore"):
        return float(np.exp(np.float64(-2.0 * tau / model.epsilon2)))


def free_energy_evolve(f: Field, tau: float, model: ModelParams) -> Field:
    """Exact reaction flow over signed time ``tau``.

    phi -> phi / sqrt(phi^2 + (1 - phi^2) * exp(-2*tau/eps^2))

    Forward flow contracts onto [-1, 1]; the backward flow of values with
    |phi| > 1 blows up once the radicand reaches zero, which raises
    :class:`DivergenceError` naming the first offending cell.
    """
    out = np.empty_like(f.values)
    bad = _kernels.free_energy_apply(
        f.values.ravel(), out.ravel(), _decay_factor(tau, model)
    )
    if bad >= 0:
        raise DivergenceError(
            f"reaction substep of length {tau:g} blew up (radicand <= "
            f"{_kernels.RADICAND_FLOOR:g})",
            bad,
            f.grid,
        )
    return Field(f.grid, out)


@lru_cache(maxsize=4)
def _clamped_multiplier(grid: GridSpec, tau: float, k_tol: float) -> np.ndarray:
    """Cached, read-only ``min(exp(A_k * tau), k_tol)`` for ``grid``.

    Built by the active kernel applied to ones, so each backend keeps its own
    bits.  No scheme has more than three distinct ``a_j``, so a run reuses a
    handful of entries.
    """
    mult = np.ones(grid.shape)
    _kernels.heat_multiplier_apply(
        mult.ravel(), eigenvalue_table(grid).ravel(), tau, k_tol, mult.ravel()
    )
    mult.setflags(write=False)
    return mult


def heat_evolve(f: Field, tau: float, policy: CutoffPolicy = CutoffPolicy()) -> Field:
    """Diffusion flow over signed time ``tau`` with the spectral clamp.

    Equivalent to ``dct_inverse(min(exp(A_k * tau), k_tol) * dct_forward(f))``.
    The mean (k = 0) is always preserved because ``A_0 = 0`` and
    ``k_tol >= 1``.  Finite input cannot produce non-finite output while the
    clamp is finite.
    """
    coeffs = dctn(f.values, type=2, norm="ortho")
    # an unbounded clamp may overflow the product to inf; the solver guard
    # is responsible for catching that
    with np.errstate(over="ignore"):
        np.multiply(coeffs, _clamped_multiplier(f.grid, tau, policy.k_tol), out=coeffs)
    return Field(f.grid, idctn(coeffs, type=2, norm="ortho"))


def energy(f: Field, model: ModelParams) -> float:
    """Diagnostic free-energy functional (no monotonicity contract).

    E = h^d * [ sum_cells F(phi)/eps^2 + 1/2 * sum_k (-A_k) * c_k^2 ]

    with ``F(phi) = (phi^2 - 1)^2 / 4`` and the gradient term evaluated
    spectrally through the cosine coefficients ``c_k``.
    """
    phi2 = f.values * f.values
    bulk = float(np.sum(0.25 * (phi2 - 1.0) ** 2)) / model.epsilon2
    coeffs = dctn(f.values, type=2, norm="ortho")
    grad = -0.5 * float(np.sum(eigenvalue_table(f.grid) * coeffs * coeffs))
    return f.grid.cell_volume * (bulk + grad)
