"""The two exact sub-flows of the Allen-Cahn splitting.

``free_energy_evolve`` solves ``dphi/dt = (phi - phi^3) / eps^2`` in closed
form per cell; ``heat_evolve`` solves ``dphi/dt = laplacian(phi)`` exactly in
cosine space, with a clamp ``min(exp(A_k * tau), K_tol)`` on the spectral
multiplier that limits the exponential amplification of high modes during
backward (tau < 0) substeps.  Where that clamp binds nowhere, the flow on a
2D/3D grid is the tensor product of one small dense matrix per axis, and
:func:`heat_evolve` applies those instead of a transform pair.  Which of
the two a substep takes, with the factors or the clamped multiplier it
needs, is planned once per ``(grid, tau, k_tol)`` and cached
(:func:`_heat_plan`).  On those grids the transform pair itself is one
product per axis with the DCT-II matrix, built here in numpy, so only 1D
grids and axes over ``FACTOR_MAX_CELLS`` cells call :func:`dctn` and
:func:`idctn`, which load ``scipy.fft`` on their first call.
:func:`clamp_binds` tells, from the same largest multiplier, whether a
clamp changes any multiplier of a run's heat substeps at all.

:func:`heat_gain` and :func:`reaction_peak` carry an upper bound on
``max|phi|`` through a substep wherever it can be certified, so that the
solver's guard and the reaction's radicand check can be skipped where
they provably pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .grid import Field, FieldStack, GridSpec
from .spectral import axis_eigenvalues, eigenvalue_table

__all__ = [
    "CutoffPolicy",
    "DivergenceError",
    "ModelParams",
    "clamp_binds",
    "clamped_multipliers",
    "decay_factor",
    "energy",
    "free_energy_evolve",
    "heat_evolve",
    "heat_gain",
    "reaction_peak",
]

_F64_TINY = float(np.finfo(np.float64).tiny)  # the least positive normal number
_F64_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ModelParams:
    """Interface-width parameter of the double-well model ``F(phi) = (phi^2-1)^2 / 4``."""

    epsilon: float

    def __post_init__(self):
        epsilon = float(self.epsilon)  # a numpy scalar would warn where eps^2 overflows
        eps2 = epsilon * epsilon if epsilon > 0 else 0.0
        # eps^2 and 1/eps^2 scale every reaction and energy; neither may
        # overflow, underflow or lose precision as a subnormal
        if not (_F64_TINY <= eps2 <= _F64_MAX and _F64_TINY <= 1.0 / eps2 <= _F64_MAX):
            raise ValueError(
                f"epsilon must be positive with eps^2 and 1/eps^2 normal finite numbers, got {self.epsilon}"
            )

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
        self.cell = grid.cell(flat_index)
        super().__init__(f"{message} at cell {self.cell}")


def decay_factor(tau, model: ModelParams):
    """``exp(-2*tau/eps^2)`` for a substep length ``tau``, or per entry of a
    column of them; overflow for strongly backward steps is capped in the kernel."""
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * np.asarray(tau, dtype=np.float64) / model.epsilon2)


@lru_cache(maxsize=16)
def _cached_decay(tau: float, model: ModelParams) -> float:
    """Cached :func:`decay_factor` of a scalar ``tau``, with its bits, capped
    at the largest double as the kernel caps it; a run reuses a handful of
    entries, one per distinct reaction substep length."""
    return min(float(decay_factor(tau, model)), _F64_MAX)


# The relative slack of every carried bound on max|phi|: far above the
# rounding of the products it covers (about 1e-13 for three axes of 128).
BOUND_MARGIN = 1e-12
# Where the reaction's radicand is certified: max|phi| <= PEAK_LIMIT, where
# the radicand's rounding stays below 1e-7 of its value, and a forward
# decay above FORWARD_DECAY_MIN, twice the radicand floor with room to spare.
PEAK_LIMIT = 1e4
FORWARD_DECAY_MIN = 2.1 * _kernels.RADICAND_FLOOR


def _certified(peak: float, decay: float) -> bool:
    """Whether a reaction with ``decay`` (capped as :func:`_cached_decay`
    caps it) makes every radicand a normal number above the kernel's floor
    on a field with ``max|phi| <= peak``: forward when
    ``FORWARD_DECAY_MIN < decay <= 1``, backward when
    ``(decay - 1) peak^2 <= decay/2``, which keeps the radicand
    ``decay - (decay - 1) phi^2`` at least ``decay/2``."""
    peak = float(peak)  # a numpy scalar would warn where the product overflows
    if not peak <= PEAK_LIMIT:  # also NaN
        return False
    if decay <= 1.0:
        return decay > FORWARD_DECAY_MIN
    return (decay - 1.0) * peak * peak <= 0.5 * decay


def _reaction_bound(peak: float, decay: float) -> float:
    """An upper bound on ``max|phi|`` after the reaction kernel with the
    capped ``decay`` maps a field with ``max|phi| <= peak``, or inf where
    the reaction is not :func:`_certified`.

    The flow ``g(b) = b / sqrt(b^2 + (1 - b^2) d)`` is increasing in ``b``,
    so ``g(peak)`` bounds the exact result.  Where the radicand is
    certified, the kernel's rounding and this evaluation's are each below
    ``1e-15 (1 + peak^2)`` relative, which the margin
    ``BOUND_MARGIN (1 + peak^2)`` covers.
    """
    if not _certified(peak, decay):
        return math.inf
    squared = peak * peak
    return peak / math.sqrt(squared + (1.0 - squared) * decay) * (1.0 + BOUND_MARGIN * (1.0 + squared))


def reaction_peak(peak: float, tau: float, model: ModelParams) -> float:
    """An upper bound on ``max|phi|`` after :func:`free_energy_evolve` over
    ``tau`` from a field with ``max|phi| <= peak``, or inf where the
    reaction is not certified (:func:`_reaction_bound`)."""
    return _reaction_bound(peak, _cached_decay(tau, model))


def free_energy_evolve(f: Field, tau: float, model: ModelParams, peak: float = math.inf) -> Field:
    """Exact reaction flow over signed time ``tau``.

    phi -> phi / sqrt(phi^2 + (1 - phi^2) * exp(-2*tau/eps^2))

    Forward flow contracts onto [-1, 1]; the backward flow of values with
    |phi| > 1 blows up once the radicand reaches zero, which raises
    :class:`DivergenceError` naming the first offending cell.  Where
    ``peak``, an upper bound on ``max|f|``, proves every radicand normal
    (:func:`reaction_peak` is finite), the kernel runs certified: no
    blow-up check, the same bits.
    """
    out = np.empty_like(f.values)
    decay = _cached_decay(tau, model)
    if _certified(peak, decay):
        _kernels.free_energy_apply(f.values.ravel(), out.ravel(), decay, certified=True)
        return Field(f.grid, out)
    bad = _kernels.free_energy_apply(f.values.ravel(), out.ravel(), decay)
    if bad >= 0:
        raise DivergenceError(
            f"reaction substep of length {tau:g} blew up (radicand <= "
            f"{_kernels.RADICAND_FLOOR:g})",
            bad,
            f.grid,
        )
    return Field(f.grid, out)


def clamped_multipliers(grid: GridSpec, tau, k_tol: float) -> np.ndarray:
    """``min(exp(A_k * tau), k_tol)`` over the cells of ``grid`` in C order,
    for a scalar ``tau`` or per row of an ``(R, 1)`` column of them: shape
    ``(M,)`` or ``(R, M)``; one kernel call builds it.
    """
    mult = np.empty(np.shape(tau)[:-1] + (grid.cell_count,))
    _kernels.heat_multiplier_apply(mult, eigenvalue_table(grid).ravel(), tau, k_tol)
    return mult


# At 256 cells per axis a dense factor and the cosine transforms cost
# about the same per substep (256^2: 1.3-1.8 ms against 1.3-2.0 ms); at 128
# and below the factors clearly win.
FACTOR_MAX_CELLS = 128


def _factor_grid(grid: GridSpec) -> bool:
    """Whether ``grid`` is 2D/3D with at most ``FACTOR_MAX_CELLS`` cells per axis."""
    return grid.dims >= 2 and max(grid.cells) <= FACTOR_MAX_CELLS


@lru_cache(maxsize=8)
def _least_eigenvalue(grid: GridSpec) -> float:
    """``min(A)`` on ``grid``: the highest mode on every axis, summed from
    0.0 in axis order as :func:`spectral.eigenvalue_table` sums it, so it
    has the table's bits, without building the table."""
    least = 0.0
    for length, n in zip(grid.lengths, grid.cells):
        least += float(axis_eigenvalues(length, n)[-1])
    return least


def _largest_multiplier(grid: GridSpec, tau: float) -> float:
    """``exp(min(A) * tau)``, the unclamped multiplier of the highest mode,
    which is the largest one of a backward (``tau < 0``) heat substep on
    ``grid``; inf where it overflows.  In plain floats: ``math.exp`` raises
    on overflow where numpy would warn."""
    try:
        return math.exp(_least_eigenvalue(grid) * float(tau))
    except OverflowError:
        return math.inf


def _uses_factors(grid: GridSpec, tau: float, k_tol: float) -> bool:
    """Whether a heat substep on ``grid`` is applied as per-axis factors.

    True on a :func:`_factor_grid` when the clamp binds on no mode, i.e. the
    :func:`_largest_multiplier` is finite and at most ``k_tol``; that always
    holds for ``tau >= 0``.  Everything else takes the transform pair.
    """
    return _factor_grid(grid) and _largest_multiplier(grid, tau) <= min(k_tol, _F64_MAX)


def clamp_binds(grid: GridSpec, taus, k_tol: float) -> bool:
    """Whether the clamp ``k_tol`` may change a bit of the
    :func:`clamped_multipliers` of a heat substep on ``grid`` over some tau
    of ``taus``, against the same table under ``k_tol = inf``.

    Clamps that bind on none of a run's heat substeps build the same tables,
    so they give the same run.  A forward substep never binds (its
    multipliers are at most 1, and ``k_tol >= 1``), nor does ``k_tol = inf``.
    A backward one binds unless its :func:`_largest_multiplier` times
    ``1 + BOUND_MARGIN`` is at most ``k_tol``: the margin is far above the
    ulp by which the kernel's ``np.exp`` may differ from ``math.exp``, so
    a clamp called unbound leaves every multiplier as it is, and one within
    the margin of the largest multiplier counts as binding.
    """
    if k_tol == math.inf:
        return False
    return any(tau < 0 and not _largest_multiplier(grid, tau) * (1.0 + BOUND_MARGIN) <= k_tol for tau in taus)


def dctn(x, **kwargs) -> np.ndarray:
    """``scipy.fft.dctn(x, **kwargs)``.  scipy is imported on the first call,
    so a process that makes no transform never loads it."""
    import scipy.fft

    return scipy.fft.dctn(x, **kwargs)


def idctn(x, **kwargs) -> np.ndarray:
    """``scipy.fft.idctn(x, **kwargs)``, imported as :func:`dctn` imports it."""
    import scipy.fft

    return scipy.fft.idctn(x, **kwargs)


@lru_cache(maxsize=8)
def _dct_matrix(cells: int) -> np.ndarray:
    """Cached, read-only orthonormal DCT-II matrix ``C`` of size ``cells``:
    ``C[k, j] = sqrt(2/n) cos(pi k (2j + 1) / 2n)``, row 0 ``sqrt(1/n)``.

    The argument is reduced exactly in integers, ``m = k (2j + 1) mod 4n``,
    so the cosine is taken of ``pi m / 2n`` in ``[0, 2 pi)``.  Up to
    ``FACTOR_MAX_CELLS`` cells, ``C`` is within 1e-15 of scipy's
    ``dct(eye(n))`` and ``C C^T`` within 2e-15 of the identity.
    """
    k = np.arange(cells)[:, np.newaxis]
    m = (k * (2 * np.arange(cells) + 1)) % (4 * cells)
    c = math.sqrt(2.0 / cells) * np.cos(np.pi * m / (2 * cells))
    c[0] = math.sqrt(1.0 / cells)
    c.setflags(write=False)
    return c


class _HeatPlan(NamedTuple):
    """How :func:`heat_evolve` applies one heat substep, and its :func:`heat_gain`."""

    factors: tuple[np.ndarray, ...] | None  # read-only, where _uses_factors holds
    multiplier: np.ndarray | None  # read-only, shaped as the grid, elsewhere
    gain: float


@lru_cache(maxsize=4)
def _heat_plan(grid: GridSpec, tau: float, k_tol: float) -> _HeatPlan:
    """The cached plan of a heat substep.  No scheme has more than three
    distinct heat substep lengths, so a run reuses a handful of entries.

    Where :func:`_uses_factors` holds, the read-only
    ``F_i = C_i^T diag(exp(lam_i * tau)) C_i``, one per axis, with ``C_i``
    the orthonormal DCT-II matrix and ``lam_i = -(pi k / L_i)^2``; their
    tensor product is the unclamped flow.  Their ``gain`` is the product of
    their infinity norms (largest absolute row sums) times
    ``1 + BOUND_MARGIN``: each product of :func:`_apply_factors` sums at
    most ``FACTOR_MAX_CELLS`` terms, so it rounds by less than 1.5e-14 of
    the sum of their absolute values, and so does each row sum.

    Elsewhere, the read-only :func:`clamped_multipliers` shaped as
    ``grid``, and an unknown ``gain``: inf.
    """
    if not _uses_factors(grid, tau, k_tol):
        multiplier = clamped_multipliers(grid, tau, k_tol).reshape(grid.shape)
        multiplier.setflags(write=False)
        return _HeatPlan(None, multiplier, math.inf)
    factors = []
    for length, n in zip(grid.lengths, grid.cells):
        c = _dct_matrix(n)
        factors.append((c.T * np.exp(axis_eigenvalues(length, n) * tau)) @ c)
    gain = 1.0 + BOUND_MARGIN
    for factor in factors:
        gain *= float(np.abs(factor).sum(axis=1).max())
    return _HeatPlan(_read_only(factors), None, gain)


def heat_gain(grid: GridSpec, tau: float, k_tol: float) -> float:
    """A factor by which a heat substep can at most grow ``max|phi|``, as
    :func:`heat_evolve` computes it: the ``gain`` of its factors, or inf off
    the factor path."""
    return _heat_plan(grid, tau, k_tol).gain


def _read_only(factors: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``factors`` as a read-only tuple, the last one in Fortran order so that
    its ``.T`` is C-contiguous for the slab products of :func:`_apply_factors`."""
    factors[-1] = np.asfortranarray(factors[-1])
    for factor in factors:
        factor.setflags(write=False)
    return tuple(factors)


def _apply_factors(values: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Multiply ``values`` by one factor along each axis, as three matmuls at
    most, into a fresh array by way of this thread's scratch array.

    Axis 0 is one GEMM over all the other axes; the middle and last axes are
    broadcast products over the axis-0 slabs, which OpenBLAS runs on its
    unpacked small-matrix kernel (README, "How a heat substep is applied").
    """
    shape = values.shape
    out = np.empty(shape)
    # in 3D, out holds the first product until the scratch array takes the second
    mid = out if len(factors) == 3 else _kernels.work(shape)
    np.matmul(factors[0], values.reshape(shape[0], -1), out=mid.reshape(shape[0], -1))
    if len(factors) == 3:
        mid = np.matmul(factors[1], out, out=_kernels.work(shape))
    return np.matmul(mid, factors[-1].T, out=out)


@lru_cache(maxsize=4)
def _cosine_factors(cells: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Cached read-only per-axis factors of the transform pair on a
    :func:`_factor_grid`, in the layout :func:`_apply_factors` takes: the
    matrices ``C_i`` (forward) and their transposes (inverse)."""
    inverse = tuple(_dct_matrix(n).T for n in cells)  # the last one's .T is C_i itself, C-contiguous
    return _read_only([_dct_matrix(n) for n in cells]), inverse


def heat_evolve(
    f: Field | FieldStack, tau, policy: CutoffPolicy = CutoffPolicy(), multipliers: np.ndarray | None = None
) -> Field | FieldStack:
    """Diffusion flow over signed time ``tau`` with the spectral clamp.

    Equivalent to ``dct_inverse(min(exp(A_k * tau), k_tol) * dct_forward(f))``.
    The mean (k = 0) is always preserved because ``A_0 = 0`` and
    ``k_tol >= 1``.  Finite input cannot produce non-finite output while the
    clamp is finite.

    Where :func:`_uses_factors` holds, the flow is applied as one dense
    ``N_i x N_i`` factor per axis (fast diagonalisation; the clamp binds
    nowhere, so nothing is lost), and its result matches the transform pair
    to rounding, not to the bit.  Otherwise it is one transform pair with
    the clamped multiplier; every 1D substep takes that path.  Either is
    looked up once, in the cached :func:`_heat_plan`.  On a
    :func:`_factor_grid` the pair is one product per axis with the DCT-II
    matrices (:func:`_cosine_factors`), which also matches :func:`dctn` and
    :func:`idctn` to rounding; elsewhere it is those two.

    A :class:`FieldStack` of 1D fields takes an ``(R, 1)`` column ``tau``,
    one entry per row.  It is advanced by one transform pair over the grid
    axis, its coefficients scaled by ``multipliers``, the
    :func:`clamped_multipliers` of ``tau``; the solver passes the tables it
    keeps per stack, and ``tau`` is then not read.  Where none is passed
    they are built here, the reference the tests compare those tables
    against.  Every row gets the bits that row gets alone.  Only a stack
    reads ``multipliers``.
    """
    stacked = isinstance(f, FieldStack)
    if not stacked:
        plan = _heat_plan(f.grid, tau, policy.k_tol)
        if plan.factors is not None:
            # an unbounded clamp may overflow the products to inf or NaN; the
            # solver guard is responsible for catching that
            with np.errstate(over="ignore", invalid="ignore"):
                return Field(f.grid, _apply_factors(f.values, plan.factors))
        multipliers = plan.multiplier
    elif multipliers is None:
        multipliers = clamped_multipliers(f.grid, tau, policy.k_tol)
    if _factor_grid(f.grid):  # the clamp binds: the transform pair, as per-axis products
        forward, inverse = _cosine_factors(f.grid.cells)
        # an unbounded clamp may overflow the coefficients to inf, and the
        # inverse products then to NaN; the solver guard catches either
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _apply_factors(f.values, forward)
            np.multiply(coeffs, multipliers, out=coeffs)
            return Field(f.grid, _apply_factors(coeffs, inverse))
    axes = (1,) if stacked else None  # every axis of a field; faster than naming them
    coeffs = dctn(f.values, type=2, norm="ortho", axes=axes)
    # an unbounded clamp may overflow the product to inf; the solver guard
    # is responsible for catching that
    with np.errstate(over="ignore"):
        np.multiply(coeffs, multipliers, out=coeffs)
    return type(f)(f.grid, idctn(coeffs, type=2, norm="ortho", axes=axes))


@lru_cache(maxsize=4)
def _gradient_factors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Cached, read-only ``S_i = diag(sqrt(-lam_i)) C_i``, one per axis, so
    that ``sum_i ||S_i x_i phi||^2 = -sum_k A_k c_k^2`` (Parseval on the
    other axes)."""
    return _read_only(
        [np.sqrt(-axis_eigenvalues(length, n))[:, np.newaxis] * _dct_matrix(n)
         for length, n in zip(grid.lengths, grid.cells)]
    )


def _squared_sum(values: np.ndarray) -> float:
    """``sum(values^2)``, squaring ``values`` in place; no BLAS dot, whose
    threading could change the bits."""
    np.square(values, out=values)
    return float(np.sum(values))


def _factor_gradient(values: np.ndarray, factors: tuple[np.ndarray, ...], w: np.ndarray) -> float:
    """``sum_i ||S_i x_i values||^2`` for the :func:`_gradient_factors`
    ``factors``, each product computed in the scratch array ``w``."""
    shape = values.shape
    total = _squared_sum(np.matmul(factors[0], values.reshape(shape[0], -1), out=w.reshape(shape[0], -1)))
    if len(factors) == 3:
        total += _squared_sum(np.matmul(factors[1], values, out=w))
    return total + _squared_sum(np.matmul(values, factors[-1].T, out=w))


def energy(f: Field, model: ModelParams) -> float:
    """Diagnostic free-energy functional (no monotonicity contract).

    E = h^d * [ sum_cells F(phi)/eps^2 + 1/2 * sum_k (-A_k) * c_k^2 ]

    with ``F(phi) = (phi^2 - 1)^2 / 4`` and the gradient term evaluated
    spectrally through the cosine coefficients ``c_k``.  On a
    :func:`_factor_grid` the gradient term is ``1/2 * sum_i ||S_i x_i phi||^2``
    (see :func:`_gradient_factors`), which agrees to rounding and needs no
    transform; elsewhere it takes one forward transform.  The bulk term and
    the factor products are computed in this thread's scratch array.
    """
    values, grid = f.values, f.grid
    w = _kernels.work(values.shape)
    np.square(values, out=w)
    np.subtract(w, 1.0, out=w)
    np.square(w, out=w)
    # a power-of-two scale of the sum has the bits of the sum of scaled terms
    bulk = 0.25 * float(np.sum(w)) / model.epsilon2
    if _factor_grid(grid):
        grad = 0.5 * _factor_gradient(values, _gradient_factors(grid), w)
    else:
        coeffs = dctn(values, type=2, norm="ortho")
        grad = -0.5 * float(np.sum(eigenvalue_table(grid) * coeffs * coeffs))
    return grid.cell_volume * (bulk + grad)
