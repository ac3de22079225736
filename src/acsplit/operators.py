"""The two exact sub-flows of the Allen-Cahn splitting.

``free_energy_evolve`` solves ``dphi/dt = (phi - phi^3) / eps^2`` in closed
form per cell; ``heat_evolve`` solves ``dphi/dt = laplacian(phi)`` exactly in
cosine space, with a clamp ``min(exp(A_k * tau), K_tol)`` on the spectral
multiplier that limits the exponential amplification of high modes during
backward (tau < 0) substeps.  Every cosine transform of a grid goes through
its one cached :func:`cosine_basis`.  Where the clamp binds nowhere, the
flow on a 2D/3D grid is instead the tensor product of one small dense
matrix per axis; which of the two a substep takes is planned once per
``(grid, tau, k_tol)`` and cached (:func:`_heat_plan`).  :func:`clamp_binds`
tells, from the same largest multiplier, whether a clamp changes any
multiplier of a run's heat substeps at all.

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
from .spectral import axis_eigenvalues, dctn, eigenvalue_table, idctn

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
    """``min(exp(A_k * tau), k_tol)`` over the ``eigenvalues`` of the
    :func:`cosine_basis` of ``grid``, in its mode order, for a scalar ``tau``
    or per row of an ``(R, 1)`` column of them: shape ``(M,)`` or ``(R, M)``."""
    mult = np.empty(np.shape(tau)[:-1] + (grid.cell_count,))
    _kernels.heat_multiplier_apply(mult, cosine_basis(grid).eigenvalues, tau, k_tol)
    return mult


# At 256 cells per axis a dense factor and the cosine transforms cost
# about the same per substep (256^2: 1.3-1.8 ms against 1.3-2.0 ms); at 128
# and below the factors clearly win.
FACTOR_MAX_CELLS = 128


def _factor_grid(grid: GridSpec) -> bool:
    """Whether ``grid`` is 2D/3D with at most ``FACTOR_MAX_CELLS`` cells per axis."""
    return grid.dims >= 2 and max(grid.cells) <= FACTOR_MAX_CELLS


# A GEMM of at least two rows against a C-contiguous right operand gives
# every row the bits it gets in any other such GEMM when the inner size is
# a multiple of 8 (README, "How a heat substep is applied"); the half-size
# blocks of a multiple of 16 cells are.
HALF_SIZE_STEP = 16


def _half_size(grid: GridSpec) -> bool:
    """Whether ``grid`` is 1D with a multiple of ``HALF_SIZE_STEP`` cells, at
    most ``FACTOR_MAX_CELLS``: its basis is half-size products."""
    n = grid.cells[0]
    return grid.dims == 1 and n % HALF_SIZE_STEP == 0 and n <= FACTOR_MAX_CELLS


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


@lru_cache(maxsize=8)
def _dct_matrix(cells: int) -> np.ndarray:
    """Cached, read-only orthonormal DCT-II matrix ``C`` of size ``cells``:
    ``C[k, j] = sqrt(2/n) cos(pi k (2j + 1) / 2n)``, row 0 ``sqrt(1/n)``.

    The argument is reduced exactly in integers, ``m = k (2j + 1) mod 4n``,
    so the cosine is taken of ``pi m / 2n`` in ``[0, 2 pi)``.  Up to
    ``FACTOR_MAX_CELLS`` cells, ``C`` is within 1e-15 of the FFT-based
    transform of the identity and ``C C^T`` within 2e-15 of the identity.
    """
    k = np.arange(cells)[:, np.newaxis]
    m = (k * (2 * np.arange(cells) + 1)) % (4 * cells)
    c = math.sqrt(2.0 / cells) * np.cos(np.pi * m / (2 * cells))
    c[0] = math.sqrt(1.0 / cells)
    c.setflags(write=False)
    return c


class CosineBasis:
    """The orthonormal cosine transform of one grid, here :func:`dctn` and
    :func:`idctn`; :func:`cosine_basis` gives each grid its own.

    ``forward(values, shift)`` maps a field, or a 1D ``(R, M)`` stack, less
    ``shift`` to coefficients held in a layout of the basis, and
    ``inverse(coeffs, shift, shape)`` maps them back, ``shift`` added; it may
    overwrite ``coeffs``.  ``eigenvalues`` are the read-only Laplacian
    eigenvalues in the basis's mode order, ``layout`` puts a table of a
    value per mode in that order, or one per row, in the layout of the
    coefficients, and ``modes`` gives one field's coefficients flat in that
    order.  :meth:`coefficients` and :meth:`field` are the pair in C order.

    ``shift(values)`` is the one shift rule: the end cell of least magnitude
    per 1D row (the end that adds the least rounding, README "How a heat
    substep is applied"), the first cell in 2D/3D.  It changes only the
    mean mode, so a constant field leaves no rounding in the modes a clamp
    amplifies.  Here it goes back into the mean mode, not into every cell,
    where it would round at the size a backward substep has grown them to.
    """

    order = slice(None)  # the basis's mode order, as an index into C order

    def __init__(self, grid: GridSpec):
        self.cells, self.size = grid.cells, grid.cell_count
        self.axes = (-1,) if grid.dims == 1 else None
        self.eigenvalues = eigenvalue_table(grid).ravel()[self.order]
        self.eigenvalues.setflags(write=False)

    def shift(self, values: np.ndarray):
        if len(self.cells) > 1:
            return values.flat[0]
        ends = values.reshape(-1, self.size)[:, :: self.size - 1]  # per row, as an (R, 1) column
        magnitude = np.abs(ends)
        return np.where(magnitude[:, :1] <= magnitude[:, 1:], ends[:, :1], ends[:, 1:])

    def forward(self, values: np.ndarray, shift) -> np.ndarray:
        coeffs = dctn(values - shift, axes=self.axes)
        # the mean modes, through a view: dctn ends on the last axis, so its result is C-contiguous
        coeffs.reshape(-1, self.size)[:, :1] += shift * math.sqrt(self.size)
        return coeffs

    def inverse(self, coeffs: np.ndarray, shift, shape: tuple[int, ...]) -> np.ndarray:
        return idctn(coeffs, axes=self.axes).reshape(shape)

    def modes(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.ravel()

    def layout(self, table: np.ndarray) -> np.ndarray:
        return table.reshape(table.shape[:-1] + self.cells)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """The coefficients of one field, shaped as the grid in C order."""
        coeffs = np.empty(self.size)
        coeffs[self.order] = self.modes(self.forward(values, 0.0))
        return coeffs.reshape(self.cells)

    def field(self, coeffs: np.ndarray) -> np.ndarray:
        """The values of one field from its :meth:`coefficients`."""
        return self.inverse(self.layout(coeffs.ravel()[self.order]), 0.0, self.cells)


class _HalfBasis(CosineBasis):
    """The basis of a :func:`_half_size` grid.  Row ``k`` of the DCT-II
    matrix ``C`` is even about the middle for even ``k``, odd for odd ``k``,
    so the even modes are ``Ce (x_j + x_{n-1-j} - 2s)`` and the odd ones
    ``Co (x_j - x_{n-1-j})``, ``j < n/2``, with ``Ce = C[0::2, :n/2]`` and
    ``Co = C[1::2, :n/2]`` (Rao & Yip, *Discrete Cosine Transform*, 1990),
    held as a ``(2, R, n/2)`` array, modes in [even | odd] order; the
    inverse adds ``s`` to the even part.

    A single row is broadcast to two, as no product may have one row, which
    OpenBLAS hands to GEMV with other bits: every row has the bits it gets
    in a stack of any size.  Every product writes a C-contiguous array (a
    strided one took 85 against 53 us at 383 x 128).
    """

    def __init__(self, grid: GridSpec):
        n, half = grid.cells[0], grid.cells[0] // 2
        self.order = np.concatenate((np.arange(0, n, 2), np.arange(1, n, 2)))
        c = _dct_matrix(n)
        even, odd = c[0::2, :half], c[1::2, :half]
        # read-only, C-contiguous right operands: Ce^T, Co^T forward, Ce, Co back
        self.blocks = tuple(np.ascontiguousarray(m) for m in (even.T, odd.T, even, odd))
        for array in (*self.blocks, self.order):
            array.setflags(write=False)
        super().__init__(grid)

    def forward(self, values: np.ndarray, shift) -> np.ndarray:
        rows = values.reshape(-1, self.size)
        size, half = max(len(rows), 2), self.size // 2
        folded, mirrored = _kernels.work((2, size, half))
        tail = rows[:, : half - 1 : -1]  # x_{n-1-j}, j < n/2
        np.add(rows[:, :half], tail, out=folded)
        folded -= 2.0 * shift
        np.subtract(rows[:, :half], tail, out=mirrored)
        coeffs = np.empty((2, size, half))
        np.matmul(folded, self.blocks[0], out=coeffs[0])
        np.matmul(mirrored, self.blocks[1], out=coeffs[1])
        return coeffs

    def inverse(self, coeffs: np.ndarray, shift, shape: tuple[int, ...]) -> np.ndarray:
        size, half = coeffs.shape[1:]
        even, odd = _kernels.work((2, size, half))
        np.matmul(coeffs[0], self.blocks[2], out=even)
        np.matmul(coeffs[1], self.blocks[3], out=odd)
        even += shift  # back in both halves
        out = coeffs.reshape(size, -1)  # the coefficients are spent: their array takes the result
        np.add(even, odd, out=out[:, :half])
        np.subtract(even, odd, out=out[:, : half - 1 : -1])
        return out[: math.prod(shape) // self.size].reshape(shape)

    def modes(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs[:, 0].ravel()

    def layout(self, table: np.ndarray) -> np.ndarray:
        return table.reshape(-1, 2, self.size // 2).transpose(1, 0, 2)  # as (2, rows, n/2)


class _ProductBasis(CosineBasis):
    """The basis of a :func:`_factor_grid`: one product per axis
    (:func:`_apply_factors`) with the DCT-II matrices ``C_i`` forward and
    ``C_i^T`` back, the shift added back to every cell."""

    def __init__(self, grid: GridSpec):
        super().__init__(grid)
        self.factors = _read_only([_dct_matrix(n) for n in grid.cells])
        self.inverse_factors = tuple(_dct_matrix(n).T for n in grid.cells)  # the last .T is C, C-contiguous

    def forward(self, values: np.ndarray, shift) -> np.ndarray:
        return _apply_factors(np.subtract(values, shift), self.factors)

    def inverse(self, coeffs: np.ndarray, shift, shape: tuple[int, ...]) -> np.ndarray:
        out = _apply_factors(coeffs, self.inverse_factors)
        out += shift
        return out


@lru_cache(maxsize=8)
def cosine_basis(grid: GridSpec) -> CosineBasis:
    """The cached :class:`CosineBasis` of ``grid``, the one place that picks
    how a transform is computed: half-size products on a :func:`_half_size`
    grid, per-axis products on a :func:`_factor_grid`, :func:`dctn` and
    :func:`idctn` elsewhere."""
    if _half_size(grid):
        return _HalfBasis(grid)
    return _ProductBasis(grid) if _factor_grid(grid) else CosineBasis(grid)


class _HeatPlan(NamedTuple):
    """How :func:`heat_evolve` applies one heat substep, and its :func:`heat_gain`."""

    factors: tuple[np.ndarray, ...] | None  # read-only, where _uses_factors holds
    multiplier: np.ndarray | None  # read-only, one per mode, elsewhere
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

    Elsewhere, the read-only :func:`clamped_multipliers`, and an unknown
    ``gain``: inf.
    """
    if not _uses_factors(grid, tau, k_tol):
        multiplier = clamped_multipliers(grid, tau, k_tol)
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


def heat_evolve(
    f: Field | FieldStack, tau, policy: CutoffPolicy = CutoffPolicy(), multipliers: np.ndarray | None = None
) -> Field | FieldStack:
    """Diffusion flow over signed time ``tau`` with the spectral clamp:
    ``inverse(min(exp(A_k * tau), k_tol) * forward(phi - s)) + s`` in the
    :func:`cosine_basis` of the grid, ``s`` its shift, which leaves a
    constant field no rounding for the clamp to amplify.  The mean (k = 0)
    is kept because ``A_0 = 0`` and ``k_tol >= 1``.  Finite input gives
    finite output while the clamp is finite.

    Where :func:`_uses_factors` holds, the flow is instead one dense
    ``N_i x N_i`` factor per axis (the clamp binds nowhere), which matches
    the transform pair to rounding.  Either is looked up in the cached
    :func:`_heat_plan`.

    A :class:`FieldStack` of 1D fields takes an ``(R, 1)`` column ``tau``
    and scales its coefficients by ``multipliers``, the
    :func:`clamped_multipliers` of ``tau``, which the solver keeps per stack
    (``tau`` is then not read), or which are built here where none is
    passed.  Every row gets the bits that row gets alone.  Only a stack
    reads ``multipliers``.
    """
    if not isinstance(f, FieldStack):
        plan = _heat_plan(f.grid, tau, policy.k_tol)
        if plan.factors is not None:
            # an unbounded clamp may overflow the products to inf or NaN; the
            # solver guard is responsible for catching that
            with np.errstate(over="ignore", invalid="ignore"):
                return Field(f.grid, _apply_factors(f.values, plan.factors))
        multipliers = plan.multiplier
    elif multipliers is None:
        multipliers = clamped_multipliers(f.grid, tau, policy.k_tol)
    basis = cosine_basis(f.grid)
    shift = basis.shift(f.values)
    # an unbounded clamp may overflow the coefficients to inf, and the
    # inverse then to NaN; the solver guard catches either
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = basis.forward(f.values, shift)
        coeffs *= basis.layout(multipliers)
        return type(f)(f.grid, basis.inverse(coeffs, shift, f.values.shape))


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
    transform; elsewhere ``c_k`` is one ``forward`` in the
    :func:`cosine_basis`, less the shift, which moves only ``c_0``, whose
    eigenvalue is 0.  The bulk term and the products use this thread's
    scratch array.
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
        basis = cosine_basis(grid)
        coeffs = basis.modes(basis.forward(values, basis.shift(values)))
        grad = -0.5 * float(np.sum(basis.eigenvalues * coeffs * coeffs))
    return grid.cell_volume * (bulk + grad)
