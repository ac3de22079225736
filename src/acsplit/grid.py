"""Uniform cell-centered tensor grids and the fields living on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GridSpec", "Field", "FieldStack", "SpectralField"]


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform grid on a box ``[0, L_1] x ... x [0, L_d]``, d <= 3.

    Cell centers along axis ``i`` sit at ``x_l = (L_i / M_i) * (l + 1/2)``
    for ``l = 0 .. M_i - 1``.  Values attached to a grid are stored in C
    order (axis 0 slowest); the on-disk format in :mod:`acsplit.fieldio`
    uses the same layout.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        if not 1 <= len(self.lengths) <= 3:
            raise ValueError(f"grid must be 1-, 2- or 3-dimensional, got {len(self.lengths)}")
        if len(self.cells) != len(self.lengths):
            raise ValueError("lengths and cells must have one entry per axis")
        if any(m < 2 for m in self.cells):
            raise ValueError(f"need at least 2 cells per axis, got {self.cells}")
        if not all(length > 0 for length in self.lengths):
            raise ValueError(f"axis lengths must be positive, got {self.lengths}")
        # the largest Laplacian eigenvalue is -sum_i (pi (M_i - 1) / L_i)^2
        top = [math.pi * (m - 1) / length for length, m in zip(self.lengths, self.cells)]
        normal = np.finfo(np.float64).tiny
        if not (all(normal <= h < math.inf for h in self.spacing) and normal <= self.cell_volume < math.inf
                and sum(k * k for k in top) < math.inf):
            raise ValueError(
                f"axis lengths {self.lengths} over {self.cells} cells give a cell spacing, cell volume "
                "or Laplacian eigenvalue that is not a finite normal number"
            )

    @classmethod
    def line(cls, length: float, cells: int) -> "GridSpec":
        return cls((length,), (cells,))

    @classmethod
    def box(cls, length: float, cells: int, dims: int) -> "GridSpec":
        """Cube with the same extent and resolution along every axis."""
        return cls((length,) * dims, (cells,) * dims)

    @property
    def dims(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(length / m for length, m in zip(self.lengths, self.cells))

    @property
    def cell_count(self) -> int:
        return math.prod(self.cells)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def cell(self, flat_index: int) -> tuple[int, ...]:
        """Multi-index of the cell at ``flat_index`` in C order."""
        return tuple(int(i) for i in np.unravel_index(flat_index, self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


def _coerce(grid: GridSpec, values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size != grid.cell_count:
        raise ValueError(
            f"{name} has {arr.size} entries but the grid has {grid.cell_count} cells"
        )
    return np.ascontiguousarray(arr.reshape(grid.shape))


@dataclass
class Field:
    """Real scalar state sampled at the cell centers of ``grid``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _coerce(self.grid, self.values, "values")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def norm(self) -> float:
        """Discrete l2 norm (plain vector norm over cells)."""
        return float(np.linalg.norm(self.values.ravel()))

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass
class FieldStack:
    """Fields on one 1D grid stacked along a leading axis: ``values[r]`` is
    the field of row ``r``, shaped ``(R, M)``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.grid.dims != 1 or self.values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"a stack holds fields on one 1D grid, not on grid {self.grid.shape} "
                f"in rows of shape {self.values.shape[1:]}"
            )


@dataclass
class SpectralField:
    """Cosine-space coefficients indexed by ``k = (k_1, ..., k_d)``, same layout as Field."""

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = _coerce(self.grid, self.coefficients, "coefficients")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coefficients.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients.ravel()))
