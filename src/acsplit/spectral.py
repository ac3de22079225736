"""Orthonormal cosine transforms and Laplacian eigenvalues on zero-flux boxes.

The forward transform along one axis of length ``M`` is

    c_k = alpha_k * sum_l f_l * cos(pi * k * (l + 1/2) / M),
    alpha_0 = sqrt(1/M),  alpha_k = sqrt(2/M) for k >= 1,

i.e. the orthonormal DCT-II; multiple axes are transformed in turn (tensor
product).  The basis functions satisfy the discrete zero-Neumann condition,
and mode ``k`` diagonalises the Laplacian with eigenvalue
``A_k = -sum_i (pi k_i / L_i)^2``.  Both transforms are those of
:mod:`acsplit.operators`, ``operators.dctn`` and ``operators.idctn``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import operators  # read only when a transform is called: operators imports this module
from .grid import Field, GridSpec, SpectralField

__all__ = ["dct_forward", "dct_inverse", "laplacian_eigenvalues"]


def dct_forward(f: Field) -> SpectralField:
    """Forward orthonormal cosine transform; an isometry in the discrete l2 norm."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("refusing to transform non-finite field values")
    return SpectralField(f.grid, operators.dctn(f.values, type=2, norm="ortho"))


def dct_inverse(s: SpectralField) -> Field:
    """Exact inverse of :func:`dct_forward` up to rounding."""
    return Field(s.grid, operators.idctn(s.coefficients, type=2, norm="ortho"))


def axis_eigenvalues(length: float, cells: int) -> np.ndarray:
    """``-(pi k / length)^2`` for ``k = 0 .. cells - 1``: the eigenvalues along one axis."""
    k = np.arange(cells, dtype=np.float64)
    return -((np.pi * k / length) ** 2)


@lru_cache(maxsize=32)
def eigenvalue_table(grid: GridSpec) -> np.ndarray:
    """Cached, read-only array of Laplacian eigenvalues for ``grid``."""
    table = np.zeros(grid.shape)
    for axis in range(grid.dims):
        along = axis_eigenvalues(grid.lengths[axis], grid.cells[axis])
        shape = [1] * grid.dims
        shape[axis] = grid.cells[axis]
        table += along.reshape(shape)
    table.setflags(write=False)
    return table


def laplacian_eigenvalues(grid: GridSpec) -> SpectralField:
    """Eigenvalue at multi-index k is ``-sum_i (pi k_i / L_i)^2``; all entries <= 0."""
    return SpectralField(grid, eigenvalue_table(grid).copy())
