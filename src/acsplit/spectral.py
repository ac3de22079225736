"""Orthonormal cosine transforms and Laplacian eigenvalues on zero-flux boxes.

The forward transform along one axis of length ``M`` is

    c_k = alpha_k * sum_l f_l * cos(pi * k * (l + 1/2) / M),
    alpha_0 = sqrt(1/M),  alpha_k = sqrt(2/M) for k >= 1,

i.e. the orthonormal DCT-II; multiple axes are transformed in turn (tensor
product).  The basis functions satisfy the discrete zero-Neumann condition,
and mode ``k`` diagonalises the Laplacian with eigenvalue
``A_k = -sum_i (pi k_i / L_i)^2``.  :func:`dct_forward` and
:func:`dct_inverse` go through the grid's :func:`acsplit.operators.cosine_basis`,
as every heat substep does, with coefficients in C order of the modes;
:func:`dctn` and :func:`idctn` compute the transform through numpy's FFT.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import operators  # read only when a transform is called: operators imports this module
from .grid import Field, GridSpec, SpectralField

__all__ = ["dct_forward", "dct_inverse", "laplacian_eigenvalues"]


def dct_forward(f: Field) -> SpectralField:
    """Forward orthonormal cosine transform; an isometry in the discrete l2 norm."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("refusing to transform non-finite field values")
    return SpectralField(f.grid, operators.cosine_basis(f.grid).coefficients(f.values))


def dct_inverse(s: SpectralField) -> Field:
    """Exact inverse of :func:`dct_forward` up to rounding."""
    if not np.all(np.isfinite(s.coefficients)):
        raise ValueError("refusing to transform non-finite coefficients")
    return Field(s.grid, operators.cosine_basis(s.grid).field(s.coefficients))


def dctn(x: np.ndarray, axes=None) -> np.ndarray:
    """The orthonormal DCT-II of ``x`` over ``axes`` (every axis if None)
    through numpy's real FFT (J. Makhoul, IEEE TASSP 28(1), 1980): with
    ``v`` the cells, even ones ascending and then odd ones descending,
    ``c_k = alpha_k Re(exp(-i pi k / 2M) fft(v)_k)`` and ``c_{M-k} =
    -alpha_k Im(...)``.  Each row of a stack has the bits it has alone."""
    for axis in range(x.ndim) if axes is None else axes:
        v = np.moveaxis(x, axis, -1)
        n = v.shape[-1]
        spectrum = np.fft.rfft(np.concatenate((v[..., ::2], v[..., 1::2][..., ::-1]), axis=-1))
        cos, sin, _, _ = _twiddles(n)
        out = np.empty(v.shape)
        out[..., : n // 2 + 1] = cos * spectrum.real + sin * spectrum.imag
        out[..., : n // 2 : -1] = (sin * spectrum.real - cos * spectrum.imag)[..., 1 : (n + 1) // 2]
        x = np.moveaxis(out, -1, axis)
    return x


def idctn(x: np.ndarray, axes=None) -> np.ndarray:
    """The inverse of :func:`dctn`, the orthonormal DCT-III, computed the same
    way: ``fft(v)_k = exp(i pi k / 2M) (c_k - i c_{M-k}) / alpha_k``, ``c_M = 0``."""
    for axis in range(x.ndim) if axes is None else axes:
        c = np.moveaxis(x, axis, -1)
        n, m = c.shape[-1], (c.shape[-1] + 1) // 2
        _, _, cos, sin = _twiddles(n)
        low = c[..., : n // 2 + 1]
        high = np.zeros(low.shape)
        high[..., 1:] = c[..., : m - 1 : -1]  # c_{M-k}, k = 1 .. M/2
        spectrum = np.empty(low.shape, dtype=complex)
        spectrum.real = cos * low + sin * high
        spectrum.imag = sin * low - cos * high
        v = np.fft.irfft(spectrum, n)
        out = np.empty(c.shape)
        out[..., ::2] = v[..., :m]
        out[..., 1::2] = v[..., : m - 1 : -1]
        x = np.moveaxis(out, -1, axis)
    return x


@lru_cache(maxsize=8)
def _twiddles(n: int) -> tuple[np.ndarray, ...]:
    """Read-only ``alpha_k cos t_k``, ``alpha_k sin t_k``, ``cos t_k / alpha_k``
    and ``sin t_k / alpha_k``, ``t_k = pi k / 2n``, for the modes ``k <= n/2``."""
    angle = np.pi * np.arange(n // 2 + 1) / (2 * n)
    alpha = np.full(len(angle), math.sqrt(2.0 / n))
    alpha[0] = math.sqrt(1.0 / n)
    twiddles = np.cos(angle) * alpha, np.sin(angle) * alpha, np.cos(angle) / alpha, np.sin(angle) / alpha
    for twiddle in twiddles:
        twiddle.setflags(write=False)
    return twiddles


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
