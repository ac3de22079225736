"""Hot pointwise kernels, in numpy, and the per-thread scratch array ``work``.

Every kernel takes one field as a flat float64 array, or a stack of fields
as a C-contiguous ``(R, M)`` array with one field per row.  A flat call is
the one-row case of the stacked one and gets a scalar back where a stack
gets one value per row; only a certified flat reaction call, which skips
the checks, has no stacked form.  Per-run parameters are scalars, or ``(R, 1)``
columns for a stack.  The reaction's radicand, like the operators'
intermediate products, uses the per-thread scratch array of :func:`work`.
``BACKEND`` names the implementation and is written into every CSV header.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "BACKEND",
    "RADICAND_FLOOR",
    "free_energy_apply",
    "guard_scan",
    "heat_multiplier_apply",
    "work",
]

BACKEND = "numpy"
RADICAND_FLOOR = 1e-14
_F64_MAX = np.finfo(np.float64).max
_scratch = threading.local()


def work(shape) -> np.ndarray:
    """This thread's scratch float64 array, viewed as ``shape``.

    One flat buffer per thread, viewed by element count: a ``(1, M)`` row,
    an ``(n, n, n)`` grid of ``M`` cells and a stack of fewer rows all use
    its first elements, and it is replaced only by a larger one.  Its
    contents are undefined on every call, and a caller must be done with it
    before calling anything else that uses it.
    """
    size = math.prod(shape)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = _scratch.buf = np.empty(size)
    return buf[:size].reshape(shape)


def free_energy_apply(phi: np.ndarray, out: np.ndarray, decay, certified: bool = False) -> int | np.ndarray:
    """Apply ``phi -> phi / sqrt(phi^2 + (1 - phi^2) * decay)`` elementwise.

    ``decay`` is ``exp(-2*tau/eps^2)`` for a substep of signed length ``tau``:
    a scalar, or an ``(R, 1)`` column for a stack.  For ``decay > 1``
    (backward step) the radicand can cross zero, which is the pointwise
    blow-up: that row gets the index of its first cell whose radicand is
    <= RADICAND_FLOOR or NaN (a NaN cell, or a phi whose square overflows),
    and its row of ``out`` is unspecified.  A row that took the map
    everywhere gets -1.  A flat call returns an int, a stack an int array
    with one entry per row.  Forward steps cannot blow up: the radicand
    underflows to zero only when both decay and phi^2 do, where the flow
    saturates at the fixed point sign(phi) (0 stays 0).  A finite phi whose
    square overflows takes the forward flow's limit sign(phi) / sqrt(1 - decay),
    or stays phi at decay 1, the identity.  ``out`` may alias ``phi``.

    A flat call is ``certified`` when its caller has proved that every
    radicand exceeds RADICAND_FLOOR; it then makes none of the checks and
    returns -1, with the bits of the checked call (:func:`_certified_map`).
    """
    if phi.ndim == 2:
        return _stacked_free_energy(phi, out, decay)
    if certified:
        _certified_map(phi, out, decay)
        return -1
    return int(_stacked_free_energy(phi[np.newaxis], out[np.newaxis], decay)[0])


def _stacked_free_energy(phi: np.ndarray, out: np.ndarray, decay) -> np.ndarray:
    """The checked :func:`free_energy_apply` of an ``(R, M)`` stack."""
    decay = np.minimum(decay, _F64_MAX)  # exp overflow upstream; any huge value acts the same
    # out doubles as the second scratch array unless it aliases phi, which
    # the division at the end still reads
    tmp = np.empty(phi.shape) if np.may_share_memory(phi, out) else out
    rad = _radicand(phi, decay, work(phi.shape), tmp)
    least = rad.min()
    bad = np.full(len(phi), -1)
    if least > RADICAND_FLOOR:
        # every radicand is a normal number, so a row with decay 0 gets
        # phi / sqrt(phi^2) = sign(phi) exactly
        _divide_by_root(phi, rad, out)
        return bad
    # the rare path: a blow-up, a zero radicand, decay 0 or NaN in some row
    low = ~(rad > RADICAND_FLOOR)  # NaN counts as at or below the floor
    blown = np.flatnonzero((decay > 1.0) & low.any(axis=1, keepdims=True))
    if blown.size:
        bad[blown] = np.argmax(low[blown], axis=1)
        # no square root of a negative radicand: these rows of out are unspecified
        rad[blown] = 1.0
    np.sqrt(rad, out=rad)
    # a zero radicand (or NaN input): those cells take their fixed point sign(phi)
    nonzero = rad > 0.0
    np.divide(phi, rad, out=out, where=nonzero)
    out[~nonzero] = np.sign(phi[~nonzero])
    # a finite phi whose square overflows makes the radicand inf - inf
    over = np.isnan(rad)
    if over.any():
        over &= np.isfinite(phi) & (decay <= 1.0)
        d = np.broadcast_to(decay, phi.shape)[over]
        with np.errstate(divide="ignore"):
            out[over] = np.where(d < 1.0, np.sign(phi[over]) / np.sqrt(1.0 - d), phi[over])
    # decay underflow means an effectively infinite forward step: those rows
    # saturate at their fixed point, which out already has the sign of.
    # phi / sqrt(phi^2) would lose mantissa bits once phi^2 is subnormal.
    frozen = np.flatnonzero(np.broadcast_to(decay == 0.0, (len(phi), 1)))
    out[frozen] = np.sign(out[frozen])
    return bad


def _radicand(phi: np.ndarray, decay, rad: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``rad <- phi^2 + (1 - phi^2) * decay`` in the reference expression
    order, with ``tmp`` as scratch; returns ``rad``."""
    # phi^2 may overflow to inf, and |phi| >> 1 against a huge decay is a
    # blow-up; phi^2 = inf makes a NaN radicand, which the rare path resolves
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(phi, out=rad)
        np.subtract(1.0, rad, out=tmp)
        tmp *= decay
        rad += tmp
    return rad


def _divide_by_root(phi: np.ndarray, rad: np.ndarray, out: np.ndarray) -> None:
    """``out <- phi / sqrt(rad)``, taking the root in ``rad``."""
    np.sqrt(rad, out=rad)
    np.divide(phi, rad, out=out)


# cells per block of a certified map: its two scratch rows and the blocks of
# phi and out take 1 MB, so the six sweeps over a block stay in L2
CERTIFIED_BLOCK = 1 << 15


def _certified_map(phi: np.ndarray, out: np.ndarray, decay) -> None:
    """The map of :func:`free_energy_apply` on a flat field whose every
    radicand exceeds RADICAND_FLOOR, one :data:`CERTIFIED_BLOCK` at a time:
    the sweeps of its fast path, with no ``rad.min()`` pass and no rare
    path, so the same bits."""
    decay = np.minimum(decay, _F64_MAX)
    rad, tmp = work((2, min(phi.size, CERTIFIED_BLOCK)))
    for start in range(0, phi.size, CERTIFIED_BLOCK):
        block = phi[start : start + CERTIFIED_BLOCK]
        n = block.size
        _divide_by_root(block, _radicand(block, decay, rad[:n], tmp[:n]), out[start : start + n])


def heat_multiplier_apply(out: np.ndarray, eig: np.ndarray, tau, k_tol) -> None:
    """``out <- min(exp(eig * tau), k_tol)`` elementwise, the clamped heat multiplier.

    ``eig`` is one row of eigenvalues; for a stack, ``tau`` and ``k_tol``
    may be ``(R, 1)`` columns.  The multiplier is capped at the largest
    finite double even for ``k_tol = inf``, so that zero coefficients
    multiplied by it stay exactly zero instead of turning into inf * 0.
    """
    with np.errstate(over="ignore"):
        np.multiply(eig, tau, out=out)
        np.exp(out, out=out)
        np.minimum(out, np.minimum(k_tol, _F64_MAX), out=out)


def guard_scan(values: np.ndarray) -> float | np.ndarray:
    """Max of ``|values|`` per row; NaN poisons the result, inf propagates as inf."""
    peak = np.maximum(values.max(axis=-1), -values.min(axis=-1))
    return float(peak) if values.ndim == 1 else peak
