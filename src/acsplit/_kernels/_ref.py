"""Numpy reference implementations of the hot pointwise kernels.

The compiled extension in ``_core.pyx`` implements the same three functions
with fused single-pass loops; this module is the fallback and the semantic
reference.  All kernels operate on flat float64 arrays.
"""

from __future__ import annotations

import numpy as np

RADICAND_FLOOR = 1e-14
_F64_MAX = np.finfo(np.float64).max


def free_energy_apply(phi: np.ndarray, out: np.ndarray, decay: float) -> int:
    """Apply ``phi -> phi / sqrt(phi^2 + (1 - phi^2) * decay)`` elementwise.

    ``decay`` is ``exp(-2*tau/eps^2)`` for a substep of signed length ``tau``.
    For ``decay > 1`` (backward step) the radicand can cross zero, which is
    the pointwise blow-up; the flat index of the first cell whose radicand is
    <= RADICAND_FLOOR is returned and ``out`` is unspecified.  Returns -1 when
    the map was applied everywhere.  Forward steps cannot blow up: the
    radicand underflows to zero only when both decay and phi^2 do, where the
    flow saturates at the fixed point sign(phi) (0 stays 0).  ``out`` may
    alias ``phi``.
    """
    if decay > _F64_MAX:  # exp overflow upstream; any huge value acts the same
        decay = _F64_MAX
    if decay == 0.0:
        # decay underflow means an effectively infinite forward step: every
        # cell saturates at its fixed point.  Evaluating phi/sqrt(phi^2)
        # instead would lose mantissa bits once phi^2 is subnormal.
        np.sign(phi, out=out)
        return -1
    # rad <- phi^2 + (1 - phi^2) * decay in the reference expression order;
    # out doubles as the scratch array unless it aliases phi, which the
    # division at the end still reads
    rad = phi * phi
    tmp = np.empty_like(rad) if np.may_share_memory(phi, out) else out
    np.subtract(1.0, rad, out=tmp)
    with np.errstate(over="ignore"):  # |phi| >> 1 against a huge decay is a blow-up
        tmp *= decay
        rad += tmp
    lowest = rad.min()
    if decay > 1.0 and lowest <= RADICAND_FLOOR:
        return int(np.argmax(rad <= RADICAND_FLOOR))
    np.sqrt(rad, out=rad)
    if lowest > 0.0:
        np.divide(phi, rad, out=out)
        return -1
    # a zero radicand (or NaN input): those cells take their fixed point sign(phi)
    nonzero = rad > 0.0
    np.divide(phi, rad, out=out, where=nonzero)
    out[~nonzero] = np.sign(phi[~nonzero])
    return -1


def heat_multiplier_apply(
    coeffs: np.ndarray, eig: np.ndarray, tau: float, k_tol: float, out: np.ndarray
) -> None:
    """``out <- coeffs * min(exp(eig * tau), k_tol)`` elementwise.

    ``out`` may alias ``coeffs``.  The multiplier is capped at the largest
    finite double even for ``k_tol = inf`` so that zero coefficients stay
    exactly zero instead of turning into inf * 0.
    """
    cap = min(k_tol, _F64_MAX)
    with np.errstate(over="ignore"):
        mult = np.exp(eig * tau)
        np.minimum(mult, cap, out=mult)
        # an unbounded clamp may overflow the product to inf; the solver guard
        # is responsible for catching that
        np.multiply(coeffs, mult, out=out)


def guard_scan(values: np.ndarray) -> float:
    """Max of ``|values|``; NaN poisons the result, inf propagates as inf."""
    return float(max(values.max(), -values.min()))
