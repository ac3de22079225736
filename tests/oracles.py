"""Independent oracles and derived reference values shared by the test suite.

Everything here deliberately avoids the code paths it is used to check:
the cosine transform is summed directly, the reaction flow is integrated
with an adaptive ODE solver, and diffusion is advanced by an explicit
finite-difference march.  The kernel oracles at the end are the plain,
temporary-per-operation numpy formulas that the numpy kernels must match
bit for bit, flat and row by row for a stack.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from acsplit._kernels import RADICAND_FLOOR

# ---------------------------------------------------------------------------
# Derived reference values, frozen from the oracles below (not from the
# implementation under test).  Regenerate with the matching function if the
# number of digits ever becomes a question.

# reaction_ode(0.5, eps^2, eps): adaptive DOP853 at rtol=1e-12
REACTION_HALF_AFTER_EPS2 = 0.8433472560147179

# 0.5 * (1 - tanh(1)): profile value one interface width right of the front
WAVE_VALUE_AT_ONE_WIDTH = 0.11920292202211757

# (1/L) * integral of the t=0 profile over [0, 4], eps = 0.03*sqrt(2)
# (adaptive quadrature, abs err < 1e-13)
WAVE_MEAN_T0_L4 = 0.12500360510888459

# Bisection roots of the coefficient coincidences (tested against the
# implementation's own root-finder; printed tables carry only 5 digits)
OMEGA_X_REF = 0.2832191924598445
OMEGA_Y_REF = 0.2683300957817628
OMEGA_Z_REF = 0.7886751345948129  # closed form (3 + sqrt(3)) / 6

# 5-digit reference rows (a1, b1, a2, b2, a3, b3) for the distinguished points
TABLE_ROWS = {
    "S3X": (0.78868, -0.07189, -0.44191, 0.78868, 0.65324, 0.28322),
    "S3Y": (0.26833, 0.91966, -0.18799, -0.18799, 0.91966, 0.26833),
    "S3Z": (0.28322, 0.65324, 0.78868, -0.44191, -0.07189, 0.78868),
}


def brute_dct1d(values: np.ndarray) -> np.ndarray:
    """Direct evaluation of the orthonormal cosine sum (O(M^2))."""
    m = len(values)
    k = np.arange(m)[:, None]
    ll = np.arange(m)[None, :]
    alpha = np.where(k == 0, np.sqrt(1.0 / m), np.sqrt(2.0 / m))
    return (alpha * np.cos(np.pi * k * (ll + 0.5) / m) * values[None, :]).sum(axis=1)


def reaction_ode(phi0: float, tau: float, epsilon: float) -> float:
    """Adaptive integration of dphi/dt = (phi - phi^3) / eps^2 over [0, tau]."""
    eps2 = epsilon * epsilon
    sol = solve_ivp(
        lambda _t, y: (y - y**3) / eps2,
        (0.0, tau),
        [phi0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    return float(sol.y[0, -1])


def fd_heat_1d(values: np.ndarray, tau: float, length: float, substeps: int = 10_000) -> np.ndarray:
    """Explicit finite-difference march of du/dt = u_xx with zero-flux ghosts."""
    u = values.astype(np.float64).copy()
    m = len(u)
    h = length / m
    dt = tau / substeps
    if dt > 0.45 * h * h:
        raise ValueError("finite-difference oracle would be unstable; raise substeps")
    for _ in range(substeps):
        padded = np.concatenate(([u[0]], u, [u[-1]]))
        u = u + dt / (h * h) * (padded[2:] - 2.0 * u + padded[:-2])
    return u


def fd_energy(values: np.ndarray, spacing: tuple[float, ...], epsilon: float) -> float:
    """Bulk term plus central-difference gradient energy with reflecting ghosts."""
    eps2 = epsilon * epsilon
    cell_volume = float(np.prod(spacing))
    bulk = float(np.sum(0.25 * (values**2 - 1.0) ** 2)) / eps2
    grad = 0.0
    for axis, h in enumerate(spacing):
        padded = np.concatenate(
            (
                np.take(values, [0], axis=axis),
                values,
                np.take(values, [-1], axis=axis),
            ),
            axis=axis,
        )
        upper = np.take(padded, range(2, values.shape[axis] + 2), axis=axis)
        lower = np.take(padded, range(0, values.shape[axis]), axis=axis)
        grad += float(np.sum(((upper - lower) / (2.0 * h)) ** 2))
    return cell_volume * (bulk + 0.5 * grad)


# ---------------------------------------------------------------------------
# Plain numpy formulas of the pointwise kernels: one temporary per operation,
# masks always built.  The numpy backend must reproduce them bit for bit.

_F64_MAX = np.finfo(np.float64).max


def free_energy_plain(phi: np.ndarray, out: np.ndarray, decay: float) -> int:
    """``phi / sqrt(phi^2 + (1 - phi^2) * decay)``; the first cell whose
    radicand is <= RADICAND_FLOOR or NaN on a backward step, else -1."""
    if decay > _F64_MAX:
        decay = _F64_MAX
    if decay == 0.0:
        np.sign(phi, out=out)
        return -1
    phi2 = phi * phi
    with np.errstate(over="ignore"):
        rad = phi2 + (1.0 - phi2) * decay
    if decay > 1.0 and not np.all(rad > RADICAND_FLOOR):
        return int(np.argmax(~(rad > RADICAND_FLOOR)))
    np.sqrt(rad, out=rad)
    nonzero = rad > 0.0
    np.divide(phi, rad, out=out, where=nonzero)
    out[~nonzero] = np.sign(phi[~nonzero])
    return -1


def guard_scan_plain(values: np.ndarray) -> float:
    """Max of ``|values|`` through an explicit ``abs`` array."""
    return float(np.max(np.abs(values)))


def heat_multiplier_plain(coeffs: np.ndarray, eig: np.ndarray, tau: float, k_tol: float) -> np.ndarray:
    """``coeffs * min(exp(eig * tau), k_tol)`` with the cap at the largest finite double."""
    with np.errstate(over="ignore"):
        return coeffs * np.minimum(np.exp(eig * tau), min(k_tol, _F64_MAX))


# Per-row oracles for the stacked kernels: the flat formulas above, one row
# at a time with that row's scalar parameters.


def free_energy_rows_plain(phi: np.ndarray, out: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """:func:`free_energy_plain` on each row of ``phi`` with its entry of the ``(R, 1)`` column ``decay``."""
    return np.array([free_energy_plain(row, out[r], float(decay[r, 0])) for r, row in enumerate(phi)])


def heat_multiplier_rows_plain(
    coeffs: np.ndarray, eig: np.ndarray, tau: np.ndarray, k_tol: np.ndarray
) -> np.ndarray:
    """:func:`heat_multiplier_plain` on each row with its own ``tau`` and ``k_tol``."""
    return np.array(
        [heat_multiplier_plain(row, eig, float(tau[r, 0]), float(k_tol[r, 0])) for r, row in enumerate(coeffs)]
    )


def guard_scan_rows_plain(values: np.ndarray) -> np.ndarray:
    """:func:`guard_scan_plain` of each row."""
    return np.array([guard_scan_plain(row) for row in values])
