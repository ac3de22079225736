"""Compose the two sub-flows per a splitting schedule and march in time."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .coeffs import SplitCoefficients
from .grid import Field
from .operators import (
    CutoffPolicy,
    DivergenceError,
    ModelParams,
    energy,
    free_energy_evolve,
    heat_evolve,
)

__all__ = [
    "RunConfig",
    "Trajectory",
    "ZeroReferenceError",
    "relative_l2_error",
    "run",
    "step",
]


@dataclass(frozen=True)
class RunConfig:
    """One experiment: scheme, step size, horizon, model and safeguards."""

    scheme: SplitCoefficients
    dt: float
    t_final: float
    model: ModelParams
    cutoff: CutoffPolicy = CutoffPolicy()
    snapshot_times: tuple[float, ...] = ()
    phi_max: float = 10.0  # guard threshold; huge finite values precede NaN
    record_energy: bool = True

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and at least one step, got {self.t_final}")
        slack = 1e-12 * self.t_final  # the tolerance run() allows on the horizon
        for t in self.snapshot_times:
            if not -slack <= t <= self.t_final + slack:
                raise ValueError(f"snapshot time {t} lies outside [0, t_final={self.t_final}]")
        if not self.phi_max > 1:
            raise ValueError("phi_max must exceed 1")


@dataclass
class Trajectory:
    """Outcome of :func:`run`: final state, per-step diagnostics, termination status."""

    final: Field
    times: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray
    energies: np.ndarray
    status: str  # "completed" | "diverged"
    diverged_step: int | None = None
    diverged_cell: tuple[int, ...] | None = None
    shortened_final_step: bool = False
    snapshots: dict[float, Field] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def _guarded(values: np.ndarray, phi_max: float, grid) -> None:
    m = _kernels.guard_scan(values.ravel())
    if not m <= phi_max:  # also trips on NaN
        raise DivergenceError(
            f"guard tripped, max|phi| = {m:g} > {phi_max:g}",
            int(np.argmax(~(np.abs(values.ravel()) <= phi_max))),
            grid,
        )


def step(
    f: Field,
    scheme: SplitCoefficients,
    dt: float,
    model: ModelParams,
    cutoff: CutoffPolicy = CutoffPolicy(),
    phi_max: float | None = None,
) -> Field:
    """One full step: for j = 1..p apply diffusion over ``a_j dt`` then reaction over ``b_j dt``.

    Exact-zero fractions are skipped, so padding substeps are never evaluated.
    Raises :class:`DivergenceError` from the reaction blow-up or when
    ``phi_max`` is given and ``max|phi|`` exceeds it after any substep.
    """
    for a_j, b_j in scheme.substeps():
        if a_j * dt != 0.0:
            f = heat_evolve(f, a_j * dt, cutoff)
            if phi_max is not None:
                _guarded(f.values, phi_max, f.grid)
        if b_j * dt != 0.0:
            f = free_energy_evolve(f, b_j * dt, model)
            if phi_max is not None:
                _guarded(f.values, phi_max, f.grid)
    return f


def run(f0: Field, cfg: RunConfig) -> Trajectory:
    """March from t = 0 to ``t_final``; divergence is recorded, never raised.

    The horizon is split into ``round(t_final/dt)`` full steps when that is
    exact to relative 1e-12, otherwise ``floor`` full steps plus one
    shortened final step (flagged on the trajectory).  Snapshots are taken at
    the completed step nearest each requested time.
    """
    ratio = cfg.t_final / cfg.dt
    n_full = int(round(ratio))
    shortened = not abs(n_full * cfg.dt - cfg.t_final) <= 1e-12 * cfg.t_final
    if shortened:
        n_full = int(np.floor(ratio))
    n_total = n_full + (1 if shortened else 0)

    step_times = np.concatenate(([0.0], np.arange(1, n_full + 1) * cfg.dt, [cfg.t_final] if shortened else []))
    snap_steps = {
        int(np.argmin(np.abs(step_times - t_req))): t_req for t_req in cfg.snapshot_times
    }

    times = [0.0]
    lo = [float(f0.values.min())]
    hi = [float(f0.values.max())]
    en = [energy(f0, cfg.model) if cfg.record_energy else np.nan]
    snapshots: dict[float, Field] = {}
    if 0 in snap_steps:
        snapshots[snap_steps[0]] = f0.copy()

    f = f0
    status = "completed"
    diverged_step = None
    diverged_cell = None
    for i in range(1, n_total + 1):
        dt_i = cfg.dt if i <= n_full else cfg.t_final - n_full * cfg.dt
        try:
            f = step(f, cfg.scheme, dt_i, cfg.model, cfg.cutoff, cfg.phi_max)
        except DivergenceError as err:
            status = "diverged"
            diverged_step = i
            diverged_cell = err.cell
            break
        times.append(float(step_times[i]))
        lo.append(float(f.values.min()))
        hi.append(float(f.values.max()))
        en.append(energy(f, cfg.model) if cfg.record_energy else np.nan)
        if i in snap_steps:
            snapshots[snap_steps[i]] = f.copy()

    return Trajectory(
        final=f,
        times=np.asarray(times),
        phi_min=np.asarray(lo),
        phi_max=np.asarray(hi),
        energies=np.asarray(en),
        status=status,
        diverged_step=diverged_step,
        diverged_cell=diverged_cell,
        shortened_final_step=shortened,
        snapshots=snapshots,
    )


class ZeroReferenceError(ZeroDivisionError):
    """The reference field has zero norm; a relative error is undefined."""


def relative_l2_error(f: Field, g: Field) -> float:
    """``||f - g||_2 / ||g||_2`` on the shared grid; ``g`` is the reference."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    ref = np.linalg.norm(g.values.ravel())
    if ref == 0.0:
        raise ZeroReferenceError("reference field has zero norm")
    return float(np.linalg.norm((f.values - g.values).ravel()) / ref)
