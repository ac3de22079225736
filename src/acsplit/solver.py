"""Compose the two sub-flows per a splitting schedule and march in time."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .coeffs import SplitCoefficients
from .grid import Field, FieldStack
from .operators import (
    CutoffPolicy,
    DivergenceError,
    ModelParams,
    decay_factor,
    energy,
    free_energy_evolve,
    heat_evolve,
)

__all__ = [
    "MAX_STEPS",
    "RunConfig",
    "StepPlan",
    "Trajectory",
    "ZeroReferenceError",
    "applied_substeps",
    "relative_l2_error",
    "run",
    "run_ensemble",
    "step",
]

MAX_STEPS = 10_000_000  # steps per run; a longer run is refused before it starts

HEAT, REACTION = "heat", "reaction"  # the kinds of substep


@dataclass(frozen=True)
class StepPlan:
    """The steps that cover ``[0, t_final]``: ``n_full`` steps of ``dt``,
    then one shortened step that ends at ``t_final`` if ``shortened``.

    The horizon takes ``round(t_final/dt)`` full steps when that is exact to
    relative 1e-12, otherwise ``floor`` full steps plus the shortened one.
    No array of step times is built, so a step count above
    :data:`MAX_STEPS` is refused before anything is allocated.
    """

    dt: float
    t_final: float
    n_full: int
    shortened: bool

    @classmethod
    def of(cls, dt: float, t_final: float) -> "StepPlan":
        ratio = t_final / dt
        too_many = ValueError(
            f"t_final/dt = {ratio:.6g} asks for more than MAX_STEPS = {MAX_STEPS:,} steps"
        )
        if not ratio <= MAX_STEPS + 1:  # also an overflowed ratio
            raise too_many
        n_full = int(round(ratio))
        shortened = not abs(n_full * dt - t_final) <= 1e-12 * t_final
        if shortened:
            n_full = int(np.floor(ratio))
        plan = cls(dt, t_final, n_full, shortened)
        if plan.n_steps > MAX_STEPS:
            raise too_many
        return plan

    @property
    def n_steps(self) -> int:
        return self.n_full + int(self.shortened)

    def step_length(self, i: int) -> float:
        """Length of step ``i`` (1-based)."""
        return self.dt if i <= self.n_full else self.t_final - self.n_full * self.dt

    def time(self, i: int) -> float:
        """Time at the end of step ``i``; step 0 is the start."""
        return float(i * self.dt) if i <= self.n_full else self.t_final

    def nearest_step(self, t: float) -> int:
        """The step whose end time is nearest ``t``, the earlier one on a tie."""
        i = min(max(int(t / self.dt), 0), self.n_steps)
        while i > 0 and self.time(i - 1) >= t:
            i -= 1
        while i < self.n_steps and self.time(i) < t:
            i += 1
        # step times increase, so the nearest is i (the first at or after t) or i - 1
        if i > 0 and abs(self.time(i - 1) - t) <= abs(self.time(i) - t):
            return i - 1
        return i


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
        StepPlan.of(self.dt, self.t_final)  # refuses a step count above MAX_STEPS
        slack = 1e-12 * self.t_final  # the tolerance run() allows on the horizon
        for t in self.snapshot_times:
            if not -slack <= t <= self.t_final + slack:
                raise ValueError(f"snapshot time {t} lies outside [0, t_final={self.t_final}]")
        if not self.phi_max > 1:
            raise ValueError("phi_max must exceed 1")

    @property
    def plan(self) -> StepPlan:
        return StepPlan.of(self.dt, self.t_final)


@dataclass
class Trajectory:
    """Outcome of :func:`run` or :func:`run_ensemble`: final state, per-step
    diagnostics, termination status."""

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


def _first_beyond(rows: np.ndarray, phi_max: float) -> np.ndarray:
    """Per row of ``rows``, the index of the first cell with ``|phi| > phi_max`` or NaN."""
    return np.argmax(~(np.abs(rows) <= phi_max), axis=1)


def _guarded(values: np.ndarray, phi_max: float, grid) -> None:
    m = _kernels.guard_scan(values.ravel())
    if not m <= phi_max:  # also trips on NaN
        raise DivergenceError(
            f"guard tripped, max|phi| = {m:g} > {phi_max:g}",
            int(_first_beyond(values.reshape(1, -1), phi_max)[0]),
            grid,
        )


def applied_substeps(scheme: SplitCoefficients, h: float) -> list[tuple[str, float]]:
    """The substeps of one step of length ``h`` in the order they are applied:
    ``("heat", a_j*h)`` then ``("reaction", b_j*h)`` for j = 1..p.

    An exactly-zero ``a_j*h`` or ``b_j*h`` is left out, so padding substeps
    are never evaluated.
    """
    out = []
    for a_j, b_j in scheme.substeps():
        if a_j * h != 0.0:
            out.append((HEAT, a_j * h))
        if b_j * h != 0.0:
            out.append((REACTION, b_j * h))
    return out


def step(
    f: Field,
    scheme: SplitCoefficients,
    dt: float,
    model: ModelParams,
    cutoff: CutoffPolicy = CutoffPolicy(),
    phi_max: float | None = None,
) -> Field:
    """One full step: the :func:`applied_substeps` of ``scheme`` over ``dt``.

    Raises :class:`DivergenceError` from the reaction blow-up or when
    ``phi_max`` is given and ``max|phi|`` exceeds it after any substep.
    """
    for kind, tau in applied_substeps(scheme, dt):
        if kind == HEAT:
            f = heat_evolve(f, tau, cutoff)
        else:
            f = free_energy_evolve(f, tau, model)
        if phi_max is not None:
            _guarded(f.values, phi_max, f.grid)
    return f


def run(f0: Field, cfg: RunConfig) -> Trajectory:
    """March from t = 0 to ``t_final`` along ``cfg.plan``; divergence is
    recorded, never raised.

    Snapshots are taken at the completed step nearest each requested time.
    A non-finite initial field raises ``ValueError``.
    """
    f0.check_finite()
    plan = cfg.plan
    snap_steps = {plan.nearest_step(t_req): t_req for t_req in cfg.snapshot_times}

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
    for i in range(1, plan.n_steps + 1):
        try:
            f = step(f, cfg.scheme, plan.step_length(i), cfg.model, cfg.cutoff, cfg.phi_max)
        except DivergenceError as err:
            status = "diverged"
            diverged_step = i
            diverged_cell = err.cell
            break
        times.append(plan.time(i))
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
        shortened_final_step=plan.shortened,
        snapshots=snapshots,
    )


def run_ensemble(f0: Field, configs: Sequence[RunConfig]) -> list[Trajectory]:
    """Run every config from ``f0`` at once, each run one row of a stack;
    each trajectory is the one :func:`run` gives for its config.

    The configs may differ in scheme and clamp only: they share ``dt``,
    ``t_final``, the model and ``phi_max``, and record no energy and no
    snapshots.  Runs under one clamp whose steps apply the same kinds of
    substep (:func:`applied_substeps`) advance together as one stack: per
    substep, one :func:`heat_evolve` or one reaction kernel call, then one
    guard scan.  A run leaves its stack when it diverges.
    """
    if not configs:
        return []
    f0.check_finite()
    shared = {(cfg.dt, cfg.t_final, cfg.model, cfg.phi_max) for cfg in configs}
    if len(shared) > 1 or any(cfg.record_energy or cfg.snapshot_times for cfg in configs):
        raise ValueError("ensemble runs share dt, t_final, model and phi_max, and record no energy or snapshots")
    plan = configs[0].plan
    lengths = sorted({plan.step_length(1), plan.step_length(plan.n_steps)})
    groups: dict[tuple, list[int]] = {}
    taus = []  # per run and step length: the taus of its applied substeps
    for r, cfg in enumerate(configs):
        applied = [applied_substeps(cfg.scheme, h) for h in lengths]
        taus.append([[tau for _, tau in substeps] for substeps in applied])
        kinds = tuple(tuple(kind for kind, _ in substeps) for substeps in applied)
        groups.setdefault((cfg.cutoff, kinds), []).append(r)
    trajectories: list[Trajectory] = [None] * len(configs)  # type: ignore[list-item]
    for (_, kinds), rows in groups.items():
        substeps = {}
        for k, h in enumerate(lengths):
            substeps[h] = kinds[k], np.array([taus[r][k] for r in rows]).reshape(len(rows), len(kinds[k]))
        for r, traj in zip(rows, _run_stack(f0, configs[rows[0]], substeps)):
            trajectories[r] = traj
    return trajectories


def _run_stack(
    f0: Field, cfg: RunConfig, substeps: dict[float, tuple[tuple[str, ...], np.ndarray]]
) -> list[Trajectory]:
    """Advance runs under one clamp whose steps apply the same kinds of
    substep as rows of one stack.  ``cfg`` is one of the runs, and
    ``substeps`` maps each step length to those kinds and an ``(R, kinds)``
    array of the runs' taus."""
    grid, model, cutoff, phi_max, plan = f0.grid, cfg.model, cfg.cutoff, cfg.phi_max, cfg.plan
    n = len(substeps[plan.dt][1])
    # the per-step diagnostics run() records; energy is not recorded
    lo, hi = np.empty((n, plan.n_steps + 1)), np.empty((n, plan.n_steps + 1))
    lo[:, 0], hi[:, 0] = f0.values.min(), f0.values.max()
    finals: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    failures: dict[int, tuple[int, tuple[int, ...]]] = {}  # row -> (step, cell)
    ids = np.arange(n)  # the row of each stack row
    stack = np.repeat(f0.values[np.newaxis], n, axis=0)
    for i in range(1, plan.n_steps + 1):
        kinds, taus = substeps[plan.step_length(i)]
        taus = taus[ids]
        start, start_rows = stack, np.arange(len(ids))
        for j, kind in enumerate(kinds):
            tau = taus[:, j : j + 1]
            if kind == HEAT:
                stack = heat_evolve(FieldStack(grid, stack), tau, cutoff).values
                cells = np.full(len(ids), -1)
            else:
                out = np.empty(stack.shape)
                cells = _kernels.free_energy_apply(
                    _flat_rows(stack), _flat_rows(out), decay_factor(tau, model)
                )
                stack = out
            # a blown-up row has failed already; the guard also trips on NaN
            tripped = ~(_kernels.guard_scan(_flat_rows(stack)) <= phi_max) & (cells < 0)
            if tripped.any():
                cells[tripped] = _first_beyond(_flat_rows(stack)[tripped], phi_max)
            failed = cells >= 0
            if not failed.any():
                continue
            for pos in np.flatnonzero(failed):
                # like run(), a diverged run keeps the state it began the step with
                finals[ids[pos]] = start[start_rows[pos]].copy()
                failures[ids[pos]] = (i, grid.cell(cells[pos]))
            keep = np.flatnonzero(~failed)
            stack, taus = _compact(stack, keep), taus[keep]
            ids, start_rows = ids[keep], start_rows[keep]
            if not len(ids):
                break
        if not len(ids):
            break
        rows = _flat_rows(stack)
        lo[ids, i], hi[ids, i] = rows.min(axis=1), rows.max(axis=1)
    for pos, r in enumerate(ids):
        finals[r] = stack[pos]
    times = np.array([plan.time(i) for i in range(plan.n_steps + 1)])
    out = []
    for r in range(n):
        diverged_step, diverged_cell = failures.get(r, (None, None))
        kept = plan.n_steps + 1 if diverged_step is None else diverged_step  # states recorded
        out.append(Trajectory(
            final=Field(grid, finals[r]),
            times=times[:kept].copy(),
            phi_min=lo[r, :kept],
            phi_max=hi[r, :kept],
            energies=np.full(kept, np.nan),
            status="completed" if diverged_step is None else "diverged",
            diverged_step=diverged_step,
            diverged_cell=diverged_cell,
            shortened_final_step=plan.shortened,
        ))
    return out


def _flat_rows(stack: np.ndarray) -> np.ndarray:
    return stack.reshape(len(stack), -1)


def _compact(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the rows ``keep`` (ascending) to the front of ``rows`` in place; return that prefix."""
    rows[: len(keep)] = rows[keep]
    return rows[: len(keep)]


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
