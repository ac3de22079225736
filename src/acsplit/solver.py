"""Compose the two sub-flows per a splitting schedule and march in time."""

from __future__ import annotations

import math
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
    clamped_multipliers,
    decay_factor,
    energy,
    free_energy_evolve,
    heat_evolve,
    heat_gain,
    reaction_peak,
)

__all__ = [
    "MAX_STEPS",
    "RunConfig",
    "StepPlan",
    "StepRule",
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
    diagnostics, termination status.

    ``times`` holds the end of each step taken, from t = 0; a diverged run
    stops at the start of the step that diverged.  A run whose step
    boundaries are merged (:class:`StepRule`) never forms the state at the
    end of steps 1..n-1, so ``phi_min`` and ``phi_max`` are NaN there, as
    ``energies`` is wherever energy is not recorded; a guard trip in a
    merged substep is booked to the step that applies it; and a diverged
    merged run's ``final`` is still the state at ``times[-1]``, formed by
    applying the deferred forward substep to the state the run kept.
    """

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


def _guarded(values: np.ndarray, phi_max: float, grid) -> float:
    """``max|values|``, which must not exceed ``phi_max``."""
    m = _kernels.guard_scan(values.ravel())
    if not m <= phi_max:  # also trips on NaN
        raise DivergenceError(
            f"guard tripped, max|phi| = {m:g} > {phi_max:g}",
            int(_first_beyond(values.reshape(1, -1), phi_max)[0]),
            grid,
        )
    return m


def applied_substeps(
    scheme: SplitCoefficients, h: float, carry: float = 0.0, defer_last: bool = False
) -> list[tuple[str, float]]:
    """The substeps of one step of length ``h`` in the order they are applied:
    ``("heat", a_j*h)`` then ``("reaction", b_j*h)`` for j = 1..p.

    An exactly-zero ``a_j*h`` or ``b_j*h`` is left out, so padding substeps
    are never evaluated.  ``carry`` is added to the tau of the first applied
    substep and ``defer_last`` leaves out the last one; :class:`StepRule`
    uses them to merge the two substeps that meet at a step boundary.
    """
    out = []
    for a_j, b_j in scheme.substeps():
        if a_j * h != 0.0:
            out.append((HEAT, a_j * h))
        if b_j * h != 0.0:
            out.append((REACTION, b_j * h))
    if carry:
        kind, tau = out[0]
        out[0] = (kind, tau + carry)
    if defer_last:
        out.pop()
    return out


@dataclass(frozen=True)
class StepRule:
    """The arguments of each :func:`step` that :func:`run` and
    :func:`run_ensemble` apply along ``plan``.

    A step's last applied substep and the next step's first meet at the
    boundary between them.  When both are the same kind and forward (heat
    in ``S2(1)``, ``S4U`` and ``S4V``, reaction in ``S2(0.5)``), their
    flows compose exactly into one substep over the summed tau: a forward
    heat multiplier is at most 1, so the clamp cannot bind, and a forward
    reaction cannot blow up.  A merged run defers the last substep of
    every step but the last and carries its tau into the next step's first
    substep, so it changes only low bits of the final state.  ``deferred``
    is that substep, ``(kind, tau)`` of a full step, or None when the
    boundaries are not merged.
    """

    plan: StepPlan
    deferred: tuple[str, float] | None = None

    @classmethod
    def of(cls, scheme: SplitCoefficients, plan: StepPlan, merge: bool) -> "StepRule":
        """The rule for ``scheme`` on ``plan``, merging boundaries if ``merge`` and they can be."""
        if not merge or plan.n_steps < 2:
            return cls(plan)
        # every step but the last is a full one; the last may be shortened
        full = applied_substeps(scheme, plan.dt)
        last = applied_substeps(scheme, plan.step_length(plan.n_steps)) if plan.shortened else full
        ends = (full[-1], full[0], last[0])
        if all(kind == full[-1][0] and tau > 0 for kind, tau in ends):
            return cls(plan, full[-1])
        return cls(plan)

    def position(self, i: int) -> tuple[float, bool, bool]:
        """Where step ``i`` (1-based) stands: its length, whether it takes a
        carry, and whether it defers its last substep.  Steps 1, 2 and the
        last one cover every position."""
        merged = self.deferred is not None
        return self.plan.step_length(i), merged and i > 1, merged and i < self.plan.n_steps

    def step(self, i: int) -> tuple[float, float, bool]:
        """``(h, carry, defer_last)`` of step ``i`` (1-based)."""
        h, carries, defer_last = self.position(i)
        return h, self.deferred[1] if carries else 0.0, defer_last


def _substep(f, kind: str, tau, model: ModelParams, cutoff: CutoffPolicy, peak: float = math.inf):
    """Apply one substep to ``f``, a field with ``max|f| <= peak``; return
    the new field and an upper bound on its ``max|phi|`` (inf if unknown)."""
    if kind == HEAT:
        f = heat_evolve(f, tau, cutoff)
        return f, peak * heat_gain(f.grid, tau, cutoff.k_tol)
    return free_energy_evolve(f, tau, model, peak), reaction_peak(peak, tau, model)


def step(
    f: Field,
    scheme: SplitCoefficients,
    dt: float,
    model: ModelParams,
    cutoff: CutoffPolicy = CutoffPolicy(),
    phi_max: float | None = None,
    carry: float = 0.0,
    defer_last: bool = False,
    peak: float = math.inf,
) -> Field:
    """One full step: the :func:`applied_substeps` of ``scheme`` over ``dt``,
    with ``carry`` added to the first and the last one left out if
    ``defer_last`` (see :class:`StepRule`).

    Raises :class:`DivergenceError` from the reaction blow-up or when
    ``phi_max`` is given and ``max|phi|`` exceeds it after any substep.
    That guard after each substep is either proved by a bound or scanned.
    The bound starts at ``peak``, an upper bound on ``max|f|`` (inf or NaN
    if unknown), and follows each substep by :func:`heat_gain` or
    :func:`reaction_peak`; a substep it cannot follow makes it infinite.
    The guard scans only where the bound is not finite or exceeds
    ``phi_max``, and the scan's ``max|phi|`` becomes the bound.  A
    reaction whose radicand the bound certifies skips its blow-up check.
    """
    peak = float(peak)  # a numpy scalar would warn where the bound overflows
    for kind, tau in applied_substeps(scheme, dt, carry, defer_last):
        f, peak = _substep(f, kind, tau, model, cutoff, peak)
        if phi_max is not None and not (peak <= phi_max and peak < math.inf):  # also NaN
            peak = _guarded(f.values, phi_max, f.grid)
    return f


def run(f0: Field, cfg: RunConfig) -> Trajectory:
    """March from t = 0 to ``t_final`` along ``cfg.plan``; divergence is
    recorded, never raised.

    Every step is one :func:`step` call with the arguments of the run's
    :class:`StepRule` and the recorded ``max|phi|`` of the state it starts
    from.  A run that records no energy and no snapshots keeps only its
    final state, so it merges the substeps that meet at each step boundary
    where the rule allows; see :class:`Trajectory` for what it
    records of the states it never forms.  Snapshots are taken at the
    completed step nearest each requested time.  A non-finite initial field
    raises ``ValueError``.
    """
    f0.check_finite()
    plan = cfg.plan
    rule = StepRule.of(cfg.scheme, plan, merge=not (cfg.record_energy or cfg.snapshot_times))
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
        h, carry, defer_last = rule.step(i)
        try:
            # the recorded min and max are NaN where a merged run formed no state
            peak = max(-lo[-1], hi[-1])
            f = step(f, cfg.scheme, h, cfg.model, cfg.cutoff, cfg.phi_max, carry, defer_last, peak)
        except DivergenceError as err:
            status = "diverged"
            diverged_step = i
            diverged_cell = err.cell
            if carry:  # the kept state still lacks the previous step's last substep
                f, _ = _substep(f, *rule.deferred, cfg.model, cfg.cutoff)
            break
        times.append(plan.time(i))
        lo.append(np.nan if defer_last else float(f.values.min()))
        hi.append(np.nan if defer_last else float(f.values.max()))
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
    snapshots, so every run merges its step boundaries where its
    :class:`StepRule` allows.  Runs under one clamp whose steps apply the
    same kinds of substep advance together as one stack: per substep, one
    :func:`heat_evolve` or one reaction kernel call, then one guard scan.
    A run leaves its stack when it diverges.
    """
    if not configs:
        return []
    f0.check_finite()
    shared = {(cfg.dt, cfg.t_final, cfg.model, cfg.phi_max) for cfg in configs}
    if len(shared) > 1 or any(cfg.record_energy or cfg.snapshot_times for cfg in configs):
        raise ValueError("ensemble runs share dt, t_final, model and phi_max, and record no energy or snapshots")
    plan = configs[0].plan
    # per scheme: its rule, what a stack of its runs shares (the kind of the
    # deferred substep and the kinds of substep at each step position), and
    # its taus at each position
    split: dict[SplitCoefficients, tuple[StepRule, tuple, dict]] = {}
    groups: dict[tuple, list[int]] = {}
    rules, taus = [], []  # per run: its scheme's rule and taus
    for r, cfg in enumerate(configs):
        entry = split.get(cfg.scheme)
        if entry is None:
            rule = StepRule.of(cfg.scheme, plan, merge=True)
            at = {rule.position(i): i for i in (1, min(2, plan.n_steps), plan.n_steps)}
            steps = {pos: tuple(zip(*applied_substeps(cfg.scheme, *rule.step(i)))) for pos, i in at.items()}
            stack_key = rule.deferred and rule.deferred[0], tuple((pos, k) for pos, (k, _) in steps.items())
            entry = split[cfg.scheme] = rule, stack_key, {pos: t for pos, (_, t) in steps.items()}
        rule, stack_key, scheme_taus = entry
        rules.append(rule)
        taus.append(scheme_taus)
        groups.setdefault((cfg.cutoff, stack_key), []).append(r)
    trajectories: list[Trajectory] = [None] * len(configs)  # type: ignore[list-item]
    for (_, (_, kinds)), rows in groups.items():
        substeps = {pos: (k, np.array([taus[r][pos] for r in rows]).reshape(len(rows), len(k))) for pos, k in kinds}
        for r, traj in zip(rows, _run_stack(f0, configs[rows[0]], substeps, [rules[r] for r in rows])):
            trajectories[r] = traj
    return trajectories


def _run_stack(
    f0: Field,
    cfg: RunConfig,
    substeps: dict[tuple, tuple[tuple[str, ...], np.ndarray]],
    rules: list[StepRule],
) -> list[Trajectory]:
    """Advance runs under one clamp whose steps apply the same kinds of
    substep as rows of one stack.  ``cfg`` is one of the runs, and
    ``substeps`` maps each :meth:`StepRule.position` to those kinds and an
    ``(R, kinds)`` array of the runs' taus.  ``rules`` are the runs' step
    rules, which merge the step boundaries of all of them or of none.

    On a 1D grid each position's heat substeps scale the rows by an
    ``(R, M)`` table of their clamped multipliers, built once and compacted
    with the rows.  The guard checks the whole stack first and scans it row
    by row only where that check fails."""
    grid, model, cutoff, phi_max, plan = f0.grid, cfg.model, cfg.cutoff, cfg.phi_max, cfg.plan
    merged = rules[0].deferred is not None
    n = len(rules)
    # (position, substep) -> the rows' multipliers; 2D/3D rows take heat_evolve's per-row path
    tables = {} if grid.dims > 1 else {
        (pos, j): clamped_multipliers(grid, taus[:, j : j + 1], cutoff.k_tol)
        for pos, (kinds, taus) in substeps.items() for j, kind in enumerate(kinds) if kind == HEAT
    }
    # the per-step diagnostics run() records; energy is not recorded, and a
    # merged run forms no state at the end of steps 1..n-1
    lo, hi = np.full((n, plan.n_steps + 1), np.nan), np.full((n, plan.n_steps + 1), np.nan)
    lo[:, 0], hi[:, 0] = f0.values.min(), f0.values.max()
    finals: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    failures: dict[int, tuple[int, tuple[int, ...]]] = {}  # row -> (step, cell)
    ids = np.arange(n)  # the row of each stack row
    stack = np.repeat(f0.values[np.newaxis], n, axis=0)
    for i in range(1, plan.n_steps + 1):
        position = rules[0].position(i)
        kinds, taus = substeps[position]
        taus = taus[ids]
        start, start_rows = stack, np.arange(len(ids))
        for j, kind in enumerate(kinds):
            tau = taus[:, j : j + 1]
            if kind == HEAT:
                stack = heat_evolve(FieldStack(grid, stack), tau, cutoff, tables.get((position, j))).values
                cells = np.full(len(ids), -1)
            else:
                out = np.empty(stack.shape)
                cells = _kernels.free_energy_apply(
                    _flat_rows(stack), _flat_rows(out), decay_factor(tau, model)
                )
                stack = out
            # the whole stack passes the guard, or some rows are scanned for
            # the cells that trip it; a blown-up row has failed already, and
            # both checks trip on NaN
            if not (stack.max() <= phi_max and -stack.min() <= phi_max):
                tripped = ~(_kernels.guard_scan(_flat_rows(stack)) <= phi_max) & (cells < 0)
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
            tables = {key: _compact(table, keep) for key, table in tables.items()}
            ids, start_rows = ids[keep], start_rows[keep]
            if not len(ids):
                break
        if not len(ids):
            break
        if not merged or i == plan.n_steps:
            rows = _flat_rows(stack)
            lo[ids, i], hi[ids, i] = rows.min(axis=1), rows.max(axis=1)
    for pos, r in enumerate(ids):
        finals[r] = stack[pos]
    for r, (i, _) in failures.items():
        if merged and i > 1:  # like run(), apply the substep the kept state lacks
            finals[r] = _substep(Field(grid, finals[r]), *rules[r].deferred, model, cutoff)[0].values
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
