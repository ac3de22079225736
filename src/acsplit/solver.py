"""Compose the two sub-flows per a splitting schedule and march in time."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
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

SnapshotSink = Callable[[float, Field], None]  # takes (requested time, read-only view of the state)


@dataclass(frozen=True)
class StepPlan:
    """The steps that cover ``[0, t_final]``: ``n_full`` steps of ``dt``,
    then one shortened step that ends at ``t_final`` if ``shortened``.

    The horizon takes ``round(t_final/dt)`` full steps when that is exact to
    relative 1e-12, otherwise ``floor`` full steps plus the shortened one.
    :meth:`of` refuses, in this order, a ``dt`` that is not positive and
    finite, a ``t_final`` that is not finite and at least one step, and a
    step count above :data:`MAX_STEPS`; no array of step times is built, so
    that count is refused before anything is allocated.
    """

    dt: float
    t_final: float
    n_full: int
    shortened: bool

    @classmethod
    def of(cls, dt: float, t_final: float) -> "StepPlan":
        if not 0 < dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if not dt <= t_final < np.inf:
            raise ValueError(f"t_final must be finite and at least one step, got {t_final}")
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
    """One experiment: scheme, step size, horizon, model and safeguards.

    ``plan``, the :class:`StepPlan` of ``dt`` over ``t_final``, is built
    once, when the config is checked; it is no field, so it takes no part
    in equality, hashing or ``repr``.
    """

    scheme: SplitCoefficients
    dt: float
    t_final: float
    model: ModelParams
    cutoff: CutoffPolicy = CutoffPolicy()
    snapshot_times: tuple[float, ...] = ()
    phi_max: float = 10.0  # guard threshold; huge finite values precede NaN
    record_energy: bool = True

    def __post_init__(self):
        # refuses a bad dt, t_final or step count; set past the frozen __setattr__
        object.__setattr__(self, "plan", StepPlan.of(self.dt, self.t_final))
        slack = 1e-12 * self.t_final  # the tolerance run() allows on the horizon
        for t in self.snapshot_times:
            if not -slack <= t <= self.t_final + slack:
                raise ValueError(f"snapshot time {t} lies outside [0, t_final={self.t_final}]")
        if not self.phi_max > 1:
            raise ValueError("phi_max must exceed 1")


@dataclass
class Trajectory:
    """Outcome of one run of :func:`run` or :func:`run_ensemble`, which
    both step in one loop: final state, per-step diagnostics, termination
    status.

    ``times`` holds the end of each step taken, from t = 0; a diverged run
    stops at the start of the step that diverged.  A run whose step
    boundaries are merged (:class:`StepRule`) never forms the state at the
    end of steps 1..n-1, so ``phi_min`` and ``phi_max`` are NaN there, as
    ``energies`` is wherever energy is not recorded; a guard trip in a
    merged substep is booked to the step that applies it; and a diverged
    merged run's ``final`` is still the state at ``times[-1]``, formed by
    applying the deferred forward substep to the state the run kept.
    ``snapshots`` holds the copies that :func:`run` keeps when it is given
    no ``on_snapshot`` sink.
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


@dataclass(frozen=True)
class StepRule:
    """The substeps of each :func:`step` that :func:`run` and
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
    boundaries are not merged.  ``schedule`` maps each :meth:`position` to
    the ``(kind, tau)`` substeps a step there applies.
    """

    plan: StepPlan
    deferred: tuple[str, float] | None = None
    schedule: dict = field(default_factory=dict, compare=False)

    @classmethod
    def of(cls, scheme: SplitCoefficients, plan: StepPlan, merge: bool) -> "StepRule":
        """The rule for ``scheme`` on ``plan``, merging boundaries if ``merge`` and they can be."""
        # every step but the last is a full one; the last may be shortened
        full = applied_substeps(scheme, plan.dt)
        last = applied_substeps(scheme, plan.step_length(plan.n_steps)) if plan.shortened else full
        ends = (full[-1], full[0], last[0])
        merges = merge and plan.n_steps > 1 and all(kind == full[-1][0] and tau > 0 for kind, tau in ends)
        rule = cls(plan, full[-1] if merges else None)
        for i in (1, min(2, plan.n_steps), plan.n_steps):  # a step at each position
            _, carries, defers = pos = rule.position(i)
            (kind, tau), *rest = last if i == plan.n_steps else full
            subs = [(kind, tau + rule.deferred[1] if carries else tau), *rest]
            rule.schedule[pos] = tuple(subs[:-1] if defers else subs)
        return rule

    def position(self, i: int) -> tuple[float, bool, bool]:
        """Where step ``i`` (1-based) stands: its length, whether it takes a
        carry, and whether it defers its last substep.  Steps 1, 2 and the
        last one cover every position."""
        merged = self.deferred is not None
        return self.plan.step_length(i), merged and i > 1, merged and i < self.plan.n_steps


def _substep(f, kind: str, tau, model: ModelParams, cutoff: CutoffPolicy, peak: float = math.inf):
    """Apply one substep to ``f``, a field with ``max|f| <= peak``; return
    the new field and an upper bound on its ``max|phi|`` (inf if unknown)."""
    if kind == HEAT:
        f = heat_evolve(f, tau, cutoff)
        return f, peak * heat_gain(f.grid, tau, cutoff.k_tol)
    return free_energy_evolve(f, tau, model, peak), reaction_peak(peak, tau, model)


def step(
    f: Field,
    substeps: Sequence[tuple[str, float]],
    model: ModelParams,
    cutoff: CutoffPolicy = CutoffPolicy(),
    phi_max: float | None = None,
    peak: float = math.inf,
) -> Field:
    """One step: apply the ``(kind, tau)`` pairs of ``substeps`` to ``f`` in
    order, as :func:`applied_substeps` or a :attr:`StepRule.schedule` lists them.

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
    for kind, tau in substeps:
        f, peak = _substep(f, kind, tau, model, cutoff, peak)
        if phi_max is not None and not (peak <= phi_max and peak < math.inf):  # also NaN
            peak = _guarded(f.values, phi_max, f.grid)
    return f


def run(f0: Field, cfg: RunConfig, on_snapshot: SnapshotSink | None = None) -> Trajectory:
    """March from t = 0 to ``t_final`` along ``cfg.plan``; divergence is
    recorded, never raised.

    Every step is one :func:`step` call with the substeps that the run's
    :class:`StepRule` schedules at its position and the recorded
    ``max|phi|`` of the state it starts from.  A run that records no
    energy and no snapshots keeps only its final state, so it merges the
    substeps that meet at each step boundary where the rule allows; see
    :class:`Trajectory` for what it records of the states it never forms.
    Each requested time gets a snapshot of its own, taken at the completed
    step nearest it: ``on_snapshot(t_req, field)`` is called at that step
    with a read-only view of its state (of ``f0`` at t = 0), before the
    next step.  By default a copy of each is kept in
    :attr:`Trajectory.snapshots`; with a sink of its own, the run keeps
    none, and an exception from the sink ends the run and propagates.  A
    diverged run takes the snapshots of the steps it completed.  A
    non-finite initial field raises ``ValueError``.  The run is the
    one-row case of the step loop that :func:`run_ensemble` steps its
    stacks in.
    """
    f0.check_finite()
    snapshots: dict[float, Field] = {}
    if on_snapshot is None:
        def on_snapshot(t_req, snap):
            snapshots[t_req] = snap.copy()
    rule = StepRule.of(cfg.scheme, cfg.plan, merge=not (cfg.record_energy or cfg.snapshot_times))
    f = f0  # the field whose values the loop holds as its one row

    def advance(i, rows, peaks):
        nonlocal f
        try:
            f = step(f, rule.schedule[rule.position(i)], cfg.model, cfg.cutoff, cfg.phi_max, peaks[0])
        except DivergenceError as err:
            return rows[:0], [(0, err.flat_index)]
        return f.values[np.newaxis], ()

    traj = _march(f0, cfg, [rule], advance, on_snapshot)[0]
    traj.snapshots = snapshots
    return traj


def run_ensemble(f0: Field, configs: Sequence[RunConfig]) -> list[Trajectory]:
    """Run every config from ``f0``; each trajectory is the one :func:`run`
    gives for its config.

    The configs record no energy and no snapshots, so every run merges its
    step boundaries where its :class:`StepRule` allows; they may differ in
    anything else.  On a 1D grid, runs that share ``dt``, ``t_final``, the
    model, ``phi_max`` and the clamp, and whose steps apply the same kinds of
    substep at each position, advance together, one row each of a
    :class:`FieldStack`: per substep, one :func:`heat_evolve` or one
    reaction kernel call, then one guard check.  A run leaves its stack when
    it diverges.  A stack of one run, and each config on a 2D/3D grid, is
    one :func:`run`, which costs less than a stack of one row.
    """
    if not configs:
        return []
    f0.check_finite()
    if any(cfg.record_energy or cfg.snapshot_times for cfg in configs):
        raise ValueError("ensemble runs record no energy or snapshots")
    if f0.grid.dims > 1:
        return [run(f0, cfg) for cfg in configs]
    step_rules: dict[tuple, tuple[StepRule, tuple]] = {}  # (scheme, dt, t_final) -> its rule, the kinds it schedules
    stacks: dict[tuple, list[tuple[int, StepRule]]] = {}  # what a stack shares -> (config index, rule) per row
    for r, cfg in enumerate(configs):
        key = cfg.scheme, cfg.dt, cfg.t_final
        if key not in step_rules:
            rule = StepRule.of(cfg.scheme, cfg.plan, merge=True)
            step_rules[key] = rule, (rule.deferred and rule.deferred[0], tuple(
                (pos, tuple(kind for kind, _ in subs)) for pos, subs in rule.schedule.items()))
        rule, kinds = step_rules[key]
        stacks.setdefault((cfg.dt, cfg.t_final, cfg.model, cfg.phi_max, cfg.cutoff, kinds), []).append((r, rule))
    trajectories: list[Trajectory] = [None] * len(configs)  # type: ignore[list-item]
    for rows in stacks.values():
        runs, rules = zip(*rows)
        cfg = configs[runs[0]]
        done = [run(f0, cfg)] if len(runs) == 1 else _march(f0, cfg, rules, _stack_step(f0.grid, cfg, rules))
        for r, traj in zip(runs, done):
            trajectories[r] = traj
    return trajectories


def _stack_step(grid, cfg: RunConfig, rules: Sequence[StepRule]):
    """The step of :func:`_march` for runs under one clamp whose ``rules``
    schedule the same kinds of substep at each :meth:`StepRule.position`,
    as rows of one 1D stack; ``cfg`` is that of one run.  Each substep at
    each position gets one row constant, built once: a heat substep's
    ``(R, M)`` table of the rows' clamped multipliers, or a reaction's
    ``(R, 1)`` column of decay factors.  The guard scans rows only where a
    whole-stack check fails."""
    model, cutoff, phi_max = cfg.model, cfg.cutoff, cfg.phi_max
    schedule = rules[0].schedule
    consts = {}  # (position, substep) -> the rows' constant
    for pos, subs in schedule.items():
        taus = np.array([[tau for _, tau in rule.schedule[pos]] for rule in rules])
        for j, (kind, _) in enumerate(subs):
            tau = taus[:, j : j + 1]
            consts[pos, j] = (clamped_multipliers(grid, tau, cutoff.k_tol) if kind == HEAT
                              else decay_factor(tau, model))

    def advance(i, rows, peaks):
        nonlocal consts
        position = rules[0].position(i)
        failures = []  # (input row, cell) of each row that diverged
        origin = np.arange(len(rows))  # the input row of each row
        for j, (kind, _) in enumerate(schedule[position]):
            if kind == HEAT:
                rows = heat_evolve(FieldStack(grid, rows), None, cutoff, consts[position, j]).values
                cells = np.full(len(rows), -1)
            else:
                out = np.empty(rows.shape)
                cells = _kernels.free_energy_apply(rows, out, consts[position, j])
                rows = out
            # the whole stack passes the guard, or some rows are scanned for
            # the cells that trip it; a blown-up row has failed already, and
            # both checks trip on NaN
            if not (rows.max() <= phi_max and -rows.min() <= phi_max):
                tripped = ~(_kernels.guard_scan(rows) <= phi_max) & (cells < 0)
                cells[tripped] = _first_beyond(rows[tripped], phi_max)
            failed = cells >= 0
            if not failed.any():
                continue
            failures += zip(origin[failed], cells[failed])
            keep = np.flatnonzero(~failed)
            rows, origin = _compact(rows, keep), origin[keep]
            consts = {key: _compact(const, keep) for key, const in consts.items()}
            if not len(rows):
                break
        return rows, failures

    return advance


def _march(f0: Field, cfg: RunConfig, rules: Sequence[StepRule], advance,
           on_snapshot: SnapshotSink | None = None) -> list[Trajectory]:
    """Step runs from ``f0`` as rows of one array along their step ``rules``
    (all merged or none) and return their trajectories; ``cfg`` is one of
    the runs, and only a single run records energy and hands its snapshots
    to ``on_snapshot`` (see :func:`run`).  ``advance(i, rows, peaks)``
    takes step ``i`` of ``rows`` (read-only) from their recorded
    ``max|phi|`` and returns the rows that took it, in order, and
    ``(row, flat cell)`` of each row that diverged."""
    grid, model, plan = f0.grid, cfg.model, rules[0].plan
    merged = rules[0].deferred is not None
    n = len(rules)
    lo, hi = np.full((n, plan.n_steps + 1), np.nan), np.full((n, plan.n_steps + 1), np.nan)
    lo[:, 0], hi[:, 0] = f0.values.min(), f0.values.max()
    energies = np.full(plan.n_steps + 1, np.nan)
    if cfg.record_energy:
        energies[0] = energy(f0, model)
    snap_steps: dict[int, list[float]] = {}  # step -> the requested times nearest it
    for t_req in cfg.snapshot_times:
        snap_steps.setdefault(plan.nearest_step(t_req), []).append(t_req)

    def take_snapshots(i, state):
        if i in snap_steps:
            view = state.view()
            view.flags.writeable = False  # the next step reads this state
            for t_req in snap_steps[i]:
                on_snapshot(t_req, Field(grid, view))

    finals: list[Field] = [None] * n  # type: ignore[list-item]
    failures: dict[int, tuple[int, tuple[int, ...]]] = {}  # run -> (step, cell)
    ids = np.arange(n)  # the run of each row
    rows = np.broadcast_to(f0.values, (n, *grid.shape))  # read-only; each step makes new rows
    peaks = np.maximum(-lo[:, 0], hi[:, 0])  # the recorded max|phi| of each row
    take_snapshots(0, f0.values)
    for i in range(1, plan.n_steps + 1):
        start = rows  # the state each row begins the step with
        rows, diverged = advance(i, rows, peaks)
        if diverged:
            for pos, cell in diverged:
                # the run keeps the state it began the step with, and a merged
                # run applies the substep that state still lacks (Trajectory)
                state = Field(grid, start[pos])
                if merged and i > 1:
                    state, _ = _substep(state, *rules[ids[pos]].deferred, model, cfg.cutoff)
                finals[ids[pos]] = state.copy()
                failures[ids[pos]] = (i, grid.cell(cell))
            ids = np.delete(ids, [pos for pos, _ in diverged])
            if not len(ids):
                break
        del start  # freed before a snapshot is allocated; held longer, it costs a grid array of RSS
        if merged and i < plan.n_steps:
            peaks = np.full(len(ids), np.nan)  # no state is formed at this boundary
        else:
            flat = rows.reshape(len(rows), -1)
            row_lo, row_hi = flat.min(axis=1), flat.max(axis=1)
            lo[ids, i], hi[ids, i] = row_lo, row_hi
            peaks = np.maximum(-row_lo, row_hi)
        if cfg.record_energy:
            energies[i] = energy(Field(grid, rows[0]), model)
        take_snapshots(i, rows[0])
    for pos, r in enumerate(ids):
        finals[r] = Field(grid, rows[pos])
    recorded = [failures[r][0] if r in failures else plan.n_steps + 1 for r in range(n)]  # states per run
    times = np.array([plan.time(i) for i in range(max(recorded))])
    out = []
    for r, k in enumerate(recorded):
        diverged_step, diverged_cell = failures.get(r, (None, None))
        out.append(Trajectory(
            final=finals[r],
            times=times[:k].copy(),
            phi_min=lo[r, :k],
            phi_max=hi[r, :k],
            energies=energies[:k].copy(),
            status="completed" if diverged_step is None else "diverged",
            diverged_step=diverged_step,
            diverged_cell=diverged_cell,
            shortened_final_step=plan.shortened,
        ))
    return out


def _compact(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the rows ``keep`` (ascending) to the front of ``rows`` in place; return that
    prefix.  A sweep that allocated ``rows[keep]`` instead peaked 1.2 MB higher in RSS."""
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
