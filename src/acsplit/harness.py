"""Experiment orchestration behind the command line: coefficient tables,
convergence studies, omega sweeps, and single runs with snapshots."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from . import __version__
from ._kernels import BACKEND
from .coeffs import (
    InvalidOmega,
    SplitCoefficients,
    _omega_text,
    fourth_order_v,
    named_scheme,
    third_order_family,
)
from .grid import Field, GridSpec
from .operators import CutoffPolicy, ModelParams
from .problems import (
    SpinodalSpec,
    TravelingWaveSpec,
    spinodal_initial,
    traveling_wave_field,
)
from .report import ErrorReport, RunRow, csv_number, render_csv
from .solver import RunConfig, SnapshotSink, Trajectory, relative_l2_error, run, run_ensemble

__all__ = [
    "coeffs_table",
    "omega_sweep",
    "scheme_from_string",
    "single_run",
    "spinodal_convergence",
    "wave_convergence",
]

# The defaults of the paper's experiments that no library object declares:
# the wave study's epsilon and cells, the omega sweep's two clamps, and the
# spinodal study's horizon.
WAVE_EPSILON = 0.03 * math.sqrt(2.0)
WAVE_CELLS = 128
SWEEP_K_TOLS = (1e4, 1e9)
SPINODAL_T_FINAL = 0.01


def scheme_from_string(text: str) -> SplitCoefficients:
    """Parse a scheme id with :func:`acsplit.coeffs.named_scheme`, looked up
    here so that a wrapper on ``harness.named_scheme`` sees every CLI parse."""
    return named_scheme(text)


def _provenance(spec: TravelingWaveSpec | SpinodalSpec | None, grid: GridSpec | None, **inputs) -> dict[str, str]:
    """The ``# key=value`` lines of every CSV: the version and backend, the
    problem's lines where ``spec`` on ``grid`` gives one (its name, epsilon,
    cells and length, and for the spinodal problem its amplitude, seed and
    dims), then ``inputs``, which may rename the problem.  A number is
    written as its float's ``repr``, which reads back exactly; cells, seed
    and dims as integers."""
    lines = {}
    if spec is not None:
        lines = {"problem": "traveling-wave", "epsilon": spec.epsilon, "cells": str(grid.cells[0]),
                 "length": spec.length}
    if isinstance(spec, SpinodalSpec):
        lines |= {"problem": "spinodal", "amplitude": spec.amplitude, "seed": str(spec.seed), "dims": str(grid.dims)}
    lines = {"version": __version__, "backend": BACKEND, **lines, **inputs}
    return {key: value if isinstance(value, str) else repr(float(value)) for key, value in lines.items()}


def _error(traj: Trajectory, reference: Field) -> float:
    """Relative L2 distance of the final state from ``reference``, or NaN
    unless the run completed."""
    return relative_l2_error(traj.final, reference) if traj.completed else float("nan")


StudyConfig = Callable[[SplitCoefficients, float], RunConfig]


def _study_config(t_final: float, epsilon: float, k_tol: float) -> StudyConfig:
    """``(scheme, dt) -> RunConfig`` of a study's or sweep's runs, which keep only their final state."""
    return partial(RunConfig, t_final=t_final, model=ModelParams(epsilon), cutoff=CutoffPolicy(k_tol),
                   record_energy=False)


def _convergence_report(
    schemes: list[SplitCoefficients],
    dt_list: list[float],
    run_config: StudyConfig,
    f0: Field,
    reference: Field,
    metadata: dict[str, str],
) -> ErrorReport:
    """Score ``run_config(scheme, dt)`` for every pair; rows sorted by
    scheme and descending dt, with slopes fitted.  A 1D study is one
    :func:`run_ensemble` call.  A 2D/3D study calls this module's ``run``
    per config, scheme by scheme, where perfbench counts and segments 3D
    runs, and scores each run as it ends, holding one final state at a time."""
    configs = [run_config(scheme, dt) for scheme in schemes for dt in dt_list]
    trajectories = run_ensemble(f0, configs) if f0.grid.dims == 1 else (run(f0, cfg) for cfg in configs)
    rows = [RunRow(cfg.scheme.label, cfg.dt, len(traj.times) - 1, _error(traj, reference), traj.status)
            for cfg, traj in zip(configs, trajectories)]
    report = ErrorReport(sorted(rows, key=lambda r: (r.scheme, -r.dt)), metadata)
    report.fit_slopes()
    return report


def _wave_problem(cells: int, epsilon: float, length: float,
                  k_tols) -> tuple[TravelingWaveSpec, GridSpec, list[StudyConfig], Field, Field]:
    """A wave study's or sweep's spec, grid and :func:`_study_config` per
    clamp of ``k_tols``, which refuse a bad model or clamp before any front
    is drawn, then this module's ``traveling_wave_field`` at t = 0 and at
    t_final = 1/s."""
    spec = TravelingWaveSpec(epsilon, length)
    grid = spec.grid(cells)
    run_configs = [_study_config(spec.t_final, epsilon, k_tol) for k_tol in k_tols]
    return spec, grid, run_configs, traveling_wave_field(grid, 0.0, spec), traveling_wave_field(grid, spec.t_final, spec)


def wave_convergence(
    schemes: list[SplitCoefficients],
    dt_list: list[float],
    cells: int = WAVE_CELLS,
    epsilon: float = WAVE_EPSILON,
    length: float = TravelingWaveSpec.length,
    k_tol: float = CutoffPolicy.k_tol,
) -> ErrorReport:
    """Error at t_final = 1/s against the exact traveling front, per
    (scheme, dt): one :func:`run_ensemble` call, which steps the runs whose
    steps apply the same kinds of substep as rows of one stack."""
    spec, grid, (run_config,), f0, exact = _wave_problem(cells, epsilon, length, (k_tol,))
    return _convergence_report(schemes, dt_list, run_config, f0, exact,
                               _provenance(spec, grid, k_tol=k_tol, t_final=spec.t_final))


def _check_ref_dt(ref_dt: float) -> float:
    """``ref_dt``, refused unless it is a positive finite reference step."""
    if not 0.0 < ref_dt < math.inf:
        raise ValueError(f"reference dt must be positive and finite, got {ref_dt!r}")
    return ref_dt


def _reference_dt(dt_list: list[float], ref_dt: float | None) -> float:
    """The reference step of a spinodal study over ``dt_list``: ``ref_dt``,
    by default a quarter of the finest dt, refused unless it is a positive
    finite step at least 2x finer than the finest dt."""
    ref_dt = min(dt_list) / 4.0 if ref_dt is None else _check_ref_dt(ref_dt)
    if ref_dt > min(dt_list) / 2.0:
        raise ValueError("reference dt must be at least 2x finer than the finest run")
    return ref_dt


def spinodal_convergence(
    schemes: list[SplitCoefficients],
    dt_list: list[float],
    spec: SpinodalSpec,
    t_final: float = SPINODAL_T_FINAL,
    k_tol: float = CutoffPolicy.k_tol,
    ref_dt: float | None = None,
) -> ErrorReport:
    """Self-convergence against a reference computed with the six-stage
    fourth-order scheme at ``ref_dt`` (see :func:`_reference_dt`).
    The reference is one serial ``run``, as is every run on a 2D/3D grid."""
    ref_dt = _reference_dt(dt_list, ref_dt)
    run_config = _study_config(t_final, spec.epsilon, k_tol)
    f0 = spinodal_initial(spec)
    ref = run(f0, run_config(fourth_order_v(), ref_dt))
    if not ref.completed:
        raise RuntimeError("reference run diverged; refusing to compare against it")
    return _convergence_report(
        schemes,
        dt_list,
        run_config,
        f0,
        ref.final,
        _provenance(spec, f0.grid, k_tol=k_tol, t_final=t_final, ref_dt=ref_dt, ref_scheme="S4V"),
    )


def _refuse_repeats(what: str, given, labels: list[str] | None = None):
    """The list ``given``; raise ``ValueError`` if it is empty or names one
    entry twice, naming ``what`` and the entries.  Entries are compared by
    ``labels``, by default each number as scheme labels write omega."""
    labels = [_omega_text(v) for v in given] if labels is None else labels
    if not labels:
        raise ValueError(f"no {what} value given")
    for label, count in Counter(labels).items():
        if count > 1:
            places = ", ".join(str(pos) for pos, other in enumerate(labels, start=1) if other == label)
            raise ValueError(f"{what} {label} is given more than once, as entries {places} of {tuple(given)!r}")
    return given


def _clamp_keys(k_tols) -> list[str]:
    """The column key of each clamp of a sweep, ``ktol_`` and the clamp as
    scheme labels write omega (``:g`` where that reads back exactly, else
    ``repr``), so distinct clamps get distinct keys.  An empty or repeated
    clamp list raises ``ValueError``."""
    _refuse_repeats("clamp", k_tols)
    return [f"ktol_{_omega_text(k)}" for k in k_tols]


def omega_sweep(
    branch: str,
    omegas: list[float],
    dt: float,
    cells: int = WAVE_CELLS,
    epsilon: float = WAVE_EPSILON,
    length: float = TravelingWaveSpec.length,
    k_tols: tuple[float, ...] = SWEEP_K_TOLS,
) -> tuple[list[dict], dict[str, str]]:
    """Traveling-wave error as a function of the third-order free parameter.

    Returns one record per omega with the error under each clamp value;
    singular omegas carry an error marker instead of numbers.  All runs
    advance together as one ensemble (:func:`acsplit.solver.run_ensemble`).
    An empty or repeated clamp list raises ``ValueError``.
    """
    keys = _clamp_keys(k_tols)
    spec, grid, run_configs, f0, reference = _wave_problem(cells, epsilon, length, k_tols)
    records, scored, configs = [], [], []
    for omega in omegas:
        rec: dict = {"omega": float(omega)}
        records.append(rec)
        try:
            sol = third_order_family(omega, branch)
        except InvalidOmega as err:
            rec["marker"] = str(err)
            continue
        rec["max_coeff"] = sol.coefficients.max_magnitude()
        for run_config, key in zip(run_configs, keys):
            scored.append((rec, key))
            configs.append(run_config(sol.coefficients, dt))
    for (rec, key), traj in zip(scored, run_ensemble(f0, configs)):
        rec[f"err_{key}"] = _error(traj, reference)
        rec[f"status_{key}"] = traj.status
    return records, _provenance(spec, grid, problem="omega-sweep", branch=branch, dt=dt,
                                k_tols=",".join(_omega_text(k) for k in k_tols), t_final=spec.t_final)


def omega_sweep_csv(records: list[dict], meta: dict[str, str], k_tols=SWEEP_K_TOLS) -> str:
    keys = _clamp_keys(k_tols)
    rows = []
    for rec in records:
        row = [repr(rec["omega"])]
        if "marker" in rec:
            row += [""] * (1 + 2 * len(keys)) + [rec["marker"]]
        else:
            row.append(repr(rec["max_coeff"]))
            for key in keys:
                row += [csv_number(rec[f"err_{key}"]), rec[f"status_{key}"]]
            row.append("")
        rows.append(row)
    columns = ["omega", "max_coeff"] + [c for key in keys for c in (f"err_{key}", f"status_{key}")]
    return render_csv("omega-sweep", meta, columns + ["marker"], rows)


def coeffs_table(
    family: str | None = None,
    omegas: list[float] | None = None,
    scheme: str | None = None,
) -> str:
    """CSV table of splitting coefficients.

    Either a single named scheme row, or a sweep of the third-order family
    ('S3+' / 'S3-') over the given omegas with discriminant and coefficient
    bounds per row.
    """
    if scheme is not None:
        c = named_scheme(scheme)
        columns = ["label", "order"] + [f"{x}{j + 1}" for x in "ab" for j in range(c.p)]
        row = [c.label, c.claimed_order] + [repr(v) for v in c.a + c.b]
        return render_csv("coeffs", _provenance(None, None, scheme=c.label), columns, [row])
    if family not in ("S3+", "S3-") or omegas is None:
        raise ValueError("sweeps support family='S3+' or 'S3-' with an omega grid")
    rows = []
    for omega in omegas:
        try:
            sol = third_order_family(omega, family[-1])
        except InvalidOmega as err:
            rows.append([repr(float(omega))] + [""] * 10 + [str(err)])
            continue
        c = sol.coefficients
        flat = [c.a[0], c.b[0], c.a[1], c.b[1], c.a[2], c.b[2]]
        lo, hi = min(c.a + c.b), max(c.a + c.b)
        rows.append(
            [repr(float(omega))]
            + [repr(v) for v in flat]
            + [repr(sol.discriminant), repr(lo), repr(hi), str(bool(max(abs(lo), abs(hi)) <= 1.0)), ""]
        )
    header = ["omega", "a1", "b1", "a2", "b2", "a3", "b3", "D", "min", "max", "bounded", "marker"]
    return render_csv("coeffs", _provenance(None, None, family=family), header, rows)


@dataclass
class SingleRunResult:
    trajectory: Trajectory
    diagnostics_csv: str


def single_run(f0: Field, cfg: RunConfig, spec: TravelingWaveSpec | SpinodalSpec,
               on_snapshot: SnapshotSink | None = None) -> SingleRunResult:
    """Run once from ``f0``, drawn for the problem ``spec``, and render the
    per-step diagnostics CSV, whose header names the problem and ``cfg``;
    ``on_snapshot`` takes each snapshot as it is taken (see
    :func:`acsplit.solver.run`)."""
    traj = run(f0, cfg, on_snapshot=on_snapshot)
    outcome = [("status", traj.status)]
    if traj.status == "diverged":
        outcome.append(("diverged_step", traj.diverged_step))
        outcome.append(("diverged_cell", ",".join(str(c) for c in traj.diverged_cell)))
    if traj.shortened_final_step:
        outcome.append(("shortened_final_step", "true"))
    rows = (
        [repr(float(t)), repr(float(lo)), repr(float(hi)), csv_number(en)]
        for t, lo, hi, en in zip(traj.times, traj.phi_min, traj.phi_max, traj.energies)
    )
    meta = _provenance(spec, f0.grid, scheme=cfg.scheme.label, dt=cfg.dt, t_final=cfg.t_final,
                       k_tol=cfg.cutoff.k_tol, phi_max=cfg.phi_max)
    columns = ["t", "phi_min", "phi_max", "energy"]
    return SingleRunResult(traj, render_csv("diagnostics", meta, columns, rows, outcome))
