"""Experiment orchestration behind the command line: coefficient tables,
convergence studies, omega sweeps, and single runs with snapshots."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

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
from .grid import Field
from .operators import CutoffPolicy, ModelParams
from .problems import (
    SpinodalSpec,
    TravelingWaveSpec,
    spinodal_initial,
    traveling_wave_field,
)
from .report import ErrorReport, RunRow, csv_number, render_csv
from .solver import RunConfig, Trajectory, relative_l2_error, run, run_ensemble

__all__ = [
    "coeffs_table",
    "omega_sweep",
    "scheme_from_string",
    "single_run",
    "spinodal_convergence",
    "wave_convergence",
]

def scheme_from_string(text: str) -> SplitCoefficients:
    """Parse a scheme id with :func:`acsplit.coeffs.named_scheme`, looked up
    here so that a wrapper on ``harness.named_scheme`` sees every CLI parse."""
    return named_scheme(text)


def _base_metadata(**extra) -> dict[str, str]:
    meta = {"version": __version__, "backend": BACKEND}
    meta.update({k: str(v) for k, v in extra.items()})
    return meta


def _error(traj: Trajectory, reference: Field) -> float:
    """Relative L2 distance of the final state from ``reference``, or NaN
    unless the run completed."""
    return relative_l2_error(traj.final, reference) if traj.completed else float("nan")


def _scored_run(f0: Field, cfg: RunConfig, reference: Field) -> tuple[Trajectory, float]:
    """Run from a copy of ``f0`` and score it with :func:`_error`."""
    traj = run(f0.copy(), cfg)
    return traj, _error(traj, reference)


def _convergence_report(
    schemes: list[SplitCoefficients],
    dt_list: list[float],
    run_config: Callable[[SplitCoefficients, float], RunConfig],
    f0: Field,
    reference: Field,
    metadata: dict[str, str],
) -> ErrorReport:
    """Score ``run_config(scheme, dt)`` for every pair; rows sorted by scheme
    and descending dt, with slopes fitted."""
    rows = []
    for scheme in schemes:
        for dt in dt_list:
            traj, err = _scored_run(f0, run_config(scheme, dt), reference)
            rows.append(RunRow(scheme.label, dt, len(traj.times) - 1, err, traj.status))
    report = ErrorReport(sorted(rows, key=lambda r: (r.scheme, -r.dt)), metadata)
    report.fit_slopes()
    return report


def wave_convergence(
    schemes: list[SplitCoefficients],
    dt_list: list[float],
    cells: int = 128,
    epsilon: float = 0.03 * np.sqrt(2.0),
    length: float = 4.0,
    k_tol: float = 1e9,
) -> ErrorReport:
    """Error at t_final = 1/s against the exact traveling front, per (scheme, dt)."""
    spec = TravelingWaveSpec(epsilon, length)
    grid = spec.grid(cells)
    run_config = partial(
        RunConfig,
        t_final=spec.t_final,
        model=ModelParams(epsilon),
        cutoff=CutoffPolicy(k_tol),
        record_energy=False,
    )
    return _convergence_report(
        schemes,
        dt_list,
        run_config,
        traveling_wave_field(grid, 0.0, spec),
        traveling_wave_field(grid, spec.t_final, spec),
        _base_metadata(
            problem="traveling-wave",
            epsilon=repr(float(epsilon)),
            cells=cells,
            length=repr(float(length)),
            k_tol=repr(float(k_tol)),
            t_final=repr(float(spec.t_final)),
        ),
    )


def spinodal_convergence(
    schemes: list[SplitCoefficients],
    dt_list: list[float],
    spec: SpinodalSpec,
    t_final: float = 0.01,
    k_tol: float = 1e9,
    ref_dt: float | None = None,
) -> ErrorReport:
    """Self-convergence against a reference computed with the six-stage
    fourth-order scheme at ``ref_dt`` (default: a quarter of the finest dt)."""
    if ref_dt is None:
        ref_dt = min(dt_list) / 4.0
    if ref_dt > min(dt_list) / 2.0:
        raise ValueError("reference dt must be at least 2x finer than the finest run")
    run_config = partial(
        RunConfig,
        t_final=t_final,
        model=ModelParams(spec.epsilon),
        cutoff=CutoffPolicy(k_tol),
        record_energy=False,
    )
    f0 = spinodal_initial(spec)
    ref = run(f0.copy(), run_config(fourth_order_v(), ref_dt))
    if not ref.completed:
        raise RuntimeError("reference run diverged; refusing to compare against it")
    return _convergence_report(
        schemes,
        dt_list,
        run_config,
        f0,
        ref.final,
        _base_metadata(
            problem="spinodal",
            epsilon=repr(float(spec.epsilon)),
            amplitude=repr(float(spec.amplitude)),
            seed=spec.seed,
            cells=spec.cells,
            dims=spec.dims,
            length=repr(float(spec.length)),
            k_tol=repr(float(k_tol)),
            t_final=repr(float(t_final)),
            ref_dt=repr(float(ref_dt)),
            ref_scheme="S4V",
        ),
    )


def _clamp_keys(k_tols) -> list[str]:
    """The column key of each clamp of a sweep, ``ktol_`` and the clamp as
    scheme labels write omega (``:g`` where that reads back exactly, else
    ``repr``), so distinct clamps get distinct keys.  An empty or repeated
    clamp list raises ``ValueError``."""
    labels = [_omega_text(k) for k in k_tols]
    if not labels:
        raise ValueError("no clamp value given")
    for label in labels:
        places = [str(pos) for pos, other in enumerate(labels, start=1) if other == label]
        if len(places) > 1:
            raise ValueError(f"clamp {label} is given more than once, as entries {', '.join(places)} of {tuple(k_tols)!r}")
    return [f"ktol_{label}" for label in labels]


def omega_sweep(
    branch: str,
    omegas: list[float],
    dt: float,
    cells: int = 128,
    epsilon: float = 0.03 * np.sqrt(2.0),
    length: float = 4.0,
    k_tols: tuple[float, ...] = (1e4, 1e9),
) -> tuple[list[dict], dict[str, str]]:
    """Traveling-wave error as a function of the third-order free parameter.

    Returns one record per omega with the error under each clamp value;
    singular omegas carry an error marker instead of numbers.  All runs
    advance together as one ensemble (:func:`acsplit.solver.run_ensemble`).
    An empty or repeated clamp list raises ``ValueError``.
    """
    keys = _clamp_keys(k_tols)
    spec = TravelingWaveSpec(epsilon, length)
    grid = spec.grid(cells)
    model = ModelParams(epsilon)
    f0 = traveling_wave_field(grid, 0.0, spec)
    reference = traveling_wave_field(grid, spec.t_final, spec)
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
        for k_tol, key in zip(k_tols, keys):
            scored.append((rec, key))
            configs.append(RunConfig(
                sol.coefficients, dt, spec.t_final, model, CutoffPolicy(k_tol),
                record_energy=False,
            ))
    for (rec, key), traj in zip(scored, run_ensemble(f0, configs)):
        rec[f"err_{key}"] = _error(traj, reference)
        rec[f"status_{key}"] = traj.status
    meta = _base_metadata(
        problem="omega-sweep",
        branch=branch,
        epsilon=repr(float(epsilon)),
        cells=cells,
        length=repr(float(length)),
        dt=repr(float(dt)),
        k_tols=",".join(_omega_text(k) for k in k_tols),
        t_final=repr(float(spec.t_final)),
    )
    return records, meta


def omega_sweep_csv(records: list[dict], meta: dict[str, str], k_tols=(1e4, 1e9)) -> str:
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
        return render_csv("coeffs", {}, columns, [row])
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
    return render_csv("coeffs", {}, header, rows)


@dataclass
class SingleRunResult:
    trajectory: Trajectory
    diagnostics_csv: str


def single_run(f0: Field, cfg: RunConfig, meta: dict[str, str]) -> SingleRunResult:
    """Run once and render the per-step diagnostics CSV."""
    traj = run(f0, cfg)
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
    columns = ["t", "phi_min", "phi_max", "energy"]
    return SingleRunResult(
        traj, render_csv("diagnostics", {**_base_metadata(), **meta}, columns, rows, outcome)
    )
