"""Command line interface.

Subcommands: ``coeffs``, ``run``, ``converge``, ``sweep-omega``.  Every
experiment can be driven from a JSON config document (``--config``) whose
keys mirror the long flag names; explicit flags override config values.
Exit codes: 0 success, 2 bad usage or config, 3 a single run diverged,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import partial
from pathlib import Path

from . import __version__, fieldio, harness
from .coeffs import parse_decimal, split_scheme_ids
from .grid import Field, GridSpec
from .operators import CutoffPolicy, ModelParams
from .problems import SpinodalSpec, TravelingWaveSpec, spinodal_initial, traveling_wave_field
from .solver import RunConfig, StepPlan

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

MAX_OMEGAS = 1_000_000  # a range/step grid longer than this is refused before it is built
REQUIRED = object()  # the default of an option that must be given
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _decimal(value, flag: str, pos: int | None = None) -> float:
    """``value`` of ``flag`` (entry ``pos`` of its list) as a float: a JSON
    number, or text in the decimal grammar of :func:`parse_decimal`."""
    if isinstance(value, str):
        try:
            return parse_decimal(value)
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    if pos is None:
        raise CliError(f"{flag}: {value!r} is not a decimal number")
    raise CliError(f"{flag}: entry {pos}, {value!r}, is not a decimal number")


def _integer(value, flag: str) -> int:
    """``value`` of ``flag`` as an int: a JSON integer or decimal digits;
    fractions and bools are refused."""
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CliError(f"{flag}: {value!r} is not an integer")


def _float_list(value, flag: str) -> list[float]:
    """The decimal numbers of ``flag``: a comma-separated string, whose empty
    entries are skipped, or a JSON list."""
    if isinstance(value, str):
        return [_decimal(tok, flag, pos) for pos, tok in enumerate(value.split(","), start=1) if tok.strip()]
    if isinstance(value, list):
        return [_decimal(v, flag, pos) for pos, v in enumerate(value, start=1)]
    raise CliError(f"{flag}: {value!r} is not a list of decimal numbers")


def _flagged(flag: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ValueError is a usage error naming ``flag``."""
    try:
        return check(*args, **kwargs)
    except ValueError as err:
        raise CliError(f"{flag}: {err}") from None


def _check_steps(flag: str, dts: list[float], t_final: float | None = None) -> None:
    """The step checks of :class:`RunConfig` (:meth:`StepPlan.of`), in its
    order, of a run at each of ``dts`` over ``t_final``, by default over one
    step, which checks the dt alone; a refusal names ``flag``."""
    for dt in dts:
        _flagged(flag, StepPlan.of, dt, dt if t_final is None else t_final)


def _distinct_floats(what: str):
    """The ``parse`` of a list of numbers, each one ``what``, refused as the
    sweep's clamps are when it is empty or gives an entry twice."""
    return lambda value, flag: _flagged(flag, harness._refuse_repeats, what, _float_list(value, flag))


def _get(args: argparse.Namespace, key: str, parse=None, default=None):
    """Option ``key``: its flag if given, else its config value (see
    :func:`_load_config`), else ``default``, where ``REQUIRED`` refuses the
    missing option.  A given value is read by ``parse(value, flag)``."""
    value = getattr(args, key, None)
    flag = "--" + key.replace("_", "-")
    if value is None:
        if default is REQUIRED:
            raise CliError(f"missing required option {flag} (or config key {key!r})")
        return default
    return value if parse is None else parse(value, flag)


def _load_config(args: argparse.Namespace) -> None:
    """Give each option that no flag gives its config value; refuse a key
    that names no option, and a value that is none of its option's choices.
    ``args.flags`` keeps the keys that flags gave."""
    args.flags = frozenset(key for key, value in vars(args).items() if value is not None)
    if not args.config:
        return
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as err:
        raise CliError(f"cannot read config: {err}", EXIT_IO)
    except json.JSONDecodeError as err:
        raise CliError(f"config is not valid JSON: {err}")
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    for key, value in config.items():
        if key not in CONFIG_KEYS:
            raise CliError(f"config key {key!r} is no option of any subcommand")
        if getattr(args, key, None) is None:
            choices = CHOICES[args.command].get(key)
            if choices and value is not None and value not in choices:
                raise CliError(f"--{key.replace('_', '-')}: invalid choice {value!r} "
                               f"(choose from {', '.join(map(repr, choices))})")
            setattr(args, key, value)


def _omega_grid(args) -> list[float]:
    explicit = _get(args, "omegas", _distinct_floats("omega"))
    if explicit is not None:
        return explicit
    lo, hi, step = (_get(args, key, _decimal) for key in ("omega_min", "omega_max", "omega_step"))
    if lo is None or hi is None or step is None:
        raise CliError("need --omegas or --omega-min/--omega-max/--omega-step")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise CliError(f"--omega-min/--omega-max must be finite with min <= max, got {lo!r}, {hi!r}")
    if not (math.isfinite(step) and step > 0):
        raise CliError(f"--omega-step must be finite and positive, got {step!r}")
    # every lo + i*step up to hi, with a slack for the rounding of the three
    # decimals to binary; a step at or below that rounding would let the
    # slack add whole steps past hi
    span = (hi - lo) / step  # inf when hi - lo overflows
    slack = 4 * sys.float_info.epsilon * (span + (abs(lo) + abs(hi)) / step)
    if span < MAX_OMEGAS and not slack < 0.5:
        raise CliError(f"--omega-step: {step!r} is finer than the rounding of --omega-min/--omega-max")
    if not span + slack < MAX_OMEGAS:
        raise CliError(f"--omega-min/--omega-max/--omega-step give more than {MAX_OMEGAS:,} omegas")
    return [lo + i * step for i in range(math.floor(span + slack) + 1)]


def _path(value, flag: str) -> str:
    """``value`` of ``flag`` as a path: text only."""
    if not isinstance(value, str):
        raise CliError(f"{flag}: {value!r} is not a path")
    return value


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as err:
        raise CliError(f"cannot write {path}: {err}", EXIT_IO)


def cmd_coeffs(args) -> int:
    scheme = _get(args, "scheme")
    family = _get(args, "family")
    if scheme is not None:
        text = harness.coeffs_table(scheme=scheme)
    elif family is not None:
        text = harness.coeffs_table(family=family, omegas=_omega_grid(args))
    else:
        raise CliError("coeffs needs --scheme or --family")
    _write(_get(args, "out", _path), text)
    return EXIT_OK


def _check_model_and_grid(epsilon: float, length: float, cells: int, dims: int) -> None:
    """Refuse, naming its flag, a cell count, epsilon or length that the
    model or the grid would refuse."""
    if cells < 2:
        raise CliError(f"--cells: need at least 2 cells per axis, got {cells}")
    _flagged("--epsilon", ModelParams, epsilon)
    _flagged("--length", GridSpec.box, length, cells, dims)


def _wave_setup(args):
    epsilon = _get(args, "epsilon", _decimal, harness.WAVE_EPSILON)
    cells = _get(args, "cells", _integer, harness.WAVE_CELLS)
    length = _get(args, "length", _decimal, TravelingWaveSpec.length)
    _check_model_and_grid(epsilon, length, cells, 1)
    return TravelingWaveSpec(epsilon, length), cells


def _refuse_for_wave(args, *keys: str) -> None:
    """Refuse the flag of each option among ``keys``, none of which the wave
    problem reads.  Their config keys are allowed and not read, as keys of
    another subcommand are, so one file can serve both problems."""
    for key in keys:
        if key in args.flags:
            raise CliError(f"--{key.replace('_', '-')}: not an option of --problem wave")


def _spinodal_setup(args, default_cells: int = SpinodalSpec.cells) -> SpinodalSpec:
    epsilon = _get(args, "epsilon", _decimal, SpinodalSpec.epsilon)
    amplitude = _get(args, "amplitude", _decimal, SpinodalSpec.amplitude)
    seed = _get(args, "seed", _integer, SpinodalSpec.seed)
    cells = _get(args, "cells", _integer, default_cells)
    length = _get(args, "length", _decimal, SpinodalSpec.length)
    _flagged("--amplitude", SpinodalSpec, amplitude=amplitude)
    spec = _flagged("--seed", SpinodalSpec, epsilon, amplitude, seed, cells, length)  # only the seed is left to refuse
    _check_model_and_grid(epsilon, length, cells, spec.dims)
    return spec


def cmd_run(args) -> int:
    problem = _get(args, "problem", default=REQUIRED)
    scheme = harness.scheme_from_string(str(_get(args, "scheme", default=REQUIRED)))
    k_tol = _get(args, "k_tol", _decimal, CutoffPolicy.k_tol)
    out_dir = Path(_get(args, "out_dir", _path, "."))
    snapshots = _get(args, "snapshots", _float_list, [])
    if snapshots:  # each is saved as snapshot_t{t:g}.acf
        _flagged("--snapshots", harness._refuse_repeats, "snapshot time", snapshots, [f"{t:g}" for t in snapshots])
    phi_max = _get(args, "phi_max", _decimal, RunConfig.phi_max)

    if problem == "wave":
        _refuse_for_wave(args, "amplitude", "seed")
        spec, cells = _wave_setup(args)
        f0 = traveling_wave_field(spec.grid(cells), 0.0, spec)
        t_final = _get(args, "t_final", _decimal, spec.t_final)
    else:
        spec = _spinodal_setup(args)
        f0 = spinodal_initial(spec)
        t_final = _get(args, "t_final", _decimal, REQUIRED)

    dt = _get(args, "dt", _decimal, REQUIRED)
    config = partial(RunConfig, scheme, dt, model=ModelParams(spec.epsilon),
                     cutoff=_flagged("--k-tol", CutoffPolicy, k_tol))
    # RunConfig's checks, in its own order, each refusal naming its flag
    _check_steps("--dt", [dt])
    _check_steps("--t-final", [dt], t_final)
    _flagged("--snapshots", config, t_final=t_final, snapshot_times=tuple(snapshots))
    cfg = _flagged("--phi-max", config, t_final=t_final, snapshot_times=tuple(snapshots), phi_max=phi_max)

    def write_snapshot(t_req: float, snap: Field) -> None:
        # fieldio.save_field is looked up per call, so a wrapper put on it sees every write
        fieldio.save_field(out_dir / f"snapshot_t{t_req:g}.acf", snap)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # before the first step: a bad path costs no run
        result = harness.single_run(f0, cfg, spec, on_snapshot=write_snapshot)
        (out_dir / "diagnostics.csv").write_text(result.diagnostics_csv)
    except OSError as err:
        raise CliError(f"cannot write outputs: {err}", EXIT_IO)

    if not result.trajectory.completed:
        print(
            f"run diverged at step {result.trajectory.diverged_step}, "
            f"cell {result.trajectory.diverged_cell}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    return EXIT_OK


def _dt_list(args, speed: float | None) -> list[float]:
    dts = _get(args, "dt_list", _distinct_floats("dt"))
    if dts is not None:
        _check_steps("--dt-list", dts)
        return dts
    pow2 = _get(args, "dt_pow2")
    if pow2 is not None and speed is not None:
        lo, colon, hi = str(pow2).partition(":")
        if not colon:
            raise CliError(f"--dt-pow2: {pow2!r} is not K1:K2")
        ks = range(_integer(lo, "--dt-pow2"), _integer(hi, "--dt-pow2") + 1)
        # dt falls with k, so two good ends bound the list to about 2,100 steps
        for end, k in (("K1", ks[0]), ("K2", ks[-1])) if ks else ():
            try:
                dt = 2.0 ** (-k) / speed
            except OverflowError:
                dt = math.inf
            if not sys.float_info.min <= dt < math.inf:
                raise CliError(f"--dt-pow2: {end} = {k} gives dt = 2^{-k} / s, not a positive normal finite float")
        return _flagged("--dt-pow2", harness._refuse_repeats, "dt", [2.0 ** (-k) / speed for k in ks])
    raise CliError("need --dt-list (or --dt-pow2 for the wave problem)")


def cmd_converge(args) -> int:
    problem = _get(args, "problem", default=REQUIRED)
    ids = _get(args, "schemes", default=REQUIRED)
    ids = [str(s) for s in ids] if isinstance(ids, list) else split_scheme_ids(str(ids))
    schemes = [harness.scheme_from_string(s) for s in ids]
    _flagged("--schemes", harness._refuse_repeats, "scheme", ids, [scheme.label for scheme in schemes])
    k_tol = _get(args, "k_tol", _decimal, CutoffPolicy.k_tol)
    out = _get(args, "out", _path, "converge")

    if problem == "wave":
        _refuse_for_wave(args, "t_final", "ref_dt", "amplitude", "seed")
        spec, cells = _wave_setup(args)
        dts = _dt_list(args, spec.speed)
        # the horizon 1/s is no option, so the flag of the steps names its refusals
        t_final, ref_dt = spec.t_final, None
        t_final_flag = "--dt-list" if _get(args, "dt_list") is not None else "--dt-pow2"
        study = partial(harness.wave_convergence, cells=cells, epsilon=spec.epsilon, length=spec.length)
    else:
        spec = _spinodal_setup(args, default_cells=32)
        dts = _dt_list(args, None)
        t_final, t_final_flag = _get(args, "t_final", _decimal, harness.SPINODAL_T_FINAL), "--t-final"
        ref_dt = _get(args, "ref_dt", lambda v, flag: _flagged(flag, harness._check_ref_dt, _decimal(v, flag)))
        ref_dt = harness._reference_dt(dts, ref_dt)  # refused before the clamp, as the study refuses it
        study = partial(harness.spinodal_convergence, spec=spec, t_final=t_final, ref_dt=ref_dt)
    _flagged("--k-tol", CutoffPolicy, k_tol)
    _check_steps(t_final_flag, dts, t_final)
    if ref_dt is not None:
        _check_steps("--ref-dt", [ref_dt], t_final)
    report = study(schemes, dts, k_tol=k_tol)

    _write(f"{out}.errors.csv", report.to_csv())
    _write(f"{out}.slopes.csv", report.slopes_to_csv())
    return EXIT_OK


def cmd_sweep_omega(args) -> int:
    branch = _get(args, "branch", default=REQUIRED)
    spec, cells = _wave_setup(args)
    dt, dt_flag = _get(args, "dt", _decimal), "--dt"
    if dt is None:
        dt, dt_flag = _get(args, "dt_factor", _decimal, 2.0**-4) / spec.speed, "--dt-factor"
    k_tols = tuple(_get(args, "k_tols", _distinct_floats("clamp"), harness.SWEEP_K_TOLS))
    omegas = _omega_grid(args)
    for k_tol in k_tols:
        _flagged("--k-tols", CutoffPolicy, k_tol)
    _check_steps(dt_flag, [dt], spec.t_final)  # the horizon 1/s is no option
    records, meta = harness.omega_sweep(
        branch,
        omegas,
        dt,
        cells=cells,
        epsilon=spec.epsilon,
        length=spec.length,
        k_tols=k_tols,
    )
    _write(_get(args, "out", _path), harness.omega_sweep_csv(records, meta, k_tols))
    return EXIT_OK


# Option groups that several subcommands share
_OMEGA_GRID = ("--omega-min", "--omega-max", "--omega-step", ("--omegas", "comma-separated omega list"))
_MODEL = ("--epsilon", "--cells", "--length")
_NOISE = ("--amplitude", "--seed")
_PROBLEM = ("--problem", None, ["wave", "spinodal"])
_OUT = ("--out", "output path (default stdout)")

# subcommand -> (handler, help, options); an option is a flag or (flag, help[, choices]),
# and every subcommand also takes --config
COMMANDS = {
    "coeffs": (cmd_coeffs, "print splitting coefficients as CSV", (
        ("--scheme", "named scheme, e.g. S3X or S2(1) or S3(0.62,-)"),
        ("--family", "sweep a third-order branch", ["S3+", "S3-"]),
        *_OMEGA_GRID, _OUT)),
    "run": (cmd_run, "run one experiment, write snapshots + diagnostics", (
        _PROBLEM, "--scheme", "--dt", "--t-final", *_MODEL, *_NOISE, "--k-tol", "--phi-max",
        ("--snapshots", "comma-separated times"), "--out-dir")),
    "converge": (cmd_converge, "convergence study, write error/slope CSVs", (
        _PROBLEM,
        ("--schemes", "comma-separated scheme ids, e.g. S1,S3(0.62,-)"),
        ("--dt-list", "comma-separated step sizes"),
        ("--dt-pow2", "K1:K2 meaning dt = 2^-k / s for k = K1..K2 (wave only)"),
        *_MODEL, *_NOISE, "--t-final", "--k-tol",
        ("--ref-dt", "spinodal reference step (default min(dt)/4)"),
        ("--out", "output prefix"))),
    "sweep-omega": (cmd_sweep_omega, "error vs omega for a third-order branch", (
        ("--branch", None, ["+", "-"]), *_OMEGA_GRID, "--dt",
        ("--dt-factor", "dt = factor / s (default 2^-4)"),
        ("--k-tols", "comma-separated clamp values (default 1e4,1e9)"), *_MODEL, _OUT)),
}

# the keys a config file may give: every option of any subcommand
CONFIG_KEYS = frozenset((option if isinstance(option, str) else option[0])[2:].replace("-", "_")
                        for _, _, options in COMMANDS.values() for option in options)
# subcommand -> {key: choices} of its options that take one of a few values; argparse checks the flags,
# _load_config the config values
CHOICES = {name: {option[0][2:].replace("-", "_"): option[2] for option in options
                  if isinstance(option, tuple) and len(option) == 3}
           for name, (_, _, options) in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsplit",
        description="Operator-splitting cosine-spectral integrators for the Allen-Cahn equation.",
    )
    parser.add_argument("--version", action="version", version=f"acsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for option in options:
            flag, *rest = (option,) if isinstance(option, str) else option
            p.add_argument(flag, **dict(zip(("help", "choices"), rest)))
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except (CliError, ValueError, RuntimeError, MemoryError) as err:
        print(f"acsplit: error: {err}", file=sys.stderr)
        return err.code if isinstance(err, CliError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
