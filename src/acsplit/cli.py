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
from pathlib import Path

import numpy as np

from . import __version__, harness
from .coeffs import parse_decimal, split_scheme_ids
from .grid import GridSpec
from .operators import CutoffPolicy, ModelParams
from .problems import SpinodalSpec, TravelingWaveSpec, spinodal_initial, traveling_wave_field
from .solver import RunConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

DEFAULT_WAVE_EPSILON = 0.03 * np.sqrt(2.0)
MAX_OMEGAS = 1_000_000  # a range/step grid longer than this is refused before it is built
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


def _k_tols(args) -> tuple[float, ...]:
    """The clamps of ``--k-tols``, default 1e4 and 1e9, refused as the sweep
    refuses them."""
    value = _merge(args, "k_tols")
    if value is None:
        return (1e4, 1e9)
    k_tols = tuple(_float_list(value, "--k-tols"))
    try:
        harness._clamp_keys(k_tols)
    except ValueError as err:
        raise CliError(f"--k-tols: {err}") from None
    return k_tols


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merge(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    config = getattr(args, "_config", {})
    if key in config:
        return config[key]
    return default


def _require(args, key: str):
    value = _merge(args, key)
    if value is None:
        raise CliError(f"missing required option {_flag(key)} (or config key {key!r})")
    return value


def _number(args, key: str, default: float | None = None) -> float | None:
    """The decimal number of ``key`` (flag, else config value), or ``default``."""
    value = _merge(args, key)
    return default if value is None else _decimal(value, _flag(key))


def _whole_number(args, key: str, default: int) -> int:
    """The integer of ``key`` (flag, else config value), or ``default``."""
    value = _merge(args, key)
    return default if value is None else _integer(value, _flag(key))


def _load_config(args: argparse.Namespace) -> None:
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except OSError as err:
            raise CliError(f"cannot read config: {err}", EXIT_IO)
        except json.JSONDecodeError as err:
            raise CliError(f"config is not valid JSON: {err}")
        if not isinstance(config, dict):
            raise CliError("config must be a JSON object")
    args._config = config


def _omega_grid(args) -> list[float]:
    explicit = _merge(args, "omegas")
    if explicit is not None:
        return _float_list(explicit, "--omegas")
    lo = _number(args, "omega_min")
    hi = _number(args, "omega_max")
    step = _number(args, "omega_step")
    if lo is None or hi is None or step is None:
        raise CliError("need --omegas or --omega-min/--omega-max/--omega-step")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise CliError(f"--omega-min/--omega-max must be finite with min <= max, got {lo!r}, {hi!r}")
    if not (math.isfinite(step) and step > 0):
        raise CliError(f"--omega-step must be finite and positive, got {step!r}")
    span = (hi - lo) / step  # inf when hi - lo overflows
    if not span < MAX_OMEGAS:
        raise CliError(f"--omega-min/--omega-max/--omega-step give more than {MAX_OMEGAS:,} omegas")
    n = round(span)
    return [lo + i * step for i in range(n + 1)]


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
    scheme = _merge(args, "scheme")
    family = _merge(args, "family")
    if scheme is not None:
        text = harness.coeffs_table(scheme=scheme)
    elif family is not None:
        text = harness.coeffs_table(family=family, omegas=_omega_grid(args))
    else:
        raise CliError("coeffs needs --scheme or --family")
    _write(_merge(args, "out"), text)
    return EXIT_OK


def _check_model_and_grid(epsilon: float, length: float, cells: int, dims: int) -> None:
    """Refuse, naming its flag, a cell count, epsilon or length that the
    model or the grid would refuse."""
    if cells < 2:
        raise CliError(f"--cells: need at least 2 cells per axis, got {cells}")
    for flag, build in (("--epsilon", lambda: ModelParams(epsilon)),
                        ("--length", lambda: GridSpec.box(length, cells, dims))):
        try:
            build()
        except ValueError as err:
            raise CliError(f"{flag}: {err}") from None


def _wave_setup(args):
    epsilon = _number(args, "epsilon", float(DEFAULT_WAVE_EPSILON))
    cells = _whole_number(args, "cells", 128)
    length = _number(args, "length", 4.0)
    _check_model_and_grid(epsilon, length, cells, 1)
    return TravelingWaveSpec(epsilon, length), cells


def _spinodal_setup(args, default_cells: int) -> SpinodalSpec:
    spec = SpinodalSpec(
        epsilon=_number(args, "epsilon", 0.015),
        amplitude=_number(args, "amplitude", 0.005),
        seed=_whole_number(args, "seed", 0),
        cells=_whole_number(args, "cells", default_cells),
        length=_number(args, "length", 1.0),
    )
    _check_model_and_grid(spec.epsilon, spec.length, spec.cells, spec.dims)
    return spec


def cmd_run(args) -> int:
    problem = _require(args, "problem")
    scheme = harness.scheme_from_string(str(_require(args, "scheme")))
    k_tol = _number(args, "k_tol", 1e9)
    out_dir = Path(_merge(args, "out_dir", "."))
    snapshots = _float_list(_merge(args, "snapshots", []), "--snapshots")
    phi_max = _number(args, "phi_max", 10.0)

    if problem == "wave":
        spec, cells = _wave_setup(args)
        f0 = traveling_wave_field(spec.grid(cells), 0.0, spec)
        model = ModelParams(spec.epsilon)
        t_final = _number(args, "t_final", spec.t_final)
        meta = {"problem": "wave", "epsilon": repr(spec.epsilon), "cells": cells}
    elif problem == "spinodal":
        spec = _spinodal_setup(args, default_cells=64)
        f0 = spinodal_initial(spec)
        model = ModelParams(spec.epsilon)
        t_final = _decimal(_require(args, "t_final"), "--t-final")
        meta = {
            "problem": "spinodal",
            "epsilon": repr(spec.epsilon),
            "seed": spec.seed,
            "cells": spec.cells,
            "amplitude": repr(spec.amplitude),
        }
    else:
        raise CliError(f"unknown problem {problem!r}")

    dt = _decimal(_require(args, "dt"), "--dt")
    cfg = RunConfig(
        scheme,
        dt,
        t_final,
        model,
        CutoffPolicy(k_tol),
        snapshot_times=tuple(snapshots),
        phi_max=phi_max,
    )
    meta.update({"scheme": scheme.label, "dt": repr(dt), "t_final": repr(t_final), "k_tol": repr(k_tol)})
    result = harness.single_run(f0, cfg, {k: str(v) for k, v in meta.items()})

    from .fieldio import save_field

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "diagnostics.csv").write_text(result.diagnostics_csv)
        for t_req, snap in result.trajectory.snapshots.items():
            save_field(out_dir / f"snapshot_t{t_req:g}.acf", snap)
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
    dts = _merge(args, "dt_list")
    if dts is not None:
        return _float_list(dts, "--dt-list")
    pow2 = _merge(args, "dt_pow2")
    if pow2 is not None and speed is not None:
        lo, colon, hi = str(pow2).partition(":")
        if not colon:
            raise CliError(f"--dt-pow2: {pow2!r} is not K1:K2")
        return [2.0 ** (-k) / speed for k in range(_integer(lo, "--dt-pow2"), _integer(hi, "--dt-pow2") + 1)]
    raise CliError("need --dt-list (or --dt-pow2 for the wave problem)")


def cmd_converge(args) -> int:
    problem = _require(args, "problem")
    ids = _require(args, "schemes")
    ids = ids if isinstance(ids, list) else split_scheme_ids(str(ids))
    schemes = [harness.scheme_from_string(str(s)) for s in ids]
    k_tol = _number(args, "k_tol", 1e9)
    out = _merge(args, "out", "converge")

    if problem == "wave":
        spec, cells = _wave_setup(args)
        report = harness.wave_convergence(
            schemes,
            _dt_list(args, spec.speed),
            cells=cells,
            epsilon=spec.epsilon,
            length=spec.length,
            k_tol=k_tol,
        )
    elif problem == "spinodal":
        spec = _spinodal_setup(args, default_cells=32)
        report = harness.spinodal_convergence(
            schemes,
            _dt_list(args, None),
            spec,
            t_final=_number(args, "t_final", 0.01),
            k_tol=k_tol,
            ref_dt=_number(args, "ref_dt"),
        )
    else:
        raise CliError(f"unknown problem {problem!r}")

    _write(f"{out}.errors.csv", report.to_csv())
    _write(f"{out}.slopes.csv", report.slopes_to_csv())
    return EXIT_OK


def cmd_sweep_omega(args) -> int:
    branch = _require(args, "branch")
    spec, cells = _wave_setup(args)
    dt = _number(args, "dt")
    if dt is None:
        dt = _number(args, "dt_factor", 2.0**-4) / spec.speed
    k_tols = _k_tols(args)
    records, meta = harness.omega_sweep(
        branch,
        _omega_grid(args),
        dt,
        cells=cells,
        epsilon=spec.epsilon,
        length=spec.length,
        k_tols=k_tols,
    )
    _write(_merge(args, "out"), harness.omega_sweep_csv(records, meta, k_tols))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsplit",
        description="Operator-splitting cosine-spectral integrators for the Allen-Cahn equation.",
    )
    parser.add_argument("--version", action="version", version=f"acsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")

    p = sub.add_parser("coeffs", parents=[common], help="print splitting coefficients as CSV")
    p.add_argument("--scheme", help="named scheme, e.g. S3X or S2(1) or S3(0.62,-)")
    p.add_argument("--family", choices=["S3+", "S3-"], help="sweep a third-order branch")
    p.add_argument("--omega-min")
    p.add_argument("--omega-max")
    p.add_argument("--omega-step")
    p.add_argument("--omegas", help="comma-separated omega list")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("run", parents=[common], help="run one experiment, write snapshots + diagnostics")
    p.add_argument("--problem", choices=["wave", "spinodal"])
    p.add_argument("--scheme")
    p.add_argument("--dt")
    p.add_argument("--t-final")
    p.add_argument("--epsilon")
    p.add_argument("--cells")
    p.add_argument("--length")
    p.add_argument("--amplitude")
    p.add_argument("--seed")
    p.add_argument("--k-tol")
    p.add_argument("--phi-max")
    p.add_argument("--snapshots", help="comma-separated times")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("converge", parents=[common], help="convergence study, write error/slope CSVs")
    p.add_argument("--problem", choices=["wave", "spinodal"])
    p.add_argument("--schemes", help="comma-separated scheme ids, e.g. S1,S3(0.62,-)")
    p.add_argument("--dt-list", help="comma-separated step sizes")
    p.add_argument("--dt-pow2", help="K1:K2 meaning dt = 2^-k / s for k = K1..K2 (wave only)")
    p.add_argument("--epsilon")
    p.add_argument("--cells")
    p.add_argument("--length")
    p.add_argument("--amplitude")
    p.add_argument("--seed")
    p.add_argument("--t-final")
    p.add_argument("--k-tol")
    p.add_argument("--ref-dt", help="spinodal reference step (default min(dt)/4)")
    p.add_argument("--out", help="output prefix")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("sweep-omega", parents=[common], help="error vs omega for a third-order branch")
    p.add_argument("--branch", choices=["+", "-"])
    p.add_argument("--omega-min")
    p.add_argument("--omega-max")
    p.add_argument("--omega-step")
    p.add_argument("--omegas", help="comma-separated omega list")
    p.add_argument("--dt")
    p.add_argument("--dt-factor", help="dt = factor / s (default 2^-4)")
    p.add_argument("--k-tols", help="comma-separated clamp values (default 1e4,1e9)")
    p.add_argument("--epsilon")
    p.add_argument("--cells")
    p.add_argument("--length")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_sweep_omega)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except CliError as err:
        print(f"acsplit: error: {err}", file=sys.stderr)
        return err.code
    except (ValueError, RuntimeError) as err:
        print(f"acsplit: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
