import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import acsplit
from acsplit import (
    CutoffPolicy,
    ModelParams,
    SpinodalSpec,
    TravelingWaveSpec,
    __version__,
    harness,
    kernel_backend,
    spinodal_initial,
    traveling_wave_field,
)
from acsplit.cli import main
from acsplit.fieldio import load_field
from acsplit.harness import omega_sweep, scheme_from_string
from acsplit.report import ErrorReport
from acsplit.solver import RunConfig, run
from test_solver import _traced_peak

EPS = 0.03 * np.sqrt(2.0)
SPEED = float(3.0 / (np.sqrt(2.0) * EPS))


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_scheme_parser():
    assert scheme_from_string("S1").label == "S1"
    assert scheme_from_string("s4u").p == 4
    assert scheme_from_string("S2(0.7)").b[0] == 0.7
    assert scheme_from_string("S3(0.62,-)").claimed_order == 3
    with pytest.raises(ValueError):
        scheme_from_string("S3(0.62)")
    with pytest.raises(ValueError):
        scheme_from_string("nope")


def test_coeffs_named_scheme(capsys):
    assert main(["coeffs", "--scheme", "S3X"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
    assert rows[0]["label"] == "S3X"
    assert float(rows[0]["a1"]) == pytest.approx(0.78868, abs=1e-5)
    assert float(rows[0]["b1"]) == pytest.approx(-0.07189, abs=1e-5)


def test_coeffs_family_sweep_with_singular_markers(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "coeffs",
            "--family",
            "S3-",
            "--omegas",
            "0.3333333333,0.62,0.7886751345948129,0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv_rows(out)
    assert len(rows) == 4
    assert rows[0]["marker"] != "" and rows[0]["a1"] == ""  # singular 1/3
    assert rows[3]["marker"] != ""  # D < 0
    assert rows[1]["marker"] == ""
    assert float(rows[1]["D"]) > 0
    assert rows[2]["bounded"] == "True"
    # the distinguished Z point satisfies a2 = omega
    assert float(rows[2]["a2"]) == pytest.approx(float(rows[2]["omega"]), abs=1e-12)
    assert main(["coeffs", "--family", "S3+", "--out", str(tmp_path / "never.csv")]) == 2
    assert not (tmp_path / "never.csv").exists()
    with pytest.raises(ValueError, match="sweeps support family='S3\\+' or 'S3-'"):
        harness.coeffs_table(family="S3x", omegas=[0.5])


def test_run_wave_writes_snapshots_and_diagnostics(tmp_path):
    out_dir = tmp_path / "out"
    t_final = 8 * 2.0**-6 / SPEED
    code = main(
        [
            "run",
            "--problem",
            "wave",
            "--scheme",
            "S4V",
            "--cells",
            "128",
            "--dt",
            repr(2.0**-6 / SPEED),
            "--t-final",
            repr(t_final),
            "--snapshots",
            f"0,{t_final}",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    diag = (out_dir / "diagnostics.csv").read_text()
    assert "# status=completed" in diag
    rows = list(csv.DictReader(line for line in diag.splitlines() if not line.startswith("#")))
    assert len(rows) == 9  # initial + 8 steps
    assert float(rows[0]["energy"]) > 0
    snap = load_field(out_dir / f"snapshot_t{t_final:g}.acf")
    spec = TravelingWaveSpec(EPS)
    exact = traveling_wave_field(spec.grid(128), t_final, spec)
    err = np.linalg.norm(snap.values - exact.values) / np.linalg.norm(exact.values)
    assert err < 1e-5  # fourth order at this step size and horizon


def test_run_reports_divergence_exit_code(tmp_path):
    code = main(
        [
            "run",
            "--problem",
            "wave",
            "--scheme",
            "S3Y",
            "--cells",
            "1024",
            "--dt",
            repr(2.0**-2 / SPEED),
            "--k-tol",
            "inf",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 3
    assert "# status=diverged" in (tmp_path / "diagnostics.csv").read_text()


def _snapshot_files(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("snapshot_t*.acf"))}


def _acf_bytes(field) -> bytes:
    """The file that the ACF format gives ``field``, built here from the README's layout."""
    grid = field.grid
    tokens = ["ACF1", str(grid.dims), *map(str, grid.cells), *map(repr, grid.lengths)]
    return (" ".join(tokens) + "\n").encode("ascii") + field.values.astype("<f8").tobytes()


def test_run_writes_the_snapshots_a_run_keeps_byte_for_byte(tmp_path):
    # a completed 3D run, with two times that round to one step, and a 1D
    # run that diverges at step 15 of 64: the files written as the run goes
    # are the snapshots that run() keeps in memory for the same config
    spec = SpinodalSpec(cells=16, seed=3)
    spinodal = (["--problem", "spinodal", "--scheme", "S4V", "--cells", "16", "--seed", "3", "--dt", "1e-4",
                 "--t-final", "1e-3", "--snapshots", "0,0.0004,0.00041,1e-3"],
                spinodal_initial(spec),
                RunConfig(scheme_from_string("S4V"), 1e-4, 1e-3, ModelParams(spec.epsilon),
                          snapshot_times=(0.0, 4e-4, 4.1e-4, 1e-3)), 0)
    dt = 2.0**-6 / SPEED
    wave_spec = TravelingWaveSpec(EPS)
    times = tuple(i * dt for i in (0, 5, 14, 15, 20, 64))
    wave = (["--problem", "wave", "--scheme", "S3Y", "--cells", "1024", "--k-tol", "inf", "--dt", repr(dt),
             "--snapshots", ",".join(map(repr, times))],
            traveling_wave_field(wave_spec.grid(1024), 0.0, wave_spec),
            RunConfig(scheme_from_string("S3Y"), dt, wave_spec.t_final, ModelParams(EPS), CutoffPolicy(np.inf),
                      snapshot_times=times), 3)
    for argv, f0, cfg, code in (spinodal, wave):
        out_dir = tmp_path / argv[1]
        assert main(["run", *argv, "--out-dir", str(out_dir)]) == code
        traj = run(f0, cfg)
        expected = {f"snapshot_t{t:g}.acf": _acf_bytes(snap) for t, snap in traj.snapshots.items()}
        assert _snapshot_files(out_dir) == expected
        assert len(expected) == (4 if code == 0 else 3)  # the diverged run completed steps 0 to 14
    assert traj.diverged_step == 15


def test_run_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    # each snapshot is written at the step that forms it, so no grid array
    # is held for it until the run ends
    argv = ["run", "--problem", "spinodal", "--scheme", "S4V", "--cells", "32", "--dt", "1e-4",
            "--t-final", "5e-4", "--out-dir", str(tmp_path)]
    one, six = ["--snapshots", "5e-4"], ["--snapshots", "0,1e-4,2e-4,3e-4,4e-4,5e-4"]
    for _ in range(2):  # builds the cached factors and this thread's scratch array
        assert main(argv + six) == 0
    peaks = [_traced_peak(lambda: main(argv + times)) for times in (one, six)]
    assert peaks[1] - peaks[0] < 32**3 * 8


def test_run_refuses_an_unusable_out_dir_before_stepping(tmp_path, monkeypatch, capsys):
    from acsplit import harness

    def no_run(*args, **kwargs):
        pytest.fail("the run was computed although its outputs cannot be written")

    monkeypatch.setattr(harness, "run", no_run)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["run", "--problem", "wave", "--scheme", "S1", "--dt", "1e-3", "--snapshots", "0",
                 "--out-dir", str(not_a_dir)]) == 4
    assert "cannot write outputs" in capsys.readouterr().err


def test_converge_wave(tmp_path):
    prefix = tmp_path / "wave"
    code = main(
        [
            "converge",
            "--problem",
            "wave",
            "--schemes",
            "S1,S2(1)",
            "--dt-pow2",
            "3:7",
            "--out",
            str(prefix),
        ]
    )
    assert code == 0
    report = ErrorReport.from_csv((tmp_path / "wave.errors.csv").read_text())
    assert report.metadata["problem"] == "traveling-wave"
    assert len(report.rows) == 10
    slopes = read_csv_rows(tmp_path / "wave.slopes.csv")
    by_scheme = {r["scheme"]: float(r["slope"]) for r in slopes}
    assert by_scheme["S1"] == pytest.approx(1.0, abs=0.35)
    assert by_scheme["S2(1)"] == pytest.approx(2.0, abs=0.35)


def wave_study(tmp_path, *extra):
    """Run a small wave convergence study; return its errors and slopes CSV rows."""
    prefix = tmp_path / "study"
    assert main(["converge", "--problem", "wave", "--dt-pow2", "3:5", "--out", str(prefix),
                 *extra]) == 0
    return read_csv_rows(f"{prefix}.errors.csv"), read_csv_rows(f"{prefix}.slopes.csv")


def test_converge_splits_schemes_by_the_grammar(tmp_path):
    # the comma inside S3(w,+-) belongs to the id
    rows, _ = wave_study(tmp_path, "--schemes", "S3(0.62,-),S1")
    assert sorted({r["scheme"] for r in rows}) == ["S1", "S3(0.62,-)"]


def test_converge_takes_a_json_list_of_schemes(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schemes": ["S3(0.62,-)", "S1"]}))
    rows, _ = wave_study(tmp_path, "--config", str(path))
    assert sorted({r["scheme"] for r in rows}) == ["S1", "S3(0.62,-)"]


def test_converge_keeps_schemes_that_differ_past_six_digits(tmp_path):
    rows, slopes = wave_study(tmp_path, "--schemes", "S2(0.7000001),S2(0.7000002)")
    assert sorted({r["scheme"] for r in rows}) == ["S2(0.7000001)", "S2(0.7000002)"]
    assert sorted(r["scheme"] for r in slopes) == ["S2(0.7000001)", "S2(0.7000002)"]
    assert all(int(r["n_points"]) == 3 for r in slopes)


def test_converge_is_reproducible(tmp_path):
    args = [
        "converge",
        "--problem",
        "wave",
        "--schemes",
        "S2(1)",
        "--dt-pow2",
        "3:6",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.errors.csv").read_bytes() == (tmp_path / "b.errors.csv").read_bytes()
    assert (tmp_path / "a.slopes.csv").read_bytes() == (tmp_path / "b.slopes.csv").read_bytes()


def csv_header(text):
    """The comment block and the column row of a CSV output."""
    lines = text.splitlines()
    n = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[: n + 1]


def test_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the 3D heat substeps are BLAS matrix products; a second BLAS thread
    # must not change a bit of the diagnostics
    src = str(Path(acsplit.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "acsplit.cli", "run", "--problem", "spinodal", "--cells", "48",
             "--scheme", "S4V", "--dt", "1e-4", "--t-final", "1e-3", "--out-dir", str(out_dir)],
            env=env, check=True,
        )
        outputs.append((out_dir / "diagnostics.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_scipy_fft_is_loaded_by_a_1d_run_only(tmp_path):
    # a 2D/3D process on at most FACTOR_MAX_CELLS cells per axis builds its
    # DCT-II matrices in numpy, clamped substeps included; only a 1D grid
    # (or a longer axis) imports scipy.fft, on its first transform
    script = f"""
import sys
import numpy as np
from acsplit import CutoffPolicy, Field, GridSpec, heat_evolve
from acsplit.cli import main
from acsplit.harness import scheme_from_string, spinodal_convergence
from acsplit.operators import _uses_factors
from acsplit.problems import SpinodalSpec

assert main(["run", "--problem", "spinodal", "--scheme", "S4V", "--cells", "8", "--dt", "1e-4",
             "--t-final", "5e-4", "--snapshots", "0,5e-4", "--out-dir", {str(tmp_path / "3d")!r}]) == 0
schemes = [scheme_from_string(s) for s in ("S1", "S3X")]
for dims in (2, 3):
    spinodal_convergence(schemes, [2e-4, 1e-4], SpinodalSpec(cells=8, dims=dims), t_final=4e-4)
grid = GridSpec.box(1.0, 16, 3)
assert not _uses_factors(grid, -1e-3, 10.0)
heat_evolve(Field(grid, np.random.default_rng(1).standard_normal(grid.shape)), -1e-3, CutoffPolicy(10.0))
print("scipy.fft" in sys.modules)
assert main(["run", "--problem", "wave", "--scheme", "S1", "--cells", "16", "--dt", "1e-3",
             "--out-dir", {str(tmp_path / "1d")!r}]) == 0
print("scipy.fft" in sys.modules)
"""
    src = str(Path(acsplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert done.stdout.split() == ["False", "True"]
    assert (tmp_path / "3d" / "snapshot_t0.0005.acf").exists()


def test_csv_headers_are_pinned(tmp_path, capsys):
    base = [f"# backend={kernel_backend}"]
    version = [f"# version={__version__}"]
    wave = [
        "# cells=128",
        "# epsilon=0.042426406871192854",
        "# k_tol=1000000000.0",
        "# length=4.0",
        "# problem=traveling-wave",
        "# t_final=0.020000000000000004",
    ]
    prefix = tmp_path / "wave"
    assert main(["converge", "--problem", "wave", "--schemes", "S1", "--dt-pow2", "3:5",
                 "--out", str(prefix)]) == 0
    assert csv_header((tmp_path / "wave.errors.csv").read_text()) == (
        ["# acsplit-errors v1"] + base + wave + version
        + ["scheme,dt,steps,rel_l2_error,status"]
    )
    assert csv_header((tmp_path / "wave.slopes.csv").read_text()) == (
        ["# acsplit-slopes v1"] + base + wave + version
        + ["scheme,slope,residual,n_points,dt_min,dt_max"]
    )

    assert main(["sweep-omega", "--branch", "-", "--omegas", "0.25",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert csv_header((tmp_path / "sweep.csv").read_text()) == (
        ["# acsplit-omega-sweep v1"] + base
        + [
            "# branch=-",
            "# cells=128",
            "# dt=0.0012500000000000002",
            "# epsilon=0.042426406871192854",
            "# k_tols=10000,1e+09",
            "# length=4.0",
            "# problem=omega-sweep",
            "# t_final=0.020000000000000004",
        ]
        + version
        + ["omega,max_coeff,err_ktol_10000,status_ktol_10000,"
           "err_ktol_1e+09,status_ktol_1e+09,marker"]
    )

    diag_columns = ["t,phi_min,phi_max,energy"]
    out = tmp_path / "completed"
    assert main(["run", "--problem", "wave", "--scheme", "S2(1)", "--cells", "64", "--dt", "1e-3",
                 "--t-final", "2.5e-3", "--out-dir", str(out)]) == 0
    assert csv_header((out / "diagnostics.csv").read_text()) == (
        ["# acsplit-diagnostics v1"] + base
        + [
            "# cells=64",
            "# dt=0.001",
            "# epsilon=0.042426406871192854",
            "# k_tol=1000000000.0",
            "# length=4.0",
            "# phi_max=10.0",
            "# problem=traveling-wave",
            "# scheme=S2(1)",
            "# t_final=0.0025",
        ]
        + version
        + ["# status=completed", "# shortened_final_step=true"]
        + diag_columns
    )
    out = tmp_path / "diverged"
    assert main(["run", "--problem", "wave", "--scheme", "S3Y", "--cells", "1024",
                 "--dt", "0.005", "--t-final", "0.0123", "--k-tol", "inf",
                 "--out-dir", str(out)]) == 3
    assert csv_header((out / "diagnostics.csv").read_text()) == (
        ["# acsplit-diagnostics v1"] + base
        + [
            "# cells=1024",
            "# dt=0.005",
            "# epsilon=0.042426406871192854",
            "# k_tol=inf",
            "# length=4.0",
            "# phi_max=10.0",
            "# problem=traveling-wave",
            "# scheme=S3Y",
            "# t_final=0.0123",
        ]
        + version
        + ["# status=diverged", "# diverged_step=1", "# diverged_cell=0",
           "# shortened_final_step=true"]
        + diag_columns
    )

    # a coeffs table names what it was asked for; its omegas are its rows
    capsys.readouterr()
    assert main(["coeffs", "--scheme", "S3X"]) == 0
    assert csv_header(capsys.readouterr().out) == (
        ["# acsplit-coeffs v1"] + base + ["# scheme=S3X"] + version
        + ["label,order,a1,a2,a3,b1,b2,b3"]
    )
    assert main(["coeffs", "--family", "S3+", "--omegas", "0.5"]) == 0
    assert csv_header(capsys.readouterr().out) == (
        ["# acsplit-coeffs v1"] + base + ["# family=S3+"] + version
        + ["omega,a1,b1,a2,b2,a3,b3,D,min,max,bounded,marker"]
    )


def _header_lines(path) -> dict[str, str]:
    """The ``# key=value`` lines of a CSV file, as a dict."""
    lines = [line[2:] for line in Path(path).read_text().splitlines() if line.startswith("# ") and "=" in line]
    return dict(line.split("=", 1) for line in lines)


def test_run_headers_name_every_input_and_the_problem_as_a_study_does(tmp_path):
    # a run's header names every input the run depends on: two runs that
    # differ only in --length, or only in --phi-max, write different headers
    wave = ["run", "--problem", "wave", "--scheme", "S2(1)", "--dt", "1e-3", "--t-final", "3e-3", "--cells", "32"]
    headers = {}
    for name, extra in (("base", ["--length", "4"]), ("length", ["--length", "8"]),
                        ("phi_max", ["--length", "4", "--phi-max", "1.5"])):
        assert main(wave + extra + ["--out-dir", str(tmp_path / name)]) == 0
        headers[name] = _header_lines(tmp_path / name / "diagnostics.csv")
    for name, value in (("length", "8.0"), ("phi_max", "1.5")):
        changed = {key for key in headers["base"] if headers[name][key] != headers["base"][key]}
        assert changed == {name} and headers[name][name] == value, name
    # a run and a study of the same problem write the same problem lines
    assert main(["converge", "--problem", "wave", "--schemes", "S1", "--dt-list", "1e-3,5e-4", "--cells", "32",
                 "--length", "4", "--out", str(tmp_path / "wave")]) == 0
    study = _header_lines(tmp_path / "wave.errors.csv")
    lines = ("problem", "epsilon", "cells", "length")
    assert {key: headers["base"][key] for key in lines} == {key: study[key] for key in lines}
    assert study["problem"] == "traveling-wave"
    spinodal = ["--problem", "spinodal", "--cells", "8", "--seed", "4", "--amplitude", "0.01", "--t-final", "2e-3"]
    assert main(["run", *spinodal, "--scheme", "S1", "--dt", "1e-3", "--out-dir", str(tmp_path / "sp")]) == 0
    assert main(["converge", *spinodal, "--schemes", "S1", "--dt-list", "1e-3,5e-4",
                 "--out", str(tmp_path / "sp")]) == 0
    run_lines, study = _header_lines(tmp_path / "sp" / "diagnostics.csv"), _header_lines(tmp_path / "sp.errors.csv")
    lines = ("problem", "epsilon", "amplitude", "seed", "cells", "dims", "length")
    assert {key: run_lines[key] for key in lines} == {key: study[key] for key in lines}
    assert (run_lines["seed"], run_lines["dims"], run_lines["amplitude"]) == ("4", "3", "0.01")


def test_converge_spinodal_small(tmp_path):
    prefix = tmp_path / "sp"
    code = main(
        [
            "converge",
            "--problem",
            "spinodal",
            "--schemes",
            "S2(1)",
            "--cells",
            "8",
            "--seed",
            "3",
            "--t-final",
            "1e-3",
            "--dt-list",
            "2.5e-4,1.25e-4,6.25e-5",
            "--out",
            str(prefix),
        ]
    )
    assert code == 0
    report = ErrorReport.from_csv((tmp_path / "sp.errors.csv").read_text())
    assert report.metadata["ref_scheme"] == "S4V"
    errs = [r.error for r in report.rows]
    assert all(np.isfinite(errs)) and errs == sorted(errs, reverse=True)


def test_sweep_omega_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep-omega",
            "--branch",
            "+",
            "--omegas",
            "0.275,0.999,0.3333335",
            "--cells",
            "64",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv_rows(out)
    good = rows[0]
    assert good["status_ktol_10000"] == "completed"
    assert good["status_ktol_1e+09"] == "completed"
    assert float(good["err_ktol_1e+09"]) < 1e-2
    near_one = rows[1]
    assert near_one["marker"] == ""  # valid family point, it just blows up
    assert near_one["status_ktol_1e+09"] == "diverged" or float(near_one["err_ktol_1e+09"]) > 0.5
    assert rows[2]["marker"] != ""  # inside the 1/3 exclusion


def test_sweep_omega_labels_each_clamp_by_its_exact_value(tmp_path, capsys):
    # 1e4 and 10000.01 both print as 10000 with :g; each keeps its own
    # column, labelled as scheme labels write omega, with its own errors
    sweep = ["sweep-omega", "--branch", "+", "--omegas", "0.5"]
    errors = {}
    for k_tols in ("1e4", "10000.01", "1e4,10000.01"):
        out = tmp_path / f"{k_tols}.csv"
        assert main(sweep + ["--k-tols", k_tols, "--out", str(out)]) == 0
        errors[k_tols] = {key: value for key, value in read_csv_rows(out)[0].items() if key.startswith("err_")}
        assert f"# k_tols={k_tols.replace('1e4', '10000')}\n" in out.read_text()
    assert errors["1e4,10000.01"] == {**errors["1e4"], **errors["10000.01"]}
    assert errors["1e4"]["err_ktol_10000"] != errors["10000.01"]["err_ktol_10000.01"]
    # an empty or repeated clamp list is refused, naming the flag and the entries
    never = str(tmp_path / "never" / "sweep.csv")
    for k_tols, message in (("inf,inf", "--k-tols: clamp inf is given more than once, as entries 1, 2 of (inf, inf)"),
                            ("1e4,,10000", "--k-tols: clamp 10000 is given more than once, as entries 1, 2 of (10000.0, 10000.0)"),
                            ("1e9,1e4,1e+09", "--k-tols: clamp 1e+09 is given more than once, as entries 1, 3 of"),
                            ("", "--k-tols: no clamp value given"),
                            (",", "--k-tols: no clamp value given")):
        assert main(sweep + [f"--k-tols={k_tols}", "--out", never]) == 2, k_tols
        assert message in capsys.readouterr().err, k_tols
    config = tmp_path / "sweep.json"
    for k_tols, message in (([1e9, "1e+09"], "--k-tols: clamp 1e+09 is given more than once, as entries 1, 2 of"),
                            ([], "--k-tols: no clamp value given")):
        config.write_text(json.dumps({"branch": "+", "omegas": [0.5], "k_tols": k_tols}))
        assert main(["sweep-omega", "--config", str(config), "--out", never]) == 2, k_tols
        assert message in capsys.readouterr().err, k_tols
    assert not (tmp_path / "never").exists()
    for k_tols in ((), (np.inf, np.inf), (1e4, 10000.0)):
        with pytest.raises(ValueError, match="no clamp value|more than once"):
            omega_sweep("+", [0.5], 2.0**-4 / SPEED, cells=16, k_tols=k_tols)


def test_non_finite_omegas_get_markers_in_both_sweeps(tmp_path):
    out = tmp_path / "family.csv"
    assert main(["coeffs", "--family", "S3+", "--omegas", "nan,inf,0.5", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [r["omega"] for r in rows] == ["nan", "inf", "0.5"]
    assert all("finite" in r["marker"] and r["a1"] == "" for r in rows[:2])
    assert rows[2]["marker"] == "" and rows[2]["a1"] != ""

    records, _ = omega_sweep("+", [float("nan"), 0.5], 2.0**-4 / SPEED, cells=32)
    assert "finite" in records[0]["marker"]
    assert "marker" not in records[1]
    assert records[1]["status_ktol_10000"] == "completed"

    # a single scheme id has no row to mark: still a usage error
    assert main(["coeffs", "--scheme", "S3(inf,+)"]) == 2


def test_an_omega_whose_discriminant_overflows_gets_a_marker(tmp_path):
    out = tmp_path / "family.csv"
    assert main(["coeffs", "--family", "S3-", "--omegas", "1e200,0.5", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert rows[0]["marker"] == "S3(1e+200,-): discriminant D = inf is not finite" and rows[0]["a1"] == ""
    assert rows[1]["marker"] == ""


def test_a_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 7 PiB of float64 cells: the allocator refuses at once, in the initial
    # field of a 3D run and in the cell centers of a 1D one
    never = str(tmp_path / "never")
    for problem, cells in (("spinodal", "100000"), ("wave", "1000000000000000")):
        assert main(["run", "--problem", problem, "--scheme", "S1", "--cells", cells, "--dt", "1e-4",
                     "--t-final", "1e-4", "--out-dir", never]) == 2
        err = capsys.readouterr().err
        assert err.startswith("acsplit: error: ") and "allocate" in err and err.count("\n") == 1, err


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "problem": "wave",
        "scheme": "S2(1)",
        "dt": 2.0**-5 / SPEED,
        "cells": 64,
        "out_dir": str(tmp_path / "from_config"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "override")])
    assert code == 0
    assert (tmp_path / "override" / "diagnostics.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_config_null_means_not_given(tmp_path, monkeypatch):
    # a JSON null is an option left out: its default applies, here no
    # snapshots and the current directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "wave", "scheme": "S1", "dt": 1e-4, "t_final": 2e-3, "cells": 16,
                                "k_tol": None, "snapshots": None, "out_dir": None}))
    assert main(["run", "--config", str(path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "diagnostics.csv"]
    assert "# k_tol=1000000000.0" in (tmp_path / "diagnostics.csv").read_text()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["coeffs"]) == 2
    never = str(tmp_path / "never")
    for command, message in (
        (["run", "--problem", "wave", "--scheme", "S1", "--out-dir", never],
         "missing required option --dt (or config key 'dt')"),
        (["coeffs", "--family", "S3+"], "need --omegas or --omega-min/--omega-max/--omega-step"),
        (["converge", "--problem", "spinodal", "--schemes", "S1", "--out", never],
         "need --dt-list (or --dt-pow2 for the wave problem)"),
        # a clamp below 1, refused where the library refuses it: after a
        # reference step that the study refuses, before the reference run
        *((command, f"{flag}: k_tol must be >= 1 (or inf), got 0.5") for command, flag in (
            (["run", "--problem", "spinodal", "--scheme", "S1", "--cells", "8", "--dt", "1e-3", "--t-final", "2e-3",
              "--k-tol", "0.5", "--out-dir", never], "--k-tol"),
            (["converge", "--problem", "wave", "--schemes", "S1", "--cells", "8", "--dt-list", "1e-3", "--k-tol", "0.5",
              "--out", never], "--k-tol"),
            (["converge", "--problem", "spinodal", "--schemes", "S1", "--cells", "8", "--dt-list", "1e-3",
              "--k-tol", "0.5", "--t-final", "inf", "--out", never], "--k-tol"),
            (["sweep-omega", "--branch", "+", "--omegas", "0.5", "--k-tols", "1e4,0.5", "--dt", "nan",
              "--out", never], "--k-tols"))),
        (["converge", "--problem", "spinodal", "--schemes", "S1", "--cells", "8", "--dt-list", "1e-3",
          "--ref-dt", "1e-3", "--k-tol", "0.5", "--out", never],
         "reference dt must be at least 2x finer than the finest run"),
    ):
        capsys.readouterr()
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"acsplit: error: {message}\n", command
    assert not Path(never).exists()
    assert main(["run", "--problem", "wave", "--scheme", "S9", "--dt", "1e-3"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    # config values that are not scheme ids
    for cfg, command in (({"scheme": 1}, ["run", "--out-dir", never]),
                         ({"schemes": 5}, ["converge", "--out", never]),
                         ({"schemes": ["S1", 1]}, ["converge", "--out", never])):
        bad.write_text(json.dumps({"problem": "wave", "dt": 1e-3, "dt_list": [1e-3], **cfg}))
        assert main(command + ["--config", str(bad)]) == 2
    # non-finite family parameters must not give NaN coefficients, nor
    # parameters whose discriminant or squared coefficients overflow
    assert main(["coeffs", "--scheme", "S3(inf,+)"]) == 2
    assert main(["coeffs", "--scheme", "S2(nan)"]) == 2
    capsys.readouterr()
    for command in (["coeffs", "--scheme", "S3(1e308,+)"],
                    ["run", "--problem", "wave", "--scheme", "S2(1e-300)", "--dt", "0.001", "--cells", "8",
                     "--out-dir", never],
                    ["converge", "--problem", "wave", "--schemes", "S2(1e-300)", "--dt-list",
                     "0.001,0.0005,0.00025", "--cells", "8", "--out", never]):
        assert main(command) == 2, command
        assert capsys.readouterr().err.startswith("acsplit: error: S"), command
    # a malformed omega is a grammar error that names the id
    capsys.readouterr()
    assert main(["coeffs", "--scheme", "S2(abc)"]) == 2
    assert "cannot parse scheme 'S2(abc)'" in capsys.readouterr().err
    # a list entry that is not a decimal number names its flag, place and text
    for command, message in (
        (["coeffs", "--family", "S3+", "--omegas", "0.3,abc"], "--omegas: entry 2, 'abc',"),
        (["coeffs", "--family", "S3+", "--omegas", "1_0"], "--omegas: entry 1, '1_0',"),
        (["sweep-omega", "--branch", "+", "--omegas", "0.5", "--k-tols", "1e4,,1e9x",
          "--out", str(tmp_path / "never" / "sweep.csv")], "--k-tols: entry 3, '1e9x',"),
        (["converge", "--problem", "wave", "--schemes", "S1", "--dt-list", "1e-3,0x10",
          "--out", str(tmp_path / "never" / "c")], "--dt-list: entry 2, '0x10',"),
        (["run", "--problem", "wave", "--scheme", "S1", "--dt", "1e-4", "--t-final", "1e-3",
          "--snapshots", "0,1e-3,abc", "--out-dir", str(tmp_path / "never")], "--snapshots: entry 3, 'abc',"),
    ):
        assert main(command) == 2
        assert message in capsys.readouterr().err
    # every numeric flag and config key, list entries included, takes the same
    # decimal grammar, or whole numbers only; bools are no numbers
    for cfg, command, message in (
        ({"family": "S3+", "omegas": [0.3, "abc"]}, ["coeffs"], "--omegas: entry 2, 'abc',"),
        ({"family": "S3+", "omegas": [0.3, True]}, ["coeffs"], "--omegas: entry 2, True,"),
        ({"family": "S3+", "omegas": 0.3}, ["coeffs"], "--omegas: 0.3 is not a list"),
        ({"problem": "spinodal", "schemes": ["S1"], "dt_list": ["1_0e-3", 5e-4]},
         ["converge", "--out", never], "--dt-list: entry 1, '1_0e-3',"),
        ({"problem": "spinodal", "schemes": ["S1"], "dt_list": [1e-3], "cells": 32.7},
         ["converge", "--out", never], "--cells: 32.7 is not an integer"),
        ({"problem": "spinodal", "schemes": ["S1"], "dt_list": [1e-3], "seed": True},
         ["converge", "--out", never], "--seed: True is not an integer"),
        ({"problem": "wave", "schemes": ["S1"], "dt_pow2": "1_0:12"},
         ["converge", "--out", never], "--dt-pow2: '1_0' is not an integer"),
        ({"problem": "wave", "schemes": ["S1"], "dt_pow2": "10"},
         ["converge", "--out", never], "--dt-pow2: '10' is not K1:K2"),
        ({"problem": "wave", "scheme": "S1", "dt": "1e-3", "epsilon": False},
         ["run", "--out-dir", never], "--epsilon: False is not a decimal number"),
        ({"problem": "wave", "scheme": "S1", "dt": 1e-3, "snapshots": [0, None]},
         ["run", "--out-dir", never], "--snapshots: entry 2, None,"),
        ({"branch": "+", "omegas": [0.5], "k_tols": [1e4, "1e9x"]},
         ["sweep-omega", "--out", str(tmp_path / "never" / "sweep.csv")], "--k-tols: entry 2, '1e9x',"),
    ):
        bad.write_text(json.dumps(cfg))
        assert main(command + ["--config", str(bad)]) == 2, cfg
        assert message in capsys.readouterr().err, cfg
    for command, message in (
        (["coeffs", "--family", "S3+", "--omega-min", "0_3", "--omega-max", "0.4", "--omega-step", "0.1"],
         "--omega-min: '0_3' is not a decimal number"),
        (["run", "--problem", "wave", "--scheme", "S1", "--dt", "1e-3", "--cells", "1_28",
          "--out-dir", never], "--cells: '1_28' is not an integer"),
        (["run", "--problem", "wave", "--scheme", "S1", "--dt", "0x1p-10", "--out-dir", never],
         "--dt: '0x1p-10' is not a decimal number"),
    ):
        assert main(command) == 2, command
        assert message in capsys.readouterr().err, command
    # omega ranges: a finite positive step over finite bounds with min <= max
    for command in (["coeffs", "--family", "S3+"], ["sweep-omega", "--branch", "+"]):
        for lo, hi, step in (("0.3", "0.4", "0"), ("0.3", "0.4", "nan"), ("0.3", "0.4", "-0.1"),
                             ("0.4", "0.3", "0.01"), ("nan", "0.4", "0.01"), ("0.3", "inf", "0.01"),
                             ("0.3", "0.4", "1e-300")):
            assert main(command + [f"--omega-min={lo}", f"--omega-max={hi}", f"--omega-step={step}",
                                   "--out", str(tmp_path / "never" / "grid.csv")]) == 2
            assert "--omega-" in capsys.readouterr().err
        # a step at or below the rounding of min and max, which the end
        # slack could otherwise turn into whole extra steps
        for lo, hi, step in (("0.5", "0.5", "1e-25"), ("1e300", "1e300", "1e-300"), ("1", "1", "1e-16")):
            assert main(command + [f"--omega-min={lo}", f"--omega-max={hi}", f"--omega-step={step}",
                                   "--out", str(tmp_path / "never" / "grid.csv")]) == 2
            assert "--omega-step: " in capsys.readouterr().err
    wave = ["run", "--problem", "wave", "--out-dir", str(tmp_path / "never")]
    assert main(wave + ["--scheme", "S2(nan)", "--dt", "1e-4"]) == 2
    # impossible horizons and snapshot times outside [0, t_final]
    assert main(wave + ["--scheme", "S2(1)", "--dt", "1e-4", "--t-final", "inf"]) == 2
    assert main(wave + ["--scheme", "S2(1)", "--dt", "nan"]) == 2
    for snapshots in ("-3,1.0", "0,1.1e-3", "nan"):
        assert main(wave + ["--scheme", "S2(1)", "--dt", "1e-4", "--t-final", "1e-3",
                            f"--snapshots={snapshots}"]) == 2
    # a step count above the cap is refused before any step is planned
    capsys.readouterr()
    assert main(wave + ["--scheme", "S1", "--dt", "1e-300"]) == 2
    assert main(["sweep-omega", "--branch", "+", "--omegas", "0.5,0.6", "--dt", "1e-300",
                 "--out", str(tmp_path / "never" / "sweep.csv")]) == 2
    assert capsys.readouterr().err.count("MAX_STEPS = 10,000,000") == 2
    # an epsilon whose eps^2 or 1/eps^2 is not a normal finite number, and a
    # length whose spacing, cell volume or eigenvalues are not finite
    spinodal = ["run", "--problem", "spinodal", "--scheme", "S4V", "--dt", "1e-4", "--t-final", "1e-3",
                "--cells", "8", "--out-dir", str(tmp_path / "never")]
    for command, flag in (
        (spinodal + ["--epsilon", "inf"], "--epsilon"),
        (spinodal + ["--epsilon", "1e200"], "--epsilon"),
        (spinodal + ["--epsilon", "1e-170"], "--epsilon"),
        (spinodal + ["--epsilon", "1e-160"], "--epsilon"),
        (wave + ["--scheme", "S1", "--dt", "1e-4", "--epsilon", "1e-200"], "--epsilon"),
        (spinodal + ["--length", "inf"], "--length"),
        (spinodal + ["--length", "1e-300"], "--length"),
        (wave + ["--scheme", "S1", "--dt", "1e-4", "--length", "1e-300"], "--length"),
        (spinodal + ["--cells", "1"], "--cells"),
        (["converge", "--problem", "spinodal", "--schemes", "S1", "--dt-list", "1e-3", "--epsilon", "inf",
          "--out", str(tmp_path / "never" / "c")], "--epsilon"),
        (["sweep-omega", "--branch", "+", "--omegas", "0.5", "--length", "inf",
          "--out", str(tmp_path / "never" / "sweep.csv")], "--length"),
        (spinodal + ["--seed", "-1"], "--seed"),
        (spinodal + ["--amplitude", "0.9"], "--amplitude"),
        *((["converge", "--problem", "spinodal", "--schemes", "S1", "--dt-list", "1e-3", "--cells", "8",
            "--ref-dt", ref_dt, "--out", str(tmp_path / "never" / "c")], "--ref-dt") for ref_dt in ("nan", "0", "-1")),
    ):
        assert main(command) == 2, command
        assert f"acsplit: error: {flag}: " in capsys.readouterr().err, command
    # each end of --dt-pow2 must give a positive, normal, finite dt; both are
    # checked before the list is built, so an end out of range costs nothing
    for ends, end in (("-2000:-1998", "K1 = -2000"), ("3:2000000", "K2 = 2000000"), ("1100:1102", "K1 = 1100")):
        assert main(["converge", "--problem", "wave", "--schemes", "S1", "--cells", "8", f"--dt-pow2={ends}",
                     "--out", str(tmp_path / "never" / "c")]) == 2, ends
        err = capsys.readouterr().err
        assert err.startswith(f"acsplit: error: --dt-pow2: {end} gives dt = ") and err.count("\n") == 1, err
        assert len(err.encode()) < 1000, ends
    # a config key that names no option of any subcommand is refused, not ignored
    bad.write_text(json.dumps({"problem": "wave", "scheme": "S1", "dt": 1e-3, "k_tl": 1e4, "cells": 16}))
    assert main(["run", "--config", str(bad), "--out-dir", never]) == 2
    assert capsys.readouterr().err == "acsplit: error: config key 'k_tl' is no option of any subcommand\n"
    # a path option's config value must be text, and a choice option's one of
    # the choices its flag takes; each is refused naming the flag
    for cfg, command, message in (
        ({"family": "S3+", "omegas": [0.5], "out": 5}, ["coeffs"], "--out: 5 is not a path"),
        ({"branch": "+", "omegas": [0.5], "out": 5}, ["sweep-omega"], "--out: 5 is not a path"),
        ({"problem": "wave", "schemes": ["S1"], "dt_list": [1e-3], "out": 5}, ["converge"], "--out: 5 is not a path"),
        ({"problem": "wave", "scheme": "S1", "dt": 1e-3, "out_dir": 5}, ["run"], "--out-dir: 5 is not a path"),
        ({"problem": "foo", "scheme": "S1", "dt": 1e-3}, ["run", "--out-dir", never],
         "--problem: invalid choice 'foo' (choose from 'wave', 'spinodal')"),
        ({"problem": "foo", "schemes": ["S1"], "dt_list": [1e-3]}, ["converge", "--out", never],
         "--problem: invalid choice 'foo'"),
        ({"family": "S3", "omegas": [0.5]}, ["coeffs"], "--family: invalid choice 'S3' (choose from 'S3+', 'S3-')"),
        ({"branch": "positive", "omegas": [0.5]}, ["sweep-omega", "--out", never],
         "--branch: invalid choice 'positive' (choose from '+', '-')"),
    ):
        bad.write_text(json.dumps(cfg))
        assert main(command + ["--config", str(bad)]) == 2, cfg
        assert message in capsys.readouterr().err, cfg
    assert not (tmp_path / "never").exists()


def test_wave_problem_refuses_the_options_it_does_not_read(tmp_path, capsys):
    never = str(tmp_path / "never")
    converge = ["converge", "--problem", "wave", "--schemes", "S1", "--dt-list", "1e-3,5e-4", "--cells", "16",
                "--out", never]
    run = ["run", "--problem", "wave", "--scheme", "S1", "--dt", "1e-3", "--cells", "16", "--out-dir", never]
    for command, flag, value in (
        *((converge, flag, value) for flag, value in
          (("--t-final", "5"), ("--ref-dt", "1"), ("--seed", "3"), ("--amplitude", "0.01"))),
        (run, "--seed", "3"),
        (run, "--amplitude", "0.01"),
    ):
        assert main(command + [flag, value]) == 2, (command[0], flag)
        assert capsys.readouterr().err == f"acsplit: error: {flag}: not an option of --problem wave\n"
    assert not Path(never).exists()
    # a wave run takes --t-final; config keys that only the spinodal problem
    # reads are allowed and not read, so one file can serve both problems
    config = tmp_path / "both.json"
    config.write_text(json.dumps({"seed": 3, "amplitude": 0.01}))
    assert main(run[:-1] + [str(tmp_path / "run"), "--t-final", "2e-3", "--config", str(config)]) == 0


def test_run_refusals_name_the_flag_in_the_order_run_config_checks(tmp_path, capsys):
    run = ["run", "--problem", "wave", "--scheme", "S1", "--cells", "16", "--out-dir", str(tmp_path / "never")]
    for extra, message in (
        (["--dt", "nan"], "--dt: dt must be positive and finite, got nan"),
        (["--dt", "1e-3", "--t-final", "inf"], "--t-final: t_final must be finite and at least one step, got inf"),
        (["--dt", "1e-300"], "--t-final: t_final/dt = "),
        (["--dt", "1e-3", "--t-final", "1e-2", "--snapshots", "0,1"],
         "--snapshots: snapshot time 1.0 lies outside [0, t_final=0.01]"),
        (["--dt", "1e-3", "--phi-max", "0.5"], "--phi-max: phi_max must exceed 1"),
        # several bad options: the first RunConfig checks is the one named
        (["--dt", "nan", "--t-final", "inf", "--snapshots", "-1", "--phi-max", "0.5"], "--dt: "),
        (["--dt", "1e-3", "--t-final", "inf", "--snapshots", "-1", "--phi-max", "0.5"], "--t-final: "),
        (["--dt", "1e-3", "--snapshots", "-1", "--phi-max", "0.5"], "--snapshots: "),
    ):
        assert main(run + extra) == 2, extra
        assert capsys.readouterr().err.startswith(f"acsplit: error: {message}"), extra
    assert not (tmp_path / "never").exists()


def test_sweep_and_study_step_refusals_name_the_flag(tmp_path, capsys):
    # a sweep's horizon is 1/s, so --dt (or --dt-factor) is named for every
    # step check; a study's steps are named as run's are, each dt first
    never = str(tmp_path / "never")
    sweep = ["sweep-omega", "--branch", "+", "--omegas", "0.5", "--out", never]
    spinodal = ["converge", "--problem", "spinodal", "--schemes", "S1", "--cells", "8", "--out", never]
    wave = ["converge", "--problem", "wave", "--schemes", "S1", "--cells", "8", "--out", never]
    for command, message in (
        (sweep + ["--dt", "nan"], "--dt: dt must be positive and finite, got nan"),
        (sweep + ["--dt", "1e-300"], "--dt: t_final/dt = 2e+298 asks for more than MAX_STEPS = 10,000,000 steps"),
        (sweep + ["--dt", "1"], "--dt: t_final must be finite and at least one step, got 0.020000000000000004"),
        (sweep + ["--dt-factor", "inf"], "--dt-factor: dt must be positive and finite, got inf"),
        (spinodal + ["--dt-list", "1e-3", "--t-final", "nan"],
         "--t-final: t_final must be finite and at least one step, got nan"),
        (spinodal + ["--dt-list", "1e-3,nan", "--t-final", "nan"], "--dt-list: dt must be positive and finite, got nan"),
        # each dt is checked before the reference step that the study derives from the finest
        (spinodal + ["--dt-list=-1e-3"], "--dt-list: dt must be positive and finite, got -0.001"),
        (spinodal + ["--dt-list", "1e-3", "--t-final", "1e5"],
         "--t-final: t_final/dt = 1e+08 asks for more than MAX_STEPS = 10,000,000 steps"),
        (spinodal + ["--dt-list", "1e-3", "--t-final", "5e3"],
         "--ref-dt: t_final/dt = 2e+07 asks for more than MAX_STEPS = 10,000,000 steps"),
        (wave + ["--dt-list", "1e-300"], "--dt-list: t_final/dt = 2e+298 asks for more than MAX_STEPS = 10,000,000 steps"),
        (wave + ["--dt-pow2=-6:-5"], "--dt-pow2: t_final must be finite and at least one step, got 0.020000000000000004"),
    ):
        assert main(command) == 2, command
        assert capsys.readouterr().err == f"acsplit: error: {message}\n", command
    assert not Path(never).exists()


def test_unusable_config_and_out_paths_exit_4_and_a_config_not_an_object_exits_2(tmp_path, capsys):
    for config in (tmp_path, tmp_path / "missing.json"):
        assert main(["coeffs", "--scheme", "S1", "--config", str(config)]) == 4
        assert capsys.readouterr().err.startswith("acsplit: error: cannot read config: ")
    listed = tmp_path / "list.json"
    listed.write_text('["S1"]')
    assert main(["coeffs", "--scheme", "S1", "--config", str(listed)]) == 2
    assert capsys.readouterr().err == "acsplit: error: config must be a JSON object\n"
    assert main(["coeffs", "--scheme", "S1", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith(f"acsplit: error: cannot write {tmp_path}: ")


def test_an_omega_range_ends_at_omega_max(tmp_path):
    # every omega-min + i * omega-step up to omega-max, where omega-max is met
    # within the rounding of the three decimals: the last omega is
    # min + (count-1)*step unclamped, so it may pass max by that rounding
    for lo, hi, step, count, last in (("0.3", "0.4", "0.01", 11, 0.4), ("0.1", "0.7", "0.1", 7, 0.7000000000000001),
                                      ("0.2505", "1.2", "0.0025", 380, 1.198)):
        out = tmp_path / f"{lo}-{hi}.csv"
        assert main(["coeffs", "--family", "S3+", "--omega-min", lo, "--omega-max", hi, "--omega-step", step,
                     "--out", str(out)]) == 0
        omegas = [float(row["omega"]) for row in read_csv_rows(out)]
        assert omegas == [float(lo) + i * float(step) for i in range(count)], (lo, hi, step)
        assert omegas[-1] == last, (lo, hi, step)
    assert (0.7 - 0.1) / 0.1 == 5.999999999999999  # the span that rounding alone would end one omega short


def test_spinodal_study_refuses_a_reference_step_that_is_not_positive_and_finite():
    for ref_dt, message in ((float("nan"), "positive and finite"), (0.0, "positive and finite"),
                            (-1e-4, "positive and finite"), (float("inf"), "positive and finite"),
                            (6e-4, "at least 2x finer than the finest run")):
        with pytest.raises(ValueError, match=f"reference dt must be {message}"):
            harness.spinodal_convergence([scheme_from_string("S1")], [1e-3], SpinodalSpec(cells=8), ref_dt=ref_dt)


def test_empty_or_repeated_lists_exit_2(tmp_path, capsys):
    # every list flag is refused as --k-tols is: empty, or naming one entry
    # twice (the same number, or scheme ids with the same label); an empty
    # --snapshots asks for none, and two snapshot times must not share a file
    never = str(tmp_path / "never" / "out")
    wave = ["converge", "--problem", "wave", "--cells", "16", "--out", never]
    run_wave = ["run", "--problem", "wave", "--cells", "16", "--scheme", "S1", "--dt", "1e-4", "--t-final", "2e-3"]
    for command, message in (
        (wave + ["--schemes", "S1", "--dt-list", ","], "--dt-list: no dt value given"),
        (wave + ["--schemes", "S1", "--dt-pow2", "5:3"], "--dt-pow2: no dt value given"),
        (wave + ["--schemes", "S1", "--dt-list", "1e-3,1e-3,1e-3"],
         "--dt-list: dt 0.001 is given more than once, as entries 1, 2, 3 of (0.001, 0.001, 0.001)"),
        (wave + ["--schemes", "S1", "--dt-list", "2e-3,1e-3,0.001"],
         "--dt-list: dt 0.001 is given more than once, as entries 2, 3"),
        (wave + ["--schemes", "S1,S1", "--dt-pow2", "3:4"],
         "--schemes: scheme S1 is given more than once, as entries 1, 2 of ('S1', 'S1')"),
        (wave + ["--schemes", "S2(1),S1,s2(1.0)", "--dt-pow2", "3:4"],
         "--schemes: scheme S2(1) is given more than once, as entries 1, 3"),
        (["sweep-omega", "--branch", "+", "--omegas", ",", "--out", never], "--omegas: no omega value given"),
        (["sweep-omega", "--branch", "+", "--omegas", "0.5,0.6,0.50", "--out", never],
         "--omegas: omega 0.5 is given more than once, as entries 1, 3 of (0.5, 0.6, 0.5)"),
        (["coeffs", "--family", "S3+", "--omegas", ",", "--out", never], "--omegas: no omega value given"),
        (run_wave + ["--snapshots", "0.001,0.0010000049", "--out-dir", never],
         "--snapshots: snapshot time 0.001 is given more than once, as entries 1, 2 of (0.001, 0.0010000049)"),
        (run_wave + ["--snapshots", "0,1e-3,0.0", "--out-dir", never],
         "--snapshots: snapshot time 0 is given more than once, as entries 1, 3"),
    ):
        assert main(command) == 2, command
        assert f"acsplit: error: {message}" in capsys.readouterr().err, command
    assert main(run_wave + ["--snapshots", ",", "--out-dir", str(tmp_path / "none")]) == 0
    assert sorted(path.name for path in (tmp_path / "none").iterdir()) == ["diagnostics.csv"]
    config = tmp_path / "study.json"
    for cfg, command, message in (
        ({"problem": "spinodal", "schemes": ["S1"], "dt_list": []}, ["converge"], "--dt-list: no dt value given"),
        ({"problem": "wave", "schemes": ["S1", "S1"], "dt_pow2": "3:4"}, ["converge"],
         "--schemes: scheme S1 is given more than once"),
        ({"family": "S3+", "omegas": []}, ["coeffs"], "--omegas: no omega value given"),
    ):
        config.write_text(json.dumps(cfg))
        assert main(command + ["--config", str(config), "--out", never]) == 2, cfg
        assert message in capsys.readouterr().err, cfg
    assert not (tmp_path / "never").exists()


def test_run_past_an_overflowing_square_warns_nothing(tmp_path):
    # with the guard and the clamp off, this run's field exceeds 1.34e154,
    # whose square overflows inside the reaction kernel; the kernel
    # resolves that silently, so pytest's RuntimeWarning-as-error finds nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--problem", "wave", "--scheme", "S3(0.333,+)", "--cells", "64", "--k-tol", "inf",
                     "--phi-max", "inf", "--dt", "0.002946278254943948", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "# status=completed" in (tmp_path / "diagnostics.csv").read_text()
