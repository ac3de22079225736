import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acsplit
from acsplit import TravelingWaveSpec, __version__, kernel_backend, traveling_wave_field
from acsplit.cli import main
from acsplit.fieldio import load_field
from acsplit.harness import omega_sweep, scheme_from_string
from acsplit.report import ErrorReport

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
            "# problem=wave",
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
            "# problem=wave",
            "# scheme=S3Y",
            "# t_final=0.0123",
        ]
        + version
        + ["# status=diverged", "# diverged_step=1", "# diverged_cell=0",
           "# shortened_final_step=true"]
        + diag_columns
    )

    capsys.readouterr()
    assert main(["coeffs", "--scheme", "S3X"]) == 0
    assert csv_header(capsys.readouterr().out) == [
        "# acsplit-coeffs v1",
        "label,order,a1,a2,a3,b1,b2,b3",
    ]
    assert main(["coeffs", "--family", "S3+", "--omegas", "0.5"]) == 0
    assert csv_header(capsys.readouterr().out) == [
        "# acsplit-coeffs v1",
        "omega,a1,b1,a2,b2,a3,b3,D,min,max,bounded,marker",
    ]


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


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["coeffs"]) == 2
    assert main(["run", "--problem", "wave", "--scheme", "S9", "--dt", "1e-3"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    # config values that are not scheme ids
    never = str(tmp_path / "never")
    for cfg, command in (({"scheme": 1}, ["run", "--out-dir", never]),
                         ({"schemes": 5}, ["converge", "--out", never]),
                         ({"schemes": ["S1", 1]}, ["converge", "--out", never])):
        bad.write_text(json.dumps({"problem": "wave", "dt": 1e-3, "dt_list": [1e-3], **cfg}))
        assert main(command + ["--config", str(bad)]) == 2
    # non-finite family parameters must not give NaN coefficients
    assert main(["coeffs", "--scheme", "S3(inf,+)"]) == 2
    assert main(["coeffs", "--scheme", "S2(nan)"]) == 2
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
    ):
        assert main(command) == 2, command
        assert f"acsplit: error: {flag}: " in capsys.readouterr().err, command
    assert not (tmp_path / "never").exists()
