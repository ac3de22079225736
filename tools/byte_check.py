"""Print the sha256 prefix of every output of a fixed set of acsplit commands.

    python tools/byte_check.py [OUT_DIR]
    python tools/byte_check.py --against TREE

runs the `acsplit` of this checkout (its `src/`) with one BLAS thread: the
six criterion-08 omega sweeps (383 omegas at 128 cells, both branches, three
step sizes), a sweep of each branch under three clamps over nine omegas, where
some clamps bind and others share a run, and a reference set of `run`,
`converge` and `coeffs` commands
that covers the 3D factor path, a clamped 3D run, snapshots, both studies,
a wave study whose stacked S3Y run diverges, a diverging 1D run, a run
whose field overflows a square, and a wave run on a longer domain under a
tighter guard (`--length 8 --phi-max 1.5`), whose header names both.  It
also pins the messages of ten usage errors: a bad list entry, a repeated
dt, an empty clamp list, a missing --dt, a guard at or below 1 (named by
its flag, --phi-max), a digit group in --cells, flags that override
their config keys, and the step refusals of a sweep (a NaN --dt, a --dt
of too many steps) and of a study (a NaN --t-final), each naming its flag.
It prints one `name sha256[:8]` line per output file, per stdout, and per
command's exit code with its stderr.  Output is deterministic.  The files are
written to OUT_DIR when it is given, otherwise to a temporary directory that
is removed.  A full pass takes about 15 s on one core of a 2-vCPU Xeon.

With `--against TREE`, the same commands also run the `acsplit` of the
checkout TREE (from TREE's own `src/`), and only the lines that differ are
printed: `- line` as TREE gives it, `+ line` as this checkout gives it.
Nothing is printed when every byte is kept, so

    python tools/byte_check.py --against ../parent

is the byte check of a change against a checkout of its parent commit.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# criterion 08's omega grid (tests/test_acceptance.py)
OMEGAS = ",".join(repr(w) for w in [0.2505, 0.2510, 0.2515] + [0.2525 + 0.0025 * i for i in range(380)])

# omegas where, at 128 cells and dt = 2^-4/s, the clamps 1e4, 1e6 and inf bind in every mix on
# each branch (none, 1e4 alone, all but inf), so that a sweep both shares runs and keeps its own; 1.0 is singular on +
MIXED_OMEGAS = "0.2505,0.29,0.2975,0.305,0.35,0.3975,0.5,1.0,1.2"

# the wave steps 2^-2/s (criterion 07's) and 2^-5/s, for the front's speed s at the default epsilon
WAVE_DT = {2: "0.005000000000000001", 5: "0.0006250000000000001"}

# name -> arguments; "{out}" is the command's own output directory, "{config}" its config file
COMMANDS: dict[str, list[str]] = {
    **{
        f"sweep{branch}{factor}": ["sweep-omega", "--branch", branch, "--omegas", OMEGAS, "--cells", "128",
                                   "--dt-factor", factor]
        for branch in "+-"
        for factor in ("0.0625", "0.125", "0.03125")
    },
    **{
        f"sweep{branch}-k-tols-1e4,1e6,inf": ["sweep-omega", "--branch", branch, "--omegas", MIXED_OMEGAS,
                                              "--cells", "128", "--k-tols", "1e4,1e6,inf"]
        for branch in "+-"
    },
    "run-spinodal-S4V-64": ["run", "--problem", "spinodal", "--scheme", "S4V", "--cells", "64", "--seed", "1",
                            "--dt", "1e-4", "--t-final", "4e-3", "--snapshots", "0,1e-3,2e-3,3e-3,4e-3",
                            "--out-dir", "{out}"],
    "run-spinodal-S3Z-24": ["run", "--problem", "spinodal", "--scheme", "S3Z", "--cells", "24", "--seed", "2",
                            "--k-tol", "1e4", "--dt", "2e-4", "--t-final", "4e-3", "--snapshots", "2e-3,4e-3",
                            "--out-dir", "{out}"],
    "run-spinodal-S4V-16": ["run", "--problem", "spinodal", "--scheme", "S4V", "--cells", "16", "--seed", "3",
                            "--dt", "2.5e-4", "--t-final", "5e-3", "--snapshots", "0,1e-3,5e-3",
                            "--out-dir", "{out}"],
    "converge-spinodal": ["converge", "--problem", "spinodal", "--schemes", "S1,S2(1),S2(0.5),S3X,S4U,S4V",
                          "--cells", "16", "--dt-list", "5e-4,2.5e-4,1.25e-4", "--t-final", "2e-3",
                          "--ref-dt", "3.125e-5", "--out", "{out}/spinodal"],
    "converge-wave": ["converge", "--problem", "wave", "--schemes", "S1,S2(1),S3X,S3Y,S3Z,S4U,S4V",
                      "--dt-pow2", "3:6", "--out", "{out}/wave"],
    "converge-wave-1024": ["converge", "--problem", "wave", "--schemes", "S1,S3X,S3Y,S3Z", "--cells", "1024",
                           "--dt-pow2", "2:4", "--out", "{out}/wave"],
    "run-wave-S3Y-1024": ["run", "--problem", "wave", "--scheme", "S3Y", "--cells", "1024", "--k-tol", "inf",
                          "--dt", WAVE_DT[2], "--out-dir", "{out}"],
    "run-wave-S4V-256": ["run", "--problem", "wave", "--scheme", "S4V", "--cells", "256", "--dt", WAVE_DT[5],
                         "--snapshots", "0,0.01,0.02", "--out-dir", "{out}"],
    "run-wave-S3(0.333,+)-phi-max-inf": ["run", "--problem", "wave", "--scheme", "S3(0.333,+)", "--cells", "64",
                                         "--k-tol", "inf", "--phi-max", "inf", "--dt", "0.002946278254943948",
                                         "--out-dir", "{out}"],
    "run-wave-S2(1)-length-8-phi-max-1.5": ["run", "--problem", "wave", "--scheme", "S2(1)", "--dt", "1e-3",
                                            "--t-final", "3e-3", "--cells", "32", "--length", "8",
                                            "--phi-max", "1.5", "--out-dir", "{out}"],
    "coeffs-S3X": ["coeffs", "--scheme", "S3X"],
    "coeffs-S3-": ["coeffs", "--family", "S3-", "--omega-min", "0.2505", "--omega-max", "1.2",
                   "--omega-step", "0.0025"],
    "usage-omegas-entry": ["coeffs", "--family", "S3+", "--omegas", "0.3,abc"],
    "usage-dt-list-repeat": ["converge", "--problem", "wave", "--schemes", "S1", "--dt-list", "1e-3,1e-3",
                             "--out", "{out}/wave"],
    "usage-k-tols-empty": ["sweep-omega", "--branch", "+", "--omegas", "0.5", "--k-tols", ",",
                           "--out", "{out}/sweep.csv"],
    "usage-run-no-dt": ["run", "--problem", "wave", "--scheme", "S1", "--out-dir", "{out}"],
    "usage-run-phi-max": ["run", "--problem", "wave", "--scheme", "S1", "--dt", "1e-3", "--phi-max", "0.5",
                          "--out-dir", "{out}"],
    "usage-cells-digit-group": ["run", "--problem", "wave", "--scheme", "S1", "--dt", "1e-3", "--cells", "1_28",
                                "--out-dir", "{out}"],
    "usage-sweep-dt-nan": ["sweep-omega", "--branch", "+", "--omegas", "0.5", "--dt", "nan",
                           "--out", "{out}/sweep.csv"],
    "usage-sweep-dt-steps": ["sweep-omega", "--branch", "+", "--omegas", "0.5", "--dt", "1e-300",
                             "--out", "{out}/sweep.csv"],
    "usage-converge-t-final-nan": ["converge", "--problem", "spinodal", "--schemes", "S1", "--dt-list", "1e-3",
                                   "--t-final", "nan", "--out", "{out}/spinodal"],
    "usage-flag-over-config": ["run", "--config", "{config}", "--problem", "wave", "--cells", "2_56",
                               "--out-dir", "{out}"],
}

# name -> the config file of a command that takes "{config}"
CONFIGS = {"usage-flag-over-config": '{"problem": "spinodal", "scheme": "S1", "dt": 1e-3, "cells": "1_28"}'}


def _prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def check(root: Path, src: Path = SRC) -> list[str]:
    """Run every command with the package under ``src``, its outputs under
    ``root``; one line per output."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    lines = []
    for name, args in COMMANDS.items():
        out = root / name
        out.mkdir(parents=True)
        config = root / f"{name}.json"
        if name in CONFIGS:
            config.write_text(CONFIGS[name])
        argv = [arg.replace("{out}", str(out)).replace("{config}", str(config)) for arg in args]
        done = subprocess.run([sys.executable, "-m", "acsplit.cli", *argv], env=env, capture_output=True)
        status = f"{done.returncode}\n".encode() + done.stderr
        lines.append(f"{name}:exit+stderr {_prefix(status)}")
        if done.stdout:
            lines.append(f"{name}:stdout {_prefix(done.stdout)}")
        lines += [f"{name}/{path.name} {_prefix(path.read_bytes())}" for path in sorted(out.iterdir())]
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="byte_check.py", description=__doc__.split("\n", 1)[0])
    given = parser.add_mutually_exclusive_group()
    given.add_argument("out_dir", nargs="?", metavar="OUT_DIR", help="keep the output files here")
    given.add_argument("--against", metavar="TREE", help="print only the lines that differ from TREE's")
    args = parser.parse_args(argv)
    if args.out_dir:
        lines = check(Path(args.out_dir))
    elif args.against:
        other = Path(args.against).resolve() / "src"
        if not (other / "acsplit").is_dir():
            parser.error(f"{other / 'acsplit'} is not a directory")
        with tempfile.TemporaryDirectory() as tmp:
            theirs, ours = check(Path(tmp, "against"), other), check(Path(tmp, "this"))
        lines = [line for line in difflib.ndiff(theirs, ours) if line[:2] in ("- ", "+ ")]
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = check(Path(tmp))
    if lines:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
