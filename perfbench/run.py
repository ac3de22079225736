"""Benchmark of record for acsplit.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Runs one workload single-process and single-threaded from the source tree
next to this directory, checks every run against the correctness gate, and
prints the machine facts, one line per metric, and as the last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats untraced passes while the next one still fits in
``--seconds`` seconds (at least three passes), and reports each pass's
segments at their fastest (see ``tracing.Segments``).  It starts a fresh
interpreter before each pass to time set-up (at least 7 in all) and reports
their median.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics; no end-to-end number comes from a traced pass.
``--workload all`` runs each workload in its own process and prints a
table.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MIN_PASSES = 3
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "cell_substeps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup_seconds(name: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the workload's first step."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed with exit code {proc.returncode}")
    return elapsed


def _sysfs_caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    paths = [*(SRC / "acsplit").rglob("*.py"), *(SRC / "acsplit").rglob("*.pyx")]
    for path in sorted(paths):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    import acsplit
    import numpy
    import scipy
    from workloads import THREAD_VARS

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_cpu0": _sysfs_caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "acsplit": acsplit.__version__,
        "kernel_backend": acsplit.kernel_backend,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "note": "byte and GB/s figures are computed from array sizes; the arrays (256 KB at 32^3, "
        "2 MB at 64^3, 1 KB in 1D) fit in L3, so these are in-cache rates, not DRAM bandwidth",
    }


def measure(workload, seed: int, seconds: float, trace: bool, expected) -> dict:
    """Run passes, gate every one, and return the result object."""
    from tracing import Segments, Tracer, metric_units, traced_pass

    attempted = 0
    failures: list[str] = []

    def gated(result):
        nonlocal attempted
        n, bad = workload.check(workload.summarize(result, seed), expected)
        attempted += n
        failures.extend(bad)

    if trace:
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        result = workload.run_pass(seed)
        untraced = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        gated(result)
        tracer = Tracer()
        result, traced, hits, misses = traced_pass(tracer, lambda: workload.run_pass(seed))
        gated(result)
        values = tracer.layer_metrics(traced, hits, misses)
        values["trace.overhead_s"] = traced - untraced
        values["process.minor_faults"] = r1.ru_minflt - r0.ru_minflt
        values["process.sys_s"] = r1.ru_stime - r0.ru_stime
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"{workload.name}.spans.npz")
        units = metric_units()
    else:
        # One set-up probe before each pass, so the probes sample the same
        # stretch of time as the passes; the last pass must fit in --seconds.
        segments = Segments(workload.mark_inside_steps)
        setups, walls, cpus = [], [], []
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(walls) <= seconds:
            setups.append(setup_seconds(workload.name, seed))
            result, wall, cpu = segments.timed_pass(lambda: workload.run_pass(seed))
            walls.append(wall)
            cpus.append(cpu)
            gated(result)
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_seconds(workload.name, seed))
        wall, cpu = segments.totals()
        values = {
            "wall_s": wall,
            "cpu_s": cpu,
            "cell_substeps_per_s": workload.work() / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"passes: {len(walls)}, {len(segments.kinds) - 1} segments each")
        print(f"wall_s per pass: {', '.join(f'{w:.3f}' for w in walls)} (median {statistics.median(walls):.3f})")
        print(f"cpu_s per pass: {', '.join(f'{c:.3f}' for c in cpus)} (median {statistics.median(cpus):.3f})")
        print(f"set-up probes: {len(setups)}, seconds: {', '.join(f'{t:.3f}' for t in setups)}")
    for msg in failures[:20]:
        print(f"FAIL {msg}")
    print(f"runs_failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} runs)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays separate."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("attempted", "failed"):
            total[key] += result[key]
        total["correct"] = total["correct"] and result["correct"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
            print(f"{name:22s} {metric:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:22s} {'runs_failed_ratio':40s} {result['failed'] / result['attempted']:>14.6g} ratio")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="offset on the spinodal seed; 0 = the acceptance tests' seeds")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "acsplit" / "__init__.py").is_file():
        print(f"perfbench: no acsplit source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, recorded

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print("facts " + json.dumps(machine_facts(), sort_keys=True))
    if args.workload == "all":
        result = run_all(args)
    else:
        workload = WORKLOADS[args.workload]
        result = measure(workload, args.seed, args.seconds, bool(args.trace), recorded(workload, args.seed))
        for metric, m in result["metrics"].items():
            print(f"{metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
