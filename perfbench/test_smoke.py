"""Smoke test of the benchmark itself: every workload at a tiny size, traced and untraced.

Run with: python -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (first: it pins the BLAS threads)

import acsplit.operators  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
import scipy.fft  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "spinodal-converge-32": dict(cells=8, schemes=("S1", "S2(1)", "S4V"), orders=(1, 2, 4), t_final=0.002),
    "front-sweep-128": dict(cells=32, omegas=(0.27, 1.0 / 3.0, 0.5)),
    "spinodal-run-64": dict(cells=8, t_final=4e-4),
}

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [True, False])
def test_tiny_workload_reports_every_metric(name, trace):
    workload = replace(WORKLOADS[name], **TINY[name])
    result = run.measure(workload, seed=1, seconds=0.0, trace=trace, expected=None)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("per_layer" if trace else "end_to_end")
    assert tracing.installed_wrappers() == []
    assert acsplit.operators.dctn is scipy.fft.dctn
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        covered = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert covered == pytest.approx(values["trace.wall_s"], rel=1e-9)
        assert values["solver.run.calls"] >= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrappers_are_removed_when_the_pass_raises():
    def boom():
        acsplit.operators.dctn(np.ones(4))
        raise RuntimeError("pass failed")

    with pytest.raises(RuntimeError):
        tracing.traced_pass(tracing.Tracer(), boom)
    assert tracing.installed_wrappers() == []


def test_segments_keep_each_piece_at_its_fastest():
    workload = replace(WORKLOADS["spinodal-run-64"], **TINY["spinodal-run-64"])
    segments = tracing.Segments(inside_steps=True)
    walls = [segments.timed_pass(lambda: workload.run_pass(1))[1] for _ in range(2)]
    assert tracing.installed_wrappers() == []
    wall, cpu = segments.totals()
    assert 0 < wall <= min(walls) and cpu > 0
    # 4 steps of S4V: the middle two, each cut at its 11 substeps, at the two
    # transforms of each of its 6 heat substeps and at the energy's transform
    # into 25 segments.
    classes = segments.segment_classes()
    assert (classes >= 0).sum() == 50 and classes.max() == 24

    with pytest.raises(RuntimeError, match="other marked calls"):
        segments.timed_pass(lambda: None)
    assert tracing.installed_wrappers() == []
