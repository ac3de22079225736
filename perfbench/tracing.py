"""Per-layer trace recorded from outside the program.

For the traced pass only, :class:`Tracer` replaces module-level names of
``acsplit`` with timing wrappers and puts the originals back afterwards.
Each call becomes a span (name, start, end, parent) kept in flat arrays and
written out at the end.  A layer's self time is its spans' durations minus
the durations of their direct children; ``other.self_s`` is the traced wall
time no span covers, so the self times and ``other.self_s`` add up to the
traced wall time.  Byte and GB/s figures are computed from argument sizes
(bytes each kernel must read and write once), not measured.

:class:`Segments` times the untraced passes: it marks the clocks at the
entries of a few calls only, and keeps each piece of a pass at its fastest
over the repeated passes.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from time import perf_counter, process_time

import numpy as np

import acsplit._kernels
import acsplit.cli
import acsplit.fieldio
import acsplit.harness
import acsplit.operators
import acsplit.report
import acsplit.solver
import acsplit.spectral

SPAN_ATTR = "__perfbench_span__"


def _array_bytes(copies: int):
    return lambda args, result: copies * args[0].nbytes


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _diverged(args, result):
    return int(result.status == "diverged")


# (owner, attribute, span name, extra count per call, split by parent).  The
# owner is the namespace the caller looks the name up in, which is not
# always the module that defines it.
TARGETS = [
    (acsplit.operators, "dctn", "operators.dctn", _array_bytes(2), True),
    (acsplit.operators, "idctn", "operators.idctn", _array_bytes(2), True),
    (acsplit._kernels, "heat_multiplier_apply", "kernels.heat_multiplier_apply", _array_bytes(3), False),
    (acsplit._kernels, "free_energy_apply", "kernels.free_energy_apply", _array_bytes(2), False),
    (acsplit._kernels, "guard_scan", "kernels.guard_scan", _array_bytes(1), False),
    (acsplit.solver, "heat_evolve", "operators.heat_evolve", None, False),
    (acsplit.solver, "free_energy_evolve", "operators.free_energy_evolve", None, False),
    (acsplit.solver, "energy", "operators.energy", None, False),
    (acsplit.solver, "step", "solver.step", None, False),
    (acsplit.harness, "run", "solver.run", _diverged, False),
    (acsplit.harness, "relative_l2_error", "solver.relative_l2_error", None, False),
    (acsplit.harness, "third_order_family", "coeffs.third_order_family", None, False),
    (acsplit.harness, "named_scheme", "coeffs.named_scheme", None, False),
    (acsplit.harness, "spinodal_initial", "problems.spinodal_initial", None, False),
    (acsplit.cli, "spinodal_initial", "problems.spinodal_initial", None, False),
    (acsplit.harness, "traveling_wave_field", "problems.traveling_wave_field", None, False),
    (acsplit.harness, "single_run", "harness.single_run", None, False),
    (acsplit.fieldio, "save_field", "fieldio.save_field", _file_bytes, False),
    (acsplit.report.ErrorReport, "fit_slopes", "report.fit_slopes", None, False),
    (acsplit.report.ErrorReport, "to_csv", "report.to_csv", None, False),
]

# Layers reported with a computed GB/s figure, then the other timed layers.
KERNEL_LAYERS = [
    "operators.dctn.heat_evolve",
    "operators.dctn.energy",
    "operators.idctn.heat_evolve",
    "kernels.heat_multiplier_apply",
    "kernels.free_energy_apply",
    "kernels.guard_scan",
]
CALL_LAYERS = [
    "operators.heat_evolve",
    "operators.free_energy_evolve",
    "operators.energy",
    "solver.step",
    "solver.run",
    "solver.relative_l2_error",
    "harness.single_run",
    "fieldio.save_field",
    "coeffs.third_order_family",
    "coeffs.named_scheme",
    "problems.spinodal_initial",
    "problems.traveling_wave_field",
    "report.fit_slopes",
    "report.to_csv",
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for layer in KERNEL_LAYERS + CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in KERNEL_LAYERS:
            units[f"{layer}.gbps_computed"] = "GB/s"
    units["solver.run.diverged_ratio"] = "ratio"
    units["fieldio.save_field.bytes"] = "B"
    units["spectral.eigenvalue_table.hit_ratio"] = "ratio"
    units["other.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    # From getrusage over the untraced pass: page faults and kernel time
    # show the cost of allocating fresh arrays in every substep.
    units["process.minor_faults"] = "count"
    units["process.sys_s"] = "s"
    return units


class Tracer:
    """Installs the wrappers, records spans, and aggregates them per layer."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str, extra, by_parent: bool):
        base_id = self._id(span)
        leaf_ids: dict[int, int] = {}
        stack, names, name, parent, start, end = (
            self._stack, self.names, self.name, self.parent, self.start, self.end
        )

        def wrapper(*args, **kwargs):
            up = stack[-1] if stack else -1
            nid = base_id
            if by_parent and up >= 0:
                pid = name[up]
                if pid not in leaf_ids:
                    leaf_ids[pid] = self._id(f"{span}.{names[pid].rsplit('.', 1)[-1]}")
                nid = leaf_ids[pid]
            idx = len(name)
            name.append(nid)
            parent.append(up)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                self.extra[names[nid]] += extra(args, result)
            return result

        setattr(wrapper, SPAN_ATTR, span)
        return wrapper

    def install(self) -> None:
        for owner, attr, span, extra, by_parent in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, extra, by_parent))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, wall_s: float, eig_hits: int, eig_misses: int) -> dict[str, float]:
        """Aggregate the spans of one traced pass of ``wall_s`` seconds."""
        ids = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - children, minlength=n)

        out = {}
        for layer in KERNEL_LAYERS + CALL_LAYERS:
            i = self._ids.get(layer)
            out[f"{layer}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{layer}.self_s"] = float(self_s[i]) if i is not None else 0.0
            if layer in KERNEL_LAYERS:
                seconds = out[f"{layer}.self_s"]
                out[f"{layer}.gbps_computed"] = self.extra[layer] / seconds / 1e9 if seconds > 0 else 0.0
        runs = out["solver.run.calls"]
        out["solver.run.diverged_ratio"] = self.extra["solver.run"] / runs if runs else 0.0
        out["fieldio.save_field.bytes"] = self.extra["fieldio.save_field"]
        lookups = eig_hits + eig_misses
        out["spectral.eigenvalue_table.hit_ratio"] = eig_hits / lookups if lookups else 0.0
        out["other.self_s"] = wall_s - float(dur[~nested].sum())
        out["trace.wall_s"] = wall_s
        return out

    def save(self, path) -> None:
        """Write the raw spans; ``names[name[i]]`` is span i's layer."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def installed_wrappers() -> list[str]:
    """Targets that still hold a timing wrapper; empty after :meth:`Tracer.restore`."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in TARGETS
            if hasattr(owner.__dict__[attr], SPAN_ATTR)]


def traced_pass(tracer: Tracer, run):
    """Run ``run()`` with the wrappers installed; return its result, the wall time and
    the eigenvalue-table cache hits and misses during the pass."""
    before = acsplit.spectral.eigenvalue_table.cache_info()
    tracer.install()
    try:
        t0 = perf_counter()
        result = run()
        wall = perf_counter() - t0
    finally:
        tracer.restore()
    after = acsplit.spectral.eigenvalue_table.cache_info()
    return result, wall, after.hits - before.hits, after.misses - before.misses


# Kinds of the marks that cut an untraced pass into segments.
EDGE, RUN_IN, RUN_OUT, STEP_IN, INNER = 0, 1, 2, 3, 4


class Segments:
    """Wall and CPU time of repeated untraced passes, with the host's slow phases left out.

    Thin wrappers over ``acsplit.harness.run`` and ``acsplit.solver.step``
    note both clocks at each run's entry and exit and at each step's entry;
    with ``inside_steps`` they also mark each substep (``heat_evolve`` and
    ``free_energy_evolve`` as the solver calls them) and each transform
    (``dctn`` and ``idctn`` as the operators call them).  These marks cut a
    pass into segments.  A pass is deterministic, so every pass makes the
    same calls in the same order and so the same segments; each segment
    keeps its minimum over the passes.

    The iterations of a run's loop between its second step and its last
    one do the same work as those of every run with the same step
    structure, grid, step size and diagnostics.  A segment of such an
    iteration is counted at the fastest of the segments at the same place in
    all of them.  The first iteration, the last one (with the run's
    epilogue) and everything outside the runs keep their own minima, so
    one-off costs are counted.

    On a shared host, other tenants slow the process by up to 2x, for
    seconds to minutes at a time, but leave moments of full speed a few
    milliseconds long even in a slow stretch.  A median over passes follows
    the slow stretches; minima over segments this short mostly do not.  A
    cost added to only some middle iterations is not seen.
    """

    def __init__(self, inside_steps: bool):
        self.inside_steps = inside_steps
        self.kinds = self.work = None
        self.wall = self.cpu = None
        self._classes: dict[tuple, int] = {}

    def _work_class(self, f0, cfg) -> int:
        scheme = cfg.scheme
        key = (
            tuple(a != 0.0 for a in scheme.a), tuple(b != 0.0 for b in scheme.b),
            f0.values.shape, cfg.dt, cfg.record_energy, cfg.phi_max is None,
        )
        return self._classes.setdefault(key, len(self._classes))

    def timed_pass(self, run):
        """Run ``run()`` with the marks installed; return its result and the pass's wall and CPU time."""
        walls, cpus, kinds, work = array("d"), array("d"), array("b"), array("i")

        def mark(kind):
            walls.append(perf_counter())
            cpus.append(process_time())
            kinds.append(kind)

        def marking(fn, kind):
            def wrapper(*args, **kwargs):
                mark(kind)
                return fn(*args, **kwargs)
            setattr(wrapper, SPAN_ATTR, "segment")
            return wrapper

        run_fn = acsplit.harness.run

        def marked_run(f0, cfg, *args, **kwargs):
            work.append(self._work_class(f0, cfg))
            mark(RUN_IN)
            try:
                return run_fn(f0, cfg, *args, **kwargs)
            finally:
                mark(RUN_OUT)

        setattr(marked_run, SPAN_ATTR, "segment")
        targets = [(acsplit.harness, "run", marked_run),
                   (acsplit.solver, "step", marking(acsplit.solver.step, STEP_IN))]
        if self.inside_steps:
            targets += [(owner, name, marking(getattr(owner, name), INNER))
                        for owner, name in ((acsplit.solver, "heat_evolve"), (acsplit.solver, "free_energy_evolve"),
                                            (acsplit.operators, "dctn"), (acsplit.operators, "idctn"))]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            mark(EDGE)
            result = run()
            mark(EDGE)
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
        wall, cpu = np.diff(np.frombuffer(walls)), np.diff(np.frombuffer(cpus))
        if self.kinds is None:
            self.kinds, self.work, self.wall, self.cpu = kinds, work, wall, cpu
        elif kinds != self.kinds or work != self.work:
            raise RuntimeError("a pass made other marked calls than the first pass")
        else:
            np.minimum(self.wall, wall, out=self.wall)
            np.minimum(self.cpu, cpu, out=self.cpu)
        return result, float(wall.sum()), float(cpu.sum())

    def segment_classes(self) -> np.ndarray:
        """Per segment: its class if it lies in a run's middle iteration, or -1 if it is counted alone.

        The class is the run's work class and the segment's place in its iteration.
        """
        classes = np.full(len(self.kinds) - 1, -1)
        keys: dict[tuple[int, int], int] = {}
        runs, steps = iter(self.work), []
        for i, kind in enumerate(self.kinds):
            if kind == RUN_IN:
                work, steps = next(runs), []
            elif kind == STEP_IN:
                steps.append(i)
            elif kind == RUN_OUT:
                for start, end in zip(steps[1:-1], steps[2:]):
                    for seg in range(start, end):
                        classes[seg] = keys.setdefault((work, seg - start), len(keys))
        return classes

    def totals(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass from the segments' minima."""
        wall, cpu = self.wall.copy(), self.cpu.copy()
        classes = self.segment_classes()
        order = np.argsort(classes, kind="stable")
        bounds = np.searchsorted(classes[order], np.arange(classes.max() + 2))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            same = order[lo:hi]
            wall[same] = wall[same].min()
            cpu[same] = cpu[same].min()
        return float(wall.sum()), float(cpu.sum())
