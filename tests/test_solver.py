import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from acsplit import (
    CutoffPolicy,
    Field,
    GridSpec,
    ModelParams,
    SpinodalSpec,
    SplitCoefficients,
    TravelingWaveSpec,
    first_order,
    fourth_order_u,
    fourth_order_v,
    free_energy_evolve,
    heat_evolve,
    energy,
    named_scheme,
    relative_l2_error,
    second_order_family,
    spinodal_initial,
    traveling_wave_field,
)
from acsplit import solver
from acsplit.operators import DivergenceError, clamp_binds
from acsplit.spectral import eigenvalue_table
from acsplit.solver import (
    MAX_STEPS,
    RunConfig,
    StepPlan,
    StepRule,
    ZeroReferenceError,
    applied_substeps,
    run,
    run_ensemble,
    step,
)

EPS = 0.03 * np.sqrt(2.0)
MODEL = ModelParams(EPS)
WAVE = TravelingWaveSpec(EPS)


def rough_field(m=64, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field(GridSpec.line(1.0, m), scale * rng.uniform(-1.0, 1.0, m))


def test_first_order_step_is_reaction_after_diffusion():
    f = rough_field()
    dt = 0.5 * EPS**2
    composed = free_energy_evolve(heat_evolve(f, dt), dt, MODEL)
    stepped = step(f, applied_substeps(first_order(), dt), MODEL)
    np.testing.assert_array_equal(stepped.values, composed.values)


def test_zero_dt_is_the_identity():
    f = rough_field()
    out = step(f, applied_substeps(fourth_order_v(), 0.0), MODEL)
    np.testing.assert_array_equal(out.values, f.values)


@pytest.mark.parametrize(
    "scheme",
    [
        first_order(),
        second_order_family(1.0),
        named_scheme("S3X"),
        named_scheme("S3Y"),
        fourth_order_u(),
        fourth_order_v(),
    ],
)
def test_pure_diffusion_limit(scheme):
    # with eps so large the reaction is the identity, any schedule collapses
    # to one diffusion step because the a_j sum to 1
    huge_eps = ModelParams(1e12)
    grid = GridSpec.line(1.0, 32)
    ll = np.arange(32)
    f = Field(grid, np.cos(np.pi * 3 * (ll + 0.5) / 32))
    dt = 0.01
    expected = heat_evolve(f, dt)
    out = step(f, applied_substeps(scheme, dt), huge_eps)
    np.testing.assert_allclose(out.values, expected.values, rtol=0, atol=1e-10)


def test_run_step_counts_and_shortened_flag():
    f = rough_field()
    cfg = RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL, record_energy=False)
    traj = run(f, cfg)
    assert traj.completed and not traj.shortened_final_step
    assert len(traj.times) == 11  # initial state + 10 steps
    assert traj.times[-1] == pytest.approx(EPS**2)

    cfg = RunConfig(first_order(), 0.4 * EPS**2, EPS**2, MODEL, record_energy=False)
    traj = run(f, cfg)
    assert traj.shortened_final_step
    assert len(traj.times) == 4  # two full steps plus the shortened one
    assert traj.times[-1] == pytest.approx(EPS**2)


def test_run_snapshots_nearest_step():
    f = rough_field()
    dt = 0.1
    cfg = RunConfig(
        first_order(),
        dt,
        1.0,
        MODEL,
        snapshot_times=(0.0, 0.52, 1.0, 0.04, 0.5, 0.54, 0.98),
        record_energy=False,
    )
    traj = run(f, cfg)
    # times that round to one step each get that step's state, in a copy of their own
    assert set(traj.snapshots) == {0.0, 0.52, 1.0, 0.04, 0.5, 0.54, 0.98}
    for same in ((0.0, 0.04), (0.5, 0.52, 0.54), (0.98, 1.0)):
        for t in same:
            np.testing.assert_array_equal(traj.snapshots[t].values, traj.snapshots[same[0]].values)
        assert len({id(traj.snapshots[t].values) for t in same}) == len(same)
    np.testing.assert_array_equal(traj.snapshots[0.0].values, f.values)
    np.testing.assert_array_equal(traj.snapshots[1.0].values, traj.final.values)


def test_a_snapshot_sink_gets_each_state_read_only_at_its_step():
    # the sink sees the state the next step reads, so it must not be able
    # to write into it; it is called at the step, in order, and the run
    # keeps no copy of its own
    f = rough_field()
    cfg = RunConfig(first_order(), 0.1, 1.0, MODEL, snapshot_times=(0.0, 0.52, 1.0, 0.5), record_energy=False)
    kept = run(f, cfg)
    seen = []

    def sink(t_req, snap):
        with pytest.raises(ValueError, match="read-only"):
            snap.values[0] = 7.0
        seen.append((t_req, snap.values.copy()))

    traj = run(f, cfg, on_snapshot=sink)
    assert [t for t, _ in seen] == [0.0, 0.52, 0.5, 1.0]
    for t, values in seen:
        np.testing.assert_array_equal(values, kept.snapshots[t].values)
    assert traj.snapshots == {}
    np.testing.assert_array_equal(traj.final.values, kept.final.values)
    assert f.values.flags.writeable  # the caller's initial field stays writable


def test_big_step_stays_bounded_for_forward_schemes():
    f = rough_field(m=128, seed=5)
    cfg = RunConfig(second_order_family(1.0), 1e3 * EPS**2, 5e3 * EPS**2, MODEL)
    traj = run(f, cfg)
    assert traj.completed
    assert np.max(np.abs(traj.final.values)) <= 1.0 + 1e-12


def test_cutoff_rescues_large_backward_steps():
    # dt > eps^2 on a fine grid: without the clamp the backward diffusion
    # substep amplifies the sharpened spectrum into a blow-up
    grid = WAVE.grid(1024)
    f0 = traveling_wave_field(grid, 0.0, WAVE)
    dt = 2.0**-3 / WAVE.speed
    assert dt > EPS**2
    scheme = named_scheme("S3Y")
    unbounded = run(
        f0.copy(),
        RunConfig(scheme, dt, WAVE.t_final, MODEL, CutoffPolicy(np.inf), record_energy=False),
    )
    assert unbounded.status == "diverged"
    assert unbounded.diverged_step is not None
    assert unbounded.diverged_cell is not None
    clamped = run(
        f0.copy(),
        RunConfig(scheme, dt, WAVE.t_final, MODEL, CutoffPolicy(1e9), record_energy=False),
    )
    assert clamped.completed


def test_divergence_is_recorded_not_raised():
    # a large step on a fine grid without any clamp blows up early in the run
    grid = WAVE.grid(1024)
    f0 = traveling_wave_field(grid, 0.0, WAVE)
    cfg = RunConfig(
        named_scheme("S3Y"),
        2.0**-2 / WAVE.speed,
        WAVE.t_final,
        MODEL,
        CutoffPolicy(np.inf),
        record_energy=False,
    )
    traj = run(f0, cfg)
    assert traj.status == "diverged"
    assert 1 <= traj.diverged_step
    assert traj.diverged_cell is not None
    assert np.all(np.isfinite(traj.final.values))  # last pre-divergence state


@pytest.mark.parametrize(
    "scheme,order",
    [
        (first_order(), 1),
        (second_order_family(1.0), 2),
        (named_scheme("S3X"), 3),
        (fourth_order_u(), 4),
    ],
)
def test_local_order_via_step_halving(scheme, order):
    # || S(dt) - S(dt/2)^2 || ~ dt^(order+1) on a smooth state; the window
    # sits below the pre-asymptotic bump at the largest steps
    grid = WAVE.grid(128)
    f = traveling_wave_field(grid, 0.0, WAVE)
    dts = [2.0**-k / WAVE.speed for k in (5, 6, 7, 8)]
    defects = []
    for dt in dts:
        one = step(f, applied_substeps(scheme, dt), MODEL)
        halves = applied_substeps(scheme, dt / 2)
        half = step(step(f, halves, MODEL), halves, MODEL)
        defects.append(np.linalg.norm(one.values - half.values))
    slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
    assert slope == pytest.approx(order + 1, abs=0.5)


def test_determinism():
    # the second run reuses the cached heat multipliers of the first, and
    # must leave the first run's results alone
    f = rough_field(m=48, seed=9)
    cfg = RunConfig(named_scheme("S3Z"), EPS**2, 10 * EPS**2, MODEL)
    a = run(f.copy(), cfg)
    kept = a.final.values.copy()
    b = run(f.copy(), cfg)
    np.testing.assert_array_equal(b.final.values, kept)
    np.testing.assert_array_equal(a.final.values, kept)
    np.testing.assert_array_equal(a.energies, b.energies)


def _traced_peak(call) -> int:
    """Peak bytes tracemalloc sees (numpy's data allocations included) during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(16, 16, 16), (64, 64)], ids=["3d", "2d"])
def test_step_and_energy_allocate_no_temporaries(shape):
    # every substep allocates its result and nothing else of grid size, so
    # a step peaks at the substep's input and its result; freed temporaries
    # would be returned to the OS and faulted back in on the next substep
    grid = GridSpec((1.0,) * len(shape), shape)
    f = Field(grid, np.random.default_rng(5).uniform(-1.0, 1.0, shape))
    scheme, model = named_scheme("S4V"), ModelParams(0.015)
    # a middle step of a merged run: its first heat substep takes the
    # previous step's last one, and its own last one is deferred
    rule = StepRule.of(scheme, StepPlan.of(1e-4, 3e-4), merge=True)
    whole, merged = applied_substeps(scheme, 1e-4), rule.schedule[rule.position(2)]
    assert merged[0][1] > whole[0][1] and len(merged) == len(whole) - 1
    for _ in range(2):  # builds the cached factors and this thread's scratch array
        step(f, whole, model, phi_max=10.0)
        step(f, merged, model, phi_max=10.0)
        energy(f, model)
    grid_array = f.values.nbytes
    call_objects = 4096  # the Python objects and 0-d arrays of the calls
    assert _traced_peak(lambda: step(f, whole, model, phi_max=10.0)) <= 2 * grid_array + call_objects
    assert _traced_peak(lambda: step(f, merged, model, phi_max=10.0)) <= 2 * grid_array + call_objects
    assert _traced_peak(lambda: energy(f, model)) < 0.1 * grid_array


def test_threads_get_their_own_scratch_array():
    # more threads than cores, switched often: a scratch array shared
    # between threads would mix their fields
    grid = GridSpec.box(1.0, 12, 3)
    scheme, model = named_scheme("S4V"), ModelParams(0.015)
    fields = [np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape) for seed in (1, 2, 3)]
    start = threading.Barrier(len(fields))

    def march(values, barrier=None):
        if barrier is not None:
            barrier.wait(timeout=60)
        f, energies = Field(grid, values), []
        for _ in range(10):
            f = step(f, applied_substeps(scheme, 1e-4), model, phi_max=10.0)
            energies.append(energy(f, model))
        return f.values.tobytes(), energies

    serial = [march(values) for values in fields]
    results = [None] * len(fields)

    def worker(i):
        results[i] = march(fields[i], start)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(fields))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_field_is_rejected(bad):
    values = np.linspace(-0.5, 0.5, 8)
    values[3] = bad
    cfg = RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL)
    with pytest.raises(ValueError, match="non-finite"):
        run(Field(GridSpec.line(1.0, 8), values), cfg)


def test_relative_l2_error_examples():
    grid = GridSpec.line(1.0, 4)
    g = Field(grid, np.array([2.0, 0.0, 0.0, 0.0]))  # norm 2
    assert relative_l2_error(g, g) == 0.0
    f = Field(grid, 1.01 * g.values)
    assert relative_l2_error(f, g) == pytest.approx(0.01, rel=1e-12)
    f = Field(grid, g.values + np.array([0.0, 1.0, 0.0, 0.0]))
    assert relative_l2_error(f, g) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ZeroReferenceError):
        relative_l2_error(f, Field(grid, np.zeros(4)))
    with pytest.raises(ValueError):
        relative_l2_error(f, Field(GridSpec.line(2.0, 4), np.ones(4)))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(first_order(), 0.0, 1.0, MODEL)
    with pytest.raises(ValueError):
        RunConfig(first_order(), 1.0, 0.5, MODEL)
    with pytest.raises(ValueError):
        RunConfig(first_order(), 0.1, 1.0, MODEL, phi_max=0.5)


def test_run_config_builds_its_plan_once_and_keeps_it_out_of_eq_hash_and_repr():
    import dataclasses

    cfg = RunConfig(first_order(), 0.1, 1.05, MODEL)
    assert cfg.plan is cfg.plan
    assert cfg.plan == StepPlan.of(0.1, 1.05) and cfg.plan.shortened
    twin = RunConfig(first_order(), 0.1, 1.05, MODEL)
    assert twin == cfg and hash(twin) == hash(cfg) and "plan" not in repr(cfg)
    # replace() checks the new config and plans it afresh
    moved = dataclasses.replace(cfg, dt=0.25)
    assert moved.plan == StepPlan.of(0.25, 1.05) and moved.plan is not cfg.plan
    for changes, message in (({"dt": float("nan")}, "dt must be positive"),
                             ({"t_final": 0.05}, "at least one step"),
                             ({"dt": 1e-300}, "MAX_STEPS"),
                             ({"phi_max": 0.5}, "phi_max")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, **changes)


def test_step_count_above_the_cap_is_refused():
    with pytest.raises(ValueError, match="MAX_STEPS = 10,000,000"):
        RunConfig(first_order(), 1e-300, 1.0, MODEL)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        RunConfig(first_order(), 5e-324, 1e300, MODEL)  # t_final/dt overflows
    with pytest.raises(ValueError, match="MAX_STEPS"):
        StepPlan.of(1.0, MAX_STEPS + 0.5)  # one shortened step too many
    assert StepPlan.of(1.0, float(MAX_STEPS)).n_steps == MAX_STEPS


@pytest.mark.parametrize("dt,t_final", [(0.1, 1.0), (0.4, 1.0), (0.3, 1.0), (1e-3, 0.0125), (0.07, 0.7)])
def test_step_plan_matches_an_array_of_step_times(dt, t_final):
    # the plan must give the steps, times and nearest snapshot steps that an
    # explicit array of every step time gives, ties going to the earlier step
    plan = StepPlan.of(dt, t_final)
    times = np.concatenate(
        ([0.0], np.arange(1, plan.n_full + 1) * dt, [t_final] if plan.shortened else [])
    )
    assert len(times) == plan.n_steps + 1
    assert [plan.time(i) for i in range(plan.n_steps + 1)] == [float(t) for t in times]
    lengths = [plan.step_length(i) for i in range(1, plan.n_steps + 1)]
    assert lengths[: plan.n_full] == [dt] * plan.n_full
    if plan.shortened:
        assert lengths[-1] == t_final - plan.n_full * dt
    midpoints = (times[:-1] + times[1:]) / 2
    probes = np.concatenate((times, midpoints, np.nextafter(midpoints, 0), np.nextafter(midpoints, 2),
                             np.linspace(-1e-12 * t_final, t_final * (1 + 1e-12), 101)))
    for t in probes:
        assert plan.nearest_step(float(t)) == int(np.argmin(np.abs(times - t))), t


def _failure_kind(f0, cfg):
    """Replay ``cfg`` step by step: "guard", "blowup" or None."""
    f, plan = f0, cfg.plan
    for i in range(1, plan.n_steps + 1):
        try:
            f = step(f, applied_substeps(cfg.scheme, plan.step_length(i)), cfg.model, cfg.cutoff, cfg.phi_max)
        except DivergenceError as err:
            return "guard" if "guard" in str(err) else "blowup"
    return None


def test_ensemble_matches_serial_runs():
    grid = WAVE.grid(256)
    f0 = traveling_wave_field(grid, 0.0, WAVE)
    schemes = [
        named_scheme("S3X"),
        named_scheme("S3Y"),
        named_scheme("S3Z"),
        named_scheme("S3(0.5,+)"),
        named_scheme("S3(0.6,-)"),
        second_order_family(1.0),  # b_2 = 0
        second_order_family(0.5),  # a_1 = 0: as many substeps, other ones skipped
        fourth_order_v(),  # b_6 = 0
    ]
    schemes += schemes[-3:]  # the merged ones take two rows, since a stack of one run is a run()
    dt = 0.22 / WAVE.speed  # 4 full steps and a shortened fifth
    configs = [
        RunConfig(s, dt, WAVE.t_final, MODEL, CutoffPolicy(k), record_energy=False)
        for s in schemes
        for k in (1e4, 1e9, np.inf)
    ]
    assert configs[0].plan.shortened
    skips = {tuple(v != 0.0 for v in c.scheme.a + c.scheme.b) for c in configs}
    assert len(skips) == 4
    kinds = [_failure_kind(f0, cfg) for cfg in configs]
    assert {"guard", "blowup", None} <= set(kinds)
    merged = [StepRule.of(c.scheme, c.plan, merge=True).deferred is not None for c in configs]
    assert {kind for kind, m in zip(kinds, merged) if m} == {"guard", None}  # merged stacks diverge and complete

    steps = _assert_ensemble_matches_serial_runs(f0, configs)
    assert {1, 5} <= set(steps)  # a failure in the first and in the shortened last step


def test_ensemble_keeps_each_failed_run_at_its_own_step_start():
    # a tight guard on a rough field: two runs fail in the same later step,
    # at different substeps, so the stack shrinks between the two failures
    f0 = rough_field(m=64, seed=2)
    schemes = [named_scheme(f"S3({w},{b})") for w in (0.3, 0.5, 0.7, 0.9, 1.1) for b in "+-"]
    dt = 2 * EPS**2
    configs = [
        RunConfig(s, dt, 12.3 * dt, MODEL, CutoffPolicy(k), phi_max=1.02, record_energy=False)
        for s in schemes
        for k in (1e4, np.inf)
    ]
    steps = _assert_ensemble_matches_serial_runs(f0, configs)
    assert any(steps.count(i) >= 2 for i in set(steps) - {None, 1})


def _assert_ensemble_matches_serial_runs(f0, configs):
    """Each run of one ensemble call against run(); returns the diverged steps."""
    steps = []
    for cfg, got in zip(configs, run_ensemble(f0, configs)):
        want = run(f0.copy(), cfg)
        label = (cfg.scheme.label, cfg.cutoff.k_tol)
        assert got.status == want.status, label
        assert got.diverged_step == want.diverged_step, label
        assert got.diverged_cell == want.diverged_cell, label
        assert got.shortened_final_step == want.shortened_final_step, label
        assert got.snapshots == want.snapshots == {}, label
        for name in ("times", "phi_min", "phi_max", "energies"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (label, name)
        assert got.final.values.tobytes() == want.final.values.tobytes(), label
        steps.append(want.diverged_step)
    return steps


def test_2d_ensemble_matches_serial_runs():
    # stacks are 1D: a 2D ensemble runs each config through run(), merged
    # boundaries and failures included
    grid = GridSpec((1.0, 1.5), (12, 10))
    f0 = Field(grid, np.random.default_rng(4).uniform(-1.0, 1.0, grid.shape))
    dt = 2 * EPS**2
    configs = [
        RunConfig(named_scheme(label), dt, 5.5 * dt, MODEL, CutoffPolicy(1e4), phi_max=1.05, record_energy=False)
        for label in ("S1", "S2(1)", "S4V", "S3Y", "S3(0.6,-)")
    ]
    assert [StepRule.of(c.scheme, c.plan, merge=True).deferred is not None for c in configs] == \
        [False, True, True, False, False]
    assert _assert_ensemble_matches_serial_runs(f0, configs) == [None, None, 2, 1, 5]


@pytest.mark.parametrize("dims", [1, 3])
def test_runs_leave_a_read_only_f0_as_it_is(dims):
    # run() and run_ensemble() step from a read-only view of f0 and return no
    # array that shares its memory, so a study starts every run from one f0:
    # whole steps with a t = 0 snapshot, merged steps, and stacks or serial
    # ensembles whose runs complete or diverge in their first step; S2(1)
    # and S4V take two rows, since a stack of one run is a run()
    grid = GridSpec.line(1.0, 64) if dims == 1 else GridSpec((1.0, 1.0, 1.0), (8, 8, 8))
    f0 = Field(grid, np.random.default_rng(1).uniform(-1.0, 1.0, grid.shape))
    f0.values.flags.writeable = False
    before = f0.values.tobytes()
    dt = 2 * EPS**2

    def config(label, **kwargs):
        return RunConfig(named_scheme(label), dt, 3.5 * dt, MODEL, **kwargs)

    trajectories = [
        run(f0, config("S4V", snapshot_times=(0.0, 3.5 * dt))),
        run(f0, config("S4V", record_energy=False)),
        *run_ensemble(f0, [config(label, cutoff=CutoffPolicy(np.inf), phi_max=1.02, record_energy=False)
                           for label in ("S2(1)", "S2(1)", "S4V", "S4V", "S3Y", "S3(0.3,+)")]),
    ]
    statuses = {(traj.status, traj.diverged_step) for traj in trajectories}
    assert {("completed", None), ("diverged", 1)} <= statuses
    assert f0.values.tobytes() == before
    for traj in trajectories:
        for kept in (traj.final, *traj.snapshots.values()):
            assert not np.shares_memory(kept.values, f0.values)


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Count calls of ``owner.name`` from here on; returns the one-entry counter."""
    count = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


def test_stack_builds_its_multipliers_once_per_position_and_heat_substep(monkeypatch):
    # 9 full steps and a shortened tenth: the third-order stack has two
    # positions of three heat substeps each; S4V merges its boundaries, so
    # its first, middle and last steps are three positions with 5, 5 and 6;
    # S4V takes two rows, since a stack of one run is a run(), and a stack
    # builds one table per position and heat substep whatever its rows
    from acsplit import _kernels

    f0 = traveling_wave_field(WAVE.grid(64), 0.0, WAVE)
    dt = 0.11 / WAVE.speed
    schemes = [named_scheme("S3(0.5,+)"), named_scheme("S3(0.7,-)"), fourth_order_v(), fourth_order_v()]
    configs = [RunConfig(s, dt, WAVE.t_final, MODEL, CutoffPolicy(1e4), record_energy=False) for s in schemes]
    assert configs[0].plan.n_steps == 10 and configs[0].plan.shortened
    builds = _count_calls(monkeypatch, _kernels, "heat_multiplier_apply")
    heats = _count_calls(monkeypatch, solver, "heat_evolve")
    assert all(traj.completed for traj in run_ensemble(f0, configs))
    assert builds[0] == 2 * 3 + (5 + 5 + 6)
    assert heats[0] == 10 * 3 + (5 + 8 * 5 + 6)  # one heat_evolve per stacked heat substep
    _assert_ensemble_matches_serial_runs(f0, configs)


def test_stack_scans_rows_only_where_the_whole_stack_trips(monkeypatch):
    scans = _count_scans(monkeypatch)

    def unclamped(f0, omegas, dt, t_final):
        configs = [RunConfig(named_scheme(f"S3({w},+)"), dt, t_final, MODEL, CutoffPolicy(np.inf),
                             record_energy=False) for w in omegas]
        scans[0] = 0
        trajectories = run_ensemble(f0, configs)
        return configs, trajectories, scans[0]

    front = traveling_wave_field(WAVE.grid(64), 0.0, WAVE)
    dt = 2.0**-4 / WAVE.speed
    configs, trajectories, n_scans = unclamped(front, (0.27, 0.3, 0.5), dt, WAVE.t_final)
    assert all(traj.completed for traj in trajectories) and n_scans == 0
    # one row exceeds phi_max under the unbounded clamp, in its second step
    configs, trajectories, n_scans = unclamped(front, (0.27, 0.35, 0.5), dt, WAVE.t_final)
    assert [traj.status for traj in trajectories] == ["completed", "diverged", "completed"]
    assert 1 <= n_scans < 6 * configs[0].plan.n_steps
    assert _assert_ensemble_matches_serial_runs(front, configs) == [None, 2, None]
    # one row turns NaN in its first step; the guard trips on that too
    rough = rough_field(seed=0)
    configs, trajectories, n_scans = unclamped(rough, (0.27, 0.334), 1e-3, 4e-3)
    assert [traj.status for traj in trajectories] == ["completed", "diverged"]
    assert n_scans >= 1
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="max.phi. = nan"):
        step(rough, applied_substeps(configs[1].scheme, 1e-3), MODEL, CutoffPolicy(np.inf), phi_max=10.0)
    assert _assert_ensemble_matches_serial_runs(rough, configs) == [None, 1]


def test_ensemble_rejects_configs_it_cannot_share():
    # a run that records energy has no place in an ensemble; runs that
    # differ in dt or phi_max share one call, in stacks of their own
    f0 = rough_field()
    base = RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL, record_energy=False)
    with pytest.raises(ValueError, match="record no energy"):
        run_ensemble(f0, [base, RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL)])
    _assert_ensemble_matches_serial_runs(f0, [
        RunConfig(named_scheme(label), dt * EPS**2, EPS**2, MODEL, phi_max=phi_max, record_energy=False)
        for dt, phi_max in ((0.1, 10.0), (0.2, 10.0), (0.1, 5.0))
        for label in ("S1", "S3X", "S3Y")
    ])
    assert run_ensemble(f0, []) == []


H, R = "heat", "reaction"


@pytest.mark.parametrize(
    "label,first,middle,last",
    [
        ("S1", "HR", "HR", "HR"),
        ("S2(1)", "HR", "HR", "HRH"),
        ("S2(0.5)", "RH", "RH", "RHR"),
        ("S3X", "HRHRHR", "HRHRHR", "HRHRHR"),
        ("S4U", "HRHRHR", "HRHRHR", "HRHRHRH"),
        ("S4V", "HRHRHRHRHR", "HRHRHRHRHR", "HRHRHRHRHRH"),
    ],
)
def test_step_rule_table(label, first, middle, last):
    # three steps of 0.25, 0.25 and a shortened 0.125: the first, a middle
    # and the last step of a run that merges its step boundaries
    scheme = named_scheme(label)
    plan = StepPlan.of(0.25, 0.625)
    assert (plan.n_steps, plan.shortened) == (3, True)
    merges = first != last
    rule = StepRule.of(scheme, plan, merge=True)
    coeffs = [(kind, c) for a_j, b_j in zip(scheme.a, scheme.b) for kind, c in ((H, a_j), (R, b_j)) if c != 0.0]
    full = [(kind, c * 0.25) for kind, c in coeffs]
    short = [(kind, c * 0.125) for kind, c in coeffs]
    if merges:
        carry = full[-1][1]
        assert rule.deferred == full[-1] and full[-1][0] == full[0][0] and carry > 0
        want = [full[:-1], [(full[0][0], full[0][1] + carry)] + full[1:-1], [(short[0][0], short[0][1] + carry)] + short[1:]]
    else:
        assert rule.deferred is None
        want = [full, full, short]
    got = [list(rule.schedule[rule.position(i)]) for i in (1, 2, 3)]
    assert got == want
    assert len(rule.schedule) == (3 if merges else 2)  # the shortened last step is a position of its own
    assert ["".join(kind[0].upper() for kind, _ in subs) for subs in got] == [first, middle, last]
    assert [rule.position(i) for i in (1, 2, 3)] == [(0.25, False, merges), (0.25, merges, merges),
                                                     (0.125, merges, False)]
    # a run that keeps its states, and a one-step run, apply every step whole
    for unmerged in (StepRule.of(scheme, plan, merge=False), StepRule.of(scheme, StepPlan.of(0.25, 0.25), merge=True)):
        assert unmerged.deferred is None
        steps = range(1, unmerged.plan.n_steps + 1)
        assert [list(unmerged.schedule[unmerged.position(i)]) for i in steps] == [full, full, short][: len(steps)]


def test_backward_ends_are_not_merged():
    # heat at both ends of the step, but backward: a clamped backward flow
    # does not compose exactly, so the rule keeps whole steps
    scheme = SplitCoefficients((-0.5, 2.0, -0.5), (0.5, 0.5, 0.0), 1, "backward ends")
    assert [kind for kind, _ in applied_substeps(scheme, 1.0)] == [H, R, H, R, H]
    assert StepRule.of(scheme, StepPlan.of(0.25, 0.625), merge=True).deferred is None


def _replay(f0, cfg):
    """``cfg`` stepped with whole steps, as a run that merges nothing takes them;
    returns the state and its per-step min and max."""
    f, plan, lo, hi = f0, cfg.plan, [f0.values.min()], [f0.values.max()]
    for i in range(1, plan.n_steps + 1):
        f = step(f, applied_substeps(cfg.scheme, plan.step_length(i)), cfg.model, cfg.cutoff, cfg.phi_max)
        lo.append(f.values.min())
        hi.append(f.values.max())
    return f, np.array(lo), np.array(hi)


def _merge_cases():
    # the front over a third of its horizon, 4 steps with a shortened last
    # one: over the whole horizon the front amplifies a 1-ulp change of the
    # initial field to a few 1e-12, the size of what the merge changes
    spec = SpinodalSpec(cells=12, seed=3)
    problems = (
        ("wave", traveling_wave_field(WAVE.grid(128), 0.0, WAVE), MODEL, 0.1 / WAVE.speed),
        ("12^3", spinodal_initial(spec), ModelParams(spec.epsilon), 1e-4),
    )
    for name, f0, model, dt in problems:
        for label in ("S2(1)", "S2(0.5)", "S4U", "S4V"):
            for n in (3.5, 1):
                yield pytest.param(f0, label, model, dt, n * dt, id=f"{name}-{label}-{n}")


@pytest.mark.parametrize("f0,label,model,dt,t_final", _merge_cases())
def test_merged_run_matches_whole_steps(monkeypatch, f0, label, model, dt, t_final):
    scheme = named_scheme(label)
    cfg = RunConfig(scheme, dt, t_final, model, record_energy=False)
    n = cfg.plan.n_steps
    assert cfg.plan.shortened == (n > 1)
    merged_kind = applied_substeps(scheme, dt)[0][0]
    calls = {"heat_evolve": 0, "free_energy_evolve": 0}
    for name in calls:
        def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)

    want, lo, hi = _replay(f0.copy(), cfg)
    whole = dict(calls)
    got = run(f0.copy(), cfg)
    merged = {k: calls[k] - whole[k] for k in calls}

    assert got.status == "completed" and got.diverged_step is None
    peak = np.abs(want.values).max()
    np.testing.assert_allclose(got.final.values, want.values, rtol=1e-12, atol=1e-12 * peak)
    saved = {"heat_evolve": n - 1 if merged_kind == H else 0, "free_energy_evolve": n - 1 if merged_kind == R else 0}
    assert {k: whole[k] - merged[k] for k in calls} == saved
    # the states a merged run never forms have no min or max
    assert np.isnan(got.phi_min[1:-1]).all() and np.isnan(got.phi_max[1:-1]).all()
    assert (got.phi_min[[0, -1]] == [lo[0], got.final.values.min()]).all()
    assert (got.phi_max[[0, -1]] == [hi[0], got.final.values.max()]).all()
    if n == 1:
        assert got.final.values.tobytes() == want.values.tobytes()

    # a run that records energy or snapshots takes whole steps, byte for byte
    for keeps in (dict(record_energy=True), dict(record_energy=False, snapshot_times=(dt,))):
        kept = run(f0.copy(), RunConfig(scheme, dt, t_final, model, **keeps))
        assert kept.final.values.tobytes() == want.values.tobytes()
        assert kept.phi_min.tobytes() == lo.tobytes() and kept.phi_max.tobytes() == hi.tobytes()


def test_diverged_merged_run_keeps_the_state_at_its_last_time():
    # S4V under a 1e3 clamp on the front diverges in its second step, merged
    # or not; the merged run's kept state still lacks the first step's last
    # heat substep, which it applies for its final state, so that state is
    # the end of the first step, byte for byte
    f0 = traveling_wave_field(WAVE.grid(128), 0.0, WAVE)
    cfg = RunConfig(fourth_order_v(), 0.3 / WAVE.speed, WAVE.t_final, MODEL, CutoffPolicy(1e3), record_energy=False)
    assert StepRule.of(cfg.scheme, cfg.plan, merge=True).deferred is not None
    got = run(f0.copy(), cfg)
    assert (got.status, got.diverged_step) == ("diverged", 2)
    assert got.times.tolist() == [0.0, cfg.plan.time(1)]
    whole = applied_substeps(cfg.scheme, cfg.dt)
    want = step(f0, whole, cfg.model, cfg.cutoff, cfg.phi_max)
    with pytest.raises(DivergenceError):  # whole steps diverge in the second step too
        step(want, whole, cfg.model, cfg.cutoff, cfg.phi_max)
    assert got.final.values.tobytes() == want.values.tobytes()
    assert np.isnan(got.phi_min[1]) and np.isnan(got.phi_max[1])
    # two rows, so the run diverges out of a merged stack: a stack of one run is a run()
    for ensemble in run_ensemble(f0, [cfg, cfg]):
        assert (ensemble.status, ensemble.diverged_step) == ("diverged", 2)
        assert ensemble.final.values.tobytes() == want.values.tobytes()


# ---------------------------------------------------------------------------
# the carried bound on max|phi|: guards it proves are skipped, with the same bits


def _count_scans(monkeypatch) -> list[int]:
    """Count the solver's guard scans from here on; returns the one-entry counter."""
    from acsplit import _kernels

    count = [0]
    scan = _kernels.guard_scan

    def counted(values):
        count[0] += 1
        return scan(values)

    monkeypatch.setattr(_kernels, "guard_scan", counted)
    return count


def _without_bounds(monkeypatch) -> None:
    """Scan after every substep and check every reaction, as without a carried bound."""
    from acsplit import operators

    monkeypatch.setattr(solver, "heat_gain", lambda *args: np.inf)
    monkeypatch.setattr(operators, "_certified", lambda *args: False)


def _outcome(f0, cfg):
    """Everything a run gives, as bytes, and the DivergenceError that
    ``step`` raises when stepped as ``run()`` steps a run that keeps its states."""
    traj = run(f0.copy(), cfg)
    recorded = (
        traj.final.values.tobytes(), traj.times.tobytes(), traj.phi_min.tobytes(), traj.phi_max.tobytes(),
        traj.energies.tobytes(), traj.status, traj.diverged_step, traj.diverged_cell, traj.shortened_final_step,
        {t: snap.values.tobytes() for t, snap in traj.snapshots.items()},
    )
    f, plan, error = f0, cfg.plan, None
    for i in range(1, plan.n_steps + 1):
        try:
            f = step(f, applied_substeps(cfg.scheme, plan.step_length(i)), cfg.model, cfg.cutoff, cfg.phi_max,
                     peak=float(np.abs(f.values).max()))
        except DivergenceError as err:
            error = (str(err), err.flat_index, err.cell)
            break
    return recorded, error, f.values.tobytes()


def _substep_peak(f0, cfg) -> float:
    """The largest max|phi| after any substep of ``cfg`` taken in whole steps, unguarded."""
    f, plan, peak = f0, cfg.plan, 0.0
    for i in range(1, plan.n_steps + 1):
        for kind, tau in applied_substeps(cfg.scheme, plan.step_length(i)):
            f, _ = solver._substep(f, kind, tau, cfg.model, cfg.cutoff)
            peak = max(peak, float(np.abs(f.values).max()))
    return peak


CRITERION_09 = ("S1", "S2(1)", "S3X", "S3Y", "S3Z", "S4U", "S4V")


def _bound_cases():
    spec = SpinodalSpec(cells=12, seed=3)
    quench, model = spinodal_initial(spec), ModelParams(spec.epsilon)
    for label in CRITERION_09 + ("S2(0.5)",):
        for keeps in (True, False):  # whole steps with energy, or merged
            yield pytest.param(quench, RunConfig(named_scheme(label), 1e-4, 3.5e-4, model, record_energy=keeps),
                               id=f"12^3-{label}-{'energy' if keeps else 'merged'}")
    grid = GridSpec.box(1.0, 12, 3)
    rough = Field(grid, np.random.default_rng(7).uniform(-1.3, 1.3, grid.shape))
    for label in ("S4V", "S3Y"):
        # phi_max within an ulp or 1e-12 of the largest max|phi| after a substep
        peak = _substep_peak(rough, RunConfig(named_scheme(label), 1e-4, 5e-4, model))
        assert peak > 1.0
        for name, phi_max in (("ulp-below", np.nextafter(peak, 0.0)), ("at", peak),
                              ("ulp-above", np.nextafter(peak, 2.0)), ("rel-1e-12-above", peak * (1.0 + 1e-12)),
                              ("rel-1e-12-below", peak * (1.0 - 1e-12))):
            yield pytest.param(rough, RunConfig(named_scheme(label), 1e-4, 5e-4, model, phi_max=float(phi_max)),
                               id=f"guard-{name}-{label}")
    for label in ("S3Y", "S4U", "S4V"):  # a backward reaction blows up in the first step
        yield pytest.param(rough, RunConfig(named_scheme(label), 1e-3, 3e-3, model, phi_max=np.inf),
                           id=f"blowup-{label}")
    yield pytest.param(rough, RunConfig(fourth_order_v(), 1e-4, 5e-4, model, phi_max=np.inf), id="phi-max-inf")
    yield pytest.param(rough, RunConfig(fourth_order_v(), 1e-4, 5e-4, model, CutoffPolicy(1.0)), id="clamped-3d")
    wave = traveling_wave_field(WAVE.grid(128), 0.0, WAVE)
    for label in ("S3Y", "S4V"):
        yield pytest.param(wave, RunConfig(named_scheme(label), 0.1 / WAVE.speed, 0.45 / WAVE.speed, MODEL,
                                           snapshot_times=(0.2 / WAVE.speed,)), id=f"1d-{label}")


@pytest.mark.parametrize("f0,cfg", _bound_cases())
def test_carried_bound_keeps_every_byte(monkeypatch, f0, cfg):
    scans = _count_scans(monkeypatch)
    got = _outcome(f0, cfg)
    bounded_scans = scans[0]
    _without_bounds(monkeypatch)
    scans[0] = 0
    want = _outcome(f0, cfg)
    assert got == want
    assert bounded_scans <= scans[0]


def test_carried_bound_skips_scans(monkeypatch):
    # a run that keeps its states starts each step from its recorded
    # max|phi|, so an unmerged 3D S4V run scans at most once per step
    spec = SpinodalSpec(cells=16, seed=1)
    cfg = RunConfig(fourth_order_v(), 1e-4, 1e-3, ModelParams(spec.epsilon))
    f0 = spinodal_initial(spec)
    scans = _count_scans(monkeypatch)
    assert run(f0, cfg).completed
    assert scans[0] <= cfg.plan.n_steps
    _without_bounds(monkeypatch)
    scans[0] = 0
    run(f0, cfg)
    assert scans[0] == 11 * cfg.plan.n_steps  # every substep of S4V


# ---------------------------------------------------------------------------
# what the benchmark's tracer relies on (perfbench/tracing.py)


def test_run_calls_the_module_step_once_per_step(monkeypatch):
    # the tracer cuts a run into steps at each call of solver.step
    calls = _count_calls(monkeypatch, solver, "step")
    front = traveling_wave_field(WAVE.grid(128), 0.0, WAVE)
    grid = GridSpec((1.0, 1.5), (12, 10))
    rough = Field(grid, np.random.default_rng(4).uniform(-1.0, 1.0, grid.shape))
    for f0, cfg, diverged_step in (
        (front, RunConfig(fourth_order_v(), 0.1 / WAVE.speed, 0.35 / WAVE.speed, MODEL), None),
        (front, RunConfig(fourth_order_v(), 0.1 / WAVE.speed, 0.35 / WAVE.speed, MODEL, record_energy=False), None),
        (front, RunConfig(fourth_order_v(), 0.3 / WAVE.speed, WAVE.t_final, MODEL, CutoffPolicy(1e3),
                          record_energy=False), 2),
        (rough, RunConfig(named_scheme("S3Y"), 2 * EPS**2, 5.5 * EPS**2, MODEL, phi_max=1.05), 1),
    ):
        calls[0] = 0
        traj = run(f0, cfg)
        assert traj.diverged_step == diverged_step
        assert calls[0] == (cfg.plan.n_steps if diverged_step is None else diverged_step)


def test_1d_ensemble_makes_no_step_call(monkeypatch):
    # the tracer does not wrap run_ensemble, and a stack never calls step;
    # S4V takes two rows, since a stack of one run is a run()
    calls = _count_calls(monkeypatch, solver, "step")
    f0 = rough_field(m=64, seed=2)
    configs = [RunConfig(named_scheme(label), 2 * EPS**2, 12.3 * EPS**2, MODEL, phi_max=1.02, record_energy=False)
               for label in ("S3(0.3,+)", "S3(0.9,-)", "S4V", "S4V")]
    trajectories = run_ensemble(f0, configs)
    assert "diverged" in [traj.status for traj in trajectories]
    assert calls[0] == 0


@pytest.mark.parametrize("checked", [False, True], ids=["certified", "checked"])
@pytest.mark.parametrize("record_energy", [True, False], ids=["whole-steps", "merged"])
def test_the_reaction_kernel_is_called_once_per_1d_reaction_substep(monkeypatch, record_energy, checked):
    # the tracer wraps the kernel module's attribute; a flat checked call
    # must not reach the stacked code through it and be counted twice
    from acsplit import _kernels

    if checked:
        _without_bounds(monkeypatch)
    calls = _count_calls(monkeypatch, _kernels, "free_energy_apply")
    f0 = rough_field(m=64, seed=3)
    cfg = RunConfig(fourth_order_v(), 0.5 * EPS**2, 4.3 * EPS**2, MODEL, record_energy=record_energy)
    rule = StepRule.of(cfg.scheme, cfg.plan, merge=not record_energy)
    reactions = sum(kind == R for i in range(1, cfg.plan.n_steps + 1)
                    for kind, _ in rule.schedule[rule.position(i)])
    assert run(f0, cfg).completed
    assert calls[0] == reactions
    if record_energy:
        return
    # an ensemble of one scheme is one stack: one call per stacked substep
    calls[0] = 0
    assert all(traj.completed for traj in run_ensemble(f0, [cfg, cfg, cfg]))
    assert calls[0] == reactions


def test_spinodal_convergence_runs_each_run_through_harness_run(monkeypatch):
    # the tracer counts runs, and segments them, at harness.run
    from acsplit import harness

    calls = _count_calls(monkeypatch, harness, "run")
    report = harness.spinodal_convergence([named_scheme("S1"), named_scheme("S2(1)")], [2e-4, 1e-4],
                                          SpinodalSpec(cells=8, seed=1), t_final=4e-4)
    assert len(report.rows) == 4
    assert calls[0] == 4 + 1  # and one for the reference


def test_wave_study_is_one_ensemble_with_the_rows_of_serial_runs(monkeypatch):
    # S3X, S3Y and S3Z share a stack at each dt, and S1, S2(1) and S4V are
    # stacks of one run; runs diverge in and out of stacks, and each row
    # keeps the steps, status and error bits of its own run()
    from acsplit import harness

    ensembles = _count_calls(monkeypatch, harness, "run_ensemble")
    serial = _count_calls(monkeypatch, solver, "run")
    schemes = [named_scheme(label) for label in ("S1", "S2(1)", "S3X", "S3Y", "S3Z", "S4V")]
    dts = [2.0**-k / WAVE.speed for k in range(4)]
    report = harness.wave_convergence(schemes, dts, cells=128)
    assert ensembles[0] == 1
    assert serial[0] == 3 * len(dts)
    grid = WAVE.grid(128)
    f0, exact = traveling_wave_field(grid, 0.0, WAVE), traveling_wave_field(grid, WAVE.t_final, WAVE)
    want = []
    for scheme in schemes:
        for dt in dts:
            traj = run(f0, RunConfig(scheme, dt, WAVE.t_final, MODEL, CutoffPolicy(1e9), record_energy=False))
            error = relative_l2_error(traj.final, exact) if traj.completed else np.nan
            want.append((scheme.label, dt, len(traj.times) - 1, traj.status, np.float64(error).tobytes()))
    got = [(row.scheme, row.dt, row.steps, row.status, np.float64(row.error).tobytes()) for row in report.rows]
    assert sorted(got) == sorted(want)
    diverged = {label for label, _, _, status, _ in got if status == "diverged"}
    assert {"S3X", "S3Y", "S4V"} <= diverged and "S3Z" not in diverged


# at 64 cells and dt = 2^-4/s: per omega, whether 1e4 and 1e9 bind ("B") or
# not ("u"), and None where the omega is singular
SHARED_SWEEP = {
    "+": {0.3: "uu", 0.35: "Bu", 0.5: "uu", 0.8: "Bu", 0.9: "BB", 1.0: None},
    "-": {0.3: "uu", 0.35: "Bu", 0.5: "uu", 0.8: "uu", 0.9: "uu", 1.0: "uu"},
}


def _binding(grid, scheme, dt, k_tols):
    from acsplit import harness

    taus = harness._heat_taus(scheme, StepPlan.of(dt, WAVE.t_final))
    return "".join("B" if clamp_binds(grid, taus, k) else "u" for k in k_tols)


@pytest.mark.parametrize("k_tols", [(1e4, 1e9), (1e9, 1e4)], ids=["rising", "falling"])
@pytest.mark.parametrize("branch", ["+", "-"])
def test_sweep_of_two_clamps_is_the_two_sweeps_of_one(branch, k_tols, monkeypatch):
    # the clamps that bind nowhere share a run, in either order of the
    # clamps, and the records and CSV keep every byte of one sweep per clamp
    from acsplit import harness
    from acsplit.coeffs import InvalidOmega, third_order_family

    omegas, dt, grid = list(SHARED_SWEEP[branch]), 2.0**-4 / WAVE.speed, WAVE.grid(64)
    for omega, want in SHARED_SWEEP[branch].items():
        try:
            scheme = third_order_family(omega, branch).coefficients
        except InvalidOmega:
            assert want is None
            continue
        assert _binding(grid, scheme, dt, (1e4, 1e9)) == want, omega
    handed = []
    original = harness.run_ensemble

    def recorded(f0, configs):
        handed.extend(configs)
        return original(f0, configs)

    monkeypatch.setattr(harness, "run_ensemble", recorded)
    records, meta = harness.omega_sweep(branch, omegas, dt, cells=64, k_tols=k_tols)
    runs = Counter(cfg.scheme.label for cfg in handed)
    assert [runs[f"S3({omega:g},{branch})"] for omega in omegas] == \
        [{None: 0, "uu": 1}.get(want, 2) for want in SHARED_SWEEP[branch].values()]
    merged = [dict(rec) for rec in harness.omega_sweep(branch, omegas, dt, cells=64, k_tols=k_tols[:1])[0]]
    for rec, other in zip(merged, harness.omega_sweep(branch, omegas, dt, cells=64, k_tols=k_tols[1:])[0]):
        rec.update(other)
    assert [{key: repr(value) for key, value in rec.items()} for rec in records] == \
        [{key: repr(value) for key, value in rec.items()} for rec in merged]
    assert harness.omega_sweep_csv(records, meta, k_tols) == harness.omega_sweep_csv(merged, meta, k_tols)
    assert {rec.get("status_ktol_10000") for rec in records} >= {"completed"}


def test_shared_clamps_build_the_same_multiplier_tables():
    # criterion 08's grid at the byte check's three step sizes: every pair
    # of clamps that shares a run builds the same table at every backward
    # heat tau, the table an unbounded clamp builds
    from acsplit.coeffs import InvalidOmega, third_order_family
    from acsplit.operators import clamped_multipliers

    grid = WAVE.grid(128)
    omegas = [0.2505, 0.2510, 0.2515] + [0.2525 + 0.0025 * i for i in range(380)]
    shared = {}
    for factor in (2.0**-4, 2.0**-3, 2.0**-5):
        dt = factor / WAVE.speed
        for branch in "+-":
            count = valid = 0
            for omega in omegas:
                try:
                    scheme = third_order_family(omega, branch).coefficients
                except InvalidOmega:
                    continue
                valid += 1
                if _binding(grid, scheme, dt, (1e4, 1e9)) != "uu":
                    continue
                count += 1
                for kind, tau in applied_substeps(scheme, dt):
                    if kind == "heat" and tau < 0:
                        table = clamped_multipliers(grid, tau, 1e4).tobytes()
                        assert table == clamped_multipliers(grid, tau, 1e9).tobytes(), (omega, branch)
                        assert table == clamped_multipliers(grid, tau, np.inf).tobytes(), (omega, branch)
            shared[factor, branch] = f"{count}/{valid}"
    # the counts README "How the sweep and the studies step their stacks" gives
    assert shared == {(2.0**-4, "+"): "20/382", (2.0**-4, "-"): "340/383",
                      (2.0**-3, "+"): "14/382", (2.0**-3, "-"): "311/383",
                      (2.0**-5, "+"): "94/382", (2.0**-5, "-"): "358/383"}


def test_a_clamp_that_binds_in_the_last_step_alone_is_caught():
    # StepPlan.of never makes a last step longer than dt, where it would
    # bind first; a plan built by hand shows that its taus are read
    from acsplit import harness

    grid, scheme, dt = WAVE.grid(128), named_scheme("S3X"), 2.0**-4 / WAVE.speed
    (full,) = [tau for kind, tau in applied_substeps(scheme, dt) if kind == "heat" and tau < 0]
    k_tol = math.exp(float(eigenvalue_table(grid).flat[-1]) * full) * 2.0
    for plan, binds in ((StepPlan(dt, 3 * dt, 3, False), False), (StepPlan(dt, 2.5 * dt, 2, True), False),
                        (StepPlan(dt, 3.5 * dt, 2, True), True)):
        assert clamp_binds(grid, harness._heat_taus(scheme, plan), k_tol) == binds, plan


@pytest.mark.parametrize("record_energy", [True, False], ids=["energy", "merged"])
def test_run_holds_at_most_three_grid_arrays(record_energy):
    # a step holds the state it began with, a substep's input and its
    # result; the state of the step before must be gone by then
    spec = SpinodalSpec(cells=32, seed=0)
    f0 = spinodal_initial(spec)
    cfg = RunConfig(fourth_order_v(), 1e-4, 4e-4, ModelParams(spec.epsilon), record_energy=record_energy)
    for _ in range(2):  # builds the cached factors and this thread's scratch array
        run(f0, cfg)
    call_objects = 8192  # the Python objects, small arrays and trajectory of the call
    assert _traced_peak(lambda: run(f0, cfg)) <= 3 * f0.values.nbytes + call_objects
