import sys
import threading
import tracemalloc

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
from acsplit.operators import DivergenceError
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
    stepped = step(f, first_order(), dt, MODEL)
    np.testing.assert_array_equal(stepped.values, composed.values)


def test_zero_dt_is_the_identity():
    f = rough_field()
    out = step(f, fourth_order_v(), 0.0, MODEL)
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
    out = step(f, scheme, dt, huge_eps)
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
        snapshot_times=(0.0, 0.52, 1.0),
        record_energy=False,
    )
    traj = run(f, cfg)
    assert set(traj.snapshots) == {0.0, 0.52, 1.0}
    np.testing.assert_array_equal(traj.snapshots[0.0].values, f.values)
    np.testing.assert_array_equal(traj.snapshots[1.0].values, traj.final.values)


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
        one = step(f, scheme, dt, MODEL)
        half = step(step(f, scheme, dt / 2, MODEL), scheme, dt / 2, MODEL)
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
    merged = dict(carry=scheme.a[-1] * 1e-4, defer_last=True)
    for _ in range(2):  # builds the cached factors and this thread's scratch array
        step(f, scheme, 1e-4, model, phi_max=10.0)
        step(f, scheme, 1e-4, model, phi_max=10.0, **merged)
        energy(f, model)
    grid_array = f.values.nbytes
    call_objects = 4096  # the Python objects and 0-d arrays of the calls
    assert _traced_peak(lambda: step(f, scheme, 1e-4, model, phi_max=10.0)) <= 2 * grid_array + call_objects
    assert _traced_peak(lambda: step(f, scheme, 1e-4, model, phi_max=10.0, **merged)) <= 2 * grid_array + call_objects
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
            f = step(f, scheme, 1e-4, model, phi_max=10.0)
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
            f = step(f, cfg.scheme, plan.step_length(i), cfg.model, cfg.cutoff, cfg.phi_max)
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
    # its first, middle and last steps are three positions with 5, 5 and 6
    from acsplit import _kernels

    f0 = traveling_wave_field(WAVE.grid(64), 0.0, WAVE)
    dt = 0.11 / WAVE.speed
    schemes = [named_scheme("S3(0.5,+)"), named_scheme("S3(0.7,-)"), fourth_order_v()]
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
        step(rough, configs[1].scheme, 1e-3, MODEL, CutoffPolicy(np.inf), phi_max=10.0)
    assert _assert_ensemble_matches_serial_runs(rough, configs) == [None, 1]


def test_ensemble_rejects_configs_it_cannot_share():
    f0 = rough_field()
    base = RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL, record_energy=False)
    for other in (
        RunConfig(first_order(), 0.2 * EPS**2, EPS**2, MODEL, record_energy=False),
        RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL),  # records energy
        RunConfig(first_order(), 0.1 * EPS**2, EPS**2, MODEL, phi_max=5.0, record_energy=False),
    ):
        with pytest.raises(ValueError, match="share"):
            run_ensemble(f0, [base, other])
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
    got = [applied_substeps(scheme, *rule.step(i)) for i in (1, 2, 3)]
    assert got == want
    assert ["".join(kind[0].upper() for kind, _ in subs) for subs in got] == [first, middle, last]
    assert [rule.step(i) for i in (1, 2, 3)] == [(0.25, 0.0, merges), (0.25, carry if merges else 0.0, merges),
                                                 (0.125, carry if merges else 0.0, False)]
    # a run that keeps its states, and a one-step run, apply every step whole
    for unmerged in (StepRule.of(scheme, plan, merge=False), StepRule.of(scheme, StepPlan.of(0.25, 0.25), merge=True)):
        assert unmerged.deferred is None
        assert [applied_substeps(scheme, *unmerged.step(i)) for i in range(1, unmerged.plan.n_steps + 1)] == \
            [full, full, short][: unmerged.plan.n_steps]


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
        f = step(f, cfg.scheme, plan.step_length(i), cfg.model, cfg.cutoff, cfg.phi_max)
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
    want = step(f0, cfg.scheme, cfg.dt, cfg.model, cfg.cutoff, cfg.phi_max)
    with pytest.raises(DivergenceError):  # whole steps diverge in the second step too
        step(want, cfg.scheme, cfg.dt, cfg.model, cfg.cutoff, cfg.phi_max)
    assert got.final.values.tobytes() == want.values.tobytes()
    assert np.isnan(got.phi_min[1]) and np.isnan(got.phi_max[1])
    ensemble, = run_ensemble(f0, [cfg])
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
            f = step(f, cfg.scheme, plan.step_length(i), cfg.model, cfg.cutoff, cfg.phi_max,
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
