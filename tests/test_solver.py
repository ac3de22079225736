import numpy as np
import pytest

from acsplit import (
    CutoffPolicy,
    Field,
    GridSpec,
    ModelParams,
    TravelingWaveSpec,
    first_order,
    fourth_order_u,
    fourth_order_v,
    free_energy_evolve,
    heat_evolve,
    named_scheme,
    relative_l2_error,
    second_order_family,
    traveling_wave_field,
)
from acsplit.solver import RunConfig, ZeroReferenceError, run, step

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
