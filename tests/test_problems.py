import numpy as np
import pytest

from acsplit import (
    ModelParams,
    SpinodalSpec,
    TravelingWaveSpec,
    fourth_order_v,
    spinodal_initial,
    traveling_wave,
    traveling_wave_field,
)
from acsplit.problems import boundary_derivative_defect
from acsplit.solver import RunConfig, run

from oracles import WAVE_MEAN_T0_L4, WAVE_VALUE_AT_ONE_WIDTH

EPS = 0.03 * np.sqrt(2.0)
WAVE = TravelingWaveSpec(EPS)


def test_speed_and_width_consistency():
    assert WAVE.speed * EPS * np.sqrt(2.0) == pytest.approx(3.0, rel=1e-15)
    assert WAVE.t_final == pytest.approx(0.02, rel=1e-12)


def test_front_value_is_half():
    for t in (0.0, 0.003, WAVE.t_final):
        x = WAVE.offset + WAVE.speed * t
        assert traveling_wave(x, t, WAVE) == pytest.approx(0.5, rel=1e-14)


def test_far_field_limits():
    assert traveling_wave(-1e3, 0.0, WAVE) == pytest.approx(1.0, abs=1e-15)
    assert traveling_wave(1e3, 0.0, WAVE) == pytest.approx(0.0, abs=1e-15)


def test_value_one_width_from_the_front():
    x = 0.5 + WAVE.width  # tanh argument exactly 1
    assert traveling_wave(x, 0.0, WAVE) == pytest.approx(WAVE_VALUE_AT_ONE_WIDTH, rel=1e-14)


def test_sampled_field_is_monotone_decreasing():
    f = traveling_wave_field(WAVE.grid(128), 0.0, WAVE)
    d = np.diff(f.values)
    assert np.all(d <= 0.0)  # tails saturate to exactly 1 and 0 in float64
    interior = (f.values[:-1] > 1e-12) & (f.values[:-1] < 1.0 - 1e-12)
    assert np.all(d[interior] < 0.0)


def test_front_at_final_time():
    f = traveling_wave_field(WAVE.grid(1024), WAVE.t_final, WAVE)
    x = f.grid.axis_centers(0)
    crossing = np.interp(0.5, f.values[::-1], x[::-1])
    assert crossing == pytest.approx(1.5, abs=1e-6)


def test_field_mean_matches_quadrature():
    f = traveling_wave_field(WAVE.grid(1024), 0.0, WAVE)
    assert f.values.mean() == pytest.approx(WAVE_MEAN_T0_L4, abs=1e-6)


def test_rejects_non_1d_grids():
    from acsplit import GridSpec

    with pytest.raises(ValueError):
        traveling_wave_field(GridSpec.box(1.0, 8, 2), 0.0, WAVE)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        TravelingWaveSpec(0.0)


def test_boundary_flux_defect_is_negligible_for_default_domain():
    # tails are exponentially flat; at the final time the front sits at
    # x = 1.5, a distance 1.5 from the left wall and 2.5 from the right
    assert boundary_derivative_defect(WAVE, 0.0) < 5e-3
    assert boundary_derivative_defect(WAVE, WAVE.t_final) < 1e-9
    # a domain too short for the traveling front is caught by the same check
    short = TravelingWaveSpec(EPS, length=2.0)
    assert boundary_derivative_defect(short, short.t_final) > 1e-4


def test_simulated_front_position():
    spec = WAVE
    grid = spec.grid(128)
    f0 = traveling_wave_field(grid, 0.0, spec)
    dt = 2.0**-10 / spec.speed
    cfg = RunConfig(fourth_order_v(), dt, spec.t_final, ModelParams(EPS), record_energy=False)
    traj = run(f0, cfg)
    assert traj.completed
    x = grid.axis_centers(0)
    crossing = np.interp(0.5, traj.final.values[::-1], x[::-1])
    h = grid.spacing[0]
    assert abs(crossing - 1.5) < h / 10.0


# ---------------------------------------------------------------------------
# spinodal quench


def test_spinodal_bounds_and_determinism():
    spec = SpinodalSpec(seed=123, cells=16)
    f = spinodal_initial(spec)
    assert f.grid.shape == (16, 16, 16)
    assert np.max(np.abs(f.values)) <= spec.amplitude
    assert np.max(np.abs(f.values)) > 0.9 * spec.amplitude  # actually random
    g = spinodal_initial(SpinodalSpec(seed=123, cells=16))
    np.testing.assert_array_equal(f.values, g.values)
    other = spinodal_initial(SpinodalSpec(seed=124, cells=16))
    assert np.any(other.values != f.values)


def test_spinodal_sample_mean_is_near_zero():
    spec = SpinodalSpec(seed=2, cells=64)
    f = spinodal_initial(spec)
    n = f.grid.cell_count
    bound = 3.0 * (spec.amplitude / np.sqrt(3.0)) / np.sqrt(n)
    assert abs(f.values.mean()) < bound


def test_spinodal_dynamics_do_not_conserve_the_mean():
    spec = SpinodalSpec(seed=11, cells=16)
    f0 = spinodal_initial(spec)
    model = ModelParams(spec.epsilon)
    cfg = RunConfig(fourth_order_v(), 1e-4, 1e-3, model, record_energy=False)
    traj = run(f0.copy(), cfg)
    assert traj.completed
    # the reaction term amplifies the mean exponentially out of the quench
    assert abs(traj.final.values.mean()) > 2.0 * abs(f0.values.mean())


def test_spinodal_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SpinodalSpec(seed=-1)
    assert SpinodalSpec(seed=2**70).seed == 2**70


def test_amplitude_must_sit_in_the_spinodal_interval():
    with pytest.raises(ValueError):
        SpinodalSpec(amplitude=0.6)
    with pytest.raises(ValueError):
        SpinodalSpec(amplitude=0.0)
