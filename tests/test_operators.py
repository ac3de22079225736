import numpy as np
import pytest

from acsplit import (
    CutoffPolicy,
    DivergenceError,
    Field,
    GridSpec,
    ModelParams,
    dct_forward,
    energy,
    free_energy_evolve,
    heat_evolve,
)

from oracles import REACTION_HALF_AFTER_EPS2, fd_energy, fd_heat_1d, reaction_ode

EPS = 0.03 * np.sqrt(2.0)
MODEL = ModelParams(EPS)


def scalar_field(value, m=4):
    return Field(GridSpec.line(1.0, m), np.full(m, float(value)))


# ---------------------------------------------------------------------------
# reaction flow


@pytest.mark.parametrize("tau", [1e-6, EPS**2, 5 * EPS**2, 1e3 * EPS**2, -0.3 * EPS**2])
@pytest.mark.parametrize("phi", [0.0, 1.0, -1.0])
def test_reaction_fixed_points(phi, tau):
    out = free_energy_evolve(scalar_field(phi), tau, MODEL)
    np.testing.assert_allclose(out.values, phi, rtol=0, atol=1e-15)


def test_reaction_half_after_eps2_matches_ode_oracle():
    out = free_energy_evolve(scalar_field(0.5), EPS**2, MODEL)
    assert out.values[0] == pytest.approx(REACTION_HALF_AFTER_EPS2, abs=1e-9)
    assert out.values[0] == pytest.approx(0.84335, abs=1e-5)


@pytest.mark.parametrize("phi0", [-0.9, -0.4, 0.01, 0.6, 0.95])
@pytest.mark.parametrize("tau_scale", [-4.0, -0.5, 0.7, 5.0])
def test_reaction_matches_ode_oracle(phi0, tau_scale):
    tau = tau_scale * EPS**2
    out = free_energy_evolve(scalar_field(phi0), tau, MODEL)
    assert out.values[0] == pytest.approx(reaction_ode(phi0, tau, EPS), abs=1e-9)


def test_reaction_inverse_pair():
    rng = np.random.default_rng(3)
    grid = GridSpec.line(1.0, 64)
    f = Field(grid, 0.9 * (2.0 * rng.random(64) - 1.0))
    for tau in [0.1 * EPS**2, EPS**2, 5 * EPS**2]:
        fwd = free_energy_evolve(f, tau, MODEL)
        back = free_energy_evolve(fwd, -tau, MODEL)
        np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-10)


def test_forward_reaction_is_bounded_by_one():
    rng = np.random.default_rng(4)
    f = Field(GridSpec.line(1.0, 256), 2.0 * rng.random(256) - 1.0)
    for tau in [1e-3 * EPS**2, EPS**2, 1e3 * EPS**2]:
        out = free_energy_evolve(f, tau, MODEL)
        assert np.max(np.abs(out.values)) <= 1.0 + 1e-15


def test_reaction_underflow_corners():
    # decay factor underflows to zero for huge forward steps
    huge = 1e6 * EPS**2
    assert free_energy_evolve(scalar_field(0.0), huge, MODEL).values[0] == 0.0
    out = free_energy_evolve(scalar_field(1e-200), huge, MODEL)
    assert 0.0 < out.values[0] <= 1.0
    # huge backward steps on |phi| < 1 shrink toward zero, no divergence
    out = free_energy_evolve(scalar_field(0.5), -1e3 * EPS**2, MODEL)
    assert abs(out.values[0]) < 1e-15


def test_backward_reaction_blowup_names_first_cell():
    grid = GridSpec((1.0, 1.0), (4, 4))
    values = np.full((4, 4), 0.5)
    values[2, 1] = 1.5
    values[3, 3] = 1.5
    with pytest.raises(DivergenceError) as excinfo:
        free_energy_evolve(Field(grid, values), -5 * EPS**2, MODEL)
    assert excinfo.value.cell == (2, 1)


def test_divergence_error_not_raised_for_forward_huge_values():
    out = free_energy_evolve(scalar_field(1e150), EPS**2, MODEL)
    assert np.all(np.isfinite(out.values))


# ---------------------------------------------------------------------------
# diffusion flow


def mode_field(grid, k):
    ll = np.arange(grid.cells[0])
    return Field(grid, np.cos(np.pi * k * (ll + 0.5) / grid.cells[0]))


def test_heat_preserves_constants():
    for tau in [1e-6, 0.1, 50.0, -0.2]:
        out = heat_evolve(scalar_field(2.5, m=16), tau)
        np.testing.assert_allclose(out.values, 2.5, rtol=1e-13)


def test_heat_single_mode_decay():
    grid = GridSpec.line(1.0, 64)
    f = mode_field(grid, 1)
    out = heat_evolve(f, 0.01)
    np.testing.assert_allclose(
        out.values, np.exp(-np.pi**2 * 0.01) * f.values, rtol=1e-10
    )
    # analytic decay across a range of modes and times
    for k in [0, 2, 5, 17]:
        for tau in [1e-4, 0.03]:
            f = mode_field(grid, k)
            out = heat_evolve(f, tau)
            np.testing.assert_allclose(
                out.values, np.exp(-((np.pi * k) ** 2) * tau) * f.values,
                rtol=0, atol=1e-10,
            )


def test_heat_clamp_semantics_exact():
    grid = GridSpec.line(1.0, 1024)
    rng = np.random.default_rng(11)
    f = Field(grid, rng.standard_normal(1024))
    tau, k_tol = -0.01, 1e4
    out = heat_evolve(f, tau, CutoffPolicy(k_tol))
    cin = dct_forward(f).coefficients
    cout = dct_forward(out).coefficients
    k = np.arange(1024)
    growth = np.exp(np.minimum((np.pi * k) ** 2 * 0.01, 709.0))
    clamped = (np.pi * k) ** 2 * 0.01 > np.log(k_tol)
    np.testing.assert_allclose(cout[clamped], k_tol * cin[clamped], rtol=1e-12)
    np.testing.assert_allclose(
        cout[~clamped], growth[~clamped] * cin[~clamped], rtol=1e-11
    )


def test_clamped_multiplier_cache_is_read_only_and_keyed_by_clamp():
    from acsplit.operators import _clamped_multiplier

    grid = GridSpec.line(1.0, 64)  # A_max ~ -3.9e4, so exp(-A * 1e-3) ~ 1e17
    tau = -1e-3
    tables = {k_tol: _clamped_multiplier(grid, tau, k_tol) for k_tol in (1e4, 1e9, np.inf)}
    for table in tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 2.0
    assert len({id(t) for t in tables.values()}) == 3
    assert tables[1e4].max() == 1e4
    assert tables[1e9].max() == 1e9
    assert tables[np.inf].max() > 1e16
    assert _clamped_multiplier(grid, tau, 1e9) is tables[1e9]


def test_heat_never_writes_its_input():
    rng = np.random.default_rng(14)
    f = Field(GridSpec.box(1.0, 8, 2), rng.standard_normal((8, 8)))
    before = f.values.copy()
    f.values.setflags(write=False)
    for tau in (0.01, -0.002, 0.01):  # the last call reuses a cached multiplier
        out = heat_evolve(f, tau, CutoffPolicy(1e4))
        assert not np.shares_memory(out.values, f.values)
    np.testing.assert_array_equal(f.values, before)


def test_heat_semigroup():
    rng = np.random.default_rng(12)
    grid = GridSpec.line(2.0, 48)
    f = Field(grid, rng.standard_normal(48))
    one = heat_evolve(f, 0.02)
    two = heat_evolve(heat_evolve(f, 0.013), 0.007)
    np.testing.assert_allclose(two.values, one.values, rtol=0, atol=1e-10)


def test_cutoff_inert_for_forward_steps():
    rng = np.random.default_rng(13)
    f = Field(GridSpec.line(1.0, 128), rng.standard_normal(128))
    for tau in [1e-5, 0.3]:
        a = heat_evolve(f, tau, CutoffPolicy(1e4))
        b = heat_evolve(f, tau, CutoffPolicy(np.inf))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-14)


def test_heat_matches_finite_difference_oracle():
    rng = np.random.default_rng(14)
    grid = GridSpec.line(1.0, 64)
    # keep the content smooth so both discretisations see the same problem
    k = np.arange(64)
    coeffs = np.exp(-k) * rng.standard_normal(64)
    from acsplit import SpectralField, dct_inverse

    f = dct_inverse(SpectralField(grid, coeffs))
    tau = 1e-3
    out = heat_evolve(f, tau)
    ref = fd_heat_1d(f.values, tau, 1.0)
    assert np.linalg.norm(out.values - ref) / np.linalg.norm(ref) < 1e-4


def test_heat_mean_always_preserved():
    rng = np.random.default_rng(15)
    f = Field(GridSpec.line(1.0, 128), rng.standard_normal(128))
    for tau in [0.5, -0.02]:
        out = heat_evolve(f, tau, CutoffPolicy(1e4))
        assert out.values.mean() == pytest.approx(f.values.mean(), abs=1e-12)


def test_cutoff_policy_validation():
    with pytest.raises(ValueError):
        CutoffPolicy(0.5)
    CutoffPolicy(np.inf)  # unbounded is allowed
    with pytest.raises(ValueError):
        ModelParams(0.0)


# ---------------------------------------------------------------------------
# energy diagnostic


def test_energy_examples():
    grid = GridSpec((1.0, 2.0), (8, 8))
    assert energy(Field(grid, np.ones((8, 8))), MODEL) == pytest.approx(0.0, abs=1e-15)
    volume = 2.0
    expected = 0.25 / MODEL.epsilon2 * volume
    assert energy(Field(grid, np.zeros((8, 8))), MODEL) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("dims", [1, 2])
def test_energy_matches_finite_difference_oracle(dims):
    # random low-mode field: smooth enough that the central-difference
    # gradient oracle is itself accurate to well under 1%
    rng = np.random.default_rng(16)
    grid = GridSpec.box(1.0, 48, dims)
    mesh = np.meshgrid(*(grid.axis_centers(i) for i in range(dims)), indexing="ij")
    values = np.zeros(grid.shape)
    for k in (1, 2, 3):
        for axis in range(dims):
            values += 0.1 * rng.uniform(0.5, 1.0) * np.cos(np.pi * k * mesh[axis])
    f = Field(grid, values)
    ours = energy(f, MODEL)
    ref = fd_energy(f.values, grid.spacing, EPS)
    assert abs(ours - ref) / abs(ref) < 0.01
