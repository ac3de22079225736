import math

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
    # tau = -0.2 binds the default clamp on every grid here: the 2D/3D
    # transform pair, too, must not leak rounding into the clamped modes,
    # nor must numpy's FFT on 99 and 130 cells
    for cells, dims in [(16, 1), (16, 2), (16, 3), (64, 2), (32, 3), (99, 1), (130, 1)]:
        grid = GridSpec.box(1.0, cells, dims)
        for tau in [1e-6, 0.1, 50.0, -0.2]:
            out = heat_evolve(Field(grid, np.full(grid.shape, 2.5)), tau)
            np.testing.assert_allclose(out.values, 2.5, rtol=1e-13, err_msg=f"{grid.shape} tau={tau}")


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
    from acsplit.operators import _heat_plan

    grid = GridSpec.line(1.0, 64)  # A_max ~ -3.9e4, so exp(-A * 1e-3) ~ 1e17
    tau = -1e-3
    tables = {k_tol: _heat_plan(grid, tau, k_tol).multiplier for k_tol in (1e4, 1e9, np.inf)}
    for table in tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 2.0
    assert len({id(t) for t in tables.values()}) == 3
    assert tables[1e4].max() == 1e4
    assert tables[1e9].max() == 1e9
    assert tables[np.inf].max() > 1e16
    assert _heat_plan(grid, tau, 1e9).multiplier is tables[1e9]


def test_heat_never_writes_its_input():
    rng = np.random.default_rng(14)
    f = Field(GridSpec.box(1.0, 8, 2), rng.standard_normal((8, 8)))
    before = f.values.copy()
    f.values.setflags(write=False)
    for tau in (0.01, -0.002, 0.01):  # the last call reuses a cached multiplier
        out = heat_evolve(f, tau, CutoffPolicy(1e4))
        assert not np.shares_memory(out.values, f.values)
    np.testing.assert_array_equal(f.values, before)


@pytest.mark.parametrize("k_tol", [1e4, np.inf])
def test_heat_on_a_stack_matches_each_row(k_tol):
    # one transform pair over the grid axis of a stack (numpy's FFT at 8
    # cells, half-size products at 48), scaled by the rows' clamped
    # multipliers; each row of the table must have the bits of that row's
    # own table, and each row of the result the bits heat_evolve gives that
    # row alone, cached multiplier included
    from acsplit.operators import clamped_multipliers, cosine_basis

    rng = np.random.default_rng(15)
    taus = np.array([[0.01], [-0.002], [0.0], [-0.01], [0.003], [-2.0]])  # the last overflows without a clamp
    for grid in (GridSpec.line(1.5, 8), GridSpec.line(1.0, 48)):
        values = rng.standard_normal((len(taus), grid.cells[0]))
        table = clamped_multipliers(grid, taus, k_tol)
        out = cosine_basis(grid).heat(values, table)
        assert table.shape == out.shape == values.shape
        for row, tau, mult, got in zip(values, taus[:, 0], table, out):
            assert mult.tobytes() == clamped_multipliers(grid, float(tau), k_tol).tobytes()
            assert got.tobytes() == heat_evolve(Field(grid, row), tau, CutoffPolicy(k_tol)).values.tobytes()


def explicit_heat(f, tau, k_tol):
    """dctn -> min(exp(A tau), k_tol) -> idctn, the multiplier capped at the
    largest double as the kernel caps it."""
    from scipy.fft import dctn, idctn

    from acsplit.spectral import eigenvalue_table

    with np.errstate(over="ignore"):
        mult = np.minimum(np.exp(eigenvalue_table(f.grid) * tau), min(k_tol, np.finfo(float).max))
        coeffs = dctn(f.values, type=2, norm="ortho") * mult
    return idctn(coeffs, type=2, norm="ortho")


def fallback_shift(values):
    """The shift rule: the end cell of least magnitude of a 1D field, the first cell of a 2D/3D one."""
    if values.ndim == 1:
        return values[0] if abs(values[0]) <= abs(values[-1]) else values[-1]
    return values.flat[0]


def fallback_heat(f, tau, k_tol):
    """The heat substep through operators.dctn/idctn, in its expression order:
    the transform of the field less its shift, the shift put back into the
    mean mode, the clamped multiplier, the inverse transform."""
    from acsplit.operators import clamped_multipliers, dctn, idctn

    shift = fallback_shift(f.values)
    coeffs = dctn(f.values - shift)
    coeffs.flat[0] += shift * math.sqrt(coeffs.size)
    with np.errstate(over="ignore"):
        coeffs *= clamped_multipliers(f.grid, tau, k_tol).reshape(f.grid.shape)
    return idctn(coeffs)


FACTOR_GRIDS = [GridSpec((1.0, 1.5), (8, 6)), GridSpec((1.0, 0.8, 1.3), (6, 5, 4))]


@pytest.mark.parametrize("k_tol", [1e4, np.inf])
@pytest.mark.parametrize("tau", [0.003, 1e-6, -1e-3, -0.01])  # largest backward multiplier < 400
@pytest.mark.parametrize("grid", FACTOR_GRIDS, ids=["2d", "3d"])
def test_heat_factor_path_matches_the_transform_formula(grid, tau, k_tol):
    from acsplit.operators import _uses_factors

    assert _uses_factors(grid, tau, k_tol)
    rng = np.random.default_rng(21)
    f = Field(grid, rng.standard_normal(grid.shape))
    want = explicit_heat(f, tau, k_tol)
    got = heat_evolve(f, tau, CutoffPolicy(k_tol)).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize(
    "grid, tau, k_tol",
    [
        (GridSpec.line(1.0, 100), 0.003, 1e9),  # 1D, not a multiple of 16 cells
        (GridSpec.line(1.0, 100), -1e-3, np.inf),
        (GridSpec((1.0, 1.0), (130, 4)), 0.003, 1e9),  # an axis past FACTOR_MAX_CELLS
    ],
    ids=["1d", "1d-unclamped", "long-axis"],
)
def test_heat_transform_path_keeps_the_formula_bytes(grid, tau, k_tol):
    from acsplit.operators import _half_size, _heat_plan, _uses_factors

    assert not _uses_factors(grid, tau, k_tol) and not _half_size(grid)
    rng = np.random.default_rng(22)
    _heat_plan.cache_clear()
    for values in (rng.standard_normal(grid.shape), np.zeros(grid.shape)):
        f = Field(grid, values)
        got = heat_evolve(f, tau, CutoffPolicy(k_tol)).values
        assert got.tobytes() == fallback_heat(f, tau, k_tol).tobytes()
        want = explicit_heat(f, tau, k_tol)  # scipy's transforms, as an oracle
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-15 * np.abs(want).max())
    # zeros stay zeros, not inf * 0, and no factor was built on the way
    np.testing.assert_array_equal(got, 0.0)
    assert _heat_plan.cache_info().currsize == 1 and _heat_plan(grid, tau, k_tol).factors is None


@pytest.mark.parametrize(
    "grid, tau, k_tol",
    [
        (GridSpec.box(1.0, 64, 2), -1e-3, 1e4),
        (GridSpec((1.0, 0.8, 1.3), (16, 12, 10)), -2e-3, 1e2),
        (GridSpec((1.0, 1.5), (8, 6)), -5.0, np.inf),  # exp(min(A) tau) overflows
    ],
    ids=["2d", "3d", "overflow"],
)
def test_clamped_heat_on_a_factor_grid_matches_the_transform_formula(grid, tau, k_tol, monkeypatch):
    # where the clamp binds on a factor grid, the transform pair is applied
    # as per-axis DCT-II products, never through operators.dctn/idctn
    from acsplit import operators

    assert operators._factor_grid(grid) and not operators._uses_factors(grid, tau, k_tol)

    def refuse(*args, **kwargs):
        raise AssertionError("a factor grid made a scipy transform")

    monkeypatch.setattr(operators, "dctn", refuse)
    monkeypatch.setattr(operators, "idctn", refuse)
    rng = np.random.default_rng(22)
    operators._heat_plan.cache_clear()
    f = Field(grid, rng.standard_normal(grid.shape))
    got = heat_evolve(f, tau, CutoffPolicy(k_tol)).values
    with np.errstate(invalid="ignore"):  # the reference calls scipy.fft itself
        want = explicit_heat(f, tau, k_tol)
    if np.isfinite(want).all():
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-15 * np.abs(want).max())
    else:  # an unbounded clamp overflows both to NaN, for the guard to catch
        assert np.isnan(want).all() and np.isnan(got).all()
    # zeros stay zeros, not inf * 0, and no factor was built on the way
    zeros = heat_evolve(Field(grid, np.zeros(grid.shape)), tau, CutoffPolicy(k_tol)).values
    assert zeros.tobytes() == np.zeros(grid.shape).tobytes()
    assert operators._heat_plan.cache_info().currsize == 1
    assert operators._heat_plan(grid, tau, k_tol).factors is None


@pytest.mark.parametrize("k_tol", [1e9, np.inf])
@pytest.mark.parametrize("tau", [0.003, -1e-3])
@pytest.mark.parametrize("cells", [16, 64, 128])
def test_half_size_heat_matches_the_transform_formula(cells, tau, k_tol, monkeypatch):
    # a 1D grid of a multiple of 16 cells, up to FACTOR_MAX_CELLS, applies
    # the transform pair as half-size products, never through operators.dctn/idctn
    from acsplit import operators

    grid = GridSpec.line(1.0, cells)
    assert operators._half_size(grid) and not operators._uses_factors(grid, tau, k_tol)

    def refuse(*args, **kwargs):
        raise AssertionError("a half-size grid made a scipy transform")

    monkeypatch.setattr(operators, "dctn", refuse)
    monkeypatch.setattr(operators, "idctn", refuse)
    rng = np.random.default_rng(22)
    operators._heat_plan.cache_clear()
    f = Field(grid, rng.standard_normal(grid.shape))
    got = heat_evolve(f, tau, CutoffPolicy(k_tol)).values
    want = explicit_heat(f, tau, k_tol)
    np.testing.assert_allclose(got, want, rtol=0, atol=4e-15 * np.abs(want).max())
    # zeros stay zeros, not inf * 0, and no factor was built on the way
    zeros = heat_evolve(Field(grid, np.zeros(grid.shape)), tau, CutoffPolicy(k_tol)).values
    assert zeros.tobytes() == np.zeros(grid.shape).tobytes()
    assert operators._heat_plan.cache_info().currsize == 1
    assert operators._heat_plan(grid, tau, k_tol).factors is None


def test_half_size_blocks_hold_the_dct_matrix():
    from acsplit.operators import _dct_matrix, cosine_basis

    for n in range(16, 129, 16):
        basis, c = cosine_basis(GridSpec.line(1.0, n)), _dct_matrix(n)
        order = basis.order
        assert sorted(order) == list(range(n)) and list(order[: n // 2]) == list(range(0, n, 2))
        for block in (*basis.blocks, order):
            assert not block.flags.writeable and block.flags.c_contiguous
        even, odd, even_inverse, odd_inverse = basis.blocks
        np.testing.assert_array_equal(even_inverse, c[0::2, : n // 2])
        np.testing.assert_array_equal(odd_inverse, c[1::2, : n // 2])
        np.testing.assert_array_equal(even, c[0::2, : n // 2].T)
        np.testing.assert_array_equal(odd, c[1::2, : n // 2].T)
        # row k of C is even about the middle for even k and odd for odd k
        np.testing.assert_allclose(c[0::2, n // 2 :], c[0::2, n // 2 - 1 :: -1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(c[1::2, n // 2 :], -c[1::2, n // 2 - 1 :: -1], rtol=0, atol=1e-15)


def test_dct_matrix_is_orthonormal_and_matches_scipy():
    from scipy.fft import dct

    from acsplit.operators import FACTOR_MAX_CELLS, _dct_matrix

    for n in range(1, FACTOR_MAX_CELLS + 1):
        c = _dct_matrix(n)
        assert not c.flags.writeable
        wide = c.astype(np.longdouble)  # the product in extended precision shows C's own error, not the GEMM's
        assert np.abs(wide @ wide.T - np.eye(n)).max() <= 2e-15, n
        assert np.abs(c - dct(np.eye(n), type=2, norm="ortho", axis=0)).max() <= 1e-15, n


# operators.dctn/idctn against scipy's orthonormal pair as an oracle, on
# standard normal data: within 4e-15, about twice the largest error seen
@pytest.mark.parametrize("shape, axes", [((2,), None), ((99,), None), ((100,), None), ((256,), None),
                                         ((1024,), None), ((5, 256), (1,)), ((130, 4), None), ((6, 5, 4), None)])
def test_numpy_transforms_match_scipy(shape, axes):
    import scipy.fft

    from acsplit import operators

    for seed in range(3):
        x = np.random.default_rng([23, seed]).standard_normal(shape)
        for ours, theirs in ((operators.dctn, scipy.fft.dctn), (operators.idctn, scipy.fft.idctn)):
            got = ours(x, axes=axes)
            assert got.shape == x.shape and got.dtype == np.float64
            np.testing.assert_allclose(got, theirs(x, type=2, norm="ortho", axes=axes), rtol=0, atol=4e-15)
        assert np.abs(operators.idctn(operators.dctn(x, axes=axes), axes=axes) - x).max() <= 4e-15


@pytest.mark.parametrize("n", [2, 99, 100, 256, 1024])
def test_numpy_transform_rows_keep_their_bits(n):
    # every row of an (R, n) stack is transformed as that row alone
    from acsplit import operators

    rng = np.random.default_rng(n)
    for rows in (1, 2, 5):
        stack = rng.standard_normal((rows, n))
        for transform in (operators.dctn, operators.idctn):
            together = transform(stack, axes=(1,))
            for row, got in zip(stack, together):
                assert got.tobytes() == transform(row).tobytes(), (n, rows)


# on the last two, summing the axes' minima in another order moves min(A) by an ulp
@pytest.mark.parametrize("grid", FACTOR_GRIDS + [GridSpec((1.0, 0.9, 1.1), (32, 32, 32)),
                                                 GridSpec((1.0, 0.8, 1.3), (10, 9, 7))],
                         ids=["2d", "3d", "32^3", "10x9x7"])
def test_uses_factors_reads_min_a_with_the_table_bits(grid):
    # min(A) is summed from the axes as the table sums it: a clamp at
    # exactly the table's largest multiplier is inert, one ulp below binds
    from acsplit.operators import _uses_factors
    from acsplit.spectral import eigenvalue_table

    for tau in (-1e-3, -3.7e-4, -1e-4, -3e-5, -1e-5):
        peak = math.exp(float(eigenvalue_table(grid).flat[-1]) * tau)  # math.exp, as the predicate takes it
        assert _uses_factors(grid, tau, peak)
        assert not _uses_factors(grid, tau, np.nextafter(peak, 0.0))


@pytest.mark.parametrize("grid", [GridSpec.line(0.5, 128)] + FACTOR_GRIDS, ids=["1d", "2d", "3d"])
def test_clamp_binds_only_where_a_multiplier_could_change(grid):
    import warnings

    from acsplit.operators import clamp_binds, clamped_multipliers
    from acsplit.spectral import eigenvalue_table

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow may warn, in numpy or plain floats
        # a forward or zero tau never binds, not even at k_tol = 1
        assert not clamp_binds(grid, [0.0, 1e-3, 10.0, 1e300, np.float64(0.5)], 1.0)
        # nor does an unbounded clamp, even where exp(min(A) tau) overflows
        assert not clamp_binds(grid, [-1e-3, -1e3, np.float64(-1e300)], np.inf)
        assert not clamp_binds(grid, [], 1.0)
        # an overflowing exp binds every finite clamp
        for tau in (-1e3, np.float64(-1e3), -1e300):
            assert clamp_binds(grid, [tau], 1.7e308)
        # a clamp at the largest multiplier or within the margin of it binds; past it, not
        tau = -1e-3
        peak = math.exp(float(eigenvalue_table(grid).flat[-1]) * tau)
        assert clamp_binds(grid, [tau], peak)
        assert clamp_binds(grid, [tau], peak * (1.0 + 0.5e-12))
        k_tol = peak * (1.0 + 2e-12)
        assert not clamp_binds(grid, [tau, tau / 2, -tau], k_tol)
        # and then the table is the one an unbounded clamp builds, to the bit
        for t in (tau, tau / 2):
            assert clamped_multipliers(grid, t, k_tol).tobytes() == clamped_multipliers(grid, t, np.inf).tobytes()
        # a clamp that only the last tau of the list binds
        k_tol = math.exp(float(eigenvalue_table(grid).flat[-1]) * tau / 2) * (1.0 + 2e-12)
        assert not clamp_binds(grid, [1e-3, tau / 2], k_tol)
        assert clamp_binds(grid, [1e-3, tau / 2, tau], k_tol)


def test_factor_path_builds_no_eigenvalue_table():
    from acsplit.spectral import eigenvalue_table

    grid = GridSpec((1.0, 0.9, 1.1), (10, 9, 7))  # no other test builds its table
    f = Field(grid, np.random.default_rng(27).standard_normal(grid.shape))
    misses = eigenvalue_table.cache_info().misses
    for tau in (1e-3, -1e-4):
        heat_evolve(f, tau, CutoffPolicy(1e9))
    energy(f, MODEL)
    assert eigenvalue_table.cache_info().misses == misses


def test_heat_factor_path_overflow_is_left_to_the_guard():
    # exp(min(A) tau) ~ 1e257 is finite, so the factors apply, but the
    # products overflow; like the transform path, that must not warn
    from acsplit.operators import _uses_factors

    grid, tau = FACTOR_GRIDS[0], -1.0
    assert _uses_factors(grid, tau, np.inf)
    f = Field(grid, 1e60 * np.random.default_rng(23).standard_normal(grid.shape))
    assert not np.all(np.isfinite(heat_evolve(f, tau, CutoffPolicy(np.inf)).values))


def test_heat_factors_are_cached_read_only():
    from acsplit.operators import _heat_plan

    grid = FACTOR_GRIDS[1]
    factors = _heat_plan(grid, -1e-3, 1e9).factors
    assert [m.shape for m in factors] == [(6, 6), (5, 5), (4, 4)]
    for factor in factors:
        assert np.all(np.isfinite(factor))
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 2.0
    # the last axis is applied as slab products with its transpose
    assert factors[-1].T.flags.c_contiguous
    assert _heat_plan(grid, -1e-3, 1e9).factors is factors


# the slab products round differently from one GEMM on the first two
EINSUM_GRIDS = [
    GridSpec((1.0, 1.5), (32, 32)),
    GridSpec((1.0, 0.8, 1.3), (24, 20, 28)),
    GridSpec((1.0, 0.8, 1.3), (6, 5, 4)),
]
EINSUM_IDS = ["32x32", "24x20x28", "6x5x4"]


def einsum_factors(values, factors):
    """One factor along each axis, one ``np.einsum`` per axis."""
    out = np.einsum("ai,i...->a...", factors[0], values)
    if len(factors) == 3:
        out = np.einsum("bj,ajk->abk", factors[1], out)
    return np.einsum("ck,...k->...c", factors[-1], out)


@pytest.mark.parametrize("tau", [0.003, -1e-3])
@pytest.mark.parametrize("grid", EINSUM_GRIDS, ids=EINSUM_IDS)
def test_apply_factors_matches_einsum(grid, tau):
    from acsplit.operators import _apply_factors, _heat_plan

    factors = _heat_plan(grid, tau, 1e9).factors
    values = np.random.default_rng(26).standard_normal(grid.shape)
    want = einsum_factors(values, factors)
    got = _apply_factors(values, factors)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


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


@pytest.mark.parametrize("epsilon", [0.0, -0.1, np.nan, np.inf, 1e200, 1e155, 1e-155, 1e-160, 1e-170])
def test_model_refuses_an_epsilon_whose_scales_are_not_normal(epsilon):
    # eps^2 or 1/eps^2 overflows, underflows or is subnormal
    with pytest.raises(ValueError, match="epsilon"):
        ModelParams(epsilon)


def test_model_accepts_the_extreme_normal_scales():
    for epsilon in (1e-150, 1e150, 1e12, 0.015):
        model = ModelParams(epsilon)
        assert 0.0 < model.epsilon2 < np.inf and 0.0 < 1.0 / model.epsilon2 < np.inf


@pytest.mark.parametrize("lengths", [(np.inf,), (np.nan,), (1e-300,), (1.0, 1e-160), (1e300, 1e300, 1e300), (-1.0,)])
def test_grid_refuses_a_length_whose_scales_are_not_finite(lengths):
    with pytest.raises(ValueError, match="length"):
        GridSpec(lengths, (64,) * len(lengths))


# ---------------------------------------------------------------------------
# energy diagnostic


@pytest.mark.parametrize("grid", [GridSpec.line(1.0, 100), GridSpec.line(1.0, 128), GridSpec.box(1.0, 16, 3)],
                         ids=["fft-100", "half-128", "factor-16^3"])
def test_energy_of_a_non_finite_or_huge_cell_is_not_finite_and_warns_nothing(grid):
    # a run records the energy of any state its guard lets through, which
    # under an infinite guard may hold inf; a warning here is an error
    values = np.random.default_rng(26).uniform(-1.0, 1.0, grid.shape)
    for bad in (np.inf, 1e300, np.nan):
        f = Field(grid, values.copy())
        f.values.flat[grid.cell_count // 3] = bad
        got = energy(f, MODEL)
        assert not math.isfinite(got), (bad, got)
        if bad == 1e300:
            assert got == math.inf
        if np.isnan(bad):
            assert math.isnan(got)


@pytest.mark.parametrize("grid", [GridSpec.line(1.0, 64), GridSpec.box(1.0, 8, 3)], ids=["64", "8^3"])
@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_substeps_refuse_a_tau_that_is_not_finite(grid, tau):
    f = Field(grid, np.random.default_rng(27).uniform(-1.0, 1.0, grid.shape))
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(ValueError, match=f"heat substep needs a finite tau, got {tau}"):
            heat_evolve(f, tau, CutoffPolicy(1e4))
        with pytest.raises(ValueError, match=f"reaction substep needs a finite tau, got {tau}"):
            free_energy_evolve(f, tau, MODEL)
    assert np.isfinite(free_energy_evolve(heat_evolve(f, -1e-4), 1e-4, MODEL).values).all()


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


def explicit_energy(f, model, fallback=False):
    """The transform formula of :func:`energy`, in its expression order,
    through scipy's transform, or with ``fallback`` through operators.dctn
    of the field less its shift, which moves only c_0, whose eigenvalue is 0."""
    from scipy.fft import dctn

    from acsplit import operators
    from acsplit.spectral import eigenvalue_table

    phi2 = f.values * f.values
    bulk = float(np.sum(0.25 * (phi2 - 1.0) ** 2)) / model.epsilon2
    if fallback:
        coeffs = operators.dctn(f.values - fallback_shift(f.values))
    else:
        coeffs = dctn(f.values, type=2, norm="ortho")
    grad = -0.5 * float(np.sum(eigenvalue_table(f.grid) * coeffs * coeffs))
    return f.grid.cell_volume * (bulk + grad)


@pytest.mark.parametrize("grid", FACTOR_GRIDS, ids=["2d", "3d"])
def test_energy_factor_path_matches_the_transform_formula(grid):
    from acsplit.operators import _factor_grid

    assert _factor_grid(grid)
    rng = np.random.default_rng(24)
    for _ in range(3):
        f = Field(grid, rng.uniform(-1.0, 1.0, grid.shape))
        assert energy(f, MODEL) == pytest.approx(explicit_energy(f, MODEL), rel=1e-12)


@pytest.mark.parametrize("cells", [16, 64, 128])
def test_energy_half_size_path_matches_the_transform_formula(cells, monkeypatch):
    from acsplit import operators

    grid = GridSpec.line(1.0, cells)
    assert operators._half_size(grid)
    rng = np.random.default_rng(24)
    for _ in range(3):
        f = Field(grid, rng.uniform(-1.0, 1.0, grid.shape))
        want = explicit_energy(f, MODEL)
        with monkeypatch.context() as m:
            m.setattr(operators, "dctn", None)  # no scipy transform is made
            assert energy(f, MODEL) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "grid",
    [GridSpec.line(1.0, 100), GridSpec((1.0, 1.0), (130, 4))],
    ids=["1d", "long-axis"],
)
def test_energy_off_the_factor_path_keeps_the_formula_bytes(grid):
    from acsplit.operators import _factor_grid, _gradient_factors, _half_size

    assert not _factor_grid(grid) and not _half_size(grid)
    _gradient_factors.cache_clear()
    rng = np.random.default_rng(25)
    for _ in range(3):
        f = Field(grid, rng.uniform(-1.0, 1.0, grid.shape))
        assert energy(f, MODEL) == explicit_energy(f, MODEL, fallback=True)
        assert energy(f, MODEL) == pytest.approx(explicit_energy(f, MODEL), rel=1e-12)
    assert _gradient_factors.cache_info().currsize == 0


def test_gradient_factors_are_cached_read_only():
    from acsplit.operators import _gradient_factors

    grid = FACTOR_GRIDS[1]
    factors = _gradient_factors(grid)
    assert [m.shape for m in factors] == [(6, 6), (5, 5), (4, 4)]
    for factor in factors:
        np.testing.assert_array_equal(factor[0], 0.0)  # the constant mode has no gradient
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 2.0
    assert factors[-1].T.flags.c_contiguous
    assert _gradient_factors(grid) is factors


@pytest.mark.parametrize("grid", EINSUM_GRIDS, ids=EINSUM_IDS)
def test_energy_matches_einsum(grid):
    from acsplit.operators import _gradient_factors

    factors = _gradient_factors(grid)
    rng = np.random.default_rng(27)
    for _ in range(3):
        values = rng.uniform(-1.0, 1.0, grid.shape)
        bulk = np.sum(0.25 * (values * values - 1.0) ** 2) / MODEL.epsilon2
        grad = 0.0
        for axis, factor in enumerate(factors):
            # S_i along axis i; the sum of squares does not see the axis order
            grad += np.sum(np.einsum("ki,i...->k...", factor, np.moveaxis(values, axis, 0)) ** 2)
        want = grid.cell_volume * (bulk + 0.5 * grad)
        assert energy(Field(grid, values), MODEL) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# carried bounds on max|phi|

BOUND_GRIDS = EINSUM_GRIDS + [GridSpec.box(1.0, 8, 3)]
BOUND_IDS = EINSUM_IDS + ["8^3"]


def _worst_heat_field(factors):
    """The signs of each factor's largest absolute row, as a tensor product:
    the field whose image attains the product of the factors' infinity norms."""
    out = np.ones(())
    for factor in factors:
        row = factor[np.abs(factor).sum(axis=1).argmax()]
        out = np.multiply.outer(out, np.where(row < 0.0, -1.0, 1.0))
    return out


@pytest.mark.parametrize("tau", [0.003, 1e-6, -1e-5, -1e-4])  # forward, and backward where the clamp binds nowhere
@pytest.mark.parametrize("grid", BOUND_GRIDS, ids=BOUND_IDS)
def test_heat_gain_bounds_the_factor_path(grid, tau):
    from acsplit.operators import PEAK_LIMIT, _heat_plan, heat_gain

    gain = heat_gain(grid, tau, 1e9)
    assert 0.0 < gain < np.inf
    worst = _worst_heat_field(_heat_plan(grid, tau, 1e9).factors)
    rng = np.random.default_rng(28)
    fields = [worst, -worst, rng.uniform(-1.0, 1.0, grid.shape), np.where(rng.random(grid.shape) < 0.5, -1.0, 1.0)]
    for scale in (1.0, 0.7, 1.3, 3.7, 1e3, PEAK_LIMIT):
        for values in fields:
            f = Field(grid, scale * values)
            out = heat_evolve(f, tau, CutoffPolicy(1e9)).values
            assert np.abs(out).max() <= gain * np.abs(f.values).max()
    # the worst field attains the norms, so the gain holds no more than its margin
    peak = np.abs(heat_evolve(Field(grid, worst), tau, CutoffPolicy(1e9)).values).max()
    assert gain <= peak * (1.0 + 2e-12)


@pytest.mark.parametrize(
    "grid, tau, k_tol",
    [
        (GridSpec.box(1.0, 64, 2), -1e-3, 1e4),  # the clamp binds
        (GridSpec.line(1.0, 64), 0.003, 1e9),  # 1D
        (GridSpec((1.0, 1.0), (130, 4)), 0.003, 1e9),  # an axis past FACTOR_MAX_CELLS
        (GridSpec((1.0, 1.5), (8, 6)), -5.0, np.inf),  # exp(min(A) tau) overflows
    ],
    ids=["binding", "1d", "long-axis", "overflow"],
)
def test_heat_gain_is_unknown_off_the_factor_path(grid, tau, k_tol):
    from acsplit.operators import heat_gain

    assert heat_gain(grid, tau, k_tol) == np.inf


def _backward_limit(peak):
    """The largest double decay > 1 that certifies a reaction on ``peak`` > 1/sqrt(2)."""
    from acsplit.operators import _certified

    decay = peak * peak / (peak * peak - 0.5)
    while not _certified(peak, decay):
        decay = np.nextafter(decay, 0.0)
    while _certified(peak, np.nextafter(decay, np.inf)):
        decay = np.nextafter(decay, np.inf)
    assert decay > 1.0
    return float(decay)


BOUND_PEAKS = [0.5, 1.0, 1.2, 3.0, 100.0, 1e4]


def _reaction_fields(peak):
    """Fields with max|phi| = ``peak``: dense just below the peak, spread
    over [-peak, peak], and tiny values down to subnormal squares."""
    rng = np.random.default_rng(29)
    near = peak * (1.0 - 1e-11 * np.arange(4000))
    spread = peak * rng.uniform(-1.0, 1.0, 4000)
    tiny = np.array([0.0, -0.0, 5e-324, 1e-160, -1e-200, 1e-300])
    return [np.concatenate(([peak], near, -near)), np.concatenate(([-peak], spread, tiny))]


@pytest.mark.parametrize("decay", [2.2e-14, 1e-3, 0.3, 1.0 - 2.0**-53, 1.0, 1.7, "limit"])
def test_reaction_bound_holds_where_certified(decay):
    from acsplit._kernels import free_energy_apply
    from acsplit.operators import _reaction_bound

    certified = 0
    for peak in BOUND_PEAKS:
        if decay == "limit" and peak * peak <= 0.5:
            continue  # (d - 1) peak^2 <= d/2 holds for every decay there
        d = _backward_limit(peak) if decay == "limit" else decay
        bound = _reaction_bound(peak, d)
        if bound == np.inf:
            continue
        certified += 1
        for phi in _reaction_fields(peak):
            out = np.empty_like(phi)
            assert free_energy_apply(phi, out, d) == -1
            assert np.abs(out).max() <= bound, (peak, d)
    assert certified == {1.7: 2, "limit": 5}.get(decay, len(BOUND_PEAKS))


def test_reaction_is_certified_only_where_its_radicand_is_normal():
    from acsplit.operators import FORWARD_DECAY_MIN, PEAK_LIMIT, _certified, _reaction_bound

    assert _certified(PEAK_LIMIT, 0.5) and not _certified(np.nextafter(PEAK_LIMIT, np.inf), 0.5)
    assert not _certified(np.nan, 0.5) and not _certified(np.inf, 0.5)
    assert _certified(1.0, np.nextafter(FORWARD_DECAY_MIN, 1.0)) and not _certified(1.0, FORWARD_DECAY_MIN)
    assert not _certified(0.0, 0.0)
    # backward: any decay for peak^2 <= 1/2, none past the limit above it
    f64_max = float(np.finfo(np.float64).max)
    assert _certified(0.7, f64_max) and not _certified(0.75, f64_max)
    limit = _backward_limit(3.0)
    assert not _certified(3.0, np.nextafter(limit, np.inf))
    assert _reaction_bound(3.0, np.nextafter(limit, np.inf)) == np.inf


@pytest.mark.parametrize("aliased", [False, True])
@pytest.mark.parametrize("blocks", [0, 1, 2], ids=["part-block", "one-block", "blocks"])
def test_certified_kernel_keeps_the_checked_bits(blocks, aliased):
    from acsplit._kernels import free_energy_apply
    from acsplit._kernels import CERTIFIED_BLOCK
    from acsplit.operators import _certified

    # exactly one block, or a partial block alone or after two whole ones
    cells = CERTIFIED_BLOCK if blocks == 1 else blocks * CERTIFIED_BLOCK + 4003
    rng = np.random.default_rng(30)
    decays = [0.0, 1e-300, 1e-14, 2.1e-14, 2.2e-14, 1e-3, 0.3, 1.0 - 2.0**-53, 1.0,
              1.0 + 2.0**-52, 1.7, 1e10, float(np.finfo(np.float64).max)]
    compared = 0
    for peak in [1e-150, 0.5, np.sqrt(0.5), 1.0, 1.2, 3.0, 1e4]:
        phi = peak * rng.uniform(-1.0, 1.0, cells)
        phi[:8] = [peak, -peak, 0.0, 5e-324, 1e-160, -1e-200, 1e-300, -0.0]
        phi = np.minimum(np.maximum(phi, -peak), peak)
        for decay in decays:
            if not _certified(peak, decay):
                continue
            want = np.empty_like(phi)
            assert free_energy_apply(phi, want, decay) == -1
            got = phi.copy() if aliased else np.empty_like(phi)
            assert free_energy_apply(got if aliased else phi, got, decay, certified=True) == -1
            assert got.tobytes() == want.tobytes(), (peak, decay)
            compared += 1
    assert compared >= 40


def test_certified_reaction_in_free_energy_evolve(monkeypatch):
    # a bound that certifies takes the certified kernel, one that does not
    # keeps the blow-up check, and both give the checked bits
    from acsplit import _kernels
    from acsplit.operators import _cached_decay, _certified

    modes = []
    kernel = _kernels.free_energy_apply

    def recorded(phi, out, decay, certified=False):
        modes.append(certified)
        return kernel(phi, out, decay, certified)

    monkeypatch.setattr(_kernels, "free_energy_apply", recorded)
    grid = GridSpec.box(1.0, 6, 3)
    values = np.random.default_rng(31).uniform(-1.2, 1.2, grid.shape)
    tau = -0.1 * EPS**2
    assert _certified(1.2, _cached_decay(tau, MODEL)) and not _certified(1.2, _cached_decay(-EPS**2, MODEL))
    checked = free_energy_evolve(Field(grid, values), tau, MODEL)
    assert free_energy_evolve(Field(grid, values), tau, MODEL, 1.2).values.tobytes() == checked.values.tobytes()
    assert modes == [False, True]
    values = np.full(grid.shape, 0.5)
    values[1, 2, 3] = 3.0
    with pytest.raises(DivergenceError) as excinfo:
        free_energy_evolve(Field(grid, values), -EPS**2, MODEL, 3.0)
    assert excinfo.value.cell == (1, 2, 3) and modes[-1] is False
