import numpy as np
import pytest

from acsplit import (
    Field,
    GridSpec,
    SpectralField,
    dct_forward,
    dct_inverse,
    laplacian_eigenvalues,
)

from oracles import brute_dct1d


def random_field(grid, rng, scale=1.0):
    return Field(grid, scale * rng.standard_normal(grid.shape))


def test_constant_field_hits_only_the_zero_mode():
    grid = GridSpec.line(1.0, 4)
    c = 3.7
    coeffs = dct_forward(Field(grid, np.full(4, c))).coefficients
    assert coeffs[0] == pytest.approx(2.0 * c, rel=1e-14)  # sqrt(M) * c with M = 4
    assert np.max(np.abs(coeffs[1:])) < 1e-14


def test_single_cosine_mode_m8():
    grid = GridSpec.line(1.0, 8)
    ll = np.arange(8)
    f = Field(grid, np.cos(np.pi * 3 * (ll + 0.5) / 8))
    coeffs = dct_forward(f).coefficients
    assert coeffs[3] == pytest.approx(2.0, rel=1e-13)  # sqrt(M/2)
    others = np.delete(coeffs, 3)
    assert np.max(np.abs(others)) < 1e-13
    # cross-check the whole spectrum against the direct sum
    np.testing.assert_allclose(coeffs, brute_dct1d(f.values), atol=1e-13)


@pytest.mark.parametrize("m", [2, 5, 9, 16, 31])
def test_forward_matches_brute_force(m):
    rng = np.random.default_rng(m)
    f = random_field(GridSpec.line(2.5, m), rng)
    np.testing.assert_allclose(
        dct_forward(f).coefficients, brute_dct1d(f.values), atol=1e-12
    )


@pytest.mark.parametrize(
    "lengths,cells",
    [
        ((1.0,), (7,)),
        ((1.0, 2.0), (6, 5)),
        ((1.0, 0.5, 2.0), (8, 5, 6)),
    ],
)
def test_round_trips_are_identity(lengths, cells):
    rng = np.random.default_rng(42)
    grid = GridSpec(lengths, cells)
    f = random_field(grid, rng)
    back = dct_inverse(dct_forward(f))
    np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-12 * f.norm())
    s = dct_forward(f)
    again = dct_forward(dct_inverse(s))
    np.testing.assert_allclose(again.coefficients, s.coefficients, rtol=0, atol=1e-12 * s.norm())


def test_inverse_examples():
    grid = GridSpec.line(1.0, 6)
    zeros = dct_inverse(SpectralField(grid, np.zeros(6)))
    assert np.all(zeros.values == 0.0)
    coeffs = np.zeros(6)
    coeffs[0] = np.sqrt(6.0)
    ones = dct_inverse(SpectralField(grid, coeffs))
    np.testing.assert_allclose(ones.values, 1.0, rtol=1e-14)


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec.line(4.0, 1024),
        GridSpec.box(1.0, 48, 2),
        GridSpec.box(1.0, 64, 3),
    ],
)
def test_isometry(grid):
    rng = np.random.default_rng(7)
    f = random_field(grid, rng)
    assert dct_forward(f).norm() == pytest.approx(f.norm(), rel=1e-12)


def test_rejects_nonfinite_input():
    grid = GridSpec.line(1.0, 4)
    values = np.ones(4)
    values[2] = np.nan
    f = Field(grid, np.ones(4))
    f.values[2] = np.nan
    with pytest.raises(ValueError):
        dct_forward(f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("grid", [GridSpec.line(1.0, 16), GridSpec.line(1.0, 5), GridSpec((1.0, 2.0), (4, 3))],
                         ids=["half-size", "fft", "products"])
def test_inverse_rejects_nonfinite_coefficients(grid, bad):
    coeffs = np.ones(grid.shape)
    coeffs.flat[-1] = bad
    with pytest.raises(ValueError, match="non-finite coefficients"):
        dct_inverse(SpectralField(grid, coeffs))


@pytest.mark.parametrize("grid", [GridSpec.line(1.0, 64), GridSpec((1.0, 2.0), (6, 5)), GridSpec((1.0, 2.0), (130, 4))],
                         ids=["half-size", "products", "fft"])
def test_pair_holds_coefficients_in_c_order_on_every_basis(grid):
    # scipy's orthonormal transforms, as an oracle
    from scipy.fft import dctn, idctn

    x = np.random.default_rng(3).standard_normal(grid.shape)
    np.testing.assert_allclose(dct_forward(Field(grid, x)).coefficients, dctn(x, norm="ortho"), rtol=0, atol=4e-15)
    np.testing.assert_allclose(dct_inverse(SpectralField(grid, x)).values, idctn(x, norm="ortho"), rtol=0, atol=4e-15)


def test_eigenvalue_examples():
    eig1 = laplacian_eigenvalues(GridSpec.line(1.0, 8)).coefficients
    assert eig1[0] == 0.0
    assert eig1[2] == pytest.approx(-4.0 * np.pi**2, rel=1e-15)
    eig2 = laplacian_eigenvalues(GridSpec((1.0, 2.0), (4, 4))).coefficients
    assert eig2[1, 2] == pytest.approx(-2.0 * np.pi**2, rel=1e-15)


def test_eigenvalues_nonpositive_and_zero_only_at_origin():
    grid = GridSpec((1.0, 3.0, 0.7), (5, 4, 6))
    eig = laplacian_eigenvalues(grid).coefficients
    assert eig[0, 0, 0] == 0.0
    assert np.all(eig <= 0.0)
    flat = eig.ravel()
    assert np.all(flat[1:] < 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((1.0,), (1,))
    with pytest.raises(ValueError):
        GridSpec((0.0,), (4,))
    with pytest.raises(ValueError):
        GridSpec((1.0, 1.0, 1.0, 1.0), (4, 4, 4, 4))
    with pytest.raises(ValueError, match="one entry per axis"):
        GridSpec((1.0, 1.0), (8,))
    with pytest.raises(ValueError):
        Field(GridSpec.line(1.0, 4), np.zeros(5))


def test_equal_grids_hash_equal():
    # the operator caches are keyed by grid, so a grid given as lists of
    # other numeric types must find the same entries
    a, b = GridSpec((2.0, 1.0), (8, 4)), GridSpec([2, 1.0], [8.0, 4])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, GridSpec((2.0, 1.0), (8, 5))}) == 2


def test_grid_geometry():
    grid = GridSpec((2.0, 1.0), (8, 4))
    assert grid.spacing == (0.25, 0.25)
    assert grid.cell_count == 32
    assert grid.cell_volume == pytest.approx(0.0625)
    np.testing.assert_allclose(grid.axis_centers(0), (np.arange(8) + 0.5) * 0.25)
