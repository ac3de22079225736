"""Both kernel backends implement one contract; check them against each other."""

import numpy as np
import pytest

from acsplit._kernels import BACKEND, RADICAND_FLOOR, _ref

from oracles import free_energy_plain, guard_scan_plain

try:
    from acsplit._kernels import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled kernels not built")


def test_backend_reported():
    assert BACKEND in ("compiled", "numpy")


@needs_compiled
@pytest.mark.parametrize("decay", [0.0, 1e-300, 0.37, 1.0, 2.84, 1e80, np.inf])
def test_free_energy_backends_agree(decay):
    rng = np.random.default_rng(21)
    phi = np.concatenate(
        [rng.uniform(-1.2, 1.2, 257), [0.0, 1.0, -1.0, 1e-200, -1e-200, 5.0, -5.0]]
    )
    a = np.empty_like(phi)
    b = np.empty_like(phi)
    ra = _ref.free_energy_apply(phi, a, decay)
    rb = _core.free_energy_apply(phi, b, decay)
    assert ra == rb
    if ra == -1:
        # same expression order, correctly-rounded primitives: bit equality
        np.testing.assert_array_equal(a, b)


@needs_compiled
def test_free_energy_divergence_index_agrees():
    phi = np.array([0.3, -0.2, 1.4, 0.0, 1.6])
    a = np.empty_like(phi)
    b = np.empty_like(phi)
    decay = 4.0  # strongly backward
    ia = _ref.free_energy_apply(phi, a, decay)
    ib = _core.free_energy_apply(phi, b, decay)
    assert ia == ib == 2  # first cell whose radicand crosses the floor


def test_free_energy_radicand_floor():
    # radicand exactly at the floor must trigger; just above must not
    decay = 2.0
    crit = np.sqrt((decay - RADICAND_FLOOR) / (decay - 1.0))
    phi = np.array([crit * (1.0 + 1e-9)])
    out = np.empty(1)
    assert _ref.free_energy_apply(phi, out, decay) == 0
    phi = np.array([crit * (1.0 - 1e-9)])
    assert _ref.free_energy_apply(phi, out, decay) == -1
    assert np.isfinite(out[0])


@needs_compiled
@pytest.mark.parametrize("tau,k_tol", [(0.01, 1e9), (-0.01, 1e4), (-0.5, np.inf), (0.0, 1.0)])
def test_heat_multiplier_backends_agree(tau, k_tol):
    rng = np.random.default_rng(8)
    eig = -np.sort(rng.uniform(0.0, 2000.0, 512))
    eig[0] = 0.0
    coeffs = rng.standard_normal(512)
    coeffs[7] = 0.0
    a = np.empty_like(coeffs)
    b = np.empty_like(coeffs)
    _ref.heat_multiplier_apply(coeffs, eig, tau, k_tol, a)
    _core.heat_multiplier_apply(coeffs, eig, tau, k_tol, b)
    # libm exp and numpy's vectorised exp may differ in the last ulp
    np.testing.assert_allclose(a, b, rtol=5e-16, atol=0.0)


@pytest.mark.parametrize("impl", [_ref, _core])
def test_heat_multiplier_allows_aliased_output(impl):
    if impl is None:
        pytest.skip("compiled kernels not built")
    rng = np.random.default_rng(5)
    eig = -rng.uniform(0.0, 100.0, 64)
    coeffs = rng.standard_normal(64)
    expected = np.empty_like(coeffs)
    impl.heat_multiplier_apply(coeffs, eig, 0.01, 1e9, expected)
    aliased = coeffs.copy()
    impl.heat_multiplier_apply(aliased, eig, 0.01, 1e9, aliased)
    np.testing.assert_array_equal(aliased, expected)


@pytest.mark.parametrize("impl", [_ref, _core])
def test_zero_coefficients_stay_zero_with_unbounded_clamp(impl):
    if impl is None:
        pytest.skip("compiled kernels not built")
    eig = np.array([-0.0, -1e6])
    coeffs = np.array([0.0, 0.0])
    out = np.empty(2)
    impl.heat_multiplier_apply(coeffs, eig, -1.0, np.inf, out)  # exp overflows
    assert np.all(out == 0.0)


@pytest.mark.parametrize("impl", [_ref, _core])
def test_guard_scan(impl):
    if impl is None:
        pytest.skip("compiled kernels not built")
    assert impl.guard_scan(np.array([0.5, -2.0, 1.0])) == 2.0
    assert impl.guard_scan(np.array([0.0, np.inf])) == np.inf
    assert np.isnan(impl.guard_scan(np.array([1.0, np.nan, 3.0])))


@needs_compiled
def test_unit_phi_with_overflowed_decay_stays_unit():
    phi = np.array([1.0, -1.0])
    for impl in (_ref, _core):
        out = np.empty(2)
        assert impl.free_energy_apply(phi, out, np.inf) == -1
        np.testing.assert_array_equal(out, phi)


# ---------------------------------------------------------------------------
# the numpy kernels against their plain formulas, bit for bit

_rng = np.random.default_rng(2024)
REACTION_INPUTS = {
    "random": _rng.uniform(-1.0, 1.0, 301),
    "wide": _rng.uniform(-1.7, 1.7, 301),
    "exact": np.array([0.0, 1.0, -1.0, -0.0, 1.0, 0.0]),
    "subnormal": np.array([5e-324, -5e-324, 1e-310, -1e-310, 1e-160, -1e-200, 0.5]),
    "blowup": np.concatenate([_rng.uniform(-1.0, 1.0, 40), [1.2, -3.0, 5.0]]),
    "nan": np.array([0.3, np.nan, -0.7, 0.0]),
}
DECAYS = [0.0, 1e-300, 0.3, 1.0, 1.7, 1e300, np.inf]


@pytest.mark.parametrize("decay", DECAYS)
@pytest.mark.parametrize("name", sorted(REACTION_INPUTS))
@pytest.mark.parametrize("aliased", [False, True], ids=["out", "in-place"])
def test_free_energy_matches_plain_formula(name, decay, aliased):
    phi = REACTION_INPUTS[name]
    expected = np.full_like(phi, -7.0)
    want = free_energy_plain(phi.copy(), expected, decay)
    work = phi.copy()
    out = work if aliased else np.full_like(phi, -7.0)
    got = _ref.free_energy_apply(work, out, decay)
    assert got == want  # same blow-up index, or -1 for both
    if want == -1:
        np.testing.assert_array_equal(out, expected)
    if not aliased:
        np.testing.assert_array_equal(work, phi)  # the input is left alone


def test_free_energy_blowup_cases_are_exercised():
    # the table above must reach the blow-up branch, or the index check is idle
    hits = {
        (name, decay)
        for name, phi in REACTION_INPUTS.items()
        for decay in DECAYS
        if free_energy_plain(phi, np.empty_like(phi), decay) >= 0
    }
    assert ("blowup", 1.7) in hits and ("wide", 1e300) in hits


GUARD_INPUTS = {
    "random": _rng.standard_normal(513),
    "negative-dominant": np.array([0.5, -2.0, 1.0]),
    "zeros": np.array([0.0, -0.0, 0.0]),
    "inf": np.array([0.0, np.inf, -1.0]),
    "minus-inf": np.array([3.0, -np.inf]),
    "nan-first": np.array([np.nan, 1.0, -4.0]),
    "nan-middle": np.array([1.0, np.nan, 3.0]),
    "nan-last": np.array([-1.0, 2.0, np.nan]),
    "nan-and-inf": np.array([np.inf, np.nan]),
    "single": np.array([-1e-310]),
}


@pytest.mark.parametrize("name", sorted(GUARD_INPUTS))
def test_guard_scan_matches_plain_formula(name):
    values = GUARD_INPUTS[name]
    want = guard_scan_plain(values)
    got = _ref.guard_scan(values)
    assert isinstance(got, float)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == want
