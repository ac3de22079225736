"""The numpy kernels against their contract and their plain formulas."""

import threading
import warnings

import numpy as np
import pytest

from acsplit import _kernels
from acsplit._kernels import BACKEND, RADICAND_FLOOR

from oracles import (
    free_energy_plain,
    free_energy_rows_plain,
    guard_scan_plain,
    guard_scan_rows_plain,
    heat_multiplier_plain,
    heat_multiplier_rows_plain,
)


def test_backend_reported():
    assert BACKEND == "numpy"


def test_work_is_one_buffer_viewed_by_element_count():
    views = {}

    def probe():  # a new thread starts without a scratch array
        views["grid"] = _kernels.work((4, 6))
        views["row"] = _kernels.work((1, 24))
        views["fewer"] = _kernels.work((5,))
        views["more"] = _kernels.work((4000,))
        views["after"] = _kernels.work((4, 6))

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(views) == 5
    assert views["row"].shape == (1, 24) and views["row"].dtype == np.float64
    assert np.shares_memory(views["grid"], views["row"])
    assert np.shares_memory(views["grid"], views["fewer"])
    # more elements than the buffer has: one larger buffer, used from then on
    assert not np.shares_memory(views["grid"], views["more"])
    assert np.shares_memory(views["more"], views["after"])


def test_free_energy_radicand_floor():
    # radicand exactly at the floor must trigger; just above must not
    decay = 2.0
    crit = np.sqrt((decay - RADICAND_FLOOR) / (decay - 1.0))
    phi = np.array([crit * (1.0 + 1e-9)])
    out = np.empty(1)
    assert _kernels.free_energy_apply(phi, out, decay) == 0
    phi = np.array([crit * (1.0 - 1e-9)])
    assert _kernels.free_energy_apply(phi, out, decay) == -1
    assert np.isfinite(out[0])


def test_heat_multiplier_writes_the_clamp_of_exp():
    rng = np.random.default_rng(5)
    eig = -rng.uniform(0.0, 100.0, 64)
    out = np.full(64, -7.0)
    _kernels.heat_multiplier_apply(out, eig, -0.1, 1e3)
    ones = np.ones(64)
    np.testing.assert_array_equal(_bits(out), _bits(heat_multiplier_plain(ones, eig, -0.1, 1e3)))
    assert out.max() == 1e3 and out.min() < 1e3  # the clamp binds on some modes only


def test_zero_coefficients_stay_zero_with_unbounded_clamp():
    eig = np.array([-0.0, -1e6])
    mult = np.empty(2)
    _kernels.heat_multiplier_apply(mult, eig, -1.0, np.inf)  # exp overflows
    assert mult[0] == 1.0 and mult[1] == np.finfo(np.float64).max
    assert np.all(np.array([0.0, 0.0]) * mult == 0.0)


def test_guard_scan():
    assert _kernels.guard_scan(np.array([0.5, -2.0, 1.0])) == 2.0
    assert _kernels.guard_scan(np.array([0.0, np.inf])) == np.inf
    assert np.isnan(_kernels.guard_scan(np.array([1.0, np.nan, 3.0])))


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
    got = _kernels.free_energy_apply(work, out, decay)
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
    got = _kernels.guard_scan(values)
    assert isinstance(got, float)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# stacks: one field per row, per-row parameters as (R, 1) columns, each row
# bit for bit what the flat formula gives for it


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


# (why the row is there, its 8 values, its decay); rows 1 and 2 blow up at
# cells 5 and 2 (|phi| >= 1.558 at decay 1.7, >= 1.242 at decay 2.84)
STACK_ROWS = [
    ("completes", [0.3, -0.9, 1.2, 0.0, -1.2, 0.05, 1.0, -1.0], 0.3),
    ("blows-up-at-5", [0.3, -0.2, 1.4, 0.0, -1.5, 1.6, 0.1, 3.0], 1.7),
    ("blows-up-at-2", [0.1, 0.2, -1.3, 0.0, 0.4, 0.5, -2.0, 0.7], 2.84),
    ("zero-radicand", [0.0, -0.0, 5e-324, -1e-170, 1e-160, 0.2, -0.6, 1.3], 0.0),
    ("decay-0", [0.3, -0.7, 1.5, -1.1, 0.9, 1e-3, -2.5, 0.6], 0.0),
    ("decay-inf", [1.0, -1.0, 0.5, -0.25, 0.0, 0.75, -0.9, 1e-8], np.inf),
    ("nan", [0.3, np.nan, -0.7, 0.0, 0.5, 1.1, -0.2, 0.9], 0.3),
    ("backward-completes", [0.3, -0.9, 1.2, 0.0, -1.5, 0.05, 1.0, -1.0], 1.7),
]


@pytest.mark.parametrize("aliased", [False, True], ids=["out", "in-place"])
def test_stacked_free_energy_matches_rows(aliased):
    phi = np.array([values for _, values, _ in STACK_ROWS])
    decay = np.array([[d] for *_, d in STACK_ROWS])
    expected = np.full_like(phi, -7.0)
    want = free_energy_rows_plain(phi.copy(), expected, decay)
    np.testing.assert_array_equal(want[1:3], [5, 2])  # the stack reaches both blow-ups
    work = phi.copy()
    out = work if aliased else np.full_like(phi, -7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a blown-up row must not leak an invalid sqrt
        got = _kernels.free_energy_apply(work, out, decay)
    np.testing.assert_array_equal(got, want)
    done = want == -1
    np.testing.assert_array_equal(_bits(out[done]), _bits(expected[done]))
    if not aliased:
        np.testing.assert_array_equal(_bits(work), _bits(phi))  # the input is left alone


def test_flat_free_energy_is_the_one_row_stack():
    for _, values, decay in STACK_ROWS:
        phi = np.array(values)
        flat = np.empty_like(phi)
        stacked = np.empty((1, phi.size))
        got = _kernels.free_energy_apply(phi, flat, decay)
        assert isinstance(got, int)
        assert [got] == _kernels.free_energy_apply(phi[np.newaxis], stacked, np.array([[decay]])).tolist()
        if got == -1:
            np.testing.assert_array_equal(_bits(flat), _bits(stacked[0]))


def test_stacked_heat_multiplier_matches_rows():
    rng = np.random.default_rng(8)
    eig = -np.sort(rng.uniform(0.0, 2000.0, 96))
    eig[0] = 0.0
    tau = np.array([[0.01], [-0.01], [-0.5], [0.0], [-0.01]])
    k_tol = np.array([[1e9], [1e4], [np.inf], [1.0], [1e9]])
    out = np.empty((len(tau), eig.size))
    _kernels.heat_multiplier_apply(out, eig, tau, k_tol)
    np.testing.assert_array_equal(_bits(out), _bits(heat_multiplier_rows_plain(np.ones_like(out), eig, tau, k_tol)))
    assert np.all(np.isfinite(out))  # capped under an overflowing, unbounded multiplier
    for r in range(len(tau)):  # the flat call is the one-row case
        flat = np.empty(eig.size)
        _kernels.heat_multiplier_apply(flat, eig, float(tau[r, 0]), float(k_tol[r, 0]))
        np.testing.assert_array_equal(_bits(flat), _bits(out[r]))


def test_stacked_guard_scan_matches_rows():
    values = np.array([
        [0.5, -2.0, 1.0],
        [0.0, -0.0, 0.0],
        [0.0, np.inf, -1.0],
        [3.0, -np.inf, 0.0],
        [np.nan, 1.0, -4.0],
        [1.0, np.nan, 3.0],
        [-1.0, 2.0, np.nan],
        [np.inf, np.nan, 0.0],
        [-1e-310, 0.0, 1e-320],
    ])
    got = _kernels.guard_scan(values)
    assert got.shape == (len(values),)
    np.testing.assert_array_equal(got, guard_scan_rows_plain(values))


@pytest.mark.parametrize("decay", [0.5, 1.0, 2.0], ids=["forward", "identity", "backward"])
def test_free_energy_squares_an_overflowing_phi_silently(decay):
    # phi^2 overflows to inf above |phi| of about 1.34e154, inside the
    # kernel's errstate block; a flat call and a stacked one alike.  Forward,
    # the overflowed cell takes the flow's limit sign(phi) / sqrt(1 - decay),
    # and decay 1 keeps it as it is
    row = np.array([0.3, -0.7, 1e200, 0.5])
    flat, stacked = np.empty_like(row), np.empty((2, row.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = _kernels.free_energy_apply(row, flat, decay)
        bads = _kernels.free_energy_apply(np.array([row, row[::-1]]), stacked, np.array([[decay], [decay]]))
    if decay > 1.0:  # the overflowed square makes a NaN radicand: a blow-up at that cell
        assert [bad] + bads.tolist() == [2, 2, 1]
        return
    assert [bad, bad] == bads.tolist() == [-1, -1]
    np.testing.assert_array_equal(_bits(flat), _bits(stacked[0]))
    np.testing.assert_array_equal(_bits(flat[::-1]), _bits(stacked[1]))
    want = 1e200 if decay == 1.0 else 1.0 / np.sqrt(1.0 - decay)
    assert flat[2] == stacked[0, 2] == stacked[1, 1] == want


@pytest.mark.parametrize("row, cell", [([0.3, 1e200, 1e100], 1), ([0.3, 1e100, np.nan, 0.2], 1),
                                       ([0.3, np.nan, 0.2], 1), ([0.3, 0.2, np.nan], 2)],
                         ids=["overflow-first", "overflow-and-nan", "nan", "nan-last"])
def test_backward_nan_radicand_is_a_blow_up(row, cell):
    # a NaN radicand hides the row's least radicand from a plain min, so it
    # counts as one at the floor; no square root of a negative radicand is taken
    row = np.array(row)
    flat, stacked = np.empty_like(row), np.empty((2, row.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = _kernels.free_energy_apply(row, flat, 2.0)
        bads = _kernels.free_energy_apply(np.array([row, np.full_like(row, 0.5)]), stacked, np.array([[2.0], [2.0]]))
    assert bad == cell and bads.tolist() == [cell, -1]
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle squares phi plainly
        assert bad == free_energy_plain(row, np.empty_like(row), 2.0)
