import numpy as np
import pytest

from acsplit.report import (
    ErrorReport,
    RunRow,
    default_fit_window,
    fit_loglog,
)


def synthetic_rows(scheme, order, dts, floor=0.0, prefactor=1.0):
    rows = []
    for dt in dts:
        err = max(prefactor * dt**order, floor)
        rows.append(RunRow(scheme, dt, int(round(0.02 / dt)), err, "completed"))
    return rows


def test_fit_recovers_clean_orders():
    dts = [2.0**-k for k in range(2, 11)]
    for order in (1, 2, 3, 4):
        report = ErrorReport(synthetic_rows("s", order, dts))
        report.fit_slopes()
        fit = report.slopes["s"]
        assert fit.slope == pytest.approx(order, abs=1e-10)
        assert fit.residual < 1e-12


def test_window_drops_floor_points():
    dts = [2.0**-k for k in range(2, 11)]
    report = ErrorReport(synthetic_rows("s", 4, dts, floor=1e-9))
    report.fit_slopes()
    fit = report.slopes["s"]
    assert fit.slope == pytest.approx(4, abs=0.05)
    # the saturated tail must not participate
    assert fit.dt_min > 2.0**-11


def test_window_drops_largest_dt_only_with_enough_points():
    dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    idx = default_fit_window(np.array(dts), np.array([d**2 for d in dts]))
    assert len(idx) == 3  # largest dropped
    dts = dts[:3]
    idx = default_fit_window(np.array(dts), np.array([d**2 for d in dts]))
    assert len(idx) == 3  # nothing to spare


def test_diverged_rows_are_excluded():
    rows = synthetic_rows("s", 2, [2.0**-k for k in range(3, 9)])
    rows.append(RunRow("s", 2.0**-2, 4, float("nan"), "diverged"))
    report = ErrorReport(rows)
    report.fit_slopes()
    assert report.slopes["s"].slope == pytest.approx(2, abs=1e-8)


def test_schemes_without_enough_points_are_skipped():
    report = ErrorReport(synthetic_rows("s", 2, [1e-2, 5e-3]))
    report.fit_slopes()
    assert "s" not in report.slopes


def test_fit_loglog_residual():
    dts = np.array([1e-2, 1e-3, 1e-4])
    slope, intercept, resid = fit_loglog(dts, 3.0 * dts**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert 10.0**intercept == pytest.approx(3.0, rel=1e-10)
    assert resid < 1e-14
    with pytest.raises(ValueError, match="need at least two points"):
        fit_loglog(dts[:1], dts[:1])


def test_csv_round_trip():
    dts = [2.0**-k for k in range(2, 7)]
    rows = synthetic_rows("S2(1)", 2, dts) + [
        RunRow("S1", 0.25, 4, float("nan"), "diverged")
    ]
    report = ErrorReport(rows, metadata={"problem": "wave", "k_tol": "1e9"})
    report.fit_slopes()
    text = report.to_csv()
    back = ErrorReport.from_csv(text)
    assert back.metadata["problem"] == "wave"
    assert len(back.rows) == len(rows)
    assert back.rows[0].dt == rows[0].dt
    assert back.rows[-1].status == "diverged"
    assert np.isnan(back.rows[-1].error)
    # serialisation is deterministic
    assert report.to_csv() == text
    assert report.slopes_to_csv() == report.slopes_to_csv()
