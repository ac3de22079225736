"""Error tables, log-log slope fits, and the CSV format of every acsplit output."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ErrorReport",
    "RunRow",
    "SlopeFit",
    "csv_number",
    "default_fit_window",
    "fit_loglog",
    "render_csv",
]

MIN_FIT_POINTS = 3
MAX_FIT_RESIDUAL = 0.1  # RMS in log10 space; larger means the fit is not a power law
FLOOR_MARGIN = 10.0  # points within this factor of a detected error floor are dropped


@dataclass(frozen=True)
class RunRow:
    scheme: str
    dt: float
    steps: int
    error: float  # NaN when the run did not complete
    status: str  # "completed" | "diverged"

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "error", float(self.error))


@dataclass(frozen=True)
class SlopeFit:
    scheme: str
    slope: float
    intercept: float
    residual: float
    n_points: int
    dt_min: float
    dt_max: float


def default_fit_window(dts: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Indices (into the input arrays) of the default fitting window.

    Input must be completed rows only.  The window drops the largest-dt point
    (pre-asymptotic) whenever at least four points remain, then detects error
    floors: if the small-dt tail stops improving (last decrement below 1.8x,
    or below half the median decrement, or errors rising), every point within
    FLOOR_MARGIN of the smallest error is dropped, keeping at least
    MIN_FIT_POINTS.
    """
    order = np.argsort(dts)[::-1]
    dts = np.asarray(dts, dtype=float)[order]
    errors = np.asarray(errors, dtype=float)[order]
    keep = list(range(len(dts)))
    if len(keep) >= MIN_FIT_POINTS + 1:
        keep = keep[1:]
    if len(keep) >= 3:
        e = errors[keep]
        ratios = e[:-1] / e[1:]
        flattening = ratios[-1] < max(1.8, 0.5 * float(np.median(ratios)))
        if flattening:
            floor = float(e.min())
            while len(keep) > MIN_FIT_POINTS and errors[keep[-1]] <= FLOOR_MARGIN * floor:
                keep.pop()
    return order[keep]


def fit_loglog(dts: np.ndarray, errors: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope/intercept of log10(error) vs log10(dt), plus RMS residual."""
    x = np.log10(np.asarray(dts, dtype=float))
    y = np.log10(np.asarray(errors, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def csv_number(x: float) -> str:
    """A float as a CSV cell: its exact repr, or empty for NaN."""
    return "" if np.isnan(x) else repr(float(x))


def render_csv(
    kind: str,
    metadata: Mapping[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    trailer: Sequence[tuple[str, object]] = (),
) -> str:
    """Every acsplit CSV: a ``# acsplit-<kind> v1`` line, one ``# key=value``
    line per metadata entry in key order, then the ``trailer`` entries in the
    order given, then the column row and the data rows."""
    buf = io.StringIO()
    buf.write(f"# acsplit-{kind} v1\n")
    for key, value in [*sorted(metadata.items()), *trailer]:
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class ErrorReport:
    """Rows of (scheme, dt, error, status) plus per-scheme slope fits and metadata."""

    rows: list[RunRow]
    metadata: dict[str, str] = field(default_factory=dict)
    slopes: dict[str, SlopeFit] = field(default_factory=dict)

    def completed(self, scheme: str) -> list[RunRow]:
        return [r for r in self.rows if r.scheme == scheme and r.status == "completed"]

    def schemes(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.scheme, None)
        return list(seen)

    def fit_slopes(self) -> None:
        """Fit every scheme over its default window; schemes without enough points are skipped."""
        self.slopes = {}
        for scheme in self.schemes():
            rows = self.completed(scheme)
            if len(rows) < MIN_FIT_POINTS:
                continue
            dts = np.array([r.dt for r in rows])
            errs = np.array([r.error for r in rows])
            window = default_fit_window(dts, errs)
            if len(window) < MIN_FIT_POINTS:
                continue
            slope, intercept, resid = fit_loglog(dts[window], errs[window])
            self.slopes[scheme] = SlopeFit(
                scheme,
                slope,
                intercept,
                resid,
                len(window),
                float(dts[window].min()),
                float(dts[window].max()),
            )

    def to_csv(self) -> str:
        return render_csv(
            "errors",
            self.metadata,
            ["scheme", "dt", "steps", "rel_l2_error", "status"],
            ([r.scheme, repr(r.dt), r.steps, csv_number(r.error), r.status] for r in self.rows),
        )

    def slopes_to_csv(self) -> str:
        return render_csv(
            "slopes",
            self.metadata,
            ["scheme", "slope", "residual", "n_points", "dt_min", "dt_max"],
            (
                [
                    fit.scheme,
                    f"{fit.slope:.6f}",
                    f"{fit.residual:.6f}",
                    fit.n_points,
                    repr(fit.dt_min),
                    repr(fit.dt_max),
                ]
                for fit in self.slopes.values()
            ),
        )

    @classmethod
    def from_csv(cls, text: str) -> "ErrorReport":
        metadata: dict[str, str] = {}
        rows: list[RunRow] = []
        body: list[str] = []
        for line in text.splitlines():
            if line.startswith("#"):
                stripped = line[1:].strip()
                if "=" in stripped:
                    key, _, value = stripped.partition("=")
                    metadata[key] = value
                continue
            if line.strip():
                body.append(line)
        reader = csv.DictReader(body)
        for record in reader:
            rows.append(
                RunRow(
                    record["scheme"],
                    float(record["dt"]),
                    int(record["steps"]),
                    float(record["rel_l2_error"]) if record["rel_l2_error"] else float("nan"),
                    record["status"],
                )
            )
        return cls(rows, metadata)
