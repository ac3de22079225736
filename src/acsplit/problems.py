"""Benchmark problems: an exact 1D traveling front and a random spinodal quench."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, GridSpec

__all__ = [
    "SpinodalSpec",
    "TravelingWaveSpec",
    "boundary_derivative_defect",
    "spinodal_initial",
    "traveling_wave",
    "traveling_wave_field",
]

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class TravelingWaveSpec:
    """Exact front solution ``phi(x,t) = (1 - tanh((x - offset - s t) / (2 sqrt(2) eps))) / 2``.

    The front moves right at speed ``s = 3 / (sqrt(2) eps)``; one natural
    horizon is ``t_final = 1/s``, after which the front has advanced one unit.
    """

    epsilon: float
    length: float = 4.0
    offset: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "offset", float(self.offset))
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    @property
    def speed(self) -> float:
        return 3.0 / (SQRT2 * self.epsilon)

    @property
    def width(self) -> float:
        """Transition-layer scale 2*sqrt(2)*eps."""
        return 2.0 * SQRT2 * self.epsilon

    @property
    def t_final(self) -> float:
        return 1.0 / self.speed

    def grid(self, cells: int) -> GridSpec:
        return GridSpec.line(self.length, cells)


def traveling_wave(x, t: float, spec: TravelingWaveSpec):
    """Evaluate the exact profile at positions ``x`` and time ``t``."""
    return 0.5 * (1.0 - np.tanh((np.asarray(x) - spec.offset - spec.speed * t) / spec.width))


def traveling_wave_field(grid: GridSpec, t: float, spec: TravelingWaveSpec) -> Field:
    """Sample the exact profile at the cell centers of a 1D grid."""
    if grid.dims != 1:
        raise ValueError("the traveling wave is one-dimensional")
    return Field(grid, traveling_wave(grid.axis_centers(0), t, spec))


def boundary_derivative_defect(spec: TravelingWaveSpec, t: float) -> float:
    """Max |dphi/dx| of the exact profile at the domain boundaries.

    The zero-flux cosine discretisation assumes this is negligible; it decays
    like ``exp(-2 d / width)`` in the distance d between front and boundary,
    so it quantifies how well a given domain length isolates the front.
    """
    defects = []
    for x in (0.0, spec.length):
        u = (x - spec.offset - spec.speed * t) / spec.width
        defects.append(0.5 / (spec.width * np.cosh(u) ** 2))
    return float(max(defects))


@dataclass(frozen=True)
class SpinodalSpec:
    """Random initial data inside the spinodal interval (-1/sqrt(3), 1/sqrt(3)).

    Values are ``amplitude * u`` with ``u`` i.i.d. uniform on [-1, 1] drawn
    from a seeded PCG64 generator in C order, so a fixed seed reproduces the
    field bit-for-bit on any platform.
    """

    epsilon: float = 0.015
    amplitude: float = 0.005
    seed: int = 0
    cells: int = 64
    length: float = 1.0
    dims: int = 3

    def __post_init__(self):
        if not 0 < self.amplitude < 1.0 / np.sqrt(3.0):
            raise ValueError("amplitude must sit inside the spinodal interval")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @cached_property
    def grid(self) -> GridSpec:
        return GridSpec.box(self.length, self.cells, self.dims)


def spinodal_initial(spec: SpinodalSpec) -> Field:
    """Draw the seeded random initial field for a spinodal-decomposition run."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    values = rng.uniform(-1.0, 1.0, size=spec.grid.shape)
    values *= spec.amplitude  # in place: the same bits as amplitude * u, and no second grid array
    return Field(spec.grid, values)
