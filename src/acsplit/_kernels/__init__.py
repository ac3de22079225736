"""Hot pointwise kernels, in numpy, and the per-thread scratch array
``work``; :mod:`acsplit._kernels._ref` documents their contract.
``BACKEND`` names the implementation and is written into every CSV header."""

from . import _ref

BACKEND = "numpy"
RADICAND_FLOOR = _ref.RADICAND_FLOOR

free_energy_apply = _ref.free_energy_apply
heat_multiplier_apply = _ref.heat_multiplier_apply
guard_scan = _ref.guard_scan
work = _ref.work

__all__ = [
    "BACKEND",
    "RADICAND_FLOOR",
    "free_energy_apply",
    "guard_scan",
    "heat_multiplier_apply",
    "work",
]
