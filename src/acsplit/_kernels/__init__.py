"""Hot pointwise kernels: compiled extension when available, numpy otherwise.

The backend is picked once at import: the compiled ``_core`` extension if it
imports, the numpy reference otherwise.  ``BACKEND`` reports which one is
active.  Both backends implement the same contract, documented in
:mod:`acsplit._kernels._ref`.
"""

from . import _ref

RADICAND_FLOOR = _ref.RADICAND_FLOOR

try:
    from . import _core as _impl  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:
    _impl = _ref
    BACKEND = "numpy"

free_energy_apply = _impl.free_energy_apply
heat_multiplier_apply = _impl.heat_multiplier_apply
guard_scan = _impl.guard_scan

__all__ = [
    "BACKEND",
    "RADICAND_FLOOR",
    "free_energy_apply",
    "guard_scan",
    "heat_multiplier_apply",
]
