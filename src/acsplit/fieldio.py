"""Lossless on-disk field format.

One ASCII header line

    ACF1 <dims> <M1> [M2 [M3]] <L1> [L2 [L3]]\n

followed by the raw cell values as IEEE-754 little-endian float64 in C order
(axis 0 slowest), matching the in-memory layout of :class:`acsplit.grid.Field`.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .grid import Field, GridSpec

__all__ = ["FieldFormatError", "load_field", "save_field"]

MAGIC = "ACF1"


class FieldFormatError(ValueError):
    """Malformed header, wrong payload size, or rejected values."""


def save_field(path: Union[str, os.PathLike], f: Field) -> None:
    g = f.grid
    tokens = [MAGIC, str(g.dims)]
    tokens += [str(m) for m in g.cells]
    tokens += [repr(length) for length in g.lengths]
    header = (" ".join(tokens) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)  # the array's own buffer, not a copy


def load_field(path: Union[str, os.PathLike], allow_nonfinite: bool = False) -> Field:
    """Read a field; the payload goes straight into the returned array, once
    its length, checked against the file size, matches the header."""
    with open(path, "rb") as fh:
        header = fh.readline()
        grid = _parse_header(path, header)
        expected = grid.cell_count * 8
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise FieldFormatError(f"{path}: payload is {size} bytes, expected {expected}")
        values = np.empty(grid.shape, dtype="<f8")
        if fh.readinto(values.data) != expected:  # the file shrank since its size was read
            raise FieldFormatError(f"{path}: payload is shorter than {expected} bytes")
    # min and max are NaN or infinite exactly when some value is, and allocate no mask
    if not allow_nonfinite and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise FieldFormatError(f"{path}: non-finite values (pass allow_nonfinite=True to keep)")
    return Field(grid, values)


def _parse_header(path, header: bytes) -> GridSpec:
    """The grid that the header line ``header`` of the file at ``path`` describes."""
    try:
        tokens = header.decode("ascii").split()
    except UnicodeDecodeError as err:
        raise FieldFormatError(f"{path}: header is not ASCII") from err
    if not tokens or tokens[0] != MAGIC:
        raise FieldFormatError(f"{path}: missing {MAGIC} magic")
    try:
        dims = int(tokens[1])
    except (IndexError, ValueError) as err:
        raise FieldFormatError(f"{path}: unreadable dims") from err
    if len(tokens) != 2 + 2 * dims:
        raise FieldFormatError(
            f"{path}: header has {len(tokens) - 2} fields, expected {2 * dims} for dims={dims}"
        )
    try:
        cells = tuple(int(t) for t in tokens[2 : 2 + dims])
        lengths = tuple(float(t) for t in tokens[2 + dims : 2 + 2 * dims])
        grid = GridSpec(lengths, cells)
    except ValueError as err:
        raise FieldFormatError(f"{path}: bad grid header: {err}") from err
    return grid
