import numpy as np
import pytest

from acsplit import Field, GridSpec
from acsplit.fieldio import FieldFormatError, load_field, save_field
from test_solver import _traced_peak


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for grid in (GridSpec.line(4.0, 37), GridSpec((1.0, 0.25, 2.0), (4, 6, 5))):
        f = Field(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "field.acf"
        save_field(path, f)
        g = load_field(path)
        assert g.grid == grid
        np.testing.assert_array_equal(g.values, f.values)


def test_truncated_payload(tmp_path):
    f = Field(GridSpec.line(1.0, 8), np.arange(8.0))
    path = tmp_path / "field.acf"
    save_field(path, f)
    raw = path.read_bytes()
    for damaged in (raw[:-8], raw + b"\x00"):
        path.write_bytes(damaged)
        with pytest.raises(FieldFormatError, match="payload"):
            load_field(path)


def test_io_copies_no_payload(tmp_path):
    # load_field allocates the array it returns and nothing more of grid
    # size, save_field writes the array's own buffer
    f = Field(GridSpec.box(1.0, 64, 3), np.random.default_rng(1).standard_normal((64, 64, 64)))
    path = tmp_path / "field.acf"
    save_field(path, f)
    load_field(path)  # a first call of each warms whatever it imports or caches
    nbytes = f.values.nbytes
    assert _traced_peak(lambda: save_field(path, f)) < 0.1 * nbytes
    assert _traced_peak(lambda: load_field(path)) < 1.1 * nbytes
    np.testing.assert_array_equal(load_field(path).values, f.values)


def test_a_huge_header_over_a_short_payload_allocates_nothing(tmp_path):
    path = tmp_path / "field.acf"
    path.write_bytes(b"ACF1 3 100000 100000 100000 1.0 1.0 1.0\n" + b"\x00" * 8)

    def load():
        with pytest.raises(FieldFormatError, match="payload is 8 bytes, expected 8000000000000000"):
            load_field(path)

    assert _traced_peak(load) < 1 << 20


def test_dims_mismatch_in_header(tmp_path):
    path = tmp_path / "field.acf"
    for header, message in ((b"ACF1 2 4 4 4 1.0 1.0 1.0\n", "header"),
                            (b"ACF1 1 4 1.0 \xe2\x80\x94\n", "header is not ASCII"),
                            (b"ACF1 one 4 1.0\n", "unreadable dims"),
                            (b"ACF1 1 1 1.0\n", "bad grid header: need at least 2 cells per axis")):
        path.write_bytes(header + b"\x00" * (64 * 8))
        with pytest.raises(FieldFormatError, match=message):
            load_field(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "field.acf"
    path.write_bytes(b"BOGUS 1 4 1.0\n" + b"\x00" * 32)
    with pytest.raises(FieldFormatError, match="magic"):
        load_field(path)


def test_nonfinite_values_rejected_unless_allowed(tmp_path):
    values = np.ones(8)
    values[3] = np.inf
    f = Field(GridSpec.line(1.0, 8), np.ones(8))
    f.values[3] = np.inf
    path = tmp_path / "field.acf"
    save_field(path, f)
    with pytest.raises(FieldFormatError, match="non-finite"):
        load_field(path)
    g = load_field(path, allow_nonfinite=True)
    assert np.isinf(g.values[3])


def test_lengths_round_trip_exactly(tmp_path):
    grid = GridSpec((0.1 + 0.2,), (5,))  # a length that does not print prettily
    f = Field(grid, np.zeros(5))
    path = tmp_path / "field.acf"
    save_field(path, f)
    assert load_field(path).grid.lengths == grid.lengths
