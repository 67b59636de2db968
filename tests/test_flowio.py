import struct

import numpy as np
import pytest

from rigidflow.flowio import (
    FLO_MAGIC,
    read_flo,
    read_pfm,
    write_flo,
    write_flow_visualization,
    write_pfm,
    write_pgm,
    write_trace_csv,
)
from rigidflow.losses import LossReport


# ---------------------------------------------------------------------------
# .flo


def test_flo_round_trips_are_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "f.flo"
    for i in range(100):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        flow = rng.normal(0.0, 10.0, (h, w, 2)).astype(np.float32)
        write_flo(path, flow)
        back = read_flo(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, flow), f"round trip {i} differs"


def test_single_pixel_flo_is_exactly_20_bytes(tmp_path):
    path = tmp_path / "one.flo"
    write_flo(path, np.array([[[1.5, -2.0]]], dtype=np.float32))
    blob = path.read_bytes()
    assert len(blob) == 20
    assert blob == struct.pack("<fii", FLO_MAGIC, 1, 1) + struct.pack("<ff", 1.5, -2.0)


def test_flo_magic_spells_pieh(tmp_path):
    path = tmp_path / "m.flo"
    write_flo(path, np.zeros((1, 1, 2), dtype=np.float32))
    assert path.read_bytes()[:4] == b"PIEH"


def test_read_flo_rejects_garbage(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(b"PI")
    with pytest.raises(ValueError, match="truncated header"):
        read_flo(path)
    path.write_bytes(struct.pack("<fii", 1234.5, 1, 1) + b"\0" * 8)
    with pytest.raises(ValueError, match="bad magic"):
        read_flo(path)
    path.write_bytes(struct.pack("<fii", FLO_MAGIC, -3, 1))
    with pytest.raises(ValueError, match="implausible"):
        read_flo(path)
    # each side is capped at 100000, as a scene's is
    path.write_bytes(struct.pack("<fii", FLO_MAGIC, 100_001, 1) + b"\0" * 8)
    with pytest.raises(ValueError, match="implausible"):
        read_flo(path)
    path.write_bytes(struct.pack("<fii", FLO_MAGIC, 100_000, 1) + b"\0" * 8)
    with pytest.raises(ValueError, match="corrupt"):
        read_flo(path)
    path.write_bytes(struct.pack("<fii", FLO_MAGIC, 2, 2) + b"\0" * 8)
    with pytest.raises(ValueError, match="corrupt"):
        read_flo(path)


def test_write_flo_validates_input(tmp_path):
    with pytest.raises(ValueError, match="must be"):
        write_flo(tmp_path / "x.flo", np.zeros((4, 4)))
    bad = np.zeros((2, 2, 2), dtype=np.float32)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        write_flo(tmp_path / "x.flo", bad)


# ---------------------------------------------------------------------------
# PFM


def test_pfm_round_trips_are_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "d.pfm"
    for i in range(100):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        if i % 2:
            arr = rng.normal(0.0, 5.0, (h, w)).astype(np.float32)
        else:
            arr = rng.normal(0.0, 5.0, (h, w, 3)).astype(np.float32)
        write_pfm(path, arr)
        back = read_pfm(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr), f"round trip {i} differs"


def test_pfm_squeezes_single_channel(tmp_path):
    path = tmp_path / "c.pfm"
    arr = np.arange(6, dtype=np.float32).reshape(2, 3, 1)
    write_pfm(path, arr)
    assert np.array_equal(read_pfm(path), arr[..., 0])


def test_pfm_reads_big_endian_positive_scale(tmp_path):
    # rows are stored bottom to top; positive scale means big-endian floats
    path = tmp_path / "be.pfm"
    payload = struct.pack(">4f", 3.0, 4.0, 1.0, 2.0)
    path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
    arr = read_pfm(path)
    assert np.array_equal(arr, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))


def test_pfm_errors(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"P5\n1 1\n255\n\0")
    with pytest.raises(ValueError, match="not a PFM"):
        read_pfm(path)
    path.write_bytes(b"Pf\n1 nope\n-1.0\n" + b"\0" * 4)
    with pytest.raises(ValueError, match="malformed"):
        read_pfm(path)
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 4)
    with pytest.raises(ValueError):
        read_pfm(path)
    with pytest.raises(ValueError, match="stores"):
        write_pfm(path, np.zeros((2, 2, 2), dtype=np.float32))


# ---------------------------------------------------------------------------
# PGM preview


def test_pgm_bool_mask_bytes(tmp_path):
    path = tmp_path / "m.pgm"
    mask = np.array([[True, False, True], [False, True, False]])
    write_pgm(path, mask)
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes([255, 0, 255, 0, 255, 0])


def test_pgm_float_rounds_and_clips(tmp_path):
    path = tmp_path / "g.pgm"
    write_pgm(path, np.array([[0.0, 0.5, 2.0]]))
    assert path.read_bytes()[-3:] == bytes([0, 128, 255])
    with pytest.raises(ValueError, match="stores"):
        write_pgm(path, np.zeros((2, 2, 3)))


# ---------------------------------------------------------------------------
# flow visualization


def _read_ppm(path):
    blob = path.read_bytes()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(t) for t in dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def test_zero_flow_renders_white(tmp_path):
    path = tmp_path / "z.ppm"
    write_flow_visualization(path, np.zeros((4, 4, 2)), max_magnitude=1.0)
    img = _read_ppm(path)
    assert (img == 255).all()


def test_constant_flow_renders_uniformly(tmp_path):
    path = tmp_path / "c.ppm"
    flow = np.zeros((4, 6, 2))
    flow[..., 0] = 3.0
    flow[..., 1] = -1.0
    write_flow_visualization(path, flow)
    img = _read_ppm(path)
    assert img.shape == (4, 6, 3)
    assert (img == img[0, 0]).all()


def test_opposite_flows_are_complementary(tmp_path):
    # at full saturation, hues half a turn apart sum to white channelwise
    a_path, b_path = tmp_path / "a.ppm", tmp_path / "b.ppm"
    flow = np.zeros((2, 2, 2))
    flow[..., 0] = 5.0
    write_flow_visualization(a_path, flow, max_magnitude=5.0)
    write_flow_visualization(b_path, -flow, max_magnitude=5.0)
    a = _read_ppm(a_path).astype(int)
    b = _read_ppm(b_path).astype(int)
    assert not np.array_equal(a, b)
    assert np.abs((a + b) - 255).max() <= 1  # allow uint8 rounding


def test_visualization_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_flow_visualization(tmp_path / "x.ppm", np.zeros((4, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_visualization_rejects_a_non_finite_flow(tmp_path, bad):
    flow = np.zeros((3, 4, 2))
    flow[1, 2, 0] = bad
    with pytest.raises(ValueError, match="^flow must be finite$"):
        write_flow_visualization(tmp_path / "x.ppm", flow)
    assert not (tmp_path / "x.ppm").exists()


# ---------------------------------------------------------------------------
# trace CSV


def test_trace_csv_round_trips_reports(tmp_path):
    path = tmp_path / "t.csv"
    trace = [
        LossReport(0.125, 0.25, 0.0625, 0.03125, 0.46875),
        LossReport(1 / 3, 1 / 7, 1 / 11, 1 / 13, 0.5),
    ]
    write_trace_csv(path, trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,photometric,smooth,fb,cross,total"
    assert len(lines) == 3
    for i, rep in enumerate(trace):
        cells = lines[i + 1].split(",")
        assert int(cells[0]) == i
        assert float(cells[1]) == rep.photometric
        assert float(cells[2]) == rep.smooth
        assert float(cells[3]) == rep.forward_backward
        assert float(cells[4]) == rep.cross
        assert float(cells[5]) == rep.total
