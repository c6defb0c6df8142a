"""Tests for PPM export and contact sheets."""

import numpy as np
import pytest

from repro.video.generator import SyntheticVideo, VideoConfig
from repro.video.preview import (
    contact_sheet,
    export_stream_sample,
    frame_to_rgb8,
    label_to_rgb8,
    read_ppm,
    write_ppm,
)


class TestConversions:
    def test_frame_to_rgb8_shape_dtype(self, rng):
        rgb = frame_to_rgb8(rng.random((3, 8, 10)).astype(np.float32))
        assert rgb.shape == (8, 10, 3)
        assert rgb.dtype == np.uint8

    def test_frame_values_clipped(self):
        frame = np.array([[[2.0]], [[-1.0]], [[0.5]]], dtype=np.float32)
        rgb = frame_to_rgb8(frame)
        assert rgb[0, 0, 0] == 255 and rgb[0, 0, 1] == 0

    def test_frame_shape_validated(self, rng):
        with pytest.raises(ValueError):
            frame_to_rgb8(rng.random((8, 10)))

    def test_label_palette(self):
        label = np.array([[0, 1], [2, 8]])
        rgb = label_to_rgb8(label)
        assert rgb.shape == (2, 2, 3)
        # Distinct classes map to distinct colours.
        assert not np.array_equal(rgb[0, 0], rgb[0, 1])

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            label_to_rgb8(np.array([[99]]))


class TestPPMRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        rgb = (rng.random((6, 5, 3)) * 255).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        back = read_ppm(path)
        np.testing.assert_array_equal(back, rgb)

    def test_rejects_bad_dtype(self, tmp_path, rng):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", rng.random((4, 4, 3)))

    def test_read_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"JUNK")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_creates_parent_dirs(self, tmp_path, rng):
        path = tmp_path / "a" / "b" / "img.ppm"
        write_ppm(path, np.zeros((2, 2, 3), dtype=np.uint8))
        assert path.exists()


class TestComposites:
    def _pair(self):
        video = SyntheticVideo(VideoConfig(seed=1, height=16, width=24))
        return next(iter(video.frames(1)))

    def test_contact_sheet_grid(self):
        pairs = [self._pair() for _ in range(5)]
        sheet = contact_sheet(pairs, columns=3)
        # 2 rows x 3 cols of (frame stacked over label) cells.
        assert sheet.shape == (2 * 32, 3 * 24, 3)

    def test_contact_sheet_empty_rejected(self):
        with pytest.raises(ValueError):
            contact_sheet([])

    def test_export_stream_sample(self, tmp_path):
        video = SyntheticVideo(VideoConfig(seed=2, height=16, width=24))
        path = export_stream_sample(video, tmp_path / "sheet.ppm",
                                    num_frames=4, stride=3, columns=2)
        img = read_ppm(path)
        assert img.shape == (2 * 32, 2 * 24, 3)
