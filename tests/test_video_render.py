"""Tests for the rasterizer: frame/label consistency and determinism."""

import numpy as np
import pytest

from repro.video.generator import SyntheticVideo, VideoConfig
from repro.video.render import render_background, render_scene
from repro.video.scene import Camera, CameraModel, Scene, SceneObject


def single_object_scene(class_id=3, center=(32.0, 48.0), radii=(10.0, 12.0)):
    obj = SceneObject(
        class_id=class_id,
        center=np.array(center),
        velocity=np.zeros(2),
        radii=radii,
        texture_phase=0.3,
        texture_freq=0.5,
        texture_drift=0.0,
        brightness=0.9,
    )
    cam = Camera(model=CameraModel.FIXED)
    return Scene([obj], cam, (64, 96), np.random.default_rng(0))


class TestRenderScene:
    def test_shapes_and_dtypes(self):
        frame, label = render_scene(single_object_scene(), 64, 96)
        assert frame.shape == (3, 64, 96)
        assert frame.dtype == np.float32
        assert label.shape == (64, 96)
        assert label.dtype == np.uint8

    def test_label_matches_object_footprint(self):
        scene = single_object_scene(class_id=3)
        _, label = render_scene(scene, 64, 96)
        assert label[32, 48] == 3  # center inside
        assert label[0, 0] == 0    # far corner is background
        ys, xs = np.nonzero(label == 3)
        # Footprint within the ellipse's bounding box.
        assert ys.min() >= 32 - 10 - 1 and ys.max() <= 32 + 10 + 1
        assert xs.min() >= 48 - 12 - 1 and xs.max() <= 48 + 12 + 1

    def test_later_objects_occlude_earlier(self):
        scene = single_object_scene(class_id=1)
        scene.objects.append(
            SceneObject(
                class_id=2,
                center=np.array([32.0, 48.0]),
                velocity=np.zeros(2),
                radii=(5.0, 5.0),
                texture_phase=0.0,
                texture_freq=0.4,
                texture_drift=0.0,
                brightness=0.8,
            )
        )
        _, label = render_scene(scene, 64, 96)
        assert label[32, 48] == 2  # the later (nearer) object wins

    def test_offscreen_object_invisible(self):
        scene = single_object_scene(center=(-500.0, -500.0))
        _, label = render_scene(scene, 64, 96)
        assert (label == 0).all()

    def test_rendering_is_pure(self):
        scene = single_object_scene()
        f1, l1 = render_scene(scene, 64, 96)
        f2, l2 = render_scene(scene, 64, 96)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(l1, l2)

    def test_camera_offset_shifts_object(self):
        scene = single_object_scene(center=(32.0, 48.0))
        scene.camera._offset = np.array([10.0, 0.0])
        _, label = render_scene(scene, 64, 96)
        assert label[22, 48] != 0  # moved up by the offset
        assert label[32 + 11, 48] == 0


class TestBackground:
    def test_scrolls_with_camera(self):
        a = render_background(32, 32, (0.0, 0.0), 0.0)
        b = render_background(32, 32, (5.0, 3.0), 0.0)
        assert not np.allclose(a, b)

    def test_phase_animates(self):
        a = render_background(32, 32, (0.0, 0.0), 0.0)
        b = render_background(32, 32, (0.0, 0.0), 1.0)
        assert not np.allclose(a, b)

    def test_reasonable_dynamic_range(self):
        bg = render_background(64, 96, (0.0, 0.0), 0.0)
        assert bg.min() > -0.5 and bg.max() < 1.5


class TestVideoDeterminism:
    def test_same_seed_same_frames(self):
        cfg = VideoConfig(seed=5, height=32, width=32, num_objects=2)
        a = SyntheticVideo(cfg)
        b = SyntheticVideo(cfg)
        for (fa, la), (fb, lb) in zip(a.frames(10), b.frames(10)):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(la, lb)

    def test_reset_rewinds(self):
        video = SyntheticVideo(VideoConfig(seed=2, height=32, width=32))
        first = [l.copy() for _, l in video.frames(5)]
        video.reset()
        again = [l.copy() for _, l in video.frames(5)]
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SyntheticVideo(VideoConfig(seed=1, height=32, width=32))
        b = SyntheticVideo(VideoConfig(seed=2, height=32, width=32))
        fa = next(iter(a.frames(1)))[0]
        fb = next(iter(b.frames(1)))[0]
        assert not np.allclose(fa, fb)

    def test_temporal_coherence(self):
        # Adjacent frames must be far more similar than distant frames —
        # the property ShadowTutor exploits.
        video = SyntheticVideo(VideoConfig(seed=3, height=32, width=32,
                                           num_objects=2, speed=0.5))
        frames = [f.copy() for f, _ in video.frames(40)]
        near = np.abs(frames[1] - frames[0]).mean()
        far = np.abs(frames[39] - frames[0]).mean()
        assert near < far

    def test_shot_cut_respawns_objects(self):
        video = SyntheticVideo(VideoConfig(seed=4, height=32, width=32,
                                           num_objects=3, shot_length=5))
        labels = [l.copy() for _, l in video.frames(12)]
        # A cut happens between frame 4 and 5: labels change sharply.
        diff_across_cut = (labels[5] != labels[4]).mean()
        diff_within_shot = (labels[3] != labels[2]).mean()
        assert diff_across_cut >= diff_within_shot
