"""Rasterizer: scene -> (frame, label) pairs.

Everything is vectorized over pixels: coordinate grids are built once
per resolution and reused; per-object work is a handful of array ops on
the grid.  Rendering a 64x96 frame takes well under a millisecond,
which keeps the 1000+-frame experiment runs tractable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.segmentation.classes import CLASS_MAP_DTYPE
from repro.video.scene import Scene

#: Base colour per class id (RGB in [0,1]); background handled separately.
_CLASS_COLORS = np.array(
    [
        [0.35, 0.45, 0.35],  # background (unused in object loop)
        [0.90, 0.30, 0.25],  # person
        [0.20, 0.45, 0.95],  # bicycle
        [0.85, 0.85, 0.90],  # automobile
        [0.95, 0.90, 0.15],  # bird
        [0.55, 0.25, 0.65],  # dog
        [0.45, 0.28, 0.10],  # horse
        [0.15, 0.80, 0.80],  # elephant
        [0.95, 0.55, 0.10],  # giraffe
    ],
    dtype=np.float32,
)


@lru_cache(maxsize=8)
def _grids(h: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    ys, xs = np.mgrid[0:h, 0:w]
    return ys.astype(np.float32), xs.astype(np.float32)


def render_background(
    h: int,
    w: int,
    offset: Tuple[float, float],
    phase: float,
    texture_scale: float = 0.18,
) -> np.ndarray:
    """Low-frequency textured background that scrolls with the camera."""
    ys, xs = _grids(h, w)
    oy, ox = offset
    yy = ys + oy
    xx = xs + ox
    base = (
        0.5
        + texture_scale * np.sin(0.11 * yy + 0.7 * phase)
        + texture_scale * np.cos(0.07 * xx - 0.5 * phase)
        + 0.5 * texture_scale * np.sin(0.023 * (yy + xx) + phase)
    )
    frame = np.empty((3, h, w), dtype=np.float32)
    frame[0] = base * 0.9
    frame[1] = base
    frame[2] = base * 0.8
    return frame


def render_scene(scene: Scene, h: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """Render the current scene state.

    Returns ``(frame, label)`` where ``frame`` is ``(3, H, W)`` float32 in
    roughly [0, 1] and ``label`` is ``(H, W)`` uint8 class indices (one byte
    per pixel, :data:`~repro.segmentation.classes.CLASS_MAP_DTYPE`).
    Objects are painted in list order, so later objects occlude earlier
    ones — mirroring real-scene depth ordering.
    """
    oy, ox = scene.camera.offset
    frame = render_background(h, w, (oy, ox), scene.background_phase)
    label = np.zeros((h, w), dtype=CLASS_MAP_DTYPE)
    ys, xs = _grids(h, w)

    for obj in scene.objects:
        cy = obj.center[0] - oy
        cx = obj.center[1] - ox
        ry, rx = obj.radii
        # Quick reject: object fully outside the frame.
        if cy + ry < 0 or cy - ry >= h or cx + rx < 0 or cx - rx >= w:
            continue
        dy = (ys - cy) / ry
        dx = (xs - cx) / rx
        mask = dy * dy + dx * dx <= 1.0
        if not mask.any():
            continue
        tex = obj.brightness * (
            0.8
            + 0.2 * np.sin(obj.texture_freq * ys[mask] + obj.texture_phase)
            * np.cos(obj.texture_freq * xs[mask] - obj.texture_phase)
        )
        color = _CLASS_COLORS[obj.class_id]
        for ch in range(3):
            frame[ch][mask] = color[ch] * tex
        label[mask] = obj.class_id

    return frame, label
