"""Frame and label export for visual inspection (PPM, no dependencies).

PPM (portable pixmap) is the simplest image container there is —
header plus raw RGB bytes — so frames and colourised labels can be
dumped for eyeballing without any imaging library.  ``contact_sheet``
tiles a stream sample into one image, the quickest way to sanity-check
a new category spec.
"""

from __future__ import annotations

import pathlib
from typing import Sequence, Tuple, Union

import numpy as np

from repro.video.render import _CLASS_COLORS

PathLike = Union[str, pathlib.Path]


def frame_to_rgb8(frame: np.ndarray) -> np.ndarray:
    """Convert a ``(3, H, W)`` float frame to ``(H, W, 3)`` uint8."""
    if frame.ndim != 3 or frame.shape[0] != 3:
        raise ValueError("expected a (3, H, W) frame")
    clipped = np.clip(frame, 0.0, 1.0)
    return (clipped.transpose(1, 2, 0) * 255).astype(np.uint8)


def label_to_rgb8(label: np.ndarray) -> np.ndarray:
    """Colourise a ``(H, W)`` class map with the class palette."""
    if label.ndim != 2:
        raise ValueError("expected a (H, W) label")
    colors = (_CLASS_COLORS * 255).astype(np.uint8)
    if label.min() < 0 or label.max() >= len(colors):
        raise ValueError("label contains out-of-range class ids")
    return colors[label]


def write_ppm(path: PathLike, rgb: np.ndarray) -> None:
    """Write ``(H, W, 3)`` uint8 pixels as a binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected (H, W, 3) uint8 pixels")
    h, w, _ = rgb.shape
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def read_ppm(path: PathLike) -> np.ndarray:
    """Read a binary PPM written by :func:`write_ppm`."""
    data = pathlib.Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise ValueError("not a binary PPM (P6) file")
    # Header: magic, width, height, maxval, then raw pixels.
    parts = data.split(b"\n", 3)
    w, h = map(int, parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=h * w * 3)
    return pixels.reshape(h, w, 3).copy()


def contact_sheet(
    frames: Sequence[Tuple[np.ndarray, np.ndarray]],
    columns: int = 4,
) -> np.ndarray:
    """Tile ``(frame, label)`` pairs into a grid (frame over label)."""
    if not frames:
        raise ValueError("no frames given")
    cells = []
    for frame, label in frames:
        cells.append(
            np.concatenate([frame_to_rgb8(frame), label_to_rgb8(label)], axis=0)
        )
    h, w, _ = cells[0].shape
    rows = (len(cells) + columns - 1) // columns
    sheet = np.zeros((rows * h, columns * w, 3), dtype=np.uint8)
    for i, cell in enumerate(cells):
        r, c = divmod(i, columns)
        sheet[r * h : (r + 1) * h, c * w : (c + 1) * w] = cell
    return sheet


def export_stream_sample(
    video,
    path: PathLike,
    num_frames: int = 8,
    stride: int = 10,
    columns: int = 4,
) -> pathlib.Path:
    """Render every ``stride``-th frame of ``video`` into one PPM sheet."""
    video.reset()
    sampled = []
    for i, (frame, label) in enumerate(video.frames(num_frames * stride)):
        if i % stride == 0:
            sampled.append((frame.copy(), label.copy()))
        if len(sampled) == num_frames:
            break
    sheet = contact_sheet(sampled, columns=columns)
    path = pathlib.Path(path)
    write_ppm(path, sheet)
    return path
