"""Shared test fixtures and independent oracles.

Nothing here may call into the implementation paths it is used to check:
the painter builds rasters directly, the flood fill is a dense BFS, the
moment oracle recomputes eccentricity from scratch, and the reference
scene renderer paints and blurs the whole frame.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from irgaze.detection import FaceObservation, MarkerTriple, PupilDetection, PupilPair
from irgaze.imaging import GrayImage
from irgaze.synth import FaceLayout, GroundTruth, HeadPose, RenderConfig, feature_model


def blank(width: int, height: int, level: int = 0) -> np.ndarray:
    return np.full((height, width), level, dtype=np.float64)


def paint_ellipse(canvas: np.ndarray, cx: float, cy: float,
                  ax: float, ay: float, level: int) -> None:
    """Paint a filled axis-aligned ellipse at Cartesian (cx, cy), y up."""
    h, w = canvas.shape
    row_lo = max(0, int((h - 1) - (cy + ay) - 1))
    row_hi = min(h - 1, int((h - 1) - (cy - ay) + 1))
    col_lo = max(0, int(cx - ax - 1))
    col_hi = min(w - 1, int(cx + ax + 1))
    for row in range(row_lo, row_hi + 1):
        y = (h - 1) - row
        for col in range(col_lo, col_hi + 1):
            if ((col - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 <= 1.0:
                canvas[row, col] = level


def paint_disk(canvas: np.ndarray, cx: float, cy: float, r: float, level: int) -> None:
    """Paint a disk at Cartesian (cx, cy), y up, in place."""
    paint_ellipse(canvas, cx, cy, r, r, level)


def as_image(canvas: np.ndarray) -> GrayImage:
    return GrayImage(np.clip(canvas, 0, 255).astype(np.uint8))


def flood_fill_components(mask: np.ndarray) -> list[frozenset[tuple[int, int]]]:
    """Dense BFS 8-connected labeling; returns pixel sets of (col, row)."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    out = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            group = set()
            queue = deque([(r0, c0)])
            seen[r0, c0] = True
            while queue:
                r, c = queue.popleft()
                group.add((c, r))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if (0 <= rr < h and 0 <= cc < w
                                and mask[rr, cc] and not seen[rr, cc]):
                            seen[rr, cc] = True
                            queue.append((rr, cc))
            out.append(frozenset(group))
    return out


def moment_eccentricity(mask: np.ndarray) -> float:
    """Brute-force eccentricity from raw pixel coordinates of a mask."""
    rows, cols = np.nonzero(mask)
    xs = cols.astype(float)
    ys = (mask.shape[0] - 1) - rows.astype(float)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    cov = np.array([
        [(dx * dx).mean(), (dx * dy).mean()],
        [(dx * dy).mean(), (dy * dy).mean()],
    ])
    eig = np.sort(np.linalg.eigvalsh(cov))
    if eig[1] <= 0:
        return 0.0
    return float(np.sqrt(max(0.0, 1.0 - eig[0] / eig[1])))


def synthetic_observation(
    pose: HeadPose,
    gaze_norm: tuple[float, float],
    layout: FaceLayout = FaceLayout(),
    frame_id: str = "",
) -> FaceObservation:
    """Exact (noise-free) observation straight from the geometric model."""
    f = feature_model(pose, gaze_norm, layout)
    return FaceObservation(
        markers=MarkerTriple(right=f.marker_right, middle=f.marker_middle,
                             left=f.marker_left),
        pupils=PupilPair(
            right=PupilDetection(point=f.pupil_right, area=80, eccentricity=0.05),
            left=PupilDetection(point=f.pupil_left, area=80, eccentricity=0.05),
        ),
        frame_id=frame_id,
        pair_consistent=True,
    )


def _reference_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge padding, horizontal pass first."""
    if sigma <= 0:
        return a
    r = int(math.ceil(3.0 * sigma))
    xs = np.arange(-r, r + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()

    out = np.zeros_like(a)
    padded = np.pad(a, ((0, 0), (r, r)), mode="edge")
    for i, k in enumerate(kernel):
        out += k * padded[:, i : i + a.shape[1]]
    a = out
    out = np.zeros_like(a)
    padded = np.pad(a, ((r, r), (0, 0)), mode="edge")
    for i, k in enumerate(kernel):
        out += k * padded[i : i + a.shape[0], :]
    return out


def reference_render(truth: GroundTruth, layout: FaceLayout, cfg: RenderConfig,
                     seed: int) -> GrayImage:
    """Full-frame scene painter: tests the face ellipse and every disk at
    every pixel and blurs the whole canvas.  ``render_scene`` must match
    it byte for byte.  Skips the feature-margin check."""
    cols = np.arange(cfg.width, dtype=np.float64)
    ys = (cfg.height - 1) - np.arange(cfg.height, dtype=np.float64)
    gx, gy = np.meshgrid(cols, ys)

    canvas = np.full((cfg.height, cfg.width), float(cfg.background))

    k = truth.pose.scale
    c, s = math.cos(truth.pose.theta), math.sin(truth.pose.theta)
    rx = (gx - truth.pose.tx) / k
    ry = (gy - truth.pose.ty) / k
    local_x = c * rx + s * ry
    local_y = -s * rx + c * ry
    ax, ay = layout.face_axes
    canvas[(local_x / ax) ** 2 + (local_y / ay) ** 2 <= 1.0] = float(cfg.face)

    def paint_disk(center, radius: float, level: int) -> None:
        mask = (gx - center.x) ** 2 + (gy - center.y) ** 2 <= radius * radius
        canvas[mask] = float(level)

    paint_disk(truth.features.pupil_right, layout.pupil_radius * k, cfg.pupil)
    paint_disk(truth.features.pupil_left, layout.pupil_radius * k, cfg.pupil)
    paint_disk(truth.features.marker_right, layout.marker_radius * k, cfg.marker)
    paint_disk(truth.features.marker_middle, layout.marker_radius * k, cfg.marker)
    paint_disk(truth.features.marker_left, layout.marker_radius * k, cfg.marker)

    canvas = _reference_blur(canvas, cfg.blur_sigma)

    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        canvas = canvas + rng.normal(0.0, cfg.noise_sigma, canvas.shape)

    return GrayImage(np.floor(np.clip(canvas, 0, 255) + 0.5).astype(np.uint8))
